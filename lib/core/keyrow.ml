module Bu = Storage.Bytes_util
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding

(* --- class names by code ------------------------------------------------ *)

(* One code set's class names, JSON-quoted, in the order of the sorted
   serialized codes they belong to.  [Encoding.serialized_codes] hands
   out the same array until a class is added, so the array itself is the
   table's key: a stale table is one whose [codes] is no longer the
   encoding's. *)
type names = { codes : string array; quoted : string array }

let build enc codes =
  let schema = Encoding.schema enc in
  let quote ser =
    match Encoding.class_of_serialized enc ser with
    | Some cls ->
        let name = Schema.name schema cls in
        let b = Buffer.create (String.length name + 2) in
        Obs.Json.add_quoted b name 0 (String.length name);
        Buffer.contents b
    | None -> invalid_arg "Keyrow: serialized code without a class"
  in
  { codes; quoted = Array.map quote codes }

(* the tables of the last few code sets, newest first; a lost race only
   builds a table twice *)
let tables : names list Atomic.t = Atomic.make []
let max_tables = 8

let names enc =
  let codes = Encoding.serialized_codes enc in
  let live = Atomic.get tables in
  match List.find_opt (fun n -> n.codes == codes) live with
  | Some n -> n
  | None ->
      let n = build enc codes in
      Atomic.set tables (n :: List.filteri (fun i _ -> i < max_tables - 1) live);
      n

(* the rank of [key.[off, off + len)] among the sorted codes, [-1] if it
   is none of them *)
let search codes key off len =
  let lo = ref 0 and hi = ref (Array.length codes) and hit = ref (-1) in
  while !hit < 0 && !lo < !hi do
    let m = (!lo + !hi) lsr 1 in
    let c = Bu.compare_sub key off len (Array.unsafe_get codes m) in
    if c = 0 then hit := m else if c < 0 then hi := m else lo := m + 1
  done;
  !hit

(* --- the renderer --------------------------------------------------------- *)

type t = {
  enc : Encoding.t;
  ty : Schema.attr_type;
  mutable names : names;
  (* per component position, the rank of the code the last row had
     there: a run of rows under one path prefix looks each code up once *)
  ranks : int array;
  (* the row being written is [out.[0, pos)] *)
  mutable out : Bytes.t;
  mutable pos : int;
  (* the value bytes of the last row and the row prefix they print as,
     ["{\"value\":V,\"comps\":["], written in [scratch] *)
  mutable value : Bytes.t;
  mutable value_len : int;
  mutable prefix : string;
  scratch : Buffer.t;
}

let create ~enc ~ty =
  (match ty with
  | Schema.Int | Schema.String -> ()
  | Schema.Ref _ | Schema.Ref_set _ ->
      invalid_arg "Keyrow.create: indexed attribute must be Int or String");
  {
    enc;
    ty;
    names = names enc;
    ranks = Array.make 8 (-1);
    out = Bytes.create 128;
    pos = 0;
    value = Bytes.create 16;
    value_len = -1;
    prefix = "";
    scratch = Buffer.create 64;
  }

(* Writers into [out]: each row component first reserves its largest
   size, then writes unchecked. *)
let reserve t n =
  if t.pos + n > Bytes.length t.out then begin
    let b = Bytes.create (2 * (t.pos + n)) in
    Bytes.blit t.out 0 b 0 t.pos;
    t.out <- b
  end

let put_char t c =
  Bytes.unsafe_set t.out t.pos c;
  t.pos <- t.pos + 1

let put_string t s =
  Bytes.unsafe_blit_string s 0 t.out t.pos (String.length s);
  t.pos <- t.pos + String.length s

(* an oid in [0, 2^32), as [string_of_int] prints it: at most 10
   digits *)
let put_oid t n =
  let digits = ref 1 and m = ref (n / 10) in
  while !m > 0 do
    incr digits;
    m := !m / 10
  done;
  let stop = t.pos + !digits in
  let m = ref n in
  for i = stop - 1 downto t.pos do
    Bytes.unsafe_set t.out i (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  t.pos <- stop

let index_of key off len c =
  let i = ref off in
  while !i < len && Bytes.unsafe_get key !i <> c do
    incr i
  done;
  if !i < len then !i else -1

(* index of the separator after the value, [-1] where [Ukey.decode]
   rejects the value *)
let value_end t key len =
  match t.ty with
  | Schema.Int ->
      if len > 8 && Bytes.get key 8 = '\x01' && Bu.int_fits key 0 then 8 else -1
  | Schema.String -> index_of key 0 len '\x01'
  | Schema.Ref _ | Schema.Ref_set _ -> -1

(* Starts the row with the prefix of the value in [key.[0, vend)]: the
   last row's when the value bytes are the same, so a value group's
   prefix is printed once, through the printer [Obs.Json] uses for
   [Int] and [Str]. *)
let start_row t key vend =
  if not
       (vend = t.value_len
       && Bu.match_len key 0 (Bytes.unsafe_to_string t.value) 0 vend = vend)
  then begin
    let b = t.scratch in
    Buffer.clear b;
    Buffer.add_string b {|{"value":|};
    (match t.ty with
    | Schema.Int -> Buffer.add_string b (string_of_int (Bu.get_int key 0))
    | _ -> Obs.Json.add_quoted b (Bytes.unsafe_to_string key) 0 vend);
    Buffer.add_string b {|,"comps":[|};
    t.prefix <- Buffer.contents b;
    if Bytes.length t.value < vend then t.value <- Bytes.create (2 * vend);
    Bytes.blit key 0 t.value 0 vend;
    t.value_len <- vend
  end;
  t.pos <- 0;
  reserve t (String.length t.prefix);
  put_string t t.prefix

(* the rank of the code [key.[off, off + len)] at component position
   [j]; a code the table lacks sends it to the encoding for a table that
   has it, [-1] when none does *)
let rec rank t j key off len =
  let codes = t.names.codes and memo = j < Array.length t.ranks in
  let last = if memo then Array.unsafe_get t.ranks j else -1 in
  if last >= 0 && Bu.compare_sub key off len (Array.unsafe_get codes last) = 0
  then last
  else
    let r = search codes key off len in
    if r >= 0 then begin
      if memo then Array.unsafe_set t.ranks j r;
      r
    end
    else
      let n = names t.enc in
      if n == t.names then -1
      else begin
        t.names <- n;
        Array.fill t.ranks 0 (Array.length t.ranks) (-1);
        rank t j key off len
      end

(* A key the renderer cannot print is one [Ukey.decode] rejects: raise
   its exception, so the reply is the one the decoding path gave. *)
let reject t key len arity =
  ignore
    (Ukey.decode ~arity ~enc:t.enc ~ty:t.ty (Bytes.sub_string key 0 len));
  invalid_arg "Keyrow.render: a key Ukey.decode accepts"

let render t key len ~arity =
  let vend = value_end t key len in
  if vend < 0 then reject t key len arity;
  start_row t key vend;
  let pos = ref (vend + 1) and k = ref 0 in
  while !pos < len && !k < arity do
    let p = !pos in
    let code_end = index_of key p len '\x01' in
    if code_end < 0 then reject t key len arity;
    let r = rank t !k key p (code_end - p) in
    if r < 0 then reject t key len arity;
    let oid_at = code_end + 1 in
    if oid_at + 4 > len then reject t key len arity;
    let name = Array.unsafe_get t.names.quoted r in
    reserve t (String.length name + 14);
    if !k > 0 then put_char t ',';
    put_char t '[';
    put_string t name;
    put_char t ',';
    put_oid t (Bu.get_u32 key oid_at);
    put_char t ']';
    pos := oid_at + 4;
    incr k
  done;
  if !k = 0 then reject t key len arity;
  reserve t 2;
  put_char t ']';
  put_char t '}';
  Bytes.sub_string t.out 0 t.pos
