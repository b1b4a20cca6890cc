module Bu = Storage.Bytes_util
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding

(* --- class names by code rank ---------------------------------------- *)

(* One code set's class names, JSON-quoted, in the order of the sorted
   serialized codes they belong to, so a component's name is the entry
   at its code's rank.  [Encoding.serialized_codes] hands out the same
   array until a class is added, and a plan keeps the one it was
   compiled with, so the array itself is the table's key. *)
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

let names enc codes =
  let live = Atomic.get tables in
  match List.find_opt (fun n -> n.codes == codes) live with
  | Some n -> n.quoted
  | None ->
      let n = build enc codes in
      Atomic.set tables (n :: List.filteri (fun i _ -> i < max_tables - 1) live);
      n.quoted

(* --- the renderer --------------------------------------------------------- *)

type t = {
  plan : Plan.t;
  quoted : string array;  (* the names of the plan's codes, by rank *)
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

let create ~enc plan =
  {
    plan;
    quoted = names enc (Plan.known plan);
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
    (match Plan.attr_ty t.plan with
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

let render t key ~arity =
  let p = t.plan in
  start_row t key (Plan.value_end p);
  for j = 0 to arity - 1 do
    let name = t.quoted.(Plan.comp_rank p j) in
    reserve t (String.length name + 14);
    if j > 0 then put_char t ',';
    put_char t '[';
    put_string t name;
    put_char t ',';
    put_oid t (Bu.get_u32 key (Plan.comp_end p j));
    put_char t ']'
  done;
  reserve t 2;
  put_char t ']';
  put_char t '}';
  Bytes.sub_string t.out 0 t.pos
