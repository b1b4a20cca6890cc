module Bu = Storage.Bytes_util
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Value = Objstore.Value

type vspec =
  | Vs_enum of string array  (* sorted encoded values *)
  | Vs_contig of string option * string option  (* encoded incl. bounds *)

(* a half-open byte-string interval *)
type cspec = { clo : string; chi : string }

type slot_test =
  | Any
  | Oid of int
  | Oids of int array
  | Pred of (Value.oid -> bool)

(* One query component, compiled: the code intervals of its pattern over
   a component's [code 0x01] bytes (sorted, disjoint), and its slot. *)
type ctest = { ivs : cspec array; slot : slot_test }

type t = {
  ty : Schema.attr_type;
  oid_width : int;  (* bytes after each component's terminator: 4, or 0 grouped *)
  vspec : vspec;
  cspecs : cspec array;
      (* the first component's intervals over the component zone (the
         bytes after the value separator), slots included: sorted by
         [clo], disjoint *)
  comps : ctest array;
  known : string array;  (* every serialized code, sorted *)
  pad : int;  (* room a target needs beyond twice its source's length *)
  (* scratch: the last skip target lives in [tgt.[0, tlen)];
     successor prefixes are built in [work] *)
  mutable tgt : Bytes.t;
  mutable tlen : int;
  mutable work : Bytes.t;
  (* the previous key classified, and what its checks found: bytes the
     next key shares with it need no second look *)
  mutable prev : Bytes.t;
  mutable prev_len : int;
  mutable prev_vend : int;  (* its value separator's offset, or -1 *)
  mutable prev_vok : int;  (* its value test: 1 passed, 0 failed, -1 not run *)
  mutable m_count : int;  (* its leading components that decoded *)
  mutable m_end : int array;  (* per component: offset past code and terminator *)
  mutable m_flags : int array;
      (* per component: bit 0 known code; bit 1 tested against the query
         component of the same position, bit 2 inside its intervals *)
}

(* --- compilation -------------------------------------------------------- *)

let encode_value v =
  match v with
  | Value.Int _ | Value.Str _ -> Value.encode v
  | Value.Null | Value.Ref _ | Value.Ref_set _ ->
      invalid_arg "Plan.compile: query value must be Int or Str"

let compile_vspec = function
  | Query.V_any -> Vs_contig (None, None)
  | Query.V_eq v -> Vs_enum [| encode_value v |]
  | Query.V_in vs ->
      Vs_enum
        (Array.of_list (List.sort_uniq String.compare (List.map encode_value vs)))
  | Query.V_range (lo, hi) ->
      Vs_contig (Option.map encode_value lo, Option.map encode_value hi)

let rec pat_intervals enc slot = function
  | Query.P_class c -> (
      let lo, hi = Encoding.exact_interval enc c in
      match slot with
      | Query.S_oid o ->
          let p = lo ^ Bu.encode_u32 o in
          [ { clo = p; chi = Ukey.succ_prefix p } ]
      | Query.S_one_of os ->
          List.map
            (fun o ->
              let p = lo ^ Bu.encode_u32 o in
              { clo = p; chi = Ukey.succ_prefix p })
            os
      | Query.S_any | Query.S_pred _ -> [ { clo = lo; chi = hi } ])
  | Query.P_subtree c ->
      let lo, hi = Encoding.subtree_interval enc c in
      [ { clo = lo; chi = hi } ]
  | Query.P_union ps -> List.concat_map (pat_intervals enc slot) ps

let normalize_cspecs cs =
  let rec merge = function
    | a :: b :: rest when String.compare b.clo a.chi <= 0 ->
        merge
          ({
             a with
             chi = (if String.compare a.chi b.chi >= 0 then a.chi else b.chi);
           }
          :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  match List.filter (fun c -> String.compare c.clo c.chi < 0) cs with
  | ([] | [ _ ]) as cs -> cs
  | cs -> merge (List.sort (fun a b -> String.compare a.clo b.clo) cs)

let compile_slot = function
  | Query.S_any -> Any
  | Query.S_oid o -> Oid o
  | Query.S_one_of os -> Oids (Array.of_list os)
  | Query.S_pred f -> Pred f

(* A class matches by its exact interval, a subtree by its contiguous
   code interval (the paper's core property), so testing a key's
   [code 0x01] bytes against the merged intervals is [Query.pat_matches]
   without the schema walk. *)
let compile_comp enc (c : Query.comp) =
  {
    ivs = Array.of_list (normalize_cspecs (pat_intervals enc Query.S_any c.pat));
    slot = compile_slot c.slot;
  }

let max_len f xs = List.fold_left (fun m x -> max m (String.length (f x))) 0 xs

let compile ?(grouped = false) ~enc ~ty (q : Query.t) =
  (* a grouped key holds no oid, so its plan tests no slot: the entry's
     reader applies it to the OID list *)
  let q =
    if not grouped then q
    else
      { q with comps = List.map (fun c -> { c with Query.slot = S_any }) q.comps }
  in
  (match ty with
  | Schema.Int | Schema.String -> ()
  | Schema.Ref _ | Schema.Ref_set _ ->
      invalid_arg "Plan.compile: indexed attribute must be Int or String");
  let comp0 =
    match q.comps with
    | c :: _ -> c
    | [] -> invalid_arg "Plan.compile: query has no components"
  in
  let vspec = compile_vspec q.value in
  let cspecs = normalize_cspecs (pat_intervals enc comp0.slot comp0.pat) in
  let values =
    match vspec with
    | Vs_enum vs -> Array.to_list vs
    | Vs_contig (lo, hi) -> List.filter_map Fun.id [ lo; hi ]
  in
  {
    ty;
    oid_width = (if grouped then 0 else 4);
    vspec;
    cspecs = Array.of_list cspecs;
    comps = Array.of_list (List.map (compile_comp enc) q.comps);
    known = Encoding.serialized_codes enc;
    pad = max 8 (max_len Fun.id values) + max_len (fun c -> c.clo) cspecs + 2;
    tgt = Bytes.empty;
    tlen = 0;
    work = Bytes.empty;
    prev = Bytes.empty;
    prev_len = 0;
    prev_vend = -1;
    prev_vok = -1;
    m_count = 0;
    m_end = [||];
    m_flags = [||];
  }

(* --- candidate navigation ------------------------------------------------ *)

(* Every candidate is computed in place: from a source key's bytes into
   the plan's [tgt] scratch, comparing with [Bu.compare_sub], so a skip
   target costs no allocation.  Results are lengths, [-1] for none. *)

let sep_char = '\x01'

let index_of b off len c =
  let i = ref off in
  while !i < len && Bytes.unsafe_get b !i <> c do
    incr i
  done;
  if !i < len then !i else -1

let reserve t n =
  if Bytes.length t.tgt < n then
    t.tgt <- Bytes.create (max n (2 * Bytes.length t.tgt))

(* The least value-group floor strictly above the one in [tgt.[0, vlen)],
   written over it.  For ints this is the value plus one; for text no
   encodable value lies strictly between [vb] and [vb ^ "\x08"] (text
   bytes are >= 0x08). *)
let value_above t vlen =
  match t.ty with
  | Schema.Int ->
      let x = Bu.get_int t.tgt 0 in
      if x = max_int then -1
      else begin
        Bu.put_int t.tgt 0 (x + 1);
        8
      end
  | Schema.String ->
      Bytes.set t.tgt vlen '\x08';
      vlen + 1
  | Schema.Ref _ | Schema.Ref_set _ -> assert false

(* Overwrites the value-group floor in [tgt.[0, vlen)] with the smallest
   admissible encoded value [>=] it ([>] it when [strict]).  Returns the
   value's length shifted left once, with bit 0 set when it is the floor
   itself; [-1] when none remains. *)
let next_value t ~strict vlen =
  match t.vspec with
  | Vs_enum vs ->
      let n = Array.length vs in
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let m = (!lo + !hi) lsr 1 in
        let c = Bu.compare_sub t.tgt 0 vlen (Array.unsafe_get vs m) in
        if c < 0 || (c = 0 && not strict) then hi := m else lo := m + 1
      done;
      if !lo = n then -1
      else begin
        let v = Array.unsafe_get vs !lo in
        let same = Bu.compare_sub t.tgt 0 vlen v = 0 in
        Bytes.blit_string v 0 t.tgt 0 (String.length v);
        (String.length v lsl 1) lor Bool.to_int same
      end
  | Vs_contig (lo, hi) -> (
      let vlen = ref (if strict then value_above t vlen else vlen) in
      let same = ref (not strict) in
      (match lo with
      | Some l when !vlen >= 0 && Bu.compare_sub t.tgt 0 !vlen l < 0 ->
          Bytes.blit_string l 0 t.tgt 0 (String.length l);
          vlen := String.length l;
          same := false
      | Some _ | None -> ());
      if !vlen < 0 then -1
      else
        match hi with
        | Some h when Bu.compare_sub t.tgt 0 !vlen h > 0 -> -1
        | Some _ | None -> (!vlen lsl 1) lor Bool.to_int !same)

(* Index of the first of the sorted disjoint intervals [ivs] whose upper
   bound lies above [b.[off, off + n)]; [Array.length ivs] for none. *)
let first_above ivs b off n =
  let lo = ref 0 and hi = ref (Array.length ivs) in
  while !lo < !hi do
    let m = (!lo + !hi) lsr 1 in
    if Bu.compare_sub b off n (Array.unsafe_get ivs m).chi >= 0 then lo := m + 1
    else hi := m
  done;
  !lo

(* The first interval of the first component that admits a component
   zone at or after [src.[roff, slen)]: its index when the position is
   its start, [-2] when the zone itself lies inside it, [-1] for none. *)
let next_in_group t src roff slen =
  let i = first_above t.cspecs src roff (slen - roff) in
  if i = Array.length t.cspecs then -1
  else if Bu.compare_sub src roff (slen - roff) t.cspecs.(i).clo <= 0 then i
  else -2

(* [where]: 0 = the source is a group start, 1 = inside the group of
   the value in [tgt.[0, vlen)] with component zone [src.[roff, slen)],
   2 = past that group *)
let rec candidate_from t src slen vlen where roff =
  let r = next_value t ~strict:(where = 2) vlen in
  if r < 0 then -1
  else begin
    let vlen = r lsr 1 in
    let pos =
      if where = 1 && r land 1 = 1 then next_in_group t src roff slen else 0
    in
    if pos = -1 then candidate_from t src slen vlen 2 roff
    else begin
      Bytes.set t.tgt vlen sep_char;
      let len =
        if pos = -2 then begin
          Bytes.blit src roff t.tgt (vlen + 1) (slen - roff);
          vlen + 1 + slen - roff
        end
        else begin
          let clo = (Array.unsafe_get t.cspecs pos).clo in
          Bytes.blit_string clo 0 t.tgt (vlen + 1) (String.length clo);
          vlen + 1 + String.length clo
        end
      in
      t.tlen <- len;
      len
    end
  end

(* Smallest admissible position [>=] [src.[0, slen)], into [tgt]: split
   the source at its value-group floor, then look for a value and a
   component interval from there. *)
let candidate_into t src slen =
  if Array.length t.cspecs = 0 then -1
  else begin
    reserve t ((2 * slen) + t.pad);
    let tgt = t.tgt in
    match t.ty with
    | Schema.Int ->
        if slen < 8 then begin
          Bytes.blit src 0 tgt 0 slen;
          Bytes.fill tgt slen (8 - slen) '\x00';
          candidate_from t src slen 8 0 0
        end
        else begin
          Bytes.blit src 0 tgt 0 8;
          if slen = 8 || Bytes.get src 8 < sep_char then
            candidate_from t src slen 8 0 0
          else if Bytes.get src 8 = sep_char then candidate_from t src slen 8 1 9
          else candidate_from t src slen 8 2 0
        end
    | Schema.String ->
        let i = index_of src 0 slen sep_char in
        if i >= 0 then begin
          Bytes.blit src 0 tgt 0 i;
          candidate_from t src slen i 1 (i + 1)
        end
        else begin
          Bytes.blit src 0 tgt 0 slen;
          candidate_from t src slen slen 0 0
        end
    | Schema.Ref _ | Schema.Ref_set _ -> assert false
  end

(* The candidate after every key that starts with [key.[0, plen)]: from
   the prefix's successor (trailing 0xff bytes dropped, the last byte
   incremented), built in [work]. *)
let candidate_past t key plen =
  if Bytes.length t.work < plen then
    t.work <- Bytes.create (max plen (2 * Bytes.length t.work));
  let w = t.work in
  Bytes.blit key 0 w 0 plen;
  let i = ref (plen - 1) in
  while !i >= 0 && Bytes.get w !i = '\xff' do
    decr i
  done;
  if !i < 0 then -1
  else begin
    Bytes.set w !i (Char.unsafe_chr (Char.code (Bytes.get w !i) + 1));
    candidate_into t w (!i + 1)
  end

let next_candidate t k =
  let n = candidate_into t (Bytes.unsafe_of_string k) (String.length k) in
  if n < 0 then None else Some (Bytes.sub_string t.tgt 0 n)

let lower t = next_candidate t ""

let last_chi t =
  let n = Array.length t.cspecs in
  if n = 0 then None else Some t.cspecs.(n - 1).chi

let upper t =
  match last_chi t with
  | None -> Some "" (* no admissible component zone: empty bracket *)
  | Some chi -> (
      match t.vspec with
      | Vs_enum [||] -> Some ""
      | Vs_enum vs -> Some (vs.(Array.length vs - 1) ^ "\x01" ^ chi)
      | Vs_contig (_, Some hi) -> Some (hi ^ "\x01" ^ chi)
      | Vs_contig (_, None) -> None)

let intervals t =
  match t.vspec with
  | Vs_contig _ -> None
  | Vs_enum vs ->
      Some
        (List.concat_map
           (fun v ->
             Array.to_list
               (Array.map
                  (fun c -> (v ^ "\x01" ^ c.clo, v ^ "\x01" ^ c.chi))
                  t.cspecs))
           (Array.to_list vs))

(* --- classification ------------------------------------------------------ *)

(* Entries whose key bytes fail to decode are rejected-with-advance so a
   scan survives them, but silence would mask corruption (a truncated Int
   key, an unknown class code): count every swallowed reject where
   stats/EXPLAIN can see it. *)
let m_undecodable =
  Obs.Metrics.counter ~subsystem:"exec"
    ~help:"index entries whose keys failed to decode during classify"
    "undecodable_entries"

let undecodable_entries () =
  Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default "exec.undecodable_entries")

(* A verdict is packed into an immediate int: the accepted arity (0 for a
   rejection) shifted left twice, over the move — 0 advance, 1 seek to
   the target in [tgt], 2 stop. *)
let arity r = r lsr 2

let move r =
  match r land 3 with 0 -> `Advance | 1 -> `Seek | _ -> `Stop

let seek_or_stop n = if n < 0 then 2 else 1

let target t = t.tgt
let target_length t = t.tlen

(* index of the value separator: [-1] when the value is truncated, is no
   int's image or is not followed by one *)
let value_end ty key len =
  match ty with
  | Schema.Int ->
      if len > 8 && Bytes.get key 8 = sep_char && Bu.int_fits key 0 then 8 else -1
  | Schema.String -> index_of key 0 len sep_char
  | Schema.Ref _ | Schema.Ref_set _ -> assert false

(* [key.[off, off + n)] is one of the sorted strings of [a] *)
let mem_sorted a key off n =
  let lo = ref 0 and hi = ref (Array.length a) and hit = ref false in
  while (not !hit) && !lo < !hi do
    let m = (!lo + !hi) lsr 1 in
    let c = Bu.compare_sub key off n (Array.unsafe_get a m) in
    if c = 0 then hit := true else if c < 0 then hi := m else lo := m + 1
  done;
  !hit

let value_ok t key vend =
  match t.vspec with
  | Vs_enum vs -> mem_sorted vs key 0 vend
  | Vs_contig (lo, hi) ->
      (match lo with Some l -> Bu.compare_sub key 0 vend l >= 0 | None -> true)
      && match hi with Some h -> Bu.compare_sub key 0 vend h <= 0 | None -> true

(* [key.[off, off + n)] lies in one of the sorted disjoint intervals *)
let in_intervals ivs key off n =
  let i = first_above ivs key off n in
  i < Array.length ivs && Bu.compare_sub key off n ivs.(i).clo >= 0

let slot_ok slot key at =
  match slot with
  | Any -> true
  | Oid o -> Bu.get_u32 key at = o
  | Oids os -> Array.mem (Bu.get_u32 key at) os
  | Pred f -> f (Bu.get_u32 key at)

let reserve_memo t j =
  if j >= Array.length t.m_end then begin
    let grow a =
      let a' = Array.make (max 4 (2 * (j + 1))) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.m_end <- grow t.m_end;
    t.m_flags <- grow t.m_flags
  end

(* Remember [key] as the previous key, with its value and component
   findings (already stored in [m_end]/[m_flags]). *)
let remember t key len vend vok count =
  if Bytes.length t.prev < len then t.prev <- Bytes.create (max len (2 * Bytes.length t.prev));
  Bytes.blit key 0 t.prev 0 len;
  t.prev_len <- len;
  t.prev_vend <- vend;
  t.prev_vok <- vok;
  t.m_count <- count

(* One pass over the key's components.  Every one must decode — be
   terminated, carry a known code and a whole oid (a grouped key has
   none) — for any verdict but
   an undecodable entry's reject-and-advance; the query's components are
   tested in order until one fails or all have matched.

   Keys in a scan come in runs that share a value and leading codes, so
   the findings of the previous key are reused for every leading value
   or code (with its terminator) that lies inside the prefix the two
   keys share: each such test depends on those bytes alone.  Oid bytes
   are always read afresh. *)
let classify_in_place t ~skip key len =
  let same =
    Bu.match_len key 0 (Bytes.unsafe_to_string t.prev) 0
      (if len < t.prev_len then len else t.prev_len)
  in
  let vend =
    if t.prev_vend >= 0 && t.prev_vend < same then t.prev_vend
    else value_end t.ty key len
  in
  let vok = if vend >= 0 && vend = t.prev_vend && vend < same then t.prev_vok else -1 in
  let ncomp = Array.length t.comps and w = t.oid_width in
  let ok = ref (vend >= 0) and pos = ref (vend + 1) and seen = ref 0 in
  let matched = ref 0 and match_end = ref 0 in
  (* 0: no failure; 1: the first component's class; 2: a later class or
     any slot, skipping the key prefix up to [fail_end] *)
  let fail = ref 0 and fail_end = ref 0 in
  (* the components so far were all found in the shared prefix *)
  let reuse = ref (vend >= 0 && vend < same) in
  while !ok && !pos < len do
    let p = !pos and j = !seen in
    reserve_memo t j;
    if !reuse && j < t.m_count && Array.unsafe_get t.m_end j <= same then ()
    else begin
      reuse := false;
      let code_end = index_of key p len sep_char in
      if code_end < 0 then ok := false
      else begin
        t.m_end.(j) <- code_end + 1;
        t.m_flags.(j) <- Bool.to_int (mem_sorted t.known key p (code_end - p))
      end
    end;
    let oid_at = Array.unsafe_get t.m_end j in
    if (not !ok) || t.m_flags.(j) land 1 = 0 || oid_at + w > len then ok := false
    else begin
      (if !fail = 0 && !matched < ncomp then begin
         (* no failure yet, so [matched = j] *)
         let c = Array.unsafe_get t.comps j in
         if t.m_flags.(j) land 2 = 0 then
           t.m_flags.(j) <-
             t.m_flags.(j) lor 2
             lor (4 * Bool.to_int (in_intervals c.ivs key p (oid_at - p)));
         if t.m_flags.(j) land 4 = 0 then begin
           fail := if j = 0 then 1 else 2;
           fail_end := oid_at
         end
         else if not (slot_ok c.slot key oid_at) then begin
           fail := 2;
           fail_end := oid_at + w
         end
         else begin
           incr matched;
           match_end := oid_at + w
         end
       end);
      incr seen;
      pos := oid_at + w
    end
  done;
  if (not !ok) || !seen = 0 then begin
    remember t key len vend vok !seen;
    Obs.Metrics.incr m_undecodable;
    0
  end
  else begin
    let vok = if vok >= 0 then vok else Bool.to_int (value_ok t key vend) in
    remember t key len vend vok !seen;
    if vok = 0 || !fail = 1 then
      if skip then seek_or_stop (candidate_into t key len) else 0
    else if !fail = 2 then
      if skip then seek_or_stop (candidate_past t key !fail_end) else 0
    else if !matched < ncomp then 0 (* fewer components than the query *)
    else if !seen = ncomp || not skip then ncomp lsl 2
    else
      (* a partial-path query (paper's query 4) matched a proper prefix of
         the entry: skip the rest of this prefix group so each binding is
         produced once *)
      (ncomp lsl 2) lor seek_or_stop (candidate_past t key !match_end)
  end

let prefix_length t n = t.m_end.(n - 1) + t.oid_width

type next = Seek of string | Advance | Stop

type verdict = Accept of { arity : int; next : next } | Reject of next

let classify t key =
  let r = classify_in_place t ~skip:true (Bytes.unsafe_of_string key) (String.length key) in
  let next =
    match move r with
    | `Advance -> Advance
    | `Seek -> Seek (Bytes.sub_string t.tgt 0 t.tlen)
    | `Stop -> Stop
  in
  if arity r = 0 then Reject next else Accept { arity = arity r; next }
