(* Tests for query compilation: candidate navigation (the partial-key
   machinery of Algorithm 1), brackets, and classification verdicts. *)

module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Value = Objstore.Value
module Query = Uindex.Query
module Plan = Uindex.Plan
module Ukey = Uindex.Ukey
module Ps = Workload.Paper_schema

let setup () =
  let b = Ps.base () in
  let code c = Encoding.code b.enc c in
  (b, code)

let compile b q = Plan.compile ~enc:b.Ps.enc ~ty:Schema.Int q

let compile_str b q = Plan.compile ~enc:b.Ps.enc ~ty:Schema.String q

let test_lower_upper () =
  let b, code = setup () in
  let plan =
    compile b (Query.class_hierarchy ~value:(V_eq (Int 50)) (P_subtree b.vehicle))
  in
  let lo = Option.get (Plan.lower plan) in
  let hi = Option.get (Plan.upper plan) in
  (* entries with value 50 and vehicle classes lie inside; others outside *)
  let k50 = Ukey.entry_key ~value:(Value.Int 50) [ (code b.compact, 3) ] in
  let k49 = Ukey.entry_key ~value:(Value.Int 49) [ (code b.compact, 3) ] in
  let k_emp = Ukey.entry_key ~value:(Value.Int 50) [ (code b.employee, 3) ] in
  Alcotest.(check bool) "inside" true (lo <= k50 && k50 < hi);
  Alcotest.(check bool) "other value outside" true (k49 < lo);
  Alcotest.(check bool) "other class outside" true (k_emp < lo)

let test_empty_plans () =
  let b, _ = setup () in
  let empty_range =
    compile b
      (Query.class_hierarchy
         ~value:(V_range (Some (Int 9), Some (Int 3)))
         (P_subtree b.vehicle))
  in
  Alcotest.(check bool) "inverted range has no bracket" true
    (Plan.lower empty_range = None);
  let empty_in =
    compile b (Query.class_hierarchy ~value:(V_in []) (P_subtree b.vehicle))
  in
  Alcotest.(check bool) "empty V_in" true (Plan.lower empty_in = None)

let test_next_candidate_jumps_value () =
  let b, code = setup () in
  let plan =
    compile b
      (Query.class_hierarchy ~value:(V_in [ Int 10; Int 20 ]) (P_subtree b.vehicle))
  in
  (* from a position in the 10-group at the very end of the vehicle
     subtree interval, the next candidate must be the 20-group's start *)
  ignore code;
  let _, subtree_hi = Encoding.subtree_interval b.enc b.vehicle in
  let past = Value.encode (Value.Int 10) ^ "\x01" ^ subtree_hi in
  let c = Option.get (Plan.next_candidate plan past) in
  let v20 = Ukey.entry_key ~value:(Value.Int 20) [ (code b.vehicle, 0) ] in
  Alcotest.(check bool) "candidate <= first 20-entry" true (c <= v20);
  Alcotest.(check bool) "candidate above old position" true (past < c);
  (* past the last value: no candidate *)
  let beyond = Ukey.entry_key ~value:(Value.Int 21) [ (code b.vehicle, 0) ] in
  Alcotest.(check bool) "exhausted" true (Plan.next_candidate plan beyond = None)

let test_next_candidate_within_group () =
  let b, code = setup () in
  let plan =
    compile b
      (Query.class_hierarchy ~value:(V_eq (Int 5))
         (P_union [ P_class b.vehicle; P_class b.truck ]))
  in
  (* from an automobile entry (between vehicle and truck in code order),
     the candidate jumps to the truck interval *)
  let auto = Ukey.entry_key ~value:(Value.Int 5) [ (code b.automobile, 1) ] in
  let c = Option.get (Plan.next_candidate plan auto) in
  let truck0 = Ukey.entry_key ~value:(Value.Int 5) [ (code b.truck, 0) ] in
  Alcotest.(check bool) "jumps over automobile subtree" true (auto < c && c <= truck0)

let test_candidate_admissible_stays () =
  let b, code = setup () in
  let plan =
    compile b (Query.class_hierarchy ~value:(V_eq (Int 5)) (P_subtree b.vehicle))
  in
  let k = Ukey.entry_key ~value:(Value.Int 5) [ (code b.compact, 77) ] in
  Alcotest.(check (option string)) "admissible key is its own candidate" (Some k)
    (Plan.next_candidate plan k)

let test_contig_range_candidates () =
  let b, code = setup () in
  let plan =
    compile b
      (Query.class_hierarchy
         ~value:(V_range (Some (Int 10), Some (Int 12)))
         (P_subtree b.truck))
  in
  (* below the range: first candidate is at value 10 *)
  let low = Ukey.entry_key ~value:(Value.Int 3) [ (code b.truck, 1) ] in
  let c = Option.get (Plan.next_candidate plan low) in
  let t10 = Ukey.entry_key ~value:(Value.Int 10) [ (code b.truck, 0) ] in
  Alcotest.(check bool) "clamped to range start" true (c <= t10 && low < c);
  (* inside, past the truck subtree of value 11: bumps to value 12 *)
  let _, truck_hi = Encoding.subtree_interval b.enc b.truck in
  let past11 = Value.encode (Value.Int 11) ^ "\x01" ^ truck_hi in
  let c = Option.get (Plan.next_candidate plan past11) in
  let t12 = Ukey.entry_key ~value:(Value.Int 12) [ (code b.truck, 0) ] in
  Alcotest.(check bool) "bumps to 12" true (past11 < c && c <= t12);
  (* past the range end: exhausted *)
  let past12 = Value.encode (Value.Int 12) ^ "\x01" ^ truck_hi in
  Alcotest.(check bool) "exhausted past hi" true
    (Plan.next_candidate plan past12 = None)

let test_classify_verdicts () =
  let b, code = setup () in
  let plan =
    compile b
      (Query.path ~value:(V_eq (Int 50))
         [
           Query.comp (P_subtree b.employee);
           Query.comp ~slot:(S_oid 11) (P_subtree b.company);
           Query.comp (P_subtree b.vehicle);
         ])
  in
  let key eo co vo =
    Ukey.entry_key ~value:(Value.Int 50)
      [ (code b.employee, eo); (code b.auto_company, co); (code b.compact, vo) ]
  in
  (match Plan.classify plan (key 1 11 3) with
  | Plan.Accept { arity; _ } -> Alcotest.(check int) "full arity" 3 arity
  | Plan.Reject _ -> Alcotest.fail "expected accept");
  (* wrong slot: skipped forward *)
  (match Plan.classify plan (key 1 12 3) with
  | Plan.Reject (Plan.Seek k) ->
      Alcotest.(check bool) "skip beyond this company run" true (k > key 1 12 0xFFFFFF)
  | _ -> Alcotest.fail "expected reject-with-seek");
  (* wrong value: rejected *)
  let k49 =
    Ukey.entry_key ~value:(Value.Int 49)
      [ (code b.employee, 1); (code b.auto_company, 11); (code b.compact, 3) ]
  in
  (match Plan.classify plan k49 with
  | Plan.Reject (Plan.Seek k) -> Alcotest.(check bool) "seek to 50 group" true (k > k49)
  | _ -> Alcotest.fail "expected reject");
  (* arity mismatch: plain advance *)
  let short = Ukey.entry_key ~value:(Value.Int 50) [ (code b.employee, 1) ] in
  match Plan.classify plan short with
  | Plan.Reject Plan.Advance -> ()
  | _ -> Alcotest.fail "expected advance on arity mismatch"

let test_classify_partial_path () =
  let b, code = setup () in
  let plan =
    compile b
      (Query.path ~value:(V_eq (Int 50))
         [ Query.comp (P_subtree b.employee); Query.comp (P_subtree b.company) ])
  in
  let key =
    Ukey.entry_key ~value:(Value.Int 50)
      [ (code b.employee, 1); (code b.company, 2); (code b.vehicle, 3) ]
  in
  match Plan.classify plan key with
  | Plan.Accept { arity; next = Plan.Seek k } ->
      Alcotest.(check int) "prefix arity" 2 arity;
      Alcotest.(check bool) "skip past shared prefix" true (k > key);
      let d = Ukey.decode ~arity ~enc:b.enc ~ty:Schema.Int key in
      Alcotest.(check (list (pair int int)))
        "binding is the matched prefix"
        [ (b.employee, 1); (b.company, 2) ]
        d.Ukey.comps;
      Alcotest.(check int) "the key itself has 3 components" 3
        (List.length (Ukey.decode ~enc:b.enc ~ty:Schema.Int key).Ukey.comps)
  | _ -> Alcotest.fail "expected prefix accept with skip"

(* an entry whose key bytes cannot be decoded (e.g. a truncated Int
   payload from a corrupt page) must not abort the scan: classify counts
   it in exec.undecodable_entries and advances past it *)
let test_classify_undecodable () =
  let b, code = setup () in
  let plan =
    compile b (Query.class_hierarchy ~value:Query.V_any (P_subtree b.vehicle))
  in
  let good = Ukey.entry_key ~value:(Value.Int 50) [ (code b.compact, 1) ] in
  let truncated = String.sub good 0 4 in
  let before = Plan.undecodable_entries () in
  (match Plan.classify plan truncated with
  | Plan.Reject Plan.Advance -> ()
  | _ -> Alcotest.fail "expected plain advance on undecodable key");
  Alcotest.(check int) "counter bumped" (before + 1)
    (Plan.undecodable_entries ());
  (* well-formed keys leave it alone *)
  (match Plan.classify plan good with
  | Plan.Accept _ -> ()
  | Plan.Reject _ -> Alcotest.fail "good key should classify");
  Alcotest.(check int) "counter stable on good keys" (before + 1)
    (Plan.undecodable_entries ())

let test_string_values () =
  let b, code = setup () in
  let plan =
    compile_str b
      (Query.class_hierarchy
         ~value:(V_range (Some (Str "Blue"), Some (Str "Red")))
         (P_subtree b.vehicle))
  in
  let kgreen = Ukey.entry_key ~value:(Value.Str "Green") [ (code b.compact, 1) ] in
  (match Plan.classify plan kgreen with
  | Plan.Accept _ -> ()
  | Plan.Reject _ -> Alcotest.fail "Green should be in Blue..Red");
  let kwhite = Ukey.entry_key ~value:(Value.Str "White") [ (code b.compact, 1) ] in
  (match Plan.classify plan kwhite with
  | Plan.Reject _ -> ()
  | Plan.Accept _ -> Alcotest.fail "White is outside Blue..Red");
  (* candidate from a value that exhausted its group: the next candidate
     is above it (text successor floor) *)
  let past = Ukey.succ_prefix kgreen in
  let c = Plan.next_candidate plan past in
  Alcotest.(check bool) "progresses" true
    (match c with Some c -> c > kgreen | None -> false)

let test_rejects_bad_queries () =
  let b, _ = setup () in
  Alcotest.check_raises "no components"
    (Invalid_argument "Plan.compile: query has no components") (fun () ->
      ignore (compile b { Query.value = V_any; comps = [] }));
  Alcotest.check_raises "ref value"
    (Invalid_argument "Plan.compile: query value must be Int or Str") (fun () ->
      ignore
        (compile b
           (Query.class_hierarchy ~value:(V_eq (Value.Ref 3)) (P_subtree b.vehicle))))

(* --- the decode-first classifier, kept as the oracle ---------------------- *)

(* The classifier before compare-in-place: decode the whole key, test the
   decoded record with [Query]'s matchers, and build skip targets with
   string operations.  It shares nothing with [Plan] but the query, so the
   property below checks the compiled byte-level tests, the in-place skip
   targets and [Plan.next_candidate] against it. *)
module Oracle = struct
  module Bu = Storage.Bytes_util

  type vspec = Vs_enum of string list | Vs_contig of string option * string option
  type cspec = { clo : string; chi : string }

  type t = {
    enc : Encoding.t;
    ty : Schema.attr_type;
    q : Query.t;
    vspec : vspec;
    cspecs : cspec list;
  }

  let compile_vspec = function
    | Query.V_any -> Vs_contig (None, None)
    | Query.V_eq v -> Vs_enum [ Value.encode v ]
    | Query.V_in vs -> Vs_enum (List.sort_uniq String.compare (List.map Value.encode vs))
    | Query.V_range (lo, hi) ->
        Vs_contig (Option.map Value.encode lo, Option.map Value.encode hi)

  let rec pat_intervals enc slot = function
    | Query.P_class c -> (
        let lo, hi = Encoding.exact_interval enc c in
        let oid o =
          let p = lo ^ Bu.encode_u32 o in
          { clo = p; chi = Ukey.succ_prefix p }
        in
        match slot with
        | Query.S_oid o -> [ oid o ]
        | Query.S_one_of os -> List.map oid os
        | Query.S_any | Query.S_pred _ -> [ { clo = lo; chi = hi } ])
    | Query.P_subtree c ->
        let lo, hi = Encoding.subtree_interval enc c in
        [ { clo = lo; chi = hi } ]
    | Query.P_union ps -> List.concat_map (pat_intervals enc slot) ps

  let normalize cs =
    let cs =
      List.filter (fun c -> c.clo < c.chi) cs
      |> List.sort (fun a b -> String.compare a.clo b.clo)
    in
    let rec merge = function
      | a :: b :: rest when b.clo <= a.chi ->
          merge ({ a with chi = max a.chi b.chi } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    merge cs

  let compile ~enc ~ty (q : Query.t) =
    let c0 = List.hd q.comps in
    {
      enc;
      ty;
      q;
      vspec = compile_vspec q.value;
      cspecs = normalize (pat_intervals enc c0.slot c0.pat);
    }

  type where = Group_start | Group_inside of string | Group_past

  let split_floor t k =
    match t.ty with
    | Schema.Int ->
        if String.length k < 8 then
          (k ^ String.make (8 - String.length k) '\x00', Group_start)
        else
          let vb = String.sub k 0 8 in
          if String.length k = 8 || k.[8] < '\x01' then (vb, Group_start)
          else if k.[8] = '\x01' then
            (vb, Group_inside (String.sub k 9 (String.length k - 9)))
          else (vb, Group_past)
    | _ -> (
        match String.index_opt k '\x01' with
        | Some i ->
            ( String.sub k 0 i,
              Group_inside (String.sub k (i + 1) (String.length k - i - 1)) )
        | None -> (k, Group_start))

  let value_above t vb =
    match t.ty with
    | Schema.Int ->
        let x = Bu.decode_int vb 0 in
        if x = max_int then None else Some (Bu.encode_int (x + 1))
    | _ -> Some (vb ^ "\x08")

  let next_value t ~strict floor =
    match t.vspec with
    | Vs_enum vs ->
        List.find_opt
          (fun v ->
            let c = String.compare v floor in
            if strict then c > 0 else c >= 0)
          vs
    | Vs_contig (lo, hi) -> (
        match if strict then value_above t floor else Some floor with
        | None -> None
        | Some floor -> (
            let v = match lo with Some l when floor < l -> l | _ -> floor in
            match hi with Some h when v > h -> None | _ -> Some v))

  let next_in_group t r =
    match t.cspecs with
    | [] -> None
    | first :: _ -> (
        match r with
        | None -> Some first.clo
        | Some r ->
            List.find_map
              (fun c ->
                if r <= c.clo then Some c.clo
                else if r < c.chi then Some r
                else None)
              t.cspecs)

  let rec candidate_from t vb where =
    match next_value t ~strict:(where = Group_past) vb with
    | None -> None
    | Some v -> (
        let rem =
          match where with
          | Group_inside r when v = vb -> Some r
          | _ -> None
        in
        match next_in_group t rem with
        | Some pos -> Some (v ^ "\x01" ^ pos)
        | None -> candidate_from t v Group_past)

  (* The one addition to the old code is the guard: with no admissible
     interval the old loop tried every value group in turn, which for an
     open [Int] range is 2^62 of them. *)
  let next_candidate t k =
    if t.cspecs = [] then None
    else
      let vb, where = split_floor t k in
      candidate_from t vb where

  let seek_or_stop = function Some k -> Plan.Seek k | None -> Plan.Stop

  let skip_from t prefix =
    match Ukey.succ_prefix prefix with
    | s -> seek_or_stop (next_candidate t s)
    | exception Invalid_argument _ -> Plan.Stop

  (* the verdict, with the decoded record of an accepted key *)
  let classify t key =
    match Ukey.decode ~enc:t.enc ~ty:t.ty key with
    | exception Invalid_argument _ -> (Plan.Reject Plan.Advance, None)
    | d ->
        if not (Query.value_matches t.q.value d.value) then
          (Plan.Reject (seek_or_stop (next_candidate t key)), None)
        else
          let schema = Encoding.schema t.enc in
          let rec check i qcomps dcomps offs =
            match (qcomps, dcomps, offs) with
            | [], [], [] -> (Plan.Accept { arity = i; next = Plan.Advance }, Some d)
            | [], _ :: _, _ :: _ ->
                let _, _, last_end = List.nth d.Ukey.comp_offsets (i - 1) in
                ( Plan.Accept
                    { arity = i; next = skip_from t (String.sub key 0 last_end) },
                  Some d )
            | (qc : Query.comp) :: qrest, (cls, oid) :: drest, (_, oid_start, cend) :: orest ->
                if not (Query.pat_matches schema qc.pat cls) then
                  if i = 0 then (Plan.Reject (seek_or_stop (next_candidate t key)), None)
                  else (Plan.Reject (skip_from t (String.sub key 0 oid_start)), None)
                else if not (Query.slot_matches qc.slot oid) then
                  (Plan.Reject (skip_from t (String.sub key 0 cend)), None)
                else check (i + 1) qrest drest orest
            | _ -> (Plan.Reject Plan.Advance, None)
          in
          check 0 t.q.comps d.comps d.comp_offsets
end

(* --- differential: compiled classifier = decode-first oracle ------------- *)

let gen_case =
  let open QCheck.Gen in
  let e = Ps.extended () in
  let b = e.b in
  let classes = Array.of_list (Schema.all_classes b.schema) in
  let cls = oneofa classes in
  let int_ty = Schema.Int and str_ty = Schema.String in
  let value ty =
    if ty = int_ty then map (fun x -> Value.Int x) (int_range (-2) 12)
    else map (fun c -> Value.Str c) (oneofa (Array.append Ps.colors [| "A"; "Redder"; "Z" |]))
  in
  let value_pred ty =
    frequency
      [
        (1, return Query.V_any);
        (3, map (fun v -> Query.V_eq v) (value ty));
        (3, map (fun vs -> Query.V_in vs) (list_size (int_range 2 4) (value ty)));
        ( 3,
          map2
            (fun lo hi -> Query.V_range (lo, hi))
            (opt (value ty)) (opt (value ty)) );
      ]
  in
  let rec pat n =
    frequency
      ([
         (3, map (fun c -> Query.P_class c) cls);
         (3, map (fun c -> Query.P_subtree c) cls);
         ( 1,
           map
             (fun c ->
               match Schema.children b.schema c with
               | [] -> Query.P_subtree c
               | ch :: _ -> Query.subtree_minus b.schema c ~except:[ ch ])
             cls );
       ]
      @ if n > 0 then [ (2, map (fun ps -> Query.P_union ps) (list_size (int_range 0 3) (pat (n - 1)))) ] else [])
  in
  let oid = frequency [ (8, int_range 0 5); (1, return 0xFFFFFFFF); (1, int_bound 0xFFFFFF) ] in
  let slot =
    frequency
      [
        (4, return Query.S_any);
        (2, map (fun o -> Query.S_oid o) oid);
        (2, map (fun os -> Query.S_one_of os) (list_size (int_range 0 3) oid));
        (1, return (Query.S_pred (fun o -> o mod 2 = 0)));
      ]
  in
  let comp = map2 (fun p s -> Query.comp ~slot:s p) (pat 2) slot in
  (* keys lean towards the query: its values, classes its patterns match
     and oids its slots name, so every verdict kind is common *)
  let near_value ty (vp : Query.value_pred) =
    let named =
      match vp with
      | Query.V_any -> []
      | Query.V_eq v -> [ v ]
      | Query.V_in vs -> vs
      | Query.V_range (lo, hi) -> List.filter_map Fun.id [ lo; hi ]
    in
    if named = [] then value ty
    else frequency [ (2, oneofl named); (1, value ty) ]
  in
  let near_comp (qc : Query.comp) =
    let matching =
      List.filter (Query.pat_matches b.schema qc.pat) (Array.to_list classes)
    in
    let named =
      match qc.slot with
      | Query.S_oid o -> [ o ]
      | Query.S_one_of os -> os
      | Query.S_any | Query.S_pred _ -> []
    in
    pair
      (if matching = [] then cls else frequency [ (4, oneofl matching); (1, cls) ])
      (if named = [] then oid else frequency [ (2, oneofl named); (1, oid) ])
  in
  let key ty (q : Query.t) =
    map3
      (fun v comps extra ->
        let comps =
          match (extra, List.rev comps) with
          (* fewer components than the query asks for *)
          | None, _ :: (_ :: _ as rest) -> List.rev rest
          | None, _ -> comps
          | Some extra, _ -> comps @ extra
        in
        Value.encode v ^ "\x01"
        ^ String.concat ""
            (List.map (fun (c, o) -> Ukey.component (Encoding.code b.enc c) o) comps))
      (near_value ty q.value)
      (flatten_l (List.map near_comp q.comps))
      (frequency
         [ (1, return None); (8, map Option.some (list_size (int_range 0 2) (pair cls oid))) ])
  in
  let malform ty k =
    let n = String.length k in
    frequency
      [
        (30, return k);
        (* truncated anywhere: a short Int value, an unterminated code, a
           truncated oid *)
        (2, map (fun i -> String.sub k 0 i) (int_bound (n - 1)));
        (* the value separator missing *)
        ( 1,
          return
            (if ty = int_ty then String.sub k 0 8 ^ "\x02" ^ String.sub k 9 (n - 9)
             else String.concat "" (String.split_on_char '\x01' (String.sub k 0 (min n 6)))
                  ^ String.sub k (min n 6) (n - min n 6)) );
        (* an unknown class code, alone or after a good component *)
        (1, map (fun o -> k ^ "Zq\x02\x01" ^ Storage.Bytes_util.encode_u32 o) oid);
        (1, return (k ^ "A\x02\x01\x00\x00\x00\x01"));
        (* an unterminated trailing code *)
        (1, return (k ^ "B\x02"));
        (* an Int image no int has *)
        (1, return (if ty = int_ty then "\xe0" ^ String.sub k 1 (n - 1) else k));
        (* one byte flipped *)
        ( 1,
          map2
            (fun i c ->
              let kb = Bytes.of_string k in
              Bytes.set kb i c;
              Bytes.to_string kb)
            (int_bound (n - 1)) (map Char.chr (int_bound 255)) );
      ]
  in
  (* a few keys per query, classified in turn by one plan, half the time
     in key order as a scan meets them: runs that share a value and
     leading codes exercise the classifier's reuse of the previous key's
     findings *)
  let case ty =
    map2 (fun vp comps -> { Query.value = vp; comps }) (value_pred ty)
      (list_size (int_range 1 3) comp)
    >>= fun q ->
    map2
      (fun sorted ks -> (ty, q, if sorted then List.sort String.compare ks else ks))
      bool
      (list_size (int_range 1 6) (key ty q >>= malform ty))
  in
  (b, oneof [ case int_ty; case str_ty ])

let print_case (_, (q : Query.t), ks) =
  Printf.sprintf "%d comps, keys %s" (List.length q.comps)
    (String.concat " " (List.map (Printf.sprintf "%S") ks))

let show v =
  let next = function
    | Plan.Seek k -> Printf.sprintf "seek %S" k
    | Plan.Advance -> "advance"
    | Plan.Stop -> "stop"
  in
  match v with
  | Plan.Accept { arity; next = n } -> Printf.sprintf "accept %d, %s" arity (next n)
  | Plan.Reject n -> "reject, " ^ next n

let prop_compiled_classifier =
  let b, gen = gen_case in
  let enc = b.Ps.enc in
  QCheck.Test.make ~count:5000 ~name:"compiled classifier = decode-first oracle"
    (QCheck.make ~print:print_case gen)
    (fun (ty, q, keys) ->
      let plan = Plan.compile ~enc ~ty q in
      let oracle = Oracle.compile ~enc ~ty q in
      let same key =
        let u0 = Plan.undecodable_entries () in
        let got = Plan.classify plan key in
        let u1 = Plan.undecodable_entries () in
        let want, decoded = Oracle.classify oracle key in
        let want_undecodable =
          match Ukey.decode ~enc ~ty key with
          | exception Invalid_argument _ -> 1
          | _ -> 0
        in
        (* an accepted key's findings, which every row function reads,
           are where the decoder found the value and components *)
        let binding_ok =
          match (got, decoded) with
          | Plan.Accept { arity; _ }, Some d ->
              let first l = List.filteri (fun i _ -> i < arity) l in
              Plan.value_end plan
              = (match d.Ukey.value with Value.Str s -> String.length s | _ -> 8)
              && List.init arity (Plan.comp_class plan) = List.map fst (first d.Ukey.comps)
              && List.init arity (Plan.comp_end plan)
                 = List.map (fun (_, oid_at, _) -> oid_at) (first d.Ukey.comp_offsets)
          | _ -> true
        in
        if got <> want then
          QCheck.Test.fail_reportf "key %S: got %s, want %s" key (show got)
            (show want);
        u1 - u0 = want_undecodable
        && binding_ok
        && Plan.next_candidate plan key = Oracle.next_candidate oracle key
      in
      Plan.lower plan = Oracle.next_candidate oracle "" && List.for_all same keys)

let () =
  Alcotest.run "plan"
    [
      ( "navigation",
        [
          Alcotest.test_case "bracket bounds" `Quick test_lower_upper;
          Alcotest.test_case "empty plans" `Quick test_empty_plans;
          Alcotest.test_case "value jumps" `Quick test_next_candidate_jumps_value;
          Alcotest.test_case "class interval jumps" `Quick
            test_next_candidate_within_group;
          Alcotest.test_case "admissible fixpoint" `Quick
            test_candidate_admissible_stays;
          Alcotest.test_case "contiguous ranges" `Quick test_contig_range_candidates;
        ] );
      ( "classification",
        [
          Alcotest.test_case "verdicts" `Quick test_classify_verdicts;
          Alcotest.test_case "partial path" `Quick test_classify_partial_path;
          Alcotest.test_case "undecodable entries counted" `Quick
            test_classify_undecodable;
          Alcotest.test_case "string values" `Quick test_string_values;
          Alcotest.test_case "bad queries" `Quick test_rejects_bad_queries;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_compiled_classifier ]);
    ]
