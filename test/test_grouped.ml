(* Tests for the grouped (OID-list) entry layout of Section 3.2.1, and its
   agreement with the single-value layout. *)

module Ps = Workload.Paper_schema
module Dg = Workload.Datagen
module Qg = Workload.Querygen
module Value = Objstore.Value
module Query = Uindex.Query
module Index = Uindex.Index
module Exec = Uindex.Exec
module Grouped = Uindex.Grouped
module Rng = Workload.Rng
module Schema = Oodb_schema.Schema

let sorted = List.sort compare

let test_example1 () =
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let g =
    Grouped.create (Storage.Pager.create ()) b.enc ~root:b.vehicle ~attr:"color"
  in
  Grouped.build g ex.store;
  Btree.check (Grouped.tree g);
  Alcotest.(check int) "six entries" 6 (Grouped.entry_count g);
  let run q = sorted (fst (Grouped.query g q)) in
  Alcotest.(check (list (pair int int)))
    "red vehicles"
    (sorted [ (b.automobile, ex.v3); (b.compact, ex.v4) ])
    (run (Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.vehicle)));
  Alcotest.(check (list (pair int int)))
    "white compacts only"
    [ (b.compact, ex.v6) ]
    (run (Query.class_hierarchy ~value:(V_eq (Str "White")) (P_class b.compact)));
  (* slot restriction filters the OID list *)
  Alcotest.(check (list (pair int int)))
    "slot filter"
    [ (b.automobile, ex.v3) ]
    (run
       (Query.class_hierarchy ~value:(V_eq (Str "Red"))
          (Query.P_subtree b.vehicle)
       |> fun q ->
       {
         q with
         Query.comps = [ Query.comp ~slot:(S_oid ex.v3) (P_subtree b.vehicle) ];
       }));
  (* maintenance *)
  Grouped.remove g ~value:(Value.Str "Red") ~cls:b.automobile ex.v3;
  Alcotest.(check (list (pair int int)))
    "after remove"
    [ (b.compact, ex.v4) ]
    (run (Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.vehicle)));
  Grouped.insert g ~value:(Value.Str "Red") ~cls:b.automobile ex.v3;
  Alcotest.(check int) "back to six" 6 (Grouped.entry_count g)

let grouped_of (d : Dg.exp2) ?(page_size = d.cfg.page_size) () =
  let g =
    Grouped.create (Storage.Pager.create ~page_size ()) d.enc ~root:d.root
      ~attr:"k"
  in
  Array.iter
    (fun (k, cls, oid) -> Grouped.insert g ~value:(Value.Int k) ~cls oid)
    d.entries;
  Btree.check (Grouped.tree g);
  g

let single_results d q =
  (Exec.parallel d.Dg.uindex q).Exec.bindings
  |> List.map (fun b -> List.hd b.Exec.comps)
  |> sorted

let test_agrees_with_single () =
  (* grouped and single-value layouts answer identically on random data,
     slot-restricted components included: a grouped plan tests no slot,
     the grouped row filters the OID list *)
  let d =
    Dg.exp2
      { (Dg.default_exp2 ~n_classes:10 ~distinct_keys:30) with
        n_objects = 3_000; seed = 44 }
  in
  let g = grouped_of d () in
  let rng = Rng.create 9 in
  let n = Array.length d.entries in
  for _ = 1 to 120 do
    (* anchor the query on a stored entry, so slots can select it *)
    let lo, cls0, oid0 = d.entries.(Rng.int rng n) in
    let hi = min 29 (lo + Rng.int rng 6) in
    let value =
      match Rng.int rng 3 with
      | 0 -> Query.V_eq (Value.Int lo)
      | 1 -> Query.V_range (Some (Value.Int lo), Some (Value.Int hi))
      | _ ->
          (* 2-4 distinct values: several disjoint key intervals in one
             query *)
          Query.V_in
            (List.init (2 + Rng.int rng 3) (fun i -> Value.Int ((lo + (7 * i)) mod 30)))
    in
    let pat =
      if Rng.int rng 4 = 0 then Query.P_subtree cls0
      else
        let k = 1 + Rng.int rng 10 in
        Qg.union_of_classes
          (List.sort_uniq compare
             (cls0 :: Qg.pick_sets rng Qg.Random ~classes:d.classes ~k))
    in
    let other () = let _, _, o = d.entries.(Rng.int rng n) in o in
    let slot =
      match Rng.int rng 4 with
      | 0 -> Query.S_any
      | 1 -> Query.S_oid oid0
      | 2 -> Query.S_one_of [ oid0; other (); other (); 1_000_000 ]
      | _ -> Query.S_pred (fun o -> o mod 3 = oid0 mod 3)
    in
    let q = { Query.value; comps = [ Query.comp ~slot pat ] } in
    Alcotest.(check (list (pair int int)))
      "same results" (single_results d q)
      (sorted (fst (Grouped.query g q)))
  done

let test_truncated_key () =
  (* a grouped key cut short inside its class code is skipped by the walk
     and counted, as an undecodable single-value key is *)
  let d =
    Dg.exp2
      { (Dg.default_exp2 ~n_classes:10 ~distinct_keys:30) with
        n_objects = 3_000; seed = 44 }
  in
  let g = grouped_of d () in
  let k, cls, oid = d.entries.(0) in
  let code = Oodb_schema.Code.serialize (Oodb_schema.Encoding.code d.enc cls) in
  Btree.insert (Grouped.tree g)
    ~key:(Value.encode (Value.Int k) ^ "\x01" ^ code)
    ~value:(Storage.Bytes_util.encode_u32 oid);
  let q =
    Query.class_hierarchy ~value:(V_eq (Value.Int k)) (P_subtree d.root)
  in
  let before = Uindex.Plan.undecodable_entries () in
  let got = sorted (fst (Grouped.query g q)) in
  Alcotest.(check int) "counted once" 1
    (Uindex.Plan.undecodable_entries () - before);
  Alcotest.(check (list (pair int int))) "skipped" (single_results d q) got

(* The pages a walk reads, each with whether it is a leaf: a per-query
   page cache that records what it fetches. *)
let recording tree =
  let pages = Hashtbl.create 64 in
  let cache = Btree.cached_read tree in
  let read id =
    let b = Storage.Pager.Cache.read cache id in
    Hashtbl.replace pages id (Btree.Node.is_leaf_page b);
    b
  in
  (Btree.Scanner.create tree ~read, pages)

(* The grouped layout's walk before it ran through [Exec.scan], kept as a
   page-read reference: seek to each of the plan's intervals and scan to
   its end, or scan a value range's whole bracket. *)
let reference_pages tree plan =
  let ivs =
    match (Uindex.Plan.intervals plan, Uindex.Plan.lower plan) with
    | Some ivs, _ -> List.map (fun (lo, hi) -> (lo, Some hi)) ivs
    | None, Some lo -> [ (lo, Uindex.Plan.upper plan) ]
    | None, None -> []
  in
  let sc, pages = recording tree in
  List.iter
    (fun (lo, hi) ->
      let rec walk = function
        | Some (e : Btree.entry)
          when match hi with Some h -> String.compare e.key h < 0 | None -> true
          ->
            walk (Btree.Scanner.next sc)
        | Some _ | None -> ()
      in
      walk (Btree.Scanner.seek sc lo))
    ivs;
  pages

(* the walk [Grouped.query] runs, on a recording reader *)
let walk_pages tree plan =
  let sc, pages = recording tree in
  ignore (Exec.scan ~skip:true tree sc plan (fun _ _ acc -> acc));
  pages

let test_page_read_oracle () =
  (* small pages make a three-level tree, so walks cross internal nodes *)
  let d =
    Dg.exp2
      { (Dg.default_exp2 ~n_classes:40 ~distinct_keys:300) with
        n_objects = 12_000; seed = 5 }
  in
  let g = grouped_of d ~page_size:256 () in
  let tree = Grouped.tree g in
  if Btree.height tree < 3 then
    Alcotest.failf "tree height %d, want >= 3" (Btree.height tree);
  let rng = Rng.create 31 in
  for i = 1 to 200 do
    let sets =
      Qg.pick_sets rng
        (if i mod 2 = 0 then Qg.Near else Qg.Random)
        ~classes:d.classes ~k:(1 + Rng.int rng 20)
    in
    let lo = Rng.int rng 300 in
    let value =
      match Rng.int rng 3 with
      | 0 -> Query.V_eq (Value.Int lo)
      | 1 ->
          Query.V_in
            (List.init (2 + Rng.int rng 4) (fun j ->
                 Value.Int ((lo + (41 * j)) mod 300)))
      | _ ->
          Query.V_range
            (Some (Value.Int lo), Some (Value.Int (min 299 (lo + Rng.int rng 30))))
    in
    let q = Query.class_hierarchy ~value (Qg.union_of_classes sets) in
    let plan = Uindex.Plan.compile ~grouped:true ~enc:d.enc ~ty:Schema.Int q in
    let got = snd (Grouped.query g q) in
    let mine = walk_pages tree plan and ref_ = reference_pages tree plan in
    if got <> Hashtbl.length mine then
      Alcotest.failf "query %d: %d page reads, its recorded walk %d" i got
        (Hashtbl.length mine);
    match value with
    | V_range _ ->
        (* Algorithm 1's seeks may read internal pages the bracket's leaf
           chain passes under, but never a leaf outside that chain *)
        Hashtbl.iter
          (fun id leaf ->
            if leaf && not (Hashtbl.mem ref_ id) then
              Alcotest.failf "range query %d: leaf %d is outside the bracket"
                i id)
          mine
    | _ ->
        if got > Hashtbl.length ref_ then
          Alcotest.failf "enumerable query %d: %d page reads, the interval walk %d"
            i got (Hashtbl.length ref_)
  done

let test_storage_tradeoff () =
  (* grouped entries store fewer pages with few distinct keys (dense OID
     lists); that is the paper's motivation for mentioning both layouts *)
  let d =
    Dg.exp2
      { (Dg.default_exp2 ~n_classes:10 ~distinct_keys:20) with
        n_objects = 8_000; seed = 3 }
  in
  let g =
    Grouped.create (Storage.Pager.create ()) d.enc ~root:d.root ~attr:"k"
  in
  Array.iter
    (fun (k, cls, oid) -> Grouped.insert g ~value:(Value.Int k) ~cls oid)
    d.entries;
  let single_pages =
    Storage.Pager.page_count (Btree.pager (Index.tree d.uindex))
  in
  let grouped_pages = Storage.Pager.page_count (Btree.pager (Grouped.tree g)) in
  if grouped_pages >= single_pages then
    Alcotest.failf "grouped (%d pages) should beat single-value (%d) at 20 keys"
      grouped_pages single_pages

let () =
  Alcotest.run "grouped"
    [
      ( "grouped-entries",
        [
          Alcotest.test_case "example 1" `Quick test_example1;
          Alcotest.test_case "agrees with single-value" `Quick
            test_agrees_with_single;
          Alcotest.test_case "truncated key counted" `Quick test_truncated_key;
          Alcotest.test_case "page reads against the interval walk" `Quick
            test_page_read_oracle;
          Alcotest.test_case "storage trade-off" `Quick test_storage_tradeoff;
        ] );
    ]
