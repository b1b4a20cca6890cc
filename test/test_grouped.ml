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

let test_agrees_with_single () =
  (* grouped and single-value layouts answer identically on random data *)
  let d =
    Dg.exp2
      { (Dg.default_exp2 ~n_classes:10 ~distinct_keys:30) with
        n_objects = 3_000; seed = 44 }
  in
  let g =
    Grouped.create (Storage.Pager.create ()) d.enc ~root:d.root ~attr:"k"
  in
  Array.iter
    (fun (k, cls, oid) -> Grouped.insert g ~value:(Value.Int k) ~cls oid)
    d.entries;
  Btree.check (Grouped.tree g);
  let rng = Rng.create 9 in
  for _ = 1 to 45 do
    let k = 1 + Rng.int rng 10 in
    let sets = Qg.pick_sets rng Qg.Random ~classes:d.classes ~k in
    let lo = Rng.int rng 30 in
    let hi = min 29 (lo + Rng.int rng 6) in
    let value =
      match Rng.int rng 3 with
      | 0 -> Query.V_eq (Value.Int lo)
      | 1 ->
          Query.V_range (Some (Value.Int (min lo hi)), Some (Value.Int (max lo hi)))
      | _ ->
          (* 2-4 distinct values: several disjoint key intervals in one
             query *)
          Query.V_in
            (List.init (2 + Rng.int rng 3) (fun i -> Value.Int ((lo + (7 * i)) mod 30)))
    in
    let q = Query.class_hierarchy ~value (Qg.union_of_classes sets) in
    let single =
      (Exec.parallel d.uindex q).Exec.bindings
      |> List.map (fun b -> List.hd b.Exec.comps)
      |> sorted
    in
    let grouped = sorted (fst (Grouped.query g q)) in
    Alcotest.(check (list (pair int int))) "same results" single grouped
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
          Alcotest.test_case "storage trade-off" `Quick test_storage_tradeoff;
        ] );
    ]
