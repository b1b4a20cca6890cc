(* End-to-end tests of the U-index on the paper's Example 1 database and
   the Section 3.3 queries, plus maintenance and algorithm-agreement
   checks. *)

module Ps = Workload.Paper_schema
module Dg = Workload.Datagen
module Value = Objstore.Value
module Store = Objstore.Store
module Query = Uindex.Query
module Index = Uindex.Index
module Exec = Uindex.Exec
module Db = Uindex.Db

let sorted = List.sort compare

let check_oids what expected outcome =
  Alcotest.(check (list int)) what (sorted expected) (Exec.head_oids outcome)

let make_ch () =
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let pager = Storage.Pager.create () in
  let idx =
    Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
  in
  Index.build idx ex.store;
  (b, ex, idx)

let make_path () =
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let pager = Storage.Pager.create () in
  let idx =
    Index.create_path pager b.enc ~head:b.vehicle
      ~refs:[ "manufactured_by"; "president" ]
      ~attr:"age"
  in
  Index.build idx ex.store;
  (b, ex, idx)

(* --- class-hierarchy queries (Section 3.3) ------------------------------- *)

let test_ch_all_red () =
  let b, ex, idx = make_ch () in
  (* query 1: all vehicles (of all types) with red color *)
  let q =
    Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.vehicle)
  in
  check_oids "red vehicles" [ ex.v3; ex.v4 ] (Exec.parallel idx q)

let test_ch_exact_class () =
  let b, ex, idx = make_ch () in
  (* query 2: automobiles (the class only) with red color *)
  let q = Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_class b.automobile) in
  check_oids "red automobiles exactly" [ ex.v3 ] (Exec.parallel idx q);
  (* query 3: automobiles and their subclasses with red color *)
  let q =
    Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.automobile)
  in
  check_oids "red automobile subtree" [ ex.v3; ex.v4 ] (Exec.parallel idx q)

let test_ch_excluding_subclass () =
  let b, ex, idx = make_ch () in
  (* query 4: vehicles that are not compact automobiles, in white *)
  let q =
    Query.class_hierarchy ~value:(V_eq (Str "White"))
      (P_union [ P_class b.vehicle; P_class b.automobile; P_class b.truck ])
  in
  check_oids "white non-compacts" [ ex.v1; ex.v2 ] (Exec.parallel idx q)

let test_ch_union_subtrees () =
  let b, ex, idx = make_ch () in
  (* query 5: automobiles or trucks (with their subclasses) in white *)
  let q =
    Query.class_hierarchy ~value:(V_eq (Str "White"))
      (P_union [ P_subtree b.automobile; P_subtree b.truck ])
  in
  check_oids "white autos+trucks" [ ex.v2; ex.v6 ] (Exec.parallel idx q)

let test_ch_range () =
  let b, ex, idx = make_ch () in
  (* range over the value dimension: colors Blue..Red *)
  let q =
    Query.class_hierarchy
      ~value:(V_range (Some (Str "Blue"), Some (Str "Red")))
      (P_subtree b.compact)
  in
  check_oids "compact blue..red" [ ex.v4; ex.v5 ] (Exec.parallel idx q)

let test_ch_value_enum () =
  let b, ex, idx = make_ch () in
  let q =
    Query.class_hierarchy
      ~value:(V_in [ Str "Blue"; Str "White" ])
      (P_subtree b.vehicle)
  in
  check_oids "blue or white vehicles" [ ex.v1; ex.v2; ex.v5; ex.v6 ]
    (Exec.parallel idx q)

(* --- path queries --------------------------------------------------------- *)

let default_path_query b ~value =
  Query.path ~value
    [
      Query.comp (P_subtree b.Ps.employee);
      Query.comp (P_subtree b.Ps.company);
      Query.comp (P_subtree b.Ps.vehicle);
    ]

let test_path_age50 () =
  let b, ex, idx = make_path () in
  (* vehicles manufactured by a company whose president's age is 50:
     Fiat (e1, age 50) makes v2, v3, v6 *)
  let q = default_path_query b ~value:(V_eq (Int 50)) in
  check_oids "age-50 vehicles" [ ex.v2; ex.v3; ex.v6 ] (Exec.parallel idx q)

let test_path_specific_company () =
  let b, ex, idx = make_path () in
  let q =
    Query.path ~value:(V_eq (Int 50))
      [
        Query.comp (P_subtree b.employee);
        Query.comp ~slot:(S_oid ex.c2) (P_subtree b.company);
        Query.comp (P_subtree b.vehicle);
      ]
  in
  check_oids "age-50 vehicles of Fiat" [ ex.v2; ex.v3; ex.v6 ]
    (Exec.parallel idx q);
  let q =
    Query.path ~value:(V_eq (Int 50))
      [
        Query.comp (P_subtree b.employee);
        Query.comp ~slot:(S_oid ex.c1) (P_subtree b.company);
        Query.comp (P_subtree b.vehicle);
      ]
  in
  check_oids "age-50 vehicles of Subaru (none)" [] (Exec.parallel idx q)

let test_path_select_restriction () =
  let b, ex, idx = make_path () in
  (* paper's query 3: companies restricted by a prior select *)
  let big = [ ex.c2; ex.c3 ] in
  let q =
    Query.path ~value:(V_range (Some (Int 50), None))
      [
        Query.comp (P_subtree b.employee);
        Query.comp ~slot:(S_pred (fun o -> List.mem o big)) (P_subtree b.company);
        Query.comp (P_subtree b.vehicle);
      ]
  in
  check_oids "restricted companies, age >= 50"
    [ ex.v2; ex.v3; ex.v4; ex.v6 ]
    (Exec.parallel idx q)

let test_partial_path () =
  let b, ex, idx = make_path () in
  (* paper's query 4: all companies whose president's age is 50, answered
     from the vehicle path index *)
  let q =
    Query.path ~value:(V_eq (Int 50))
      [ Query.comp (P_subtree b.employee); Query.comp (P_subtree b.company) ]
  in
  let o = Exec.parallel idx q in
  check_oids "companies with age-50 president" [ ex.c2 ] o;
  Alcotest.(check int) "one binding only" 1 (List.length o.bindings)

let test_combined () =
  let b, ex, idx = make_path () in
  (* combined class/path query: vehicles made by Japanese auto companies —
     not answerable by a pure class-hierarchy or path index (Section 3.1) *)
  let q =
    Query.path ~value:V_any
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.japanese_auto_company);
        Query.comp (P_subtree b.vehicle);
      ]
  in
  check_oids "vehicles of japanese companies" [ ex.v1; ex.v5 ]
    (Exec.parallel idx q);
  (* ... restricted to compacts *)
  let q =
    Query.path ~value:V_any
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.japanese_auto_company);
        Query.comp (P_subtree b.compact);
      ]
  in
  check_oids "compacts of japanese companies" [ ex.v5 ] (Exec.parallel idx q)

(* --- algorithm agreement -------------------------------------------------- *)

let queries_for_agreement b =
  let open Query in
  [
    class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.Ps.vehicle);
    class_hierarchy ~value:(V_eq (Str "White")) (P_class b.Ps.compact);
    class_hierarchy ~value:V_any (P_subtree b.Ps.automobile);
    class_hierarchy
      ~value:(V_range (Some (Str "Blue"), Some (Str "Red")))
      (P_union [ P_subtree b.Ps.automobile; P_subtree b.Ps.truck ]);
    class_hierarchy ~value:(V_in [ Str "Red"; Str "Blue" ]) (P_class b.Ps.vehicle);
  ]

let test_forward_parallel_agree () =
  let b, _ex, idx = make_ch () in
  List.iter
    (fun q ->
      let f = Exec.forward idx q and p = Exec.parallel idx q in
      Alcotest.(check (list int))
        "same result set" (Exec.head_oids f) (Exec.head_oids p);
      if p.page_reads > f.page_reads then
        Alcotest.failf "parallel read more pages (%d) than forward (%d)"
          p.page_reads f.page_reads)
    (queries_for_agreement b)

(* --- maintenance ----------------------------------------------------------- *)

let test_db_maintenance () =
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let db = Db.create ex.store in
  let pager = Storage.Pager.create () in
  let ch = Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color" in
  let path =
    Index.create_path pager b.enc ~head:b.vehicle
      ~refs:[ "manufactured_by"; "president" ]
      ~attr:"age"
  in
  Db.add_index db ch;
  Db.add_index db path;
  Db.check db;
  (* insert a new truck *)
  let t1 =
    Db.insert db ~cls:b.truck
      [
        ("name", Value.Str "Hino300");
        ("color", Value.Str "Red");
        ("manufactured_by", Value.Ref ex.c1);
      ]
  in
  Db.check db;
  let q = Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.truck) in
  check_oids "new red truck indexed" [ t1 ] (Exec.parallel ch q);
  (* recolor it *)
  Db.set_attr db t1 "color" (Value.Str "Green");
  Db.check db;
  check_oids "no red trucks after recolor" [] (Exec.parallel ch q);
  (* the paper's mid-path update: Fiat replaces its president (e1, 50) with
     Enzo (e2, 60) *)
  let q50 = default_path_query b ~value:(V_eq (Int 50)) in
  Db.set_attr db ex.c2 "president" (Value.Ref ex.e2);
  Db.check db;
  check_oids "no age-50 vehicles after president change" []
    (Exec.parallel path q50);
  let q60 = default_path_query b ~value:(V_eq (Int 60)) in
  check_oids "Fiat and Renault vehicles now under 60"
    [ ex.v2; ex.v3; ex.v4; ex.v6 ]
    (Exec.parallel path q60);
  (* tail-object update: the new president ages *)
  Db.set_attr db ex.e2 "age" (Value.Int 61);
  Db.check db;
  check_oids "no vehicles under 60 after birthday" [] (Exec.parallel path q60);
  (* delete a vehicle *)
  Db.delete db ex.v2;
  Db.check db;
  let q61 = default_path_query b ~value:(V_eq (Int 61)) in
  check_oids "v2 gone" [ ex.v3; ex.v4; ex.v6 ] (Exec.parallel path q61)

(* A president change on a company behind thousands of path entries:
   the reindexing diff must touch exactly the keys a naive [List.mem]
   diff of the before/after entry keys names. *)
let test_reindex_wide_company () =
  let e = Dg.exp1 ~n_vehicles:4_500 ~n_companies:2 ~n_employees:20 ~seed:5 () in
  let b = e.ext.b in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let company =
    List.hd (Store.extent e.store ~deep:true b.company)
  in
  let keys () = Index.entry_keys e.path_age e.store company in
  let old_keys = keys () in
  if List.length old_keys < 2_000 then
    Alcotest.failf "company has only %d path entries" (List.length old_keys);
  let contents () =
    let l = ref [] in
    Btree.iter (Index.tree e.path_age) (fun en -> l := en.Btree.key :: !l);
    List.rev !l
  in
  let before = contents () in
  let president =
    match Store.attr e.store company "president" with
    | Value.Ref p -> p
    | _ -> Alcotest.fail "company without a president"
  in
  let other =
    List.find
      (fun emp ->
        emp <> president
        && Store.attr e.store emp "age" <> Store.attr e.store president "age")
      (Store.extent e.store ~deep:true b.employee)
  in
  Db.set_attr db company "president" (Value.Ref other);
  Db.check db;
  let new_keys = keys () in
  let after = contents () in
  let minus a b = List.sort compare (List.filter (fun k -> not (List.mem k b)) a) in
  Alcotest.(check (list string)) "deleted = List.mem reference"
    (minus old_keys new_keys) (minus before after);
  Alcotest.(check (list string)) "inserted = List.mem reference"
    (minus new_keys old_keys) (minus after before);
  Alcotest.(check bool) "the change moved entries" true
    (minus old_keys new_keys <> [])

let test_remove_index () =
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let db = Db.create ex.store in
  let ch =
    Index.create_class_hierarchy (Storage.Pager.create ()) b.enc
      ~root:b.vehicle ~attr:"color"
  in
  Db.add_index db ch;
  Alcotest.(check int) "registered" 1 (List.length (Db.indexes db));
  Db.remove_index db ch;
  Alcotest.(check int) "unregistered" 0 (List.length (Db.indexes db));
  (* mutations no longer touch the removed index *)
  let n0 = Index.entry_count ch in
  ignore
    (Db.insert db ~cls:b.truck
       [ ("name", Value.Str "T"); ("color", Value.Str "Red") ]);
  Alcotest.(check int) "index untouched" n0 (Index.entry_count ch)

let test_multi_value_refs () =
  (* Section 4.3: a vehicle manufactured by multiple companies appears in
     one entry per company *)
  let b = Ps.base () in
  let s = b.schema in
  let bike =
    Oodb_schema.Schema.add_class s ~parent:b.vehicle ~name:"Bicycle"
      ~attrs:[ ("comakers", Oodb_schema.Schema.Ref_set b.company) ]
  in
  Oodb_schema.Encoding.assign_new_class b.enc bike;
  let ex = Ps.example1 b in
  let db = Db.create ex.store in
  let pager = Storage.Pager.create () in
  let idx =
    Index.create_path pager b.enc ~head:bike ~refs:[ "comakers"; "president" ]
      ~attr:"age"
  in
  Db.add_index db idx;
  let bk =
    Db.insert db ~cls:bike
      [
        ("name", Value.Str "Tandem");
        ("comakers", Value.Ref_set [ ex.c1; ex.c2 ]);
      ]
  in
  Db.check db;
  Alcotest.(check int) "two entries for two makers" 2 (Index.entry_count idx);
  let q45 = default_path_query b ~value:(V_eq (Int 45)) in
  check_oids "via Subaru (e3 is 45)" [ bk ] (Exec.parallel idx q45);
  let q50 = default_path_query b ~value:(V_eq (Int 50)) in
  check_oids "via Fiat (e1 is 50)" [ bk ] (Exec.parallel idx q50);
  Db.delete db bk;
  Db.check db;
  Alcotest.(check int) "entries removed from both makers" 0
    (Index.entry_count idx)

let test_multiple_paths () =
  (* Section 3.3, "Multiple Paths": the Vehicle and Division paths share
     the Company/Employee suffix and live in ONE index; one query fetches
     both the divisions and the vehicles of companies whose president's
     age is 50, and the shared prefix compresses *)
  let b = Ps.base () in
  let ex = Ps.example1 b in
  (* add a few divisions *)
  let div name company =
    Store.insert ex.store ~cls:b.division
      [ ("name", Value.Str name); ("belongs_to", Value.Ref company) ]
  in
  let d1 = div "FiatEngines" ex.c2 in
  let d2 = div "FiatRacing" ex.c2 in
  let d3 = div "SubaruAero" ex.c1 in
  let idx =
    Index.create_path (Storage.Pager.create ()) b.enc ~head:b.vehicle
      ~refs:[ "manufactured_by"; "president" ]
      ~attr:"age"
  in
  Index.add_path idx ~head:b.division ~refs:[ "belongs_to"; "president" ]
    ~attr:"age";
  Index.build idx ex.store;
  Alcotest.(check int) "entries from both paths" 9 (Index.entry_count idx);
  Alcotest.(check int) "two paths registered" 2 (List.length (Index.paths idx));
  (* vehicles only *)
  let q_veh = default_path_query b ~value:(V_eq (Int 50)) in
  check_oids "vehicles via shared index" [ ex.v2; ex.v3; ex.v6 ]
    (Exec.parallel idx q_veh);
  (* divisions only *)
  let q_div =
    Query.path ~value:(V_eq (Int 50))
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.company);
        Query.comp (P_subtree b.division);
      ]
  in
  check_oids "divisions via shared index" [ d1; d2 ] (Exec.parallel idx q_div);
  ignore d3;
  (* both at once: the paper's combined retrieval, clustered by the shared
     employee/company prefix *)
  let q_both =
    Query.path ~value:(V_eq (Int 50))
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.company);
        Query.comp (P_union [ P_subtree b.division; P_subtree b.vehicle ]);
      ]
  in
  let o = Exec.parallel idx q_both in
  check_oids "divisions and vehicles together" [ ex.v2; ex.v3; ex.v6; d1; d2 ] o;
  (* incremental maintenance covers both paths *)
  let db = Db.create ex.store in
  Db.add_index db idx;
  let d4 = Db.insert db ~cls:b.division
      [ ("name", Value.Str "FiatMarine"); ("belongs_to", Value.Ref ex.c2) ]
  in
  Db.check db;
  check_oids "new division picked up" [ ex.v2; ex.v3; ex.v6; d1; d2; d4 ]
    (Exec.parallel idx q_both);
  (* type mismatch across paths rejected *)
  Alcotest.check_raises "type mismatch"
    (Invalid_argument
       "Uindex.add_path: the new path's attribute type differs from the \
        index's") (fun () ->
      Index.add_path idx ~head:b.division ~refs:[ "belongs_to" ] ~attr:"name");
  (* class-hierarchy indexes cannot take paths *)
  let ch =
    Index.create_class_hierarchy (Storage.Pager.create ()) b.enc
      ~root:b.vehicle ~attr:"color"
  in
  Alcotest.check_raises "not a path index"
    (Invalid_argument "Uindex.add_path: not a path index") (fun () ->
      Index.add_path ch ~head:b.division ~refs:[ "belongs_to"; "president" ]
        ~attr:"age")

let test_four_component_path () =
  (* a longer composition chain: Order -> Dealer -> Company -> Employee.age *)
  let s = Oodb_schema.Schema.create () in
  let open Oodb_schema in
  let employee = Schema.add_class s ~name:"Employee" ~attrs:[ ("age", Schema.Int) ] in
  let company =
    Schema.add_class s ~name:"Company" ~attrs:[ ("president", Schema.Ref employee) ]
  in
  let dealer =
    Schema.add_class s ~name:"Dealer" ~attrs:[ ("franchise_of", Schema.Ref company) ]
  in
  let mega_dealer = Schema.add_class s ~parent:dealer ~name:"MegaDealer" ~attrs:[] in
  let order =
    Schema.add_class s ~name:"Order" ~attrs:[ ("placed_at", Schema.Ref dealer) ]
  in
  let enc = Encoding.assign s in
  let store = Store.create s in
  let e1 = Store.insert store ~cls:employee [ ("age", Value.Int 50) ] in
  let e2 = Store.insert store ~cls:employee [ ("age", Value.Int 60) ] in
  let c1 = Store.insert store ~cls:company [ ("president", Value.Ref e1) ] in
  let c2 = Store.insert store ~cls:company [ ("president", Value.Ref e2) ] in
  let d1 = Store.insert store ~cls:dealer [ ("franchise_of", Value.Ref c1) ] in
  let d2 = Store.insert store ~cls:mega_dealer [ ("franchise_of", Value.Ref c1) ] in
  let d3 = Store.insert store ~cls:dealer [ ("franchise_of", Value.Ref c2) ] in
  let o1 = Store.insert store ~cls:order [ ("placed_at", Value.Ref d1) ] in
  let o2 = Store.insert store ~cls:order [ ("placed_at", Value.Ref d2) ] in
  let o3 = Store.insert store ~cls:order [ ("placed_at", Value.Ref d3) ] in
  let idx =
    Index.create_path (Storage.Pager.create ()) enc ~head:order
      ~refs:[ "placed_at"; "franchise_of"; "president" ]
      ~attr:"age"
  in
  Index.build idx store;
  Alcotest.(check int) "arity four" 4 (Index.arity idx);
  let q =
    Query.path ~value:(V_eq (Int 50))
      [
        Query.comp (P_subtree employee);
        Query.comp (P_subtree company);
        Query.comp (P_subtree dealer);
        Query.comp (P_subtree order);
      ]
  in
  check_oids "orders via age-50 presidents" [ o1; o2 ] (Exec.parallel idx q);
  (* restrict the in-path dealer to the MegaDealer subclass *)
  let q =
    Query.path ~value:(V_eq (Int 50))
      [
        Query.comp (P_subtree employee);
        Query.comp (P_subtree company);
        Query.comp (P_subtree mega_dealer);
        Query.comp (P_subtree order);
      ]
  in
  check_oids "orders at mega dealers only" [ o2 ] (Exec.parallel idx q);
  (* partial-path: the dealers of age-60 presidents *)
  let q =
    Query.path ~value:(V_eq (Int 60))
      [
        Query.comp (P_subtree employee);
        Query.comp (P_subtree company);
        Query.comp (P_subtree dealer);
      ]
  in
  check_oids "dealers via partial path" [ d3 ] (Exec.parallel idx q);
  ignore o3

let test_string_valued_path () =
  (* the indexed attribute is a string: company names at the end of a
     one-hop path *)
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let idx =
    Index.create_path (Storage.Pager.create ()) b.enc ~head:b.vehicle
      ~refs:[ "manufactured_by" ] ~attr:"name"
  in
  Index.build idx ex.store;
  let q name =
    Query.path ~value:(V_eq (Str name))
      [ Query.comp (P_subtree b.company); Query.comp (P_subtree b.vehicle) ]
  in
  check_oids "Fiat's vehicles" [ ex.v2; ex.v3; ex.v6 ] (Exec.parallel idx (q "Fiat"));
  check_oids "Subaru's vehicles" [ ex.v1; ex.v5 ] (Exec.parallel idx (q "Subaru"));
  (* string range: makers Fiat..Renault *)
  let q =
    Query.path
      ~value:(V_range (Some (Str "Fiat"), Some (Str "Renault")))
      [ Query.comp (P_subtree b.company); Query.comp (P_subtree b.vehicle) ]
  in
  check_oids "Fiat..Renault vehicles" [ ex.v2; ex.v3; ex.v4; ex.v6 ]
    (Exec.parallel idx q);
  let f = Exec.forward idx q in
  Alcotest.(check (list int)) "forward agrees"
    (Exec.head_oids (Exec.parallel idx q))
    (Exec.head_oids f)

(* --- randomized end-to-end agreement --------------------------------------- *)

(* Random vehicle databases and random queries: both algorithms must agree
   with a naive evaluation over the object store. *)
let prop_algorithms_match_naive =
  QCheck.Test.make ~count:40 ~name:"parallel = forward = naive store scan"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ext = Ps.extended () in
      let b = ext.Ps.b in
      let rng = Workload.Rng.create seed in
      let store = Store.create b.schema in
      let classes = Ps.vehicle_leaf_classes ext in
      for i = 0 to 120 + Workload.Rng.int rng 80 do
        ignore
          (Store.insert store
             ~cls:(Workload.Rng.pick rng classes)
             [
               ("name", Value.Str (Printf.sprintf "v%d" i));
               ("color", Value.Str (Workload.Rng.pick rng Ps.colors));
             ])
      done;
      let pager = Storage.Pager.create ~page_size:256 () in
      let config =
        { (Btree.default_config ~page_size:256) with max_entries = Some 6 }
      in
      let idx =
        Index.create_class_hierarchy ~config pager b.enc ~root:b.vehicle
          ~attr:"color"
      in
      Index.build idx store;
      (* a random query: value predicate x class pattern *)
      let random_pat () =
        let c = Workload.Rng.pick rng classes in
        if Workload.Rng.bool rng then Query.P_subtree c else Query.P_class c
      in
      let pat =
        match Workload.Rng.int rng 3 with
        | 0 -> random_pat ()
        | 1 -> Query.P_union [ random_pat (); random_pat () ]
        | _ -> Query.P_union [ random_pat (); random_pat (); random_pat () ]
      in
      let value =
        match Workload.Rng.int rng 4 with
        | 0 -> Query.V_any
        | 1 -> Query.V_eq (Value.Str (Workload.Rng.pick rng Ps.colors))
        | 2 ->
            let a = Workload.Rng.pick rng Ps.colors
            and b = Workload.Rng.pick rng Ps.colors in
            let lo = min a b and hi = max a b in
            Query.V_range (Some (Value.Str lo), Some (Value.Str hi))
        | _ ->
            Query.V_in
              [
                Value.Str (Workload.Rng.pick rng Ps.colors);
                Value.Str (Workload.Rng.pick rng Ps.colors);
              ]
      in
      let q = Query.class_hierarchy ~value pat in
      let naive =
        Store.extent store b.vehicle
        |> List.filter (fun oid ->
               Query.pat_matches b.schema pat (Store.class_of store oid)
               && Query.value_matches value (Store.attr store oid "color"))
        |> List.sort compare
      in
      let p = Exec.head_oids (Exec.parallel idx q)
      and f = Exec.head_oids (Exec.forward idx q) in
      if p <> naive then
        QCheck.Test.fail_reportf "parallel diverged: %d vs naive %d"
          (List.length p) (List.length naive);
      if f <> naive then
        QCheck.Test.fail_reportf "forward diverged: %d vs naive %d"
          (List.length f) (List.length naive);
      true)

(* Random mutation sequences through Db keep indexes exactly in sync. *)
let prop_db_sync =
  QCheck.Test.make ~count:15 ~name:"random mutations keep indexes in sync"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let b = Ps.base () in
      let ex = Ps.example1 b in
      let rng = Workload.Rng.create seed in
      let db = Db.create ex.store in
      let pager = Storage.Pager.create ~page_size:256 () in
      let ch =
        Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
      in
      let path =
        Index.create_path pager b.enc ~head:b.vehicle
          ~refs:[ "manufactured_by"; "president" ]
          ~attr:"age"
      in
      Db.add_index db ch;
      Db.add_index db path;
      let vehicles = ref [ ex.v1; ex.v2; ex.v3; ex.v4; ex.v5; ex.v6 ] in
      let companies = [| ex.c1; ex.c2; ex.c3 |] in
      let employees = [| ex.e1; ex.e2; ex.e3 |] in
      for i = 0 to 60 do
        (match Workload.Rng.int rng 5 with
        | 0 ->
            let v =
              Db.insert db
                ~cls:(Workload.Rng.pick rng [| b.vehicle; b.automobile; b.compact; b.truck |])
                [
                  ("name", Value.Str (Printf.sprintf "n%d" i));
                  ("color", Value.Str (Workload.Rng.pick rng Ps.colors));
                  ("manufactured_by", Value.Ref (Workload.Rng.pick rng companies));
                ]
            in
            vehicles := v :: !vehicles
        | 1 -> (
            match !vehicles with
            | v :: rest ->
                Db.delete db v;
                vehicles := rest
            | [] -> ())
        | 2 -> (
            match !vehicles with
            | v :: _ ->
                Db.set_attr db v "color"
                  (Value.Str (Workload.Rng.pick rng Ps.colors))
            | [] -> ())
        | 3 ->
            Db.set_attr db
              (Workload.Rng.pick rng companies)
              "president"
              (Value.Ref (Workload.Rng.pick rng employees))
        | _ ->
            Db.set_attr db
              (Workload.Rng.pick rng employees)
              "age"
              (Value.Int (30 + Workload.Rng.int rng 40)));
        if i mod 10 = 0 then Db.check db
      done;
      Db.check db;
      true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_algorithms_match_naive; prop_db_sync ]

let () =
  Alcotest.run "uindex"
    [
      ( "class-hierarchy",
        [
          Alcotest.test_case "all red vehicles" `Quick test_ch_all_red;
          Alcotest.test_case "exact class & subtree" `Quick test_ch_exact_class;
          Alcotest.test_case "excluding a subclass" `Quick test_ch_excluding_subclass;
          Alcotest.test_case "union of subtrees" `Quick test_ch_union_subtrees;
          Alcotest.test_case "value range" `Quick test_ch_range;
          Alcotest.test_case "value enumeration" `Quick test_ch_value_enum;
        ] );
      ( "path",
        [
          Alcotest.test_case "president age 50" `Quick test_path_age50;
          Alcotest.test_case "specific company slot" `Quick test_path_specific_company;
          Alcotest.test_case "select restriction" `Quick test_path_select_restriction;
          Alcotest.test_case "partial path" `Quick test_partial_path;
          Alcotest.test_case "combined class/path" `Quick test_combined;
          Alcotest.test_case "multiple paths, one index" `Quick
            test_multiple_paths;
          Alcotest.test_case "four-component path" `Quick
            test_four_component_path;
          Alcotest.test_case "string-valued path" `Quick test_string_valued_path;
        ] );
      ( "algorithms",
        [ Alcotest.test_case "forward = parallel" `Quick test_forward_parallel_agree ] );
      ("properties", qsuite);
      ( "maintenance",
        [
          Alcotest.test_case "db stays in sync" `Quick test_db_maintenance;
          Alcotest.test_case "remove index" `Quick test_remove_index;
          Alcotest.test_case "reindex a wide company" `Quick
            test_reindex_wide_company;
          Alcotest.test_case "multi-value refs" `Quick test_multi_value_refs;
        ] );
    ]
