(* Tests for the object store: typed inserts, extents, reverse references,
   attribute updates and deletion. *)

module Schema = Oodb_schema.Schema
module Store = Objstore.Store
module Value = Objstore.Value
module Ps = Workload.Paper_schema

let setup () =
  let b = Ps.base () in
  (b, Store.create b.schema)

let test_insert_get () =
  let b, st = setup () in
  let e = Store.insert st ~cls:b.employee [ ("age", Value.Int 50) ] in
  Alcotest.(check bool) "mem" true (Store.mem st e);
  Alcotest.(check int) "class" b.employee (Store.class_of st e);
  Alcotest.(check bool) "attr" true (Store.attr st e "age" = Value.Int 50);
  Alcotest.(check bool) "unset attr is Null" true (Store.attr st e "name" = Value.Null);
  Alcotest.(check int) "count" 1 (Store.count st)

let test_type_checking () =
  let b, st = setup () in
  Alcotest.check_raises "wrong value type"
    (Invalid_argument "Store: attribute \"age\" of Employee expects an int, got \"x\"")
    (fun () ->
      ignore (Store.insert st ~cls:b.employee [ ("age", Value.Str "x") ]));
  Alcotest.check_raises "undeclared attribute"
    (Invalid_argument "Schema: class Employee has no attribute \"salary\"")
    (fun () ->
      ignore (Store.insert st ~cls:b.employee [ ("salary", Value.Int 3) ]));
  Alcotest.check_raises "dangling reference"
    (Invalid_argument "Store: reference to unknown oid 999") (fun () ->
      ignore
        (Store.insert st ~cls:b.company
           [ ("president", Value.Ref 999) ]));
  (* reference target class checked, subclasses allowed *)
  let e = Store.insert st ~cls:b.employee [ ("age", Value.Int 40) ] in
  let jc =
    Store.insert st ~cls:b.japanese_auto_company [ ("president", Value.Ref e) ]
  in
  Alcotest.check_raises "wrong target class"
    (Invalid_argument "Store: oid 2 is a JapaneseAutoCompany, not a Employee")
    (fun () ->
      ignore (Store.insert st ~cls:b.company [ ("president", Value.Ref jc) ]))

let test_extent () =
  let b, st = setup () in
  let e = Store.insert st ~cls:b.employee [] in
  let c1 = Store.insert st ~cls:b.auto_company [ ("president", Value.Ref e) ] in
  let c2 =
    Store.insert st ~cls:b.japanese_auto_company [ ("president", Value.Ref e) ]
  in
  Alcotest.(check (list int)) "shallow" [] (Store.extent st ~deep:false b.company);
  Alcotest.(check (list int)) "deep" [ c1; c2 ]
    (List.sort compare (Store.extent st b.company));
  Alcotest.(check (list int)) "auto subtree" [ c1; c2 ]
    (List.sort compare (Store.extent st b.auto_company))

let test_referrers_and_follow () =
  let b, st = setup () in
  let e = Store.insert st ~cls:b.employee [ ("age", Value.Int 50) ] in
  let c = Store.insert st ~cls:b.company [ ("president", Value.Ref e) ] in
  let v =
    Store.insert st ~cls:b.vehicle
      [ ("color", Value.Str "Red"); ("manufactured_by", Value.Ref c) ]
  in
  Alcotest.(check (list int)) "company's president" [ e ] (Store.follow st c "president");
  Alcotest.(check (list int)) "who references e" [ c ]
    (Store.referrers st e ~via:"president");
  Alcotest.(check (list int)) "who references c" [ v ]
    (Store.referrers st c ~via:"manufactured_by");
  (* update moves the reverse link *)
  let e2 = Store.insert st ~cls:b.employee [ ("age", Value.Int 60) ] in
  Store.set_attr st c "president" (Value.Ref e2);
  Alcotest.(check (list int)) "old link gone" [] (Store.referrers st e ~via:"president");
  Alcotest.(check (list int)) "new link" [ c ] (Store.referrers st e2 ~via:"president");
  (* deletion clears links *)
  Store.delete st v;
  Alcotest.(check (list int)) "after delete" []
    (Store.referrers st c ~via:"manufactured_by");
  Alcotest.(check bool) "gone" false (Store.mem st v)

let test_multi_value () =
  let b, st = setup () in
  let bike =
    Schema.add_class b.schema ~parent:b.vehicle ~name:"Bicycle"
      ~attrs:[ ("comakers", Schema.Ref_set b.company) ]
  in
  let e = Store.insert st ~cls:b.employee [] in
  let c1 = Store.insert st ~cls:b.company [ ("president", Value.Ref e) ] in
  let c2 = Store.insert st ~cls:b.company [ ("president", Value.Ref e) ] in
  let bk = Store.insert st ~cls:bike [ ("comakers", Value.Ref_set [ c1; c2 ]) ] in
  Alcotest.(check (list int)) "follow many" [ c1; c2 ] (Store.follow st bk "comakers");
  Alcotest.(check (list int)) "reverse from c1" [ bk ]
    (Store.referrers st c1 ~via:"comakers");
  Store.set_attr st bk "comakers" (Value.Ref_set [ c2 ]);
  Alcotest.(check (list int)) "c1 unlinked" [] (Store.referrers st c1 ~via:"comakers");
  Alcotest.(check (list int)) "c2 still linked" [ bk ]
    (Store.referrers st c2 ~via:"comakers")

(* a truncated Int payload must fail with its own diagnostic — not a
   generic out-of-bounds from the byte decoder — so scan-level handlers
   can tell data corruption from programming errors *)
let test_decode_truncated_int () =
  let whole = Value.encode (Value.Int 42) in
  let v, stop = Value.decode ~ty:Schema.Int whole 0 in
  Alcotest.(check bool) "roundtrip" true (v = Value.Int 42);
  Alcotest.(check int) "consumes 8 bytes" 8 stop;
  let short = String.sub whole 0 5 in
  Alcotest.check_raises "truncated payload"
    (Invalid_argument
       "Value.decode: truncated Int key (need 8 bytes at offset 0, have 5)")
    (fun () -> ignore (Value.decode ~ty:Schema.Int short 0));
  Alcotest.check_raises "offset past the end"
    (Invalid_argument
       "Value.decode: truncated Int key (need 8 bytes at offset 9, have -1)")
    (fun () -> ignore (Value.decode ~ty:Schema.Int whole 9));
  (* eight bytes that no int encodes (a flipped top bit) are corruption
     too, not a wrapped-around value *)
  let flipped = "\xe0" ^ String.sub whole 1 7 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Value.decode: Int key out of range at offset 0")
    (fun () -> ignore (Value.decode ~ty:Schema.Int flipped 0))

let test_iter_count () =
  let b, st = setup () in
  for _ = 1 to 10 do
    ignore (Store.insert st ~cls:b.employee [])
  done;
  let n = ref 0 in
  Store.iter st (fun _ -> incr n);
  Alcotest.(check int) "iter visits all" 10 !n

let () =
  Alcotest.run "objstore"
    [
      ( "store",
        [
          Alcotest.test_case "insert/get" `Quick test_insert_get;
          Alcotest.test_case "type checking" `Quick test_type_checking;
          Alcotest.test_case "extents" `Quick test_extent;
          Alcotest.test_case "referrers & follow" `Quick test_referrers_and_follow;
          Alcotest.test_case "multi-value refs" `Quick test_multi_value;
          Alcotest.test_case "iter/count" `Quick test_iter_count;
          Alcotest.test_case "truncated Int decode" `Quick
            test_decode_truncated_int;
        ] );
    ]
