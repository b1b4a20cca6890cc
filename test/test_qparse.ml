(* Tests for the textual query format of Section 3.4. *)

module Ps = Workload.Paper_schema
module Value = Objstore.Value
module Query = Uindex.Query
module Qparse = Uindex.Qparse
module Exec = Uindex.Exec
module Index = Uindex.Index

let b = lazy (Ps.base ())

let parse s = Qparse.parse (Lazy.force b).schema s
let to_syntax q = Qparse.to_syntax (Lazy.force b).schema q

let test_values () =
  let q = parse "(Red, Vehicle*)" in
  Alcotest.(check bool) "exact str" true (q.Query.value = V_eq (Str "Red"));
  let q = parse "(50, Employee)" in
  Alcotest.(check bool) "exact int" true (q.Query.value = V_eq (Int 50));
  let q = parse "(-5, Employee)" in
  Alcotest.(check bool) "negative int" true (q.Query.value = V_eq (Int (-5)));
  let q = parse "(*, Vehicle*)" in
  Alcotest.(check bool) "any" true (q.Query.value = V_any);
  let q = parse "([Blue-Red], Vehicle*)" in
  Alcotest.(check bool) "range" true
    (q.Query.value = V_range (Some (Str "Blue"), Some (Str "Red")));
  let q = parse "([50-], Employee)" in
  Alcotest.(check bool) "open above" true
    (q.Query.value = V_range (Some (Int 50), None));
  let q = parse "([-50], Employee)" in
  Alcotest.(check bool) "open below" true
    (q.Query.value = V_range (None, Some (Int 50)));
  let q = parse "([--2], Employee)" in
  Alcotest.(check bool) "negative upper bound" true
    (q.Query.value = V_range (None, Some (Int (-2))));
  let q = parse "({Red, Blue}, Vehicle*)" in
  Alcotest.(check bool) "enum" true (q.Query.value = V_in [ Str "Red"; Str "Blue" ]);
  let q = parse "(\"Hello World\", Vehicle*)" in
  Alcotest.(check bool) "quoted" true (q.Query.value = V_eq (Str "Hello World"))

let test_patterns () =
  let base = Lazy.force b in
  let q = parse "(Red, Vehicle)" in
  Alcotest.(check bool) "exact class" true
    ((List.hd q.Query.comps).pat = P_class base.vehicle);
  let q = parse "(Red, Automobile*)" in
  Alcotest.(check bool) "subtree" true
    ((List.hd q.Query.comps).pat = P_subtree base.automobile);
  let q = parse "(Red, [Automobile* | Truck])" in
  Alcotest.(check bool) "union" true
    ((List.hd q.Query.comps).pat
    = P_union [ P_subtree base.automobile; P_class base.truck ])

let test_slots_and_paths () =
  let base = Lazy.force b in
  let q = parse "(50, Employee*, Company* @12, Vehicle* ?)" in
  Alcotest.(check int) "three comps" 3 (List.length q.Query.comps);
  (match q.Query.comps with
  | [ e; c; v ] ->
      Alcotest.(check bool) "employee any" true (e.slot = S_any);
      Alcotest.(check bool) "company bound" true (c.slot = S_oid 12);
      Alcotest.(check bool) "vehicle find" true (v.slot = S_any);
      Alcotest.(check bool) "classes" true
        (e.pat = P_subtree base.employee
        && c.pat = P_subtree base.company
        && v.pat = P_subtree base.vehicle)
  | _ -> Alcotest.fail "arity");
  let q = parse "(50, Employee @{1, 2, 3})" in
  Alcotest.(check bool) "one-of slot" true
    ((List.hd q.Query.comps).slot = S_one_of [ 1; 2; 3 ])

let test_errors () =
  let expect_fail s =
    match parse s with
    | exception Qparse.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" s
  in
  expect_fail "";
  expect_fail "(Red)";
  expect_fail "(Red, NoSuchClass)";
  expect_fail "(Red, Vehicle";
  expect_fail "(Red, Vehicle) junk";
  expect_fail "([Red-], Vehicle*)extra";
  expect_fail "([-], Vehicle*)";
  expect_fail "(Red, Vehicle @)";
  expect_fail "(\"unterminated, Vehicle)";
  (* integer literals that do not fit an OCaml int *)
  expect_fail "([99999999999999999999-1], Employee*, Company*, Vehicle*)";
  expect_fail "(-4611686018427387905, Employee)";
  expect_fail "(50, Employee @99999999999999999999)"

(* a query cut short reports where the input ended, not a sentinel *)
let test_truncated () =
  List.iter
    (fun (s, want) ->
      match parse s with
      | exception Qparse.Parse_error m -> Alcotest.(check string) s want m
      | _ -> Alcotest.failf "should not parse: %s" s)
    [
      ("(Red, Vehicle*", "at 14: expected ',' or ')'");
      ("(Red", "at 4: expected ',' or ')'");
      ("", "at 0: expected '('");
      ("(Red, ", "at 6: expected a class name");
    ]

let test_end_to_end () =
  (* a parsed query runs and agrees with the hand-built one *)
  let base = Lazy.force b in
  let ex = Ps.example1 base in
  let idx =
    Index.create_class_hierarchy (Storage.Pager.create ()) base.enc
      ~root:base.vehicle ~attr:"color"
  in
  Index.build idx ex.store;
  let parsed = Exec.parallel idx (parse "(Red, Automobile*)") in
  let built =
    Exec.parallel idx
      (Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree base.automobile))
  in
  Alcotest.(check (list int)) "same result" (Exec.head_oids built)
    (Exec.head_oids parsed)

let gen_query =
  let open QCheck.Gen in
  let base = Lazy.force b in
  let classes =
    [| base.vehicle; base.automobile; base.compact; base.truck; base.company |]
  in
  let gen_scalar =
    oneof [ map (fun i -> Value.Int i) (int_range (-50) 999);
            map (fun c -> Value.Str c) (oneofl [ "Red"; "Blue"; "hello_world" ]) ]
  in
  let gen_value =
    oneof
      [
        return Query.V_any;
        map (fun v -> Query.V_eq v) gen_scalar;
        map2
          (fun a b ->
            Query.V_range
              (Some (Value.Int (min a b)), Some (Value.Int (max a b))))
          (int_range 0 99) (int_range 0 99);
        map (fun vs -> Query.V_in vs) (list_size (int_range 1 3) gen_scalar);
      ]
  in
  let gen_pat =
    let leaf =
      map
        (fun (i, sub) ->
          let c = classes.(i mod Array.length classes) in
          if sub then Query.P_subtree c else Query.P_class c)
        (pair nat bool)
    in
    oneof
      [ leaf; map (fun ps -> Query.P_union ps) (list_size (int_range 1 3) leaf) ]
  in
  let gen_slot =
    oneof
      [
        return Query.S_any;
        map (fun o -> Query.S_oid o) (int_range 0 9999);
        map (fun os -> Query.S_one_of os) (list_size (int_range 1 3) (int_range 0 99));
      ]
  in
  let gen_comp = map2 (fun pat slot -> { Query.pat; slot }) gen_pat gen_slot in
  map2
    (fun value comps -> { Query.value; comps })
    gen_value
    (list_size (int_range 1 3) gen_comp)

(* V_range over Int only in the generator, so ranges stay well-typed *)
let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse (to_syntax q) = q"
    (QCheck.make gen_query) (fun q ->
      let s = to_syntax q in
      match parse s with
      | q' -> q' = q
      | exception Qparse.Parse_error m ->
          QCheck.Test.fail_reportf "did not re-parse %S: %s" s m)

(* random query-like text, and printed queries with one byte replaced,
   inserted or dropped or a long signed digit run spliced in: the parser
   returns or raises Parse_error, nothing else *)
let prop_garbage =
  let open QCheck.Gen in
  let gen_char =
    frequency
      [
        (3, oneofl (List.of_seq (String.to_seq "()[]{},-|*?_@\" ")));
        (2, numeral);
        (2, oneofl [ 'R'; 'e'; 'd'; 'V'; 'h'; 'i'; 'c'; 'l' ]);
        (1, char);
      ]
  in
  let gen_digits =
    map2
      (fun sign ds -> (if sign then "-" else "") ^ ds)
      bool
      (string_size ~gen:numeral (int_range 1 30))
  in
  let mutate (q, pos) (edit, c, ds) =
    let s = to_syntax q in
    let n = String.length s in
    let i = pos mod (n + 1) in
    match edit with
    | 0 when i < n -> String.mapi (fun k x -> if k = i then c else x) s
    | 1 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 2 -> String.sub s 0 i ^ ds ^ String.sub s i (n - i)
    | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  in
  QCheck.Test.make ~count:2000 ~name:"parse raises only Parse_error"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (oneof
          [
            string_size ~gen:gen_char (int_bound 30);
            map2 mutate (pair gen_query nat)
              (triple (int_bound 3) gen_char gen_digits);
          ]))
    (fun s ->
      match parse s with _ -> true | exception Qparse.Parse_error _ -> true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_garbage ]

let () =
  Alcotest.run "qparse"
    [
      ( "parsing",
        [
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "class patterns" `Quick test_patterns;
          Alcotest.test_case "slots & paths" `Quick test_slots_and_paths;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "truncated input" `Quick test_truncated;
          Alcotest.test_case "end to end" `Quick test_end_to_end;
        ] );
      ("properties", qsuite);
    ]
