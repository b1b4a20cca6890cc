(* Tests for the front-compressed B+-tree: node serialization, insert /
   delete with rebalancing, scans, multi-interval descent, overflow
   values, and a model-based randomized test. *)

module Smap = Map.Make (String)

let mk ?(page_size = 256) ?max_entries ?(front_coding = true) () =
  let pager = Storage.Pager.create ~page_size () in
  let config =
    { (Btree.default_config ~page_size) with max_entries; front_coding }
  in
  Btree.create ~config pager

let all_entries t =
  let out = ref [] in
  Btree.iter t (fun e -> out := (e.Btree.key, e.Btree.value ()) :: !out);
  List.rev !out

(* --- node serialization --------------------------------------------------- *)

let test_node_roundtrip () =
  let open Btree.Node in
  let leaf =
    Leaf
      {
        lkeys = [| "alpha"; "alphabet"; "beta" |];
        lvals = [| Inline "1"; Inline ""; Overflow { head = 7; length = 999 } |];
        next = 42;
      }
  in
  let b = encode ~front_coding:true ~page_size:256 leaf in
  (match decode b with
  | Leaf l ->
      Alcotest.(check (array string)) "keys" [| "alpha"; "alphabet"; "beta" |] l.lkeys;
      Alcotest.(check int) "next" 42 l.next;
      (match l.lvals.(2) with
      | Overflow { head; length } ->
          Alcotest.(check (pair int int)) "overflow" (7, 999) (head, length)
      | Inline _ -> Alcotest.fail "expected overflow")
  | Internal _ -> Alcotest.fail "expected leaf");
  let internal =
    Internal { ikeys = [| "k1"; "k2" |]; children = [| 1; 2; 3 |] }
  in
  let b = encode ~front_coding:false ~page_size:256 internal in
  match decode b with
  | Internal n ->
      Alcotest.(check (array string)) "separators" [| "k1"; "k2" |] n.ikeys;
      Alcotest.(check (array int)) "children" [| 1; 2; 3 |] n.children
  | Leaf _ -> Alcotest.fail "expected internal"

(* encode must refuse any field the u16 layout would silently truncate:
   pre-guard, a 70000-byte suffix wrote nkeys-worth of garbage (low 16
   bits only) and a 65535-byte inline value collided with the overflow
   marker, both yielding well-formed-looking but wrong pages *)
let test_encode_u16_guards () =
  let open Btree.Node in
  let expect_invalid what fn =
    match fn () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: encode accepted a truncating field" what
  in
  let page_size = 1 lsl 18 in
  let big_key = String.make 70_000 'k' in
  expect_invalid "key suffix >= 65536" (fun () ->
      encode ~front_coding:true ~page_size
        (Leaf { lkeys = [| big_key |]; lvals = [| Inline "" |]; next = -1 }));
  expect_invalid "separator suffix >= 65536" (fun () ->
      encode ~front_coding:false ~page_size
        (Internal { ikeys = [| big_key |]; children = [| 1; 2 |] }));
  (* 0xFFFF is the overflow marker: the largest inline length is 65534 *)
  expect_invalid "inline value = 65535" (fun () ->
      encode ~front_coding:true ~page_size
        (Leaf
           {
             lkeys = [| "k" |];
             lvals = [| Inline (String.make 0xFFFF 'v') |];
             next = -1;
           }));
  (* the boundary cases must still round-trip *)
  let k = String.make 0xFFFF 'k' and v = String.make 0xFFFE 'v' in
  match decode (encode ~front_coding:true ~page_size
                  (Leaf { lkeys = [| k |]; lvals = [| Inline v |]; next = -1 }))
  with
  | Leaf l ->
      Alcotest.(check bool) "max key round-trips" true (l.lkeys.(0) = k);
      Alcotest.(check bool) "max inline round-trips" true (l.lvals.(0) = Inline v)
  | Internal _ -> Alcotest.fail "expected leaf"

(* the tree layer rejects oversized keys up front (and oversized values
   are routed to overflow pages, never inlined) *)
let test_tree_entry_guards () =
  let t = mk ~page_size:4096 () in
  (match Btree.insert t ~key:(String.make 70_000 'k') ~value:"" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "insert accepted a 70000-byte key");
  (* a value at the marker boundary must come back intact via overflow *)
  let v = String.make 0xFFFF 'v' in
  Btree.insert t ~key:"big" ~value:v;
  Alcotest.(check bool) "marker-length value survives" true
    (Btree.find t "big" = Some v)

let test_node_size_compression () =
  let open Btree.Node in
  let keys = Array.init 20 (fun i -> Printf.sprintf "common-prefix-%04d" i) in
  let vals = Array.make 20 (Inline "") in
  let leaf = Leaf { lkeys = keys; lvals = vals; next = -1 } in
  let on = size ~front_coding:true leaf
  and off = size ~front_coding:false leaf in
  if on * 2 > off then
    Alcotest.failf "front coding saved too little: %d vs %d" on off

(* --- basic operations ------------------------------------------------------ *)

let test_insert_find () =
  let t = mk () in
  for i = 0 to 499 do
    Btree.insert t ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  Btree.check t;
  Alcotest.(check int) "length" 500 (Btree.length t);
  Alcotest.(check (option string)) "find hit" (Some "123")
    (Btree.find t "key0123");
  Alcotest.(check (option string)) "find miss" None (Btree.find t "nokey");
  (* replace *)
  Btree.insert t ~key:"key0123" ~value:"replaced";
  Alcotest.(check (option string)) "replaced" (Some "replaced")
    (Btree.find t "key0123");
  Alcotest.(check int) "length unchanged" 500 (Btree.length t)

let test_iter_sorted () =
  let t = mk () in
  let keys = List.init 300 (fun i -> Printf.sprintf "%04d" (997 * i mod 1000)) in
  List.iter (fun k -> Btree.insert t ~key:k ~value:"") keys;
  let got = List.map fst (all_entries t) in
  Alcotest.(check (list string)) "sorted unique" (List.sort_uniq compare keys) got

let test_delete_rebalance () =
  let t = mk ~max_entries:6 () in
  let n = 400 in
  for i = 0 to n - 1 do
    Btree.insert t ~key:(Printf.sprintf "%05d" i) ~value:(string_of_int i)
  done;
  (* delete in an adversarial order: every other key, then the rest *)
  for i = 0 to (n / 2) - 1 do
    Alcotest.(check bool) "present" true (Btree.delete t (Printf.sprintf "%05d" (2 * i)));
    if i mod 17 = 0 then Btree.check t
  done;
  Btree.check t;
  Alcotest.(check int) "half left" (n / 2) (Btree.length t);
  Alcotest.(check bool) "absent delete" false (Btree.delete t "99999");
  for i = 0 to (n / 2) - 1 do
    ignore (Btree.delete t (Printf.sprintf "%05d" ((2 * i) + 1)))
  done;
  Btree.check t;
  Alcotest.(check int) "empty" 0 (Btree.length t);
  Alcotest.(check int) "height collapsed" 1 (Btree.height t)

let test_overflow_values () =
  let t = mk ~page_size:128 () in
  let big = String.init 5000 (fun i -> Char.chr (65 + (i mod 26))) in
  Btree.insert t ~key:"big" ~value:big;
  Btree.insert t ~key:"small" ~value:"s";
  Btree.check t;
  Alcotest.(check (option string)) "big back" (Some big) (Btree.find t "big");
  (* replacing an overflow value frees its chain *)
  let pages_before = Storage.Pager.page_count (Btree.pager t) in
  Btree.insert t ~key:"big" ~value:"now-small";
  let pages_after = Storage.Pager.page_count (Btree.pager t) in
  if pages_after >= pages_before then
    Alcotest.failf "overflow chain not freed: %d -> %d" pages_before pages_after;
  Alcotest.(check (option string)) "replaced" (Some "now-small") (Btree.find t "big");
  (* deleting one frees too *)
  Btree.insert t ~key:"big2" ~value:big;
  let with_chain = Storage.Pager.page_count (Btree.pager t) in
  ignore (Btree.delete t "big2");
  if Storage.Pager.page_count (Btree.pager t) >= with_chain then
    Alcotest.fail "delete did not free overflow pages"

let test_scan_range () =
  let t = mk () in
  for i = 0 to 99 do
    Btree.insert t ~key:(Printf.sprintf "%03d" i) ~value:""
  done;
  let got = ref [] in
  Btree.scan_range t ~read:(Btree.raw_read t) ~lo:"010" ~hi:"020" (fun e ->
      got := e.Btree.key :: !got);
  Alcotest.(check (list string))
    "half open [10,20)"
    (List.init 10 (fun i -> Printf.sprintf "%03d" (10 + i)))
    (List.rev !got)

let test_scanner_seek_next () =
  let t = mk ~max_entries:4 () in
  for i = 0 to 49 do
    Btree.insert t ~key:(Printf.sprintf "%02d" (2 * i)) ~value:""
  done;
  let sc = Btree.Scanner.create t ~read:(Btree.raw_read t) in
  (match Btree.Scanner.seek sc "11" with
  | Some e -> Alcotest.(check string) "first >= 11" "12" e.Btree.key
  | None -> Alcotest.fail "expected entry");
  (match Btree.Scanner.next sc with
  | Some e -> Alcotest.(check string) "next" "14" e.Btree.key
  | None -> Alcotest.fail "expected entry");
  (match Btree.Scanner.seek sc "98" with
  | Some e -> Alcotest.(check string) "last" "98" e.Btree.key
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "past end" true (Btree.Scanner.next sc = None);
  Alcotest.(check bool) "seek past end" true (Btree.Scanner.seek sc "99" = None)

let test_empty_tree () =
  let t = mk () in
  Btree.check t;
  Alcotest.(check int) "empty length" 0 (Btree.length t);
  Alcotest.(check (option string)) "find on empty" None (Btree.find t "x");
  Alcotest.(check bool) "delete on empty" false (Btree.delete t "x");
  let sc = Btree.Scanner.create t ~read:(Btree.raw_read t) in
  Alcotest.(check bool) "seek on empty" true (Btree.Scanner.seek sc "" = None)

let test_max_entries_cap () =
  let t = mk ~page_size:4096 ~max_entries:10 () in
  for i = 0 to 999 do
    Btree.insert t ~key:(Printf.sprintf "%04d" i) ~value:""
  done;
  Btree.check t;
  (* with m=10 every leaf has at most 10 entries, so >= 100 leaves *)
  if Btree.leaf_count t < 100 then
    Alcotest.failf "max_entries not enforced: %d leaves" (Btree.leaf_count t)

let test_front_coding_matches_plain () =
  let keys = List.init 500 (fun i -> Printf.sprintf "path/%02d/item%03d" (i mod 7) i) in
  let build front_coding =
    let t = mk ~front_coding () in
    List.iter (fun k -> Btree.insert t ~key:k ~value:(String.make 3 'v')) keys;
    Btree.check t;
    t
  in
  let a = build true and b = build false in
  Alcotest.(check (list (pair string string)))
    "same contents" (all_entries a) (all_entries b);
  let pages t = Storage.Pager.page_count (Btree.pager t) in
  if pages a >= pages b then
    Alcotest.failf "front coding saved nothing: %d vs %d" (pages a) (pages b)

let test_insert_batch () =
  let t = mk ~max_entries:6 () in
  (* seed with some data, then batch-merge around it *)
  for i = 0 to 99 do
    Btree.insert t ~key:(Printf.sprintf "%04d" (2 * i)) ~value:"old"
  done;
  let batch =
    List.init 150 (fun i -> (Printf.sprintf "%04d" i, Printf.sprintf "b%d" i))
  in
  Btree.insert_batch t batch;
  Btree.check t;
  (* batch keys replaced/landed; untouched odd keys beyond 149 unchanged *)
  Alcotest.(check (option string)) "replaced" (Some "b42") (Btree.find t "0042");
  Alcotest.(check (option string)) "new" (Some "b43") (Btree.find t "0043");
  Alcotest.(check (option string)) "untouched" (Some "old") (Btree.find t "0150");
  Alcotest.(check int) "length" (150 + 25) (Btree.length t);
  (* duplicate keys in one batch: the later one wins *)
  Btree.insert_batch t [ ("dup", "first"); ("dup", "second") ];
  Alcotest.(check (option string)) "later dup wins" (Some "second")
    (Btree.find t "dup")

let test_insert_batch_empty_tree () =
  let t = mk ~max_entries:4 () in
  let batch = List.init 500 (fun i -> (Printf.sprintf "%05d" i, "")) in
  Btree.insert_batch t batch;
  Btree.check t;
  Alcotest.(check int) "all in" 500 (Btree.length t);
  Btree.insert_batch t [];
  Btree.check t

let test_batch_with_overflow_values () =
  let t = mk ~page_size:128 () in
  let big = String.make 2000 'x' in
  Btree.insert_batch t
    [ ("a", "small"); ("b", big); ("c", ""); ("d", big ^ "2") ];
  Btree.check t;
  Alcotest.(check (option string)) "big via batch" (Some big) (Btree.find t "b");
  Alcotest.(check (option string)) "second big" (Some (big ^ "2")) (Btree.find t "d");
  (* replacing an overflow value through a batch frees the old chain *)
  let before = Storage.Pager.page_count (Btree.pager t) in
  Btree.insert_batch t [ ("b", "tiny") ];
  if Storage.Pager.page_count (Btree.pager t) >= before then
    Alcotest.fail "batch replacement did not free the overflow chain";
  Alcotest.(check (option string)) "replaced" (Some "tiny") (Btree.find t "b")

let test_batch_write_amortization () =
  (* the point of [4]: a clustered batch writes each touched page once *)
  let build f =
    let t = mk ~page_size:1024 () in
    for i = 0 to 999 do
      Btree.insert t ~key:(Printf.sprintf "k%06d" (2 * i)) ~value:"v"
    done;
    let batch =
      List.init 500 (fun i -> (Printf.sprintf "k%06d" ((2 * i) + 1), "w"))
    in
    let stats = Storage.Pager.stats (Btree.pager t) in
    Storage.Stats.reset stats;
    f t batch;
    Btree.check t;
    stats.Storage.Stats.writes
  in
  let one_by_one =
    build (fun t batch ->
        List.iter (fun (key, value) -> Btree.insert t ~key ~value) batch)
  in
  let batched = build (fun t batch -> Btree.insert_batch t batch) in
  if batched * 3 > one_by_one then
    Alcotest.failf "batch wrote %d pages, one-by-one %d (expected >=3x saving)"
      batched one_by_one

let prop_batch_equals_sequential =
  QCheck.Test.make ~count:50 ~name:"insert_batch = sequential inserts"
    QCheck.(
      pair
        (list (pair (int_bound 200) (string_of_size (QCheck.Gen.int_range 0 5))))
        (list (pair (int_bound 200) (string_of_size (QCheck.Gen.int_range 0 5)))))
    (fun (pre, batch) ->
      let enc i = Printf.sprintf "%04d" i in
      let t1 = mk ~page_size:128 ~max_entries:4 () in
      let t2 = mk ~page_size:128 ~max_entries:4 () in
      List.iter
        (fun (k, v) ->
          Btree.insert t1 ~key:(enc k) ~value:v;
          Btree.insert t2 ~key:(enc k) ~value:v)
        pre;
      List.iter (fun (k, v) -> Btree.insert t1 ~key:(enc k) ~value:v) batch;
      Btree.insert_batch t2 (List.map (fun (k, v) -> (enc k, v)) batch);
      Btree.check t1;
      Btree.check t2;
      all_entries t1 = all_entries t2)

(* --- model-based randomized test -------------------------------------------- *)

let prop_model =
  QCheck.Test.make ~count:30 ~name:"btree behaves like a sorted map"
    QCheck.(
      list
        (pair (int_bound 2) (string_of_size (QCheck.Gen.int_range 1 12))))
    (fun ops ->
      let t = mk ~page_size:128 ~max_entries:5 () in
      let model = ref Smap.empty in
      List.iteri
        (fun i (op, key) ->
          let key = if key = "" then "k" else key in
          match op with
          | 0 | 1 ->
              let v = Printf.sprintf "v%d" i in
              Btree.insert t ~key ~value:v;
              model := Smap.add key v !model
          | _ ->
              let present = Btree.delete t key in
              if present <> Smap.mem key !model then
                QCheck.Test.fail_reportf "delete presence mismatch on %S" key;
              model := Smap.remove key !model)
        ops;
      let r = Btree.check_invariants t in
      if r.Btree.entries <> Smap.cardinal !model then
        QCheck.Test.fail_reportf "report counts %d entries, model %d"
          r.Btree.entries (Smap.cardinal !model);
      if r.Btree.height <> Btree.height t then
        QCheck.Test.fail_reportf "report height diverged";
      if r.Btree.min_fill < 0. || r.Btree.min_fill > 1. then
        QCheck.Test.fail_reportf "min_fill %f out of range" r.Btree.min_fill;
      if r.Btree.avg_fill < 0. || r.Btree.avg_fill > 1. then
        QCheck.Test.fail_reportf "avg_fill %f out of range" r.Btree.avg_fill;
      let got = all_entries t in
      let want = Smap.bindings !model in
      if got <> want then
        QCheck.Test.fail_reportf "contents diverged: %d vs %d entries"
          (List.length got) (List.length want);
      true)

(* random insert/delete/update sequences on a file-backed tree: after a
   sync + reattach cycle the tree is identical and the invariant report is
   unchanged *)
let prop_sync_reattach =
  QCheck.Test.make ~count:30 ~name:"sync/reattach preserves the tree"
    QCheck.(
      list (pair (int_bound 2) (string_of_size (QCheck.Gen.int_range 1 10))))
    (fun ops ->
      let path = Filename.temp_file "uindex_btree_sync" ".pages" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ path; Storage.Pager.journal_path path ])
        (fun () ->
          let pager = Storage.Pager.create_file ~page_size:256 path in
          let t = Btree.create pager in
          List.iteri
            (fun i (op, key) ->
              match op with
              | 0 | 1 -> Btree.insert t ~key ~value:(Printf.sprintf "v%d" i)
              | _ -> ignore (Btree.delete t key))
            ops;
          let before = all_entries t in
          let r_before = Btree.check_invariants t in
          Btree.sync t;
          Storage.Pager.close pager;
          let pager = Storage.Pager.open_file path in
          let t = Btree.reattach pager in
          let same =
            all_entries t = before && Btree.check_invariants t = r_before
          in
          Storage.Pager.close pager;
          same))

(* failure injection: decoding an arbitrary (corrupted) page must either
   produce a node or raise Invalid_argument — never crash or hang *)
let prop_decode_garbage =
  QCheck.Test.make ~count:500 ~name:"Node.decode survives garbage pages"
    QCheck.(string_of_size (QCheck.Gen.return 256))
    (fun junk ->
      let page = Bytes.of_string junk in
      match Btree.Node.decode page with
      | Btree.Node.Leaf _ | Btree.Node.Internal _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

(* a corrupted page inside a live tree surfaces as a clean error *)
let test_corrupted_page_detected () =
  let t = mk () in
  for i = 0 to 200 do
    Btree.insert t ~key:(Printf.sprintf "%04d" i) ~value:""
  done;
  let pager = Btree.pager t in
  (* smash a page that check will walk *)
  let victim = 0 in
  Storage.Pager.write pager victim (Bytes.make 256 '\xEE');
  match Btree.check t with
  | () -> Alcotest.fail "corruption not detected"
  | exception Storage.Storage_error.Corruption { page; component; _ } ->
      Alcotest.(check int) "damaged page identified" victim (Option.get page);
      Alcotest.(check string) "btree detector" "btree.node" component

(* a longer soak: interleaved inserts, deletes, batches and scans with
   periodic invariant checks, at realistic page size *)
let test_soak () =
  let t = mk ~page_size:1024 () in
  let rng = Workload.Rng.create 2026 in
  let module Smap = Map.Make (String) in
  let model = ref Smap.empty in
  let key () = Printf.sprintf "k%06d" (Workload.Rng.int rng 30_000) in
  for round = 1 to 40 do
    (match Workload.Rng.int rng 3 with
    | 0 ->
        (* burst of single inserts *)
        for _ = 1 to 500 do
          let k = key () and v = string_of_int round in
          Btree.insert t ~key:k ~value:v;
          model := Smap.add k v !model
        done
    | 1 ->
        (* a batch *)
        let batch = List.init 700 (fun i -> (key (), Printf.sprintf "b%d_%d" round i)) in
        Btree.insert_batch t batch;
        List.iter (fun (k, v) -> model := Smap.add k v !model) batch
    | _ ->
        (* deletions *)
        for _ = 1 to 400 do
          let k = key () in
          let present = Btree.delete t k in
          if present <> Smap.mem k !model then
            Alcotest.failf "delete presence diverged on %s (round %d)" k round;
          model := Smap.remove k !model
        done);
    if round mod 8 = 0 then begin
      Btree.check t;
      Alcotest.(check int)
        (Printf.sprintf "cardinality round %d" round)
        (Smap.cardinal !model) (Btree.length t)
    end
  done;
  Btree.check t;
  let got = all_entries t in
  Alcotest.(check int) "final contents" (Smap.cardinal !model) (List.length got);
  if got <> Smap.bindings !model then Alcotest.fail "final contents diverged"

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_model;
      prop_sync_reattach;
      prop_batch_equals_sequential;
      prop_decode_garbage;
    ]

let () =
  Alcotest.run "btree"
    [
      ( "node",
        [
          Alcotest.test_case "roundtrip" `Quick test_node_roundtrip;
          Alcotest.test_case "compression shrinks" `Quick test_node_size_compression;
          Alcotest.test_case "encode u16 guards" `Quick test_encode_u16_guards;
          Alcotest.test_case "tree entry guards" `Quick test_tree_entry_guards;
        ] );
      ( "operations",
        [
          Alcotest.test_case "insert/find/replace" `Quick test_insert_find;
          Alcotest.test_case "iteration sorted" `Quick test_iter_sorted;
          Alcotest.test_case "delete & rebalance" `Quick test_delete_rebalance;
          Alcotest.test_case "overflow values" `Quick test_overflow_values;
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "max entries (m=10)" `Quick test_max_entries_cap;
          Alcotest.test_case "front coding equivalence" `Quick
            test_front_coding_matches_plain;
          Alcotest.test_case "batch insert" `Quick test_insert_batch;
          Alcotest.test_case "batch into empty tree" `Quick
            test_insert_batch_empty_tree;
          Alcotest.test_case "batch write amortization" `Quick
            test_batch_write_amortization;
          Alcotest.test_case "batch with overflow values" `Quick
            test_batch_with_overflow_values;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "detected by check" `Quick
            test_corrupted_page_detected;
        ] );
      ( "scans",
        [
          Alcotest.test_case "range" `Quick test_scan_range;
          Alcotest.test_case "scanner seek/next" `Quick test_scanner_seek_next;
        ] );
      ("soak", [ Alcotest.test_case "interleaved workload" `Slow test_soak ]);
      ("properties", qsuite);
    ]
