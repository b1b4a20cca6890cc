(* Corruption robustness: the per-page checksum layer, media-fault
   injection, [Pager.open_file] diagnostics, the buffer pool's
   no-cache-on-failure guarantee, and the headline property — over
   hundreds of randomized corruptions of a real index file, every query
   either returns byte-identical results or raises
   {!Storage.Storage_error.Corruption}.  Never a silent wrong answer.
   And [Verify.salvage] always restores oracle-identical results. *)

module Pager = Storage.Pager
module Bu = Storage.Bytes_util
module Err = Storage.Storage_error
module Pool = Storage.Buffer_pool
module Value = Objstore.Value
module Index = Uindex.Index
module Verify = Uindex.Verify
module Query = Uindex.Query
module Exec = Uindex.Exec
module Dg = Workload.Datagen
module Ps = Workload.Paper_schema
module Rng = Workload.Rng

let with_temp name f =
  let path = Filename.temp_file name ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Pager.journal_path path ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let write_file path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc b)

(* mangle the file in place through [f], which may also shorten it *)
let patch path f =
  let b = read_file path in
  write_file path (f b)

(* a small valid page file: [pages] pages of recognizable content *)
let build_file ?(page_size = 128) ?(checksums = true) ~pages path =
  let p = Pager.create_file ~page_size ~checksums path in
  for i = 0 to pages - 1 do
    let id = Pager.alloc p in
    Pager.write p id (Bytes.make page_size (Char.chr (65 + (i mod 26))))
  done;
  Pager.sync p;
  Pager.close p

let expect_corruption ?component ?page what fn =
  match fn () with
  | _ -> Alcotest.failf "%s: expected Storage_error.Corruption" what
  | exception Err.Corruption { component = c; page = p; _ } ->
      Option.iter
        (fun want -> Alcotest.(check string) (what ^ ": component") want c)
        component;
      Option.iter
        (fun want ->
          Alcotest.(check (option int)) (what ^ ": page") (Some want) p)
        page

(* ------------------------------------------------------------------ *)
(* open_file diagnostics: every corrupt-header detector, by mangling a
   valid file on disk                                                  *)
(* ------------------------------------------------------------------ *)

let ps = 128

(* recompute the header's trailing FNV after editing header fields, so
   the test reaches the detector BEHIND the checksum *)
let fix_header_fnv b = Bu.put_u32 b (ps - 4) (Bu.fnv32 b 0 (ps - 4))

let test_open_truncated () =
  with_temp "uc_trunc" (fun path ->
      build_file ~pages:3 path;
      patch path (fun b -> Bytes.sub b 0 8);
      expect_corruption ~component:"pager.header" "truncated file" (fun () ->
          Pager.open_file path))

let test_open_bad_magic () =
  with_temp "uc_magic" (fun path ->
      build_file ~pages:3 path;
      patch path (fun b -> Bytes.set b 0 'X'; b);
      match Pager.open_file path with
      | _ -> Alcotest.fail "bad magic: expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_open_bad_header_checksum () =
  with_temp "uc_hsum" (fun path ->
      build_file ~pages:3 path;
      (* flip a bit of the live-count field WITHOUT fixing the FNV *)
      patch path (fun b ->
          Bytes.set b 16 (Char.chr (Char.code (Bytes.get b 16) lxor 1));
          b);
      expect_corruption ~component:"pager.header" "bad header checksum"
        (fun () -> Pager.open_file path))

let test_open_bad_meta_length () =
  with_temp "uc_meta" (fun path ->
      build_file ~pages:3 path;
      patch path (fun b ->
          Bu.put_u16 b 26 60_000 (* far beyond meta_capacity *);
          fix_header_fnv b;
          b);
      expect_corruption ~component:"pager.header" "bad metadata length"
        (fun () -> Pager.open_file path))

let test_open_live_count_mismatch () =
  with_temp "uc_live" (fun path ->
      build_file ~pages:3 path;
      patch path (fun b ->
          Bu.put_u32 b 16 0 (* header claims no live pages; 3 exist *);
          fix_header_fnv b;
          b);
      expect_corruption ~component:"pager.header" "live count mismatch"
        (fun () -> Pager.open_file path))

let test_open_corrupt_free_list () =
  with_temp "uc_free" (fun path ->
      (* checksums off: the free page's next-link is then the only
         defence, and physical page = id + 1 *)
      let p = Pager.create_file ~page_size:ps ~checksums:false path in
      let ids = List.init 3 (fun _ -> Pager.alloc p) in
      List.iter (fun id -> Pager.write p id (Bytes.make ps 'z')) ids;
      Pager.free p (List.nth ids 1);
      Pager.sync p;
      Pager.close p;
      patch path (fun b ->
          Bu.put_u32 b ((1 + 1) * ps) 9999 (* freed page 1's next-link *);
          b);
      expect_corruption ~component:"pager.free_list" "corrupt free list"
        (fun () -> Pager.open_file path))

let test_open_free_page_checksum () =
  with_temp "uc_freesum" (fun path ->
      (* checksums on: damage to a FREE page is caught at open, since the
         free chain is walked and verified eagerly *)
      let p = Pager.create_file ~page_size:ps path in
      let ids = List.init 3 (fun _ -> Pager.alloc p) in
      List.iter (fun id -> Pager.write p id (Bytes.make ps 'z')) ids;
      Pager.free p (List.nth ids 1);
      Pager.sync p;
      Pager.close p;
      patch path (fun b ->
          (* with checksums, logical id 1 lives at physical 2 + 1 = 3;
             smash a byte beyond the next-link *)
          Bytes.set b ((3 * ps) + 40) '!';
          b);
      expect_corruption ~component:"pager.free_list" ~page:1
        "free page checksum" (fun () -> Pager.open_file path))

(* ------------------------------------------------------------------ *)
(* The interleaved checksummed layout round-trips across group
   boundaries                                                          *)
(* ------------------------------------------------------------------ *)

let test_checksummed_layout_roundtrip () =
  with_temp "uc_layout" (fun path ->
      (* page_size 64 => 15 data pages per checksum group; 40 pages span
         three groups *)
      let ps = 64 in
      let n = 40 in
      let content i = Bytes.make ps (Char.chr (33 + (i mod 90))) in
      let p = Pager.create_file ~page_size:ps path in
      for i = 0 to n - 1 do
        let id = Pager.alloc p in
        Alcotest.(check int) "dense ids" i id;
        Pager.write p id (content i)
      done;
      Pager.sync p;
      Pager.close p;
      let p = Pager.open_file path in
      Alcotest.(check bool) "checksums survive reopen" true
        (Pager.checksums_enabled p);
      for i = 0 to n - 1 do
        Alcotest.(check bytes) (Printf.sprintf "page %d" i) (content i)
          (Pager.read p i)
      done;
      (* free across groups, reallocate, and round-trip again *)
      List.iter (fun id -> Pager.free p id) [ 2; 17; 33 ];
      Pager.sync p;
      let re = List.init 3 (fun _ -> Pager.alloc p) in
      List.iter (fun id -> Pager.write p id (content (id + 7))) re;
      Pager.sync p;
      Pager.close p;
      let p = Pager.open_file path in
      List.iter
        (fun id ->
          Alcotest.(check bytes)
            (Printf.sprintf "refilled page %d" id)
            (content (id + 7)) (Pager.read p id))
        re;
      Pager.close p)

(* ------------------------------------------------------------------ *)
(* Media faults: each kind is detected by the checksum layer            *)
(* ------------------------------------------------------------------ *)

let failures () = Obs.Metrics.value Err.checksum_failures

let test_flip_bit_detected () =
  with_temp "uc_flip" (fun path ->
      build_file ~pages:2 path;
      let p = Pager.open_file path in
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Flip_bit { page = 0; bit = 777 } ] }
           p);
      let before = failures () in
      expect_corruption ~component:"pager.page" ~page:0 "flipped bit"
        (fun () -> Pager.read p 0);
      Alcotest.(check bool) "metric incremented" true (failures () > before);
      (* the undamaged page still reads fine *)
      Alcotest.(check char) "page 1 intact" 'B' (Bytes.get (Pager.read p 1) 0);
      Pager.close p)

let test_zero_page_detected () =
  with_temp "uc_zero" (fun path ->
      build_file ~pages:2 path;
      let p = Pager.open_file path in
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Zero_page { page = 1 } ] }
           p);
      expect_corruption ~component:"pager.page" ~page:1 "zeroed page"
        (fun () -> Pager.read p 1);
      Pager.close p)

let test_flip_bit_silent_without_checksums () =
  with_temp "uc_silent" (fun path ->
      build_file ~checksums:false ~pages:1 path;
      let p = Pager.open_file path in
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Flip_bit { page = 0; bit = 3 } ] }
           p);
      (* no checksum layer: the damage is returned silently — this is
         exactly the failure mode checksums exist to close *)
      let b = Pager.read p 0 in
      Alcotest.(check bool) "bytes silently corrupt" true
        (Bytes.get b 0 <> 'A');
      Pager.close p)

let test_stale_page_detected () =
  with_temp "uc_stale" (fun path ->
      let ps = 128 in
      let p = Pager.create_file ~page_size:ps path in
      let id = Pager.alloc p in
      Pager.write p id (Bytes.make ps 'a');
      Pager.sync p;
      (* arm: snapshot the committed 'a' image; after the next sync the
         fault puts it back — a lost write, the classic firmware lie *)
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Stale_page { page = id } ] }
           p);
      Pager.write p id (Bytes.make ps 'b');
      Pager.sync p;
      expect_corruption ~component:"pager.page" ~page:id "stale page"
        (fun () -> Pager.read p id);
      Pager.close p)

let test_truncate_detected () =
  with_temp "uc_trunc2" (fun path ->
      build_file ~pages:6 path;
      let p = Pager.open_file path in
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Truncate_file { keep = 2 } ] }
           p);
      Pager.close p;
      (* reads of the lost region come back as zeros; some detector
         (checksum page, free list, or per-page sum) must fire *)
      expect_corruption "truncated tail" (fun () ->
          let p = Pager.open_file path in
          for id = 0 to 5 do
            ignore (Pager.read p id)
          done;
          Pager.close p))

let test_truncate_rejected_on_memory () =
  let p = Pager.create () in
  match
    Pager.create_faulty
      { Pager.no_faults with media = [ Pager.Truncate_file { keep = 1 } ] }
      p
  with
  | _ -> Alcotest.fail "truncate on a memory pager should be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The buffer pool must never retain a page whose read failed           *)
(* ------------------------------------------------------------------ *)

let test_pool_never_caches_corrupt_page () =
  with_temp "uc_pool" (fun path ->
      build_file ~pages:2 path;
      let p = Pager.open_file path in
      let pool = Pool.create ~capacity:4 p in
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Flip_bit { page = 0; bit = 9 } ] }
           p);
      Alcotest.(check char) "clean page cached" 'B' (Bytes.get (Pool.read pool 1) 0);
      Alcotest.(check int) "one resident" 1 (Pool.resident pool);
      expect_corruption ~component:"pager.page" "pool read of bad page"
        (fun () -> Pool.read pool 0);
      Alcotest.(check int) "failed page not cached" 1 (Pool.resident pool);
      (* a second read must hit the pager (and fail) again, not a cache *)
      expect_corruption ~component:"pager.page" "pool read again" (fun () ->
          Pool.read pool 0);
      Pager.close p)

(* ------------------------------------------------------------------ *)
(* attach/reattach over a damaged root: typed corruption, not a bare
   decode error                                                        *)
(* ------------------------------------------------------------------ *)

(* Regression: [attach] walks the leftmost path to recover the tree
   height, and used to decode those pages directly — a root page that no
   longer parsed as a node escaped as [Invalid_argument] instead of
   {!Err.Corruption}.  The damage is written through the pager, so its
   checksums stay consistent and only the node layer can notice. *)
let test_attach_corrupt_root () =
  with_temp "uc_attach" (fun path ->
      let page_size = 256 in
      let root =
        let p = Pager.create_file ~page_size path in
        let t = Btree.create p in
        for i = 0 to 99 do
          Btree.insert t ~key:(Printf.sprintf "k%03d" i)
            ~value:(string_of_int i)
        done;
        Btree.sync t;
        let root = Btree.root t in
        Pager.close p;
        root
      in
      let p = Pager.open_file path in
      Pager.write p root (Bytes.make page_size '\007');
      expect_corruption ~component:"btree.node" ~page:root
        "attach over mangled root" (fun () -> Btree.attach p ~root);
      expect_corruption ~component:"btree.node" ~page:root
        "reattach over mangled root" (fun () -> Btree.reattach p);
      Pager.close p)

(* A damaged non-root leaf must surface as typed corruption naming that
   leaf through every read entry point: the point lookups, a seek that
   lands on it from the root or by a finger climb from the previous
   leaf, and a cursor that walks onto it along the leaf chain.
   [damage] builds the garbage page; it is written through the pager, so
   only the node layer can notice. *)
let test_damaged_leaf damage () =
  let page_size = 256 in
  let p = Pager.create ~page_size () in
  let t = Btree.create p in
  for i = 0 to 99 do
    Btree.insert t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  (* the leaves in key order: record the leaf pages a full iteration
     reads as it walks the leaf chain *)
  let leaves = ref [] in
  Btree.iter t
    ~read:(fun id ->
      let b = Pager.read p id in
      if Btree.Node.is_leaf_page b then leaves := id :: !leaves;
      b)
    ignore;
  let leaves = List.rev !leaves in
  let prev, leaf =
    match leaves with
    | a :: b :: _ :: _ -> (a, b)
    | _ -> Alcotest.fail "tree too small: want at least three leaves"
  in
  let keys id =
    match Btree.Node.decode (Pager.read p id) with
    | Btree.Node.Leaf l -> l.lkeys
    | Btree.Node.Internal _ -> Alcotest.fail "not a leaf"
  in
  let inside = (keys leaf).(0) in
  let before =
    let k = keys prev in
    k.(Array.length k - 1)
  in
  Pager.write p leaf (damage page_size);
  let expect what fn =
    expect_corruption ~component:"btree.node" ~page:leaf what (fun () ->
        ignore (fn ()))
  in
  expect "find" (fun () -> Btree.find t inside);
  expect "mem" (fun () -> Btree.mem t inside);
  let sc = Btree.Scanner.create t ~read:(Btree.raw_read t) in
  expect "Scanner.seek" (fun () -> Btree.Scanner.seek sc inside);
  let on_previous_leaf () =
    Btree.Scanner.reset sc t ~read:(Btree.raw_read t);
    match Btree.Scanner.seek sc before with
    | Some e -> Alcotest.(check string) "cursor on previous leaf" before e.key
    | None -> Alcotest.fail "seek into the previous leaf found nothing"
  in
  (* a finger seek from the previous leaf climbs its held path and
     descends onto the damaged leaf *)
  on_previous_leaf ();
  let counter name =
    Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)
  in
  let d0 = counter "btree.descents" and f0 = counter "btree.finger_seeks" in
  expect "Scanner.seek (finger climb)" (fun () -> Btree.Scanner.seek sc inside);
  Alcotest.(check (pair int int)) "served from the held path, no root descent"
    (0, 1)
    (counter "btree.descents" - d0, counter "btree.finger_seeks" - f0);
  on_previous_leaf ();
  expect "Scanner.next" (fun () -> Btree.Scanner.next sc)

let bad_kind_byte page_size = Bytes.make page_size '\007'

(* a leaf kind byte over 0xFF bytes: entry count, prefix and suffix
   lengths all run past the page *)
let garbage_leaf_body page_size =
  let b = Bytes.make page_size '\xff' in
  Bytes.set b 0 '\001';
  b

(* ------------------------------------------------------------------ *)
(* The headline property: randomized corruption never yields a silent
   wrong answer, and salvage restores the oracle                        *)
(* ------------------------------------------------------------------ *)

(* One pristine index file, built once: a class-hierarchy index on
   Vehicle.color over the experiment-1 store. *)
let prop_no_silent_wrong_answers =
  let n_vehicles = 400 in
  let file_ps = 256 in
  let e = Dg.exp1 ~n_vehicles ~seed:7 () in
  let b = e.Dg.ext.Ps.b in
  let attach pager =
    Index.attach_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
      ~attr:"color"
  in
  (* an index description to salvage from: only its in-memory shape is
     used, so a throwaway empty memory index serves *)
  let desc =
    Index.create_class_hierarchy (Pager.create ()) b.Ps.enc
      ~root:b.Ps.vehicle ~attr:"color"
  in
  let queries =
    [
      Query.class_hierarchy ~value:Query.V_any (Query.P_subtree e.Dg.ext.Ps.bus);
      Query.class_hierarchy
        ~value:(Query.V_eq (Value.Str Ps.colors.(0)))
        (Query.P_subtree e.Dg.ext.Ps.bus);
      Query.class_hierarchy ~value:Query.V_any
        (Query.P_subtree b.Ps.automobile);
    ]
  in
  let canon (o : Exec.outcome) =
    List.sort compare
      (List.map (fun bd -> (bd.Exec.value, bd.Exec.comps)) o.Exec.bindings)
  in
  let pristine = Filename.temp_file "uc_prop" ".pages" in
  let () =
    let pager = Pager.create_file ~page_size:file_ps pristine in
    let idx =
      Index.create_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
        ~attr:"color"
    in
    Index.build idx e.Dg.store;
    Index.sync idx;
    Pager.close pager
  in
  let image = read_file pristine in
  let oracle =
    let pager = Pager.open_file pristine in
    let idx = attach pager in
    let o = List.map (fun q -> canon (Exec.run ~algo:`Parallel idx q)) queries in
    Pager.close pager;
    o
  in
  Sys.remove pristine;
  let victim = pristine ^ ".victim" in
  at_exit (fun () -> try Sys.remove victim with Sys_error _ -> ());
  QCheck.Test.make ~count:500
    ~name:"corruption: byte-identical answers or Corruption, never silence"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_bytes = Bytes.length image in
      let n_phys = n_bytes / file_ps in
      (* derive one corruption of the committed image from the seed *)
      let mangled = Bytes.copy image in
      let mangled =
        match Rng.int rng 10 with
        | 0 | 1 ->
            (* zero a whole physical page *)
            let ph = Rng.int rng n_phys in
            Bytes.fill mangled (ph * file_ps) file_ps '\000';
            mangled
        | 2 ->
            (* drop the tail of the file *)
            let keep = 1 + Rng.int rng (n_phys - 1) in
            Bytes.sub mangled 0 (keep * file_ps)
        | _ ->
            (* flip one bit anywhere: header, checksum page, node, ... *)
            let off = Rng.int rng n_bytes in
            let bit = Rng.int rng 8 in
            Bytes.set mangled off
              (Char.chr (Char.code (Bytes.get mangled off) lxor (1 lsl bit)));
            mangled
      in
      write_file victim mangled;
      let detected = ref false in
      (match Pager.open_file victim with
      | exception Err.Corruption _ -> detected := true
      | exception Invalid_argument _ -> detected := true (* smashed magic *)
      | pager ->
          Fun.protect
            ~finally:(fun () -> Pager.close pager)
            (fun () ->
              match attach pager with
              | exception Err.Corruption _ -> detected := true
              | idx ->
                  let raised_in_query = ref false in
                  List.iter2
                    (fun q expect ->
                      match Exec.run ~algo:`Parallel idx q with
                      | o ->
                          if canon o <> expect then
                            QCheck.Test.fail_reportf
                              "silent wrong answer (seed %d)" seed
                      | exception Err.Corruption _ ->
                          raised_in_query := true)
                    queries oracle;
                  if !raised_in_query then begin
                    detected := true;
                    (* whatever a query can trip over, the verifier must
                       find too *)
                    let report = Verify.check ~store:e.Dg.store idx in
                    if report.Verify.ok then
                      QCheck.Test.fail_reportf
                        "query raised Corruption but check said ok (seed %d)"
                        seed
                  end));
      (* salvage never needs the damaged file: rebuild from the store
         and the answers must match the oracle exactly *)
      if !detected then begin
        let fresh_pager = Pager.create () in
        let fresh = Verify.salvage desc e.Dg.store fresh_pager in
        List.iter2
          (fun q expect ->
            if canon (Exec.run ~algo:`Parallel fresh q) <> expect then
              QCheck.Test.fail_reportf "salvage diverged (seed %d)" seed)
          queries oracle
      end;
      true)

(* the verifier also accepts a healthy index, with sensible page roles *)
let test_verify_clean () =
  with_temp "uc_verify" (fun path ->
      let e = Dg.exp1 ~n_vehicles:200 ~seed:3 () in
      let b = e.Dg.ext.Ps.b in
      let pager = Pager.create_file ~page_size:256 path in
      let idx =
        Index.create_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
          ~attr:"color"
      in
      Index.build idx e.Dg.store;
      Index.sync idx;
      let r = Verify.check ~store:e.Dg.store idx in
      Alcotest.(check bool) "ok" true r.Verify.ok;
      Alcotest.(check int) "entries" (Index.entry_count idx) r.Verify.entries;
      Alcotest.(check bool) "nodes counted" true (r.Verify.node_pages > 0);
      Alcotest.(check int) "all pages accounted" r.Verify.pages
        (r.Verify.node_pages + r.Verify.overflow_pages + r.Verify.free_pages);
      Pager.close pager)

(* ------------------------------------------------------------------ *)
(* Containment: damage under one index fails only the queries that use
   it                                                                  *)
(* ------------------------------------------------------------------ *)

module Db = Uindex.Db
module Service = Uindex_server.Service
module Protocol = Uindex_server.Protocol

(* One service over two checksummed in-memory indexes: [a] on colours
   (arity 1) and the path index on ages (arity 3). *)
let served_pair () =
  let e = Dg.exp1 ~n_vehicles:400 ~seed:7 () in
  let b = e.Dg.ext.Ps.b in
  (* small nodes, as in the paper's first experiment: taller trees *)
  let config = { (Btree.default_config ~page_size:1024) with max_entries = Some 10 } in
  let index make =
    let idx = make (Pager.create ~checksums:true ()) in
    Index.build idx e.Dg.store;
    idx
  in
  let a =
    index (fun p ->
        Index.create_class_hierarchy ~config p b.Ps.enc
          ~root:b.Ps.vehicle ~attr:"color")
  in
  let ages =
    index (fun p ->
        Index.create_path ~config p b.Ps.enc ~head:b.Ps.vehicle
          ~refs:[ "manufactured_by"; "president" ] ~attr:"age")
  in
  let db = Db.create e.Dg.store in
  Db.attach_index db a;
  Db.attach_index db ages;
  (a, Service.create ~schema:b.Ps.schema db)

let a_lines = [ "query (Red, Vehicle*)"; "query-forward (White, Bus*)" ]

let b_lines =
  [
    "query ([30-31], Employee*, Company*, Vehicle*)";
    "query-forward ([40-60], Employee*, AutoCompany*, Truck*)";
    "query (*, Employee*, Company*, Vehicle*)";
  ]

(* Index A's committed root is zeroed under a running service.  Cold:
   A was never attached in this epoch, so its attach trips; warm: A's
   root and height are cached in its epoch, so its descent trips.
   Either way A's queries get a typed data_corruption, B's replies stay
   byte-identical to the undamaged ones, and every session drains. *)
let test_damage_contained () =
  List.iter
    (fun warm ->
      let a, svc = served_pair () in
      let serve line = Obs.Json.of_string (Service.serve_line svc line) in
      let before = List.map (Service.serve_line svc) b_lines in
      if warm then
        List.iter
          (fun line ->
            Alcotest.(check bool) ("undamaged " ^ line) true
              (Protocol.response_is_ok (serve line)))
          a_lines;
      let tree = Index.tree a in
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Zero_page { page = Btree.root tree } ] }
           (Btree.pager tree));
      for _ = 1 to 2 do
        List.iter
          (fun line ->
            Alcotest.(check (option string)) ("damaged " ^ line)
              (Some "data_corruption")
              (Protocol.response_error_kind (serve line)))
          a_lines;
        List.iter2
          (fun line want ->
            Alcotest.(check string) ("untouched " ^ line) want
              (Service.serve_line svc line))
          b_lines before
      done;
      Alcotest.(check int) "sessions drained" 0 (Db.active_sessions ()))
    [ false; true ]

let unit_suite =
  [
    Alcotest.test_case "open: truncated file" `Quick test_open_truncated;
    Alcotest.test_case "open: bad magic" `Quick test_open_bad_magic;
    Alcotest.test_case "open: bad header checksum" `Quick
      test_open_bad_header_checksum;
    Alcotest.test_case "open: bad metadata length" `Quick
      test_open_bad_meta_length;
    Alcotest.test_case "open: live count mismatch" `Quick
      test_open_live_count_mismatch;
    Alcotest.test_case "open: corrupt free list" `Quick
      test_open_corrupt_free_list;
    Alcotest.test_case "open: free page checksum" `Quick
      test_open_free_page_checksum;
    Alcotest.test_case "checksummed layout round-trips" `Quick
      test_checksummed_layout_roundtrip;
    Alcotest.test_case "flip_bit detected" `Quick test_flip_bit_detected;
    Alcotest.test_case "zero_page detected" `Quick test_zero_page_detected;
    Alcotest.test_case "flip silent without checksums" `Quick
      test_flip_bit_silent_without_checksums;
    Alcotest.test_case "stale_page detected" `Quick test_stale_page_detected;
    Alcotest.test_case "truncate detected" `Quick test_truncate_detected;
    Alcotest.test_case "truncate rejected on memory pager" `Quick
      test_truncate_rejected_on_memory;
    Alcotest.test_case "pool never caches a corrupt page" `Quick
      test_pool_never_caches_corrupt_page;
    Alcotest.test_case "attach over corrupt root" `Quick
      test_attach_corrupt_root;
    Alcotest.test_case "damaged leaf: bad kind byte" `Quick
      (test_damaged_leaf bad_kind_byte);
    Alcotest.test_case "damaged leaf: garbage leaf body" `Quick
      (test_damaged_leaf garbage_leaf_body);
    Alcotest.test_case "verify accepts a healthy index" `Quick
      test_verify_clean;
    Alcotest.test_case "containment: damage fails only its index" `Quick
      test_damage_contained;
  ]

let () =
  Alcotest.run "corruption"
    [
      ("detect", unit_suite);
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_no_silent_wrong_answers ] );
    ]
