(* Dedicated tests for the executors' cost accounting: the properties the
   paper's measurements rest on. *)

module Ps = Workload.Paper_schema
module Dg = Workload.Datagen
module Qg = Workload.Querygen
module Value = Objstore.Value
module Query = Uindex.Query
module Index = Uindex.Index
module Exec = Uindex.Exec
module Stats = Storage.Stats
module Pager = Storage.Pager

let small = lazy (
  Dg.exp2 { (Dg.default_exp2 ~n_classes:12 ~distinct_keys:40) with
            n_objects = 5_000; seed = 8 })

let q_of _d ~lo ~hi ~sets =
  let value =
    if lo = hi then Query.V_eq (Value.Int lo)
    else Query.V_range (Some (Value.Int lo), Some (Value.Int hi))
  in
  Query.class_hierarchy ~value (Qg.union_of_classes sets)

let test_parallel_never_worse_on_ch () =
  (* on single-component (class-hierarchy) queries the parallel algorithm
     visits a subset of the forward scan's bracket *)
  let d = Lazy.force small in
  let rng = Workload.Rng.create 3 in
  for _ = 1 to 30 do
    let k = 1 + Workload.Rng.int rng 12 in
    let sets = Qg.pick_sets rng Qg.Random ~classes:d.classes ~k in
    let lo = Workload.Rng.int rng 40 in
    let hi = min 39 (lo + Workload.Rng.int rng 8) in
    let q = q_of d ~lo ~hi:(max lo hi) ~sets in
    let p = Exec.parallel d.uindex q and f = Exec.forward d.uindex q in
    Alcotest.(check (list int)) "same bindings" (Exec.head_oids f)
      (Exec.head_oids p);
    (* skipping may touch internal pages the forward scan's single descent
       never sees (cf. Table 1's queries 5b/6), but it can never exceed
       forward by more than that internal overhead *)
    let slack = Btree.height (Index.tree d.uindex) + (f.Exec.page_reads / 4) in
    if p.Exec.page_reads > f.Exec.page_reads + slack then
      Alcotest.failf "parallel %d way above forward %d pages" p.Exec.page_reads
        f.Exec.page_reads;
    if p.Exec.entries_scanned > f.Exec.entries_scanned then
      Alcotest.failf "parallel scanned more entries (%d > %d)"
        p.Exec.entries_scanned f.Exec.entries_scanned
  done

let test_page_reads_match_stats () =
  (* the outcome's page_reads equals the pager-stat delta — nothing else
     reads pages during a query *)
  let d = Lazy.force small in
  let stats = Pager.stats (Btree.pager (Index.tree d.uindex)) in
  let q = q_of d ~lo:5 ~hi:9 ~sets:(Array.to_list d.classes) in
  let before = Stats.snapshot stats in
  let o = Exec.parallel d.uindex q in
  let delta = (Stats.diff ~before ~after:(Stats.snapshot stats)).Stats.reads in
  Alcotest.(check int) "accounted reads" delta o.Exec.page_reads;
  Alcotest.(check int) "queries do not write" 0
    (Stats.diff ~before ~after:(Stats.snapshot stats)).Stats.writes

let test_empty_results_cheap () =
  let d = Lazy.force small in
  (* a value beyond the domain: descent only *)
  let q = q_of d ~lo:999_999 ~hi:999_999 ~sets:[ d.classes.(0) ] in
  let o = Exec.parallel d.uindex q in
  Alcotest.(check (list int)) "no results" [] (Exec.head_oids o);
  if o.Exec.page_reads > Btree.height (Index.tree d.uindex) + 1 then
    Alcotest.failf "empty exact match read %d pages" o.Exec.page_reads;
  (* an empty range reads nothing at all *)
  let q =
    Query.class_hierarchy
      ~value:(V_range (Some (Value.Int 9), Some (Value.Int 3)))
      (P_subtree d.root)
  in
  let o = Exec.parallel d.uindex q in
  Alcotest.(check int) "empty range reads nothing" 0 o.Exec.page_reads

let test_unbounded_range () =
  let d = Lazy.force small in
  let all = Array.to_list d.classes in
  let q =
    Query.class_hierarchy ~value:(V_range (None, None)) (P_subtree d.root)
  in
  let o = Exec.parallel d.uindex q in
  Alcotest.(check int) "everything" d.cfg.n_objects (List.length o.Exec.bindings);
  let q = Query.class_hierarchy ~value:V_any (Qg.union_of_classes all) in
  let o' = Exec.parallel d.uindex q in
  Alcotest.(check int) "V_any = full range" (List.length o.Exec.bindings)
    (List.length o'.Exec.bindings)

let test_one_of_slot () =
  (* S_one_of on an exact-class first component compiles to per-OID point
     intervals: results are right and reads stay near the tree height *)
  let d = Lazy.force small in
  let cls = d.classes.(3) in
  let matching =
    Array.to_list d.entries
    |> List.filter_map (fun (k, c, oid) ->
           if k = 11 && c = cls then Some oid else None)
  in
  QCheck.assume (List.length matching >= 2);
  let chosen = [ List.nth matching 0; List.nth matching 1; 999_999 ] in
  let q =
    {
      Query.value = V_eq (Value.Int 11);
      comps = [ Query.comp ~slot:(S_one_of chosen) (P_class cls) ];
    }
  in
  let o = Exec.parallel d.uindex q in
  Alcotest.(check (list int))
    "exact oids"
    (List.sort compare [ List.nth matching 0; List.nth matching 1 ])
    (Exec.head_oids o);
  if o.Exec.page_reads > 3 * Btree.height (Index.tree d.uindex) then
    Alcotest.failf "point intervals read too much: %d pages" o.Exec.page_reads

let test_subtree_minus () =
  let b = Ps.base () in
  let ex = Ps.example1 b in
  let idx =
    Index.create_class_hierarchy (Storage.Pager.create ()) b.enc
      ~root:b.vehicle ~attr:"color"
  in
  Index.build idx ex.store;
  (* the paper's query 4: white vehicles that are not compact automobiles *)
  let pat = Query.subtree_minus b.schema b.vehicle ~except:[ b.compact ] in
  let o =
    Exec.parallel idx (Query.class_hierarchy ~value:(V_eq (Str "White")) pat)
  in
  Alcotest.(check (list int)) "non-compact whites" [ ex.v1; ex.v2 ]
    (Exec.head_oids o);
  (* carving out the root leaves nothing *)
  Alcotest.check_raises "nothing left"
    (Invalid_argument "Query.subtree_minus: nothing remains of the subtree")
    (fun () -> ignore (Query.subtree_minus b.schema b.vehicle ~except:[ b.vehicle ]));
  (* minimality: untouched subtrees stay as single subtree patterns *)
  (match Query.subtree_minus b.schema b.vehicle ~except:[ b.truck ] with
  | Query.P_union ps ->
      Alcotest.(check bool) "automobile survives whole" true
        (List.mem (Query.P_subtree b.automobile) ps)
  | _ -> Alcotest.fail "expected a union")

let test_compression_stats () =
  let d = Lazy.force small in
  let cs = Btree.compression_stats (Index.tree d.uindex) in
  Alcotest.(check bool) "entries counted" true (cs.Btree.entries >= d.cfg.n_objects);
  if cs.Btree.stored_key_bytes * 2 > cs.Btree.raw_key_bytes then
    Alcotest.failf "compression too weak: %d stored of %d raw"
      cs.Btree.stored_key_bytes cs.Btree.raw_key_bytes;
  Alcotest.(check bool) "avg prefix positive" true (cs.Btree.avg_prefix_len > 1.

  )

let test_explain () =
  let d = Lazy.force small in
  let idx = d.uindex in
  let tree = Index.tree idx in
  let stats = Pager.stats (Btree.pager tree) in
  let height = Btree.height tree in
  let sets = Qg.union_of_classes [ d.classes.(2); d.classes.(5) ] in
  (* every page's true level, from a decode walk of the tree *)
  let levels = Hashtbl.create 256 in
  let rec walk id level =
    Hashtbl.replace levels id level;
    match Btree.Node.decode (Pager.read (Btree.pager tree) id) with
    | Btree.Node.Internal n -> Array.iter (fun c -> walk c (level + 1)) n.children
    | Btree.Node.Leaf _ -> ()
  in
  walk (Btree.root tree) 0;
  let explains label q =
    (* the dry run touches exactly the pages the real walk reads *)
    let uncached = (Exec.parallel idx q).Exec.page_reads in
    List.iter
      (fun pool ->
        let label = Printf.sprintf "%s, pool %d" label pool in
        Index.set_cache_pages idx pool;
        ignore (Exec.parallel idx q);
        let before = Stats.snapshot stats in
        let visits = Exec.explain idx q in
        let after = Stats.snapshot stats in
        Alcotest.(check int) (label ^ ": visits = page reads") uncached
          (List.length visits);
        (match visits with
        | v :: _ ->
            Alcotest.(check int) (label ^ ": root first") (Btree.root tree)
              v.Exec.page;
            Alcotest.(check int) (label ^ ": root at depth 0") 0 v.Exec.depth
        | [] -> Alcotest.fail (label ^ ": no visits"));
        List.iter
          (fun (v : Exec.visit) ->
            if v.is_leaf then
              Alcotest.(check int) (label ^ ": leaves at height - 1")
                (height - 1) v.depth;
            Alcotest.(check (option int))
              (Printf.sprintf "%s: page %d at its level" label v.page)
              (Hashtbl.find_opt levels v.page) (Some v.depth))
          visits;
        let pages = List.map (fun (v : Exec.visit) -> v.page) visits in
        Alcotest.(check int) (label ^ ": each page once") (List.length pages)
          (List.length (List.sort_uniq compare pages));
        (* explain must not disturb accounting or the pool *)
        Alcotest.(check (list int))
          (label ^ ": reads, pool hits and misses unchanged")
          [ before.reads; before.pool_hits; before.pool_misses ]
          [ after.reads; after.pool_hits; after.pool_misses ])
      [ 0; 256 ];
    Index.set_cache_pages idx 0
  in
  explains "enumerable"
    (Query.class_hierarchy ~value:(V_in [ Value.Int 7; Value.Int 21 ]) sets);
  explains "range"
    (Query.class_hierarchy
       ~value:(V_range (Some (Value.Int 0), Some (Value.Int 10)))
       sets)

let test_buffer_pool_reuse () =
  (* repeated identical queries through an LRU pool approach 100% hits *)
  let d = Lazy.force small in
  let tree = Index.tree d.uindex in
  let pool = Storage.Buffer_pool.create ~capacity:2048 (Btree.pager tree) in
  let read id = Storage.Buffer_pool.read pool id in
  let q = q_of d ~lo:5 ~hi:9 ~sets:(Array.to_list d.classes) in
  let plan =
    Uindex.Plan.compile ~enc:(Index.encoding d.uindex) ~ty:(Index.attr_ty d.uindex) q
  in
  let run () =
    let sc = Btree.Scanner.create tree ~read in
    let rec go cur n =
      match cur with
      | Some (e : Btree.entry) -> (
          match Uindex.Plan.classify plan e.key with
          | Uindex.Plan.Accept _ -> go (Btree.Scanner.next sc) (n + 1)
          | Uindex.Plan.Reject _ -> go (Btree.Scanner.next sc) n)
      | None -> n
    in
    match Uindex.Plan.lower plan with
    | Some lo -> go (Btree.Scanner.seek sc lo) 0
    | None -> 0
  in
  ignore (run ());
  let miss0 = Storage.Buffer_pool.misses pool in
  ignore (run ());
  Alcotest.(check int) "second run all hits" miss0
    (Storage.Buffer_pool.misses pool)

(* --- allocation: the scan loop's rejected entries -------------------------- *)

(* The walk [Exec] runs, driven here step by step so that the minor words
   of each rejected entry — its classification plus the scanner move it
   asks for — are counted apart from the accepted ones.  Pages come from
   a memo filled on the first walk, so the measured walk is warm and a
   page fetch allocates nothing. *)
let rejected_alloc ~skip idx q =
  let plan =
    Uindex.Plan.compile ~enc:(Index.encoding idx) ~ty:(Index.attr_ty idx) q
  in
  let tree = Index.tree idx in
  let pages = Array.make (Pager.page_count (Btree.pager tree)) Bytes.empty in
  let read id =
    if pages.(id) == Bytes.empty then pages.(id) <- Btree.raw_read tree id;
    pages.(id)
  in
  let sc = Btree.Scanner.create tree ~read in
  let lo = Option.get (Uindex.Plan.lower plan) in
  let upper = Uindex.Plan.upper plan in
  let advances = ref 0 and advance_words = ref 0 in
  let seeks = ref 0 and seek_words = ref 0 in
  let below () =
    match upper with
    | Some h ->
        Storage.Bytes_util.compare_sub (Btree.Scanner.key_bytes sc) 0
          (Btree.Scanner.key_length sc) h
        < 0
    | None -> true
  in
  let rec go live =
    if live && below () then begin
      let w0 = Gc.minor_words () in
      let r =
        Uindex.Plan.classify_in_place plan ~skip (Btree.Scanner.key_bytes sc)
          (Btree.Scanner.key_length sc)
      in
      let rejected = Uindex.Plan.arity r = 0 in
      match Uindex.Plan.move r with
      | `Advance ->
          let live = Btree.Scanner.advance sc in
          if rejected then begin
            advance_words := !advance_words + int_of_float (Gc.minor_words () -. w0);
            incr advances
          end;
          go live
      | `Seek ->
          let live =
            Btree.Scanner.seek_bytes sc (Uindex.Plan.target plan)
              (Uindex.Plan.target_length plan)
          in
          if rejected then begin
            seek_words := !seek_words + int_of_float (Gc.minor_words () -. w0);
            incr seeks
          end;
          go live
      | `Stop -> ()
    end
  in
  let walk () =
    Btree.Scanner.reset sc tree ~read;
    advances := 0;
    advance_words := 0;
    seeks := 0;
    seek_words := 0;
    go (Btree.Scanner.seek_bytes sc (Bytes.of_string lo) (String.length lo))
  in
  walk ();
  walk ();
  (!advances, !advance_words, !seeks, !seek_words)

let test_rejected_alloc () =
  let e = Dg.exp1 ~n_vehicles:3000 ~n_companies:60 ~n_employees:120 ~seed:4 () in
  let b = e.ext.b in
  (* the ledger's filter shape: every employee and company, one leaf
     class of vehicles; over a range of ages for a longer walk *)
  let q =
    Query.path ~value:(V_range (Some (Value.Int 30), Some (Value.Int 50)))
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.company);
        Query.comp (P_class e.ext.light_truck);
      ]
  in
  let adv, adv_words, _, _ = rejected_alloc ~skip:false e.path_age q in
  if adv < 100 then Alcotest.failf "forward walk rejected only %d entries" adv;
  if adv_words <> 0 then
    Alcotest.failf "forward walk: %d minor words over %d rejected entries (want 0)"
      adv_words adv;
  let adv, adv_words, seeks, seek_words = rejected_alloc ~skip:true e.path_age q in
  if seeks < 20 then Alcotest.failf "parallel walk sought only %d times" seeks;
  if adv_words <> 0 then
    Alcotest.failf "parallel walk: %d minor words over %d rejected advances"
      adv_words adv;
  (* Algorithm 1 rejects by seeking here (a rejected advance needs a key
     with fewer components than the query).  A copied target would cost a
     string of the key's length (~35 bytes, 6 words) per seek; the
     in-place one costs none today, and the bound is a constant *)
  if seek_words > 2 * seeks then
    Alcotest.failf "parallel walk: %d minor words over %d rejecting seeks"
      seek_words seeks

let () =
  Alcotest.run "exec"
    [
      ( "accounting",
        [
          Alcotest.test_case "parallel <= forward" `Quick
            test_parallel_never_worse_on_ch;
          Alcotest.test_case "page reads = stats delta" `Quick
            test_page_reads_match_stats;
          Alcotest.test_case "empty results are cheap" `Quick
            test_empty_results_cheap;
          Alcotest.test_case "unbounded ranges" `Quick test_unbounded_range;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "one-of slot intervals" `Quick test_one_of_slot;
          Alcotest.test_case "subtree minus" `Quick test_subtree_minus;
          Alcotest.test_case "compression stats" `Quick test_compression_stats;
          Alcotest.test_case "buffer pool reuse" `Quick test_buffer_pool_reuse;
          Alcotest.test_case "explain (Fig. 3 search tree)" `Quick test_explain;
        ] );
      ( "allocation",
        [ Alcotest.test_case "rejected entries" `Quick test_rejected_alloc ] );
    ]
