(* Concurrent snapshot isolation: K reader domains replay generated
   query workloads against views pinned at known committed cuts while a
   writer domain keeps mutating and committing the live index.

   The protocol: a test mutex guards (mutate + sync + record the oracle
   entry list) on the writer side and (pin a view + grab the matching
   oracle) on the reader side, so each reader knows exactly which
   committed image its view pinned.  The queries themselves run outside
   the mutex — genuinely concurrent with later commits — and every
   answer must equal the oracle evaluated at the reader's pinned cut.
   Any cross-talk from the writer (a stash missed on overwrite, a torn
   publish) shows up as a binding from the future or a vanished one.

   Plus direct invariant tests: a view pinned before a commit observes
   none of that commit's effects (file- and memory-backed), and
   [Db.session] pins all indexes at one cut. *)

module Dg = Workload.Datagen
module Rng = Workload.Rng
module Query = Uindex.Query
module Exec = Uindex.Exec
module Index = Uindex.Index
module Db = Uindex.Db
module Value = Objstore.Value
module Schema = Oodb_schema.Schema

type entry = Value.t * (Schema.class_id * int) list

let canon (o : Exec.outcome) =
  List.sort_uniq compare
    (List.map (fun b -> (b.Exec.value, b.Exec.comps)) o.Exec.bindings)

let oracle_eval schema (entries : entry list) (q : Query.t) =
  let pat =
    match q.Query.comps with [ c ] -> c.Query.pat | _ -> assert false
  in
  entries
  |> List.filter (fun (v, comps) ->
         Query.value_matches q.Query.value v
         &&
         match comps with
         | [ (cls, _) ] -> Query.pat_matches schema pat cls
         | _ -> false)
  |> List.sort_uniq compare

let gen_query rng ~classes ~distinct_keys =
  let pat =
    if Rng.int rng 2 = 0 then Query.P_subtree (Rng.pick rng classes)
    else Query.P_class (Rng.pick rng classes)
  in
  let value =
    match Rng.int rng 5 with
    | 0 -> Query.V_any
    | 1 ->
        let a = Rng.int rng distinct_keys and b = Rng.int rng distinct_keys in
        Query.V_range (Some (Value.Int (min a b)), Some (Value.Int (max a b)))
    | _ -> Query.V_eq (Value.Int (Rng.int rng distinct_keys))
  in
  Query.class_hierarchy ~value pat

(* --- the differential harness ------------------------------------------- *)

let readers = 4
let rounds_per_reader = 13
let queries_per_round = 20 (* 4 * 13 * 20 = 1040 queries per backend *)

let run_differential ~durable () =
  let d =
    Dg.exp2
      {
        n_objects = 800;
        n_classes = 8;
        distinct_keys = 60;
        page_size = 256;
        seed = 13;
      }
  in
  let file =
    if durable then Some (Filename.temp_file "uindex_conc" ".pages") else None
  in
  Fun.protect
    ~finally:(fun () ->
      match file with
      | Some f ->
          (try Sys.remove f with Sys_error _ -> ());
          (try Sys.remove (f ^ ".journal") with Sys_error _ -> ())
      | None -> ())
  @@ fun () ->
  let pager =
    match file with
    | Some f -> Storage.Pager.create_file ~page_size:512 f
    | None -> Storage.Pager.create ()
  in
  let idx = Index.create_class_hierarchy pager d.enc ~root:d.root ~attr:"k" in
  let all_entries =
    Array.map (fun (k, cls, oid) -> (Value.Int k, [ (cls, oid) ])) d.entries
  in
  let half = Array.length all_entries / 2 in
  let initial = Array.to_list (Array.sub all_entries 0 half) in
  List.iter (fun (v, comps) -> Index.insert_entry idx ~value:v comps) initial;
  Index.sync idx;
  (* guards: writer's mutate+sync+publish, reader's pin+oracle grab *)
  let mu = Mutex.create () in
  let committed = ref initial in
  let next_fresh = ref half in
  let removed_pool = ref [] in
  let stop_writer = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Rng.create 99 in
        let commits = ref 0 in
        while not (Atomic.get stop_writer) do
          Mutex.lock mu;
          (* up to 10 insertions: unseen entries first, then recycle *)
          let fresh = ref [] in
          for _ = 1 to 10 do
            if !next_fresh < Array.length all_entries then begin
              fresh := all_entries.(!next_fresh) :: !fresh;
              incr next_fresh
            end
            else
              match !removed_pool with
              | e :: rest ->
                  removed_pool := rest;
                  fresh := e :: !fresh
              | [] -> ()
          done;
          List.iter
            (fun (v, comps) -> Index.insert_entry idx ~value:v comps)
            !fresh;
          (* and a handful of removals (~5 expected) *)
          let live = !fresh @ !committed in
          let pr = max 2 (List.length live / 5) in
          let doomed, kept =
            List.partition (fun _ -> Rng.int rng pr = 0) live
          in
          List.iter
            (fun (v, comps) -> Index.remove_entry idx ~value:v comps)
            doomed;
          removed_pool := doomed @ !removed_pool;
          Index.sync idx;
          committed := kept;
          incr commits;
          Mutex.unlock mu;
          Unix.sleepf 0.002
        done;
        !commits)
  in
  let reader k =
    Domain.spawn (fun () ->
        let rng = Rng.create (500 + k) in
        let failures = ref 0 and ran = ref 0 in
        for _round = 1 to rounds_per_reader do
          Mutex.lock mu;
          let view = Index.snapshot_view idx in
          let oracle = !committed in
          Mutex.unlock mu;
          Fun.protect ~finally:(fun () -> Index.release_view view)
          @@ fun () ->
          for _q = 1 to queries_per_round do
            incr ran;
            let q = gen_query rng ~classes:d.classes ~distinct_keys:60 in
            let want = oracle_eval d.schema oracle q in
            if canon (Exec.parallel view q) <> want then incr failures;
            if canon (Exec.forward view q) <> want then incr failures
          done
        done;
        (!ran, !failures))
  in
  let reader_domains = List.init readers reader in
  let results = List.map Domain.join reader_domains in
  Atomic.set stop_writer true;
  let commits = Domain.join writer in
  let total_ran = List.fold_left (fun a (r, _) -> a + r) 0 results in
  let total_failed = List.fold_left (fun a (_, f) -> a + f) 0 results in
  Alcotest.(check int)
    (Printf.sprintf "all %d answers match their pinned-snapshot oracle"
       total_ran)
    0 total_failed;
  Alcotest.(check bool)
    "at least 1000 queries ran" true
    (total_ran >= 1000);
  Alcotest.(check bool) "the writer interleaved commits" true (commits > 1);
  (* the dust settles: the live index equals the final committed oracle *)
  Mutex.lock mu;
  let final_oracle = !committed in
  Mutex.unlock mu;
  let q_all = Query.class_hierarchy ~value:Query.V_any (Query.P_subtree d.root) in
  Alcotest.(check bool)
    "final live state matches final oracle" true
    (canon (Exec.parallel idx q_all)
    = oracle_eval d.schema final_oracle q_all);
  Alcotest.(check int) "all snapshots released" 0
    (Storage.Pager.live_snapshots pager);
  match file with Some _ -> Storage.Pager.close pager | None -> ()

(* --- pin-before-commit invisibility -------------------------------------- *)

let sub_entries d lo hi =
  Array.to_list (Array.sub d lo (hi - lo))
  |> List.map (fun (k, cls, oid) -> (Value.Int k, [ (cls, oid) ]))

let run_pin_before_commit ~durable () =
  let d =
    Dg.exp2
      {
        n_objects = 200;
        n_classes = 8;
        distinct_keys = 20;
        page_size = 256;
        seed = 5;
      }
  in
  let file =
    if durable then Some (Filename.temp_file "uindex_pin" ".pages") else None
  in
  Fun.protect
    ~finally:(fun () ->
      match file with
      | Some f ->
          (try Sys.remove f with Sys_error _ -> ());
          (try Sys.remove (f ^ ".journal") with Sys_error _ -> ())
      | None -> ())
  @@ fun () ->
  let pager =
    match file with
    | Some f -> Storage.Pager.create_file ~page_size:512 f
    | None -> Storage.Pager.create ()
  in
  let idx = Index.create_class_hierarchy pager d.enc ~root:d.root ~attr:"k" in
  let before = sub_entries d.entries 0 150 in
  let after = sub_entries d.entries 150 200 in
  List.iter (fun (v, comps) -> Index.insert_entry idx ~value:v comps) before;
  Index.sync idx;
  let view = Index.snapshot_view idx in
  let q_all = Query.class_hierarchy ~value:Query.V_any (Query.P_subtree d.root) in
  let want_before = oracle_eval d.schema before q_all in
  (* mutate the live index: splits will overwrite pages the view pinned *)
  List.iter (fun (v, comps) -> Index.insert_entry idx ~value:v comps) after;
  Alcotest.(check bool)
    "uncommitted writes are invisible to the pinned view" true
    (canon (Exec.parallel view q_all) = want_before);
  Index.sync idx;
  Alcotest.(check bool)
    "the commit itself is invisible to the pre-commit view" true
    (canon (Exec.parallel view q_all) = want_before);
  let view2 = Index.snapshot_view idx in
  Alcotest.(check bool)
    "a fresh view sees the commit" true
    (canon (Exec.parallel view2 q_all)
    = oracle_eval d.schema (before @ after) q_all);
  Index.release_view view;
  Index.release_view view2;
  Index.release_view view (* idempotent *);
  Alcotest.(check int) "no snapshots left" 0
    (Storage.Pager.live_snapshots pager);
  match file with Some _ -> Storage.Pager.close pager | None -> ()

(* --- Db sessions ---------------------------------------------------------- *)

let test_db_sessions () =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let b = e.ext.b in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let q =
    Query.class_hierarchy
      ~value:(Query.V_eq (Value.Str "Red"))
      (Query.P_subtree b.vehicle)
  in
  let count_in session =
    List.length (Db.session_query session e.ch_color q).Exec.bindings
  in
  let s1 = Db.open_session db in
  let c1 = count_in s1 in
  let oid = Db.insert db ~cls:b.vehicle [ ("color", Value.Str "Red") ] in
  Alcotest.(check int) "old session: insert invisible" c1 (count_in s1);
  Alcotest.(check int) "new session: insert visible" (c1 + 1)
    (Db.with_session db count_in);
  Alcotest.(check int) "live query agrees" (c1 + 1)
    (List.length (Db.query db e.ch_color q).Exec.bindings);
  Db.delete db oid;
  Alcotest.(check int) "old session: delete also invisible" c1 (count_in s1);
  Alcotest.(check int) "new session: back to the start" c1
    (Db.with_session db count_in);
  Db.close_session s1;
  Db.close_session s1 (* idempotent *);
  Alcotest.check_raises "closed session refuses queries"
    (Invalid_argument "Db.session_view: session is closed") (fun () ->
      ignore (count_in s1))

let exp1_db ~n_vehicles =
  let e = Dg.exp1 ~n_vehicles ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  (e, db)

(* A pin of a warm epoch is a reference-count bump: open, attach one
   index, close allocates the same words at 2,000 and at 20,000 vehicles
   (trees of about 300 and 3,000 pages each). *)
let test_pin_cost_flat () =
  let pin_words n_vehicles =
    let e, db = exp1_db ~n_vehicles in
    let cycle () =
      let s = Db.open_session db in
      ignore (Db.session_view s e.ch_color);
      Db.close_session s
    in
    (* the first cycle freezes both epochs and caches ch_color's shape *)
    cycle ();
    cycle ();
    let (), w = Alloc_words.measure cycle in
    Alcotest.(check int) "sessions drained" 0 (Db.active_sessions ());
    w
  in
  let small = pin_words 2_000 and large = pin_words 20_000 in
  if abs (large - small) > 4 then
    Alcotest.failf "a warm pin allocates %d words at 2,000 vehicles, %d at 20,000"
      small large

(* Copy-on-commit stashes a page once per epoch: one memory-pager write
   allocates the same words with 1 and with 500 sessions pinned at one
   cut.  The write puts back the page's own image, so the index stays
   whole. *)
let test_write_cost_flat () =
  let e, db = exp1_db ~n_vehicles:300 in
  let tree = Uindex.Index.tree e.ch_color in
  let pager = Btree.pager tree and root = Btree.root tree in
  let write_words sessions =
    let ss = List.init sessions (fun _ -> Db.open_session db) in
    let img = Storage.Pager.read pager root in
    let (), w =
      Alloc_words.measure (fun () -> Storage.Pager.write pager root img)
    in
    List.iter Db.close_session ss;
    w
  in
  ignore (write_words 1);
  let one = write_words 1 and many = write_words 500 in
  Alcotest.(check int) "one write, 1 vs 500 pinned sessions" one many;
  Alcotest.(check int) "sessions drained" 0 (Db.active_sessions ());
  Alcotest.(check int) "no snapshots left" 0
    (Storage.Pager.live_snapshots pager)

(* --- durability watermark ------------------------------------------------ *)

(* A small file-backed Db: vehicles with a color index, synced once so
   sessions can pin. *)
let with_file_db ~seed f =
  let e = Dg.exp1 ~n_vehicles:30 ~n_companies:8 ~n_employees:4 ~seed () in
  let b = e.ext.b in
  let file = Filename.temp_file "uindex_wm" ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ file; Storage.Pager.journal_path file ])
  @@ fun () ->
  let pager = Storage.Pager.create_file ~page_size:512 file in
  let idx =
    Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
  in
  let db = Db.create e.store in
  Db.add_index db idx;
  Db.sync db;
  Fun.protect ~finally:(fun () -> Storage.Pager.close pager) @@ fun () ->
  f db idx b

(* [`Async] acknowledges without flushing: the LSN sits above the
   watermark until something drives a group flush, and [wait_durable]
   is exactly that something. *)
let test_async_commit_semantics () =
  with_file_db ~seed:21 @@ fun db _idx b ->
  ignore (Db.insert db ~cls:b.vehicle [ ("color", Value.Str "wm-a") ]);
  let lsn1 = Db.commit ~mode:`Async db in
  Alcotest.(check bool)
    "async commit acknowledged above the watermark" true
    (Db.durable_lsn db < lsn1);
  Db.wait_durable db lsn1;
  Alcotest.(check bool)
    "wait_durable drives the group flush" true
    (Db.durable_lsn db >= lsn1);
  ignore (Db.insert db ~cls:b.vehicle [ ("color", Value.Str "wm-b") ]);
  let lsn2 = Db.commit db in
  Alcotest.(check bool) "LSNs increase" true (lsn2 > lsn1);
  Alcotest.(check bool)
    "sync commit returns durable" true
    (Db.durable_lsn db >= lsn2);
  (* waiting on an already-durable LSN is a no-op *)
  Db.wait_durable db lsn1;
  Alcotest.(check bool) "watermark kept" true (Db.durable_lsn db >= lsn2)

(* Three committing writer domains while a monitor samples the
   watermark: it must never move backwards, every synchronous commit
   must be covered on return, and after a final wait the watermark
   covers every acknowledged commit. *)
let test_watermark_monotone () =
  with_file_db ~seed:22 @@ fun db _idx b ->
  Db.set_group_window db 0.001;
  let stop = Atomic.make false in
  let max_lsn = Atomic.make 0 in
  let record l =
    let rec go () =
      let cur = Atomic.get max_lsn in
      if l > cur && not (Atomic.compare_and_set max_lsn cur l) then go ()
    in
    go ()
  in
  let monitor =
    Domain.spawn (fun () ->
        let bad = ref None in
        let last = ref 0 in
        while not (Atomic.get stop) do
          let d = Db.durable_lsn db in
          if d < !last then bad := Some (!last, d);
          last := max !last d;
          Unix.sleepf 0.0002
        done;
        !bad)
  in
  let writers =
    List.init 3 (fun w ->
        Domain.spawn (fun () ->
            let rng = Rng.create (100 + w) in
            for k = 1 to 30 do
              ignore
                (Db.insert db ~cls:b.vehicle
                   [
                     ("color", Value.Str (Printf.sprintf "wm-%d-%d" w k));
                   ]);
              if Rng.int rng 2 = 0 then begin
                let l = Db.commit db in
                record l;
                if Db.durable_lsn db < l then
                  failwith "sync commit returned above the watermark"
              end
              else record (Db.commit ~mode:`Async db)
            done))
  in
  List.iter Domain.join writers;
  Db.wait_durable db (Atomic.get max_lsn);
  Alcotest.(check bool)
    "watermark covers every acknowledged commit" true
    (Db.durable_lsn db >= Atomic.get max_lsn);
  Atomic.set stop true;
  match Domain.join monitor with
  | None -> ()
  | Some (was, now) ->
      Alcotest.failf "durable_lsn regressed: %d then %d" was now

(* Sessions pin the last flushed image of a file-backed index.  A
   writer commits in bursts of [g] async commits closed by one
   wait_durable, so every flush covers a whole burst; a concurrent
   reader pinning sessions must only ever see a whole number of bursts
   — a dense prefix of the insertion order, never a torn group — and at
   least as many as the flush counter said were durable before the pin. *)
let test_snapshot_group_boundaries () =
  with_file_db ~seed:23 @@ fun db idx b ->
  let g = 4 and bursts = 25 in
  let flushed = Atomic.make 0 in
  let done_ = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        for j = 1 to bursts do
          let last = ref 0 in
          for i = 1 to g do
            let n = ((j - 1) * g) + i in
            ignore
              (Db.insert db ~cls:b.vehicle
                 [ ("color", Value.Str (Printf.sprintf "zz-%04d" n)) ]);
            last := Db.commit ~mode:`Async db
          done;
          Db.wait_durable db !last;
          Atomic.set flushed j
        done;
        Atomic.set done_ true)
  in
  let q =
    Query.class_hierarchy
      ~value:
        (Query.V_range (Some (Value.Str "zz-"), Some (Value.Str "zz-~")))
      (Query.P_subtree b.vehicle)
  in
  let checks = ref 0 in
  let fail = ref None in
  while (not (Atomic.get done_) || !checks = 0) && !fail = None do
    let lb = Atomic.get flushed * g in
    Db.with_session db (fun s ->
        let got =
          (Db.session_query s idx q).Exec.bindings
          |> List.map (fun bd ->
                 match bd.Exec.value with
                 | Value.Str c -> c
                 | v -> Alcotest.failf "non-string key %a" Value.pp v)
          |> List.sort_uniq compare
        in
        let k = List.length got in
        if k mod g <> 0 then
          fail := Some (Printf.sprintf "saw %d zz commits: torn group" k)
        else if k < lb then
          fail :=
            Some
              (Printf.sprintf
                 "saw %d zz commits but %d were already durable" k lb)
        else if k > bursts * g then
          fail := Some (Printf.sprintf "saw %d zz commits: too many" k)
        else begin
          let want = List.init k (fun i -> Printf.sprintf "zz-%04d" (i + 1)) in
          if got <> want then
            fail := Some "visible commits are not a prefix of the history"
        end;
        incr checks)
  done;
  Domain.join writer;
  (match !fail with Some m -> Alcotest.fail m | None -> ());
  Alcotest.(check bool)
    (Printf.sprintf "ran %d snapshot checks" !checks)
    true (!checks > 0);
  (* the final state is the full history *)
  Db.with_session db (fun s ->
      Alcotest.(check int) "all bursts visible at the end" (bursts * g)
        (List.length (Db.session_query s idx q).Exec.bindings))

(* Four writer domains doing synchronous commits under a 2 ms group
   window: a leader waits for trailing committers and flushes them all
   with one pair of fsyncs, so the journal issues fewer fsyncs — and
   fewer groups — than there are commits. *)
let test_group_commit_amortizes () =
  with_file_db ~seed:24 @@ fun db _idx b ->
  Db.set_group_window db 0.002;
  let metric name =
    Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)
  in
  let fsyncs0 = metric "journal.fsyncs" in
  let groups0 = metric "journal.group_commits" in
  let writers = 4 and per_writer = 25 in
  List.init writers (fun w ->
      Domain.spawn (fun () ->
          for k = 1 to per_writer do
            ignore
              (Db.insert db ~cls:b.vehicle
                 [ ("color", Value.Str (Printf.sprintf "gc-%d-%d" w k)) ]);
            ignore (Db.commit db)
          done))
  |> List.iter Domain.join;
  let commits = writers * per_writer in
  let fsyncs = metric "journal.fsyncs" - fsyncs0 in
  let groups = metric "journal.group_commits" - groups0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d fsyncs < %d commits" fsyncs commits)
    true (fsyncs < commits);
  Alcotest.(check bool)
    (Printf.sprintf "%d groups < %d commits" groups commits)
    true (groups < commits)

let () =
  Alcotest.run "concurrent"
    [
      ( "differential",
        [
          Alcotest.test_case "memory: 4 readers vs interleaved writer" `Quick
            (run_differential ~durable:false);
          Alcotest.test_case "file: 4 readers vs interleaved writer" `Quick
            (run_differential ~durable:true);
        ] );
      ( "pin-before-commit",
        [
          Alcotest.test_case "memory view" `Quick
            (run_pin_before_commit ~durable:false);
          Alcotest.test_case "file view" `Quick
            (run_pin_before_commit ~durable:true);
        ] );
      ( "sessions",
        [
          Alcotest.test_case "Db sessions" `Quick test_db_sessions;
          Alcotest.test_case "a warm pin costs the same at any size" `Quick
            test_pin_cost_flat;
          Alcotest.test_case "a write costs the same at any pin count" `Quick
            test_write_cost_flat;
        ] );
      ( "watermark",
        [
          Alcotest.test_case "async commit semantics" `Quick
            test_async_commit_semantics;
          Alcotest.test_case "durable_lsn is monotone" `Quick
            test_watermark_monotone;
          Alcotest.test_case "snapshots pin group boundaries" `Quick
            test_snapshot_group_boundaries;
          Alcotest.test_case "group commit amortizes fsyncs" `Quick
            test_group_commit_amortizes;
        ] );
    ]
