(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus seven ablations (A1-A7), best-of-5
   wall-clock timings of six figure queries, and the serve sections.

   Environment knobs:
     UINDEX_BENCH_QUICK=1        small database, few repetitions (smoke run)
     UINDEX_BENCH_REPS=n         repetitions per configuration (default 100,
                                 the paper's count)
     UINDEX_BENCH_OBJECTS=n      objects per experiment-2 database
                                 (default 150,000, the paper's count)
     UINDEX_BENCH_JSON=path      machine-readable results file
                                 (default BENCH_results.json)

   Besides the human-readable report on stdout, the run always writes a
   line-oriented JSON summary (Table 1 page reads, the full metrics
   registry, a query-latency histogram) that CI diffs against checked-in
   expectations — see check_results.ml. *)

module Dg = Workload.Datagen
module Ex = Workload.Experiment
module Qg = Workload.Querygen
module Tb = Workload.Table
module Value = Objstore.Value
module Query = Uindex.Query
module Exec = Uindex.Exec
module Index = Uindex.Index

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let quick = Sys.getenv_opt "UINDEX_BENCH_QUICK" = Some "1"
let reps = env_int "UINDEX_BENCH_REPS" (if quick then 10 else 100)
let n_objects = env_int "UINDEX_BENCH_OBJECTS" (if quick then 20_000 else 150_000)
let seed = 20260706

let section title = print_string (Tb.section title)

(* --- Table 1 ----------------------------------------------------------------- *)

let h_query_ns =
  Obs.Metrics.histogram ~subsystem:"bench"
    ~help:"wall-clock ns per parallel point query (Table 1 database)"
    "query_ns"

let run_table1 () =
  section "Table 1: visited nodes, 12,000-record vehicle database (m = 10)";
  let n_vehicles = if quick then 2_000 else 12_000 in
  let e = Dg.exp1 ~n_vehicles ~seed () in
  Format.printf "color index: %a@.path index:  %a@.@." Index.pp_stats e.ch_color
    Index.pp_stats e.path_age;
  let rows = Ex.table1 e in
  print_string (Ex.render_table1 rows);
  print_string
    "(expected shapes, per the paper: subtree queries cheaper than\n\
    \ full-class queries; each extra range value adds little; parallel\n\
    \ well below forward on multi-class queries; partial-path cheaper\n\
    \ than full-path)\n";
  (* feed the latency histogram with a point-query sample on the same
     database; the JSON summary reports its quantiles *)
  let b = e.ext.b in
  let q =
    Query.class_hierarchy ~value:(V_eq (Value.Str "Red")) (P_subtree b.vehicle)
  in
  for _ = 1 to reps do
    ignore
      (Obs.Metrics.observe_span h_query_ns (fun () -> Exec.parallel e.ch_color q))
  done;
  (rows, n_vehicles, e)

(* --- cold vs warm A/B on Table-1 query classes ------------------------------- *)

(* the Table-1 query classes both A/B sections run *)
let ab_queries (e : Dg.exp1) =
  [
    ( "1",
      "all Buses (subtree), all colors",
      Query.class_hierarchy ~value:Query.V_any (P_subtree e.ext.bus) );
    ( "1a",
      "all Buses (subtree), Red",
      Query.class_hierarchy
        ~value:(Query.V_eq (Value.Str "Red"))
        (P_subtree e.ext.bus) );
    ( "3",
      "Automobiles (subtree), all colors",
      Query.class_hierarchy ~value:Query.V_any (P_subtree e.ext.b.automobile) );
  ]

(* The paper's counts are cold: every query starts from an empty buffer.
   Re-running the same query classes against a shared LRU pool measures
   the steady-state behaviour a real system would see.  Cold runs use the
   uncached path (identical to Table 1's accounting); warm runs attach a
   pool sized to the index (full residency) and re-run after one warming
   pass, so warm page reads are true physical fetches and the hits are
   reported separately. *)
type ab_row = {
  ab_id : string;
  ab_descr : string;
  ab_pool_pages : int;
  ab_cold : int;  (* page reads, uncached — Table 1's number *)
  ab_warm : int;  (* page reads with a warm pool *)
  ab_hits : int;  (* pool hits during the warm run *)
}

let run_cache_ab (e : Dg.exp1) =
  section "Cache A/B: cold (uncached) vs warm (shared LRU pool) page reads";
  let queries = ab_queries e in
  let idx = e.ch_color in
  let rows =
    List.map
      (fun (ab_id, ab_descr, q) ->
        Index.set_cache_pages idx 0;
        let cold = Exec.parallel idx q in
        let ab_pool_pages =
          Storage.Pager.page_count (Btree.pager (Index.tree idx))
        in
        Index.set_cache_pages idx ab_pool_pages;
        ignore (Exec.parallel idx q);
        let warm = Exec.parallel idx q in
        Index.set_cache_pages idx 0;
        {
          ab_id;
          ab_descr;
          ab_pool_pages;
          ab_cold = cold.Exec.page_reads;
          ab_warm = warm.Exec.page_reads;
          ab_hits = warm.Exec.pool_hits;
        })
      queries
  in
  print_string
    (Tb.render
       ~header:[ "query"; "pool pages"; "cold reads"; "warm reads"; "warm hits" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.ab_id;
                string_of_int r.ab_pool_pages;
                string_of_int r.ab_cold;
                string_of_int r.ab_warm;
                string_of_int r.ab_hits;
              ])
            rows));
  print_string
    "(cold runs use the uncached path — identical to Table 1's accounting)\n";
  rows

(* --- checksum on/off A/B ------------------------------------------------------ *)

(* Guard for the corruption-proofing layer: verifying per-page checksums
   must not change the paper's metric.  The same index is built on two
   file-backed pagers — checksums on and off — and every Table-1 query
   class must read exactly the same pages (check_results hard-fails on
   drift).  The wall-clock delta is the entire cost of verification. *)
type ck_row = {
  ck_id : string;
  ck_descr : string;
  ck_reads_on : int;
  ck_reads_off : int;
  ck_ns_on : float;
  ck_ns_off : float;
}

let run_checksum_ab (e : Dg.exp1) =
  section "Checksum A/B: page reads and wall-clock, checksums on vs off";
  let b = e.ext.b in
  let queries = ab_queries e in
  let with_file_index ~checksums f =
    let path = Filename.temp_file "uindex_bench_ck" ".pages" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; Storage.Pager.journal_path path ])
      (fun () ->
        let pager = Storage.Pager.create_file ~page_size:1024 ~checksums path in
        let idx =
          Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
        in
        Index.build idx e.store;
        Index.sync idx;
        Fun.protect
          ~finally:(fun () -> Storage.Pager.close pager)
          (fun () -> f idx))
  in
  let measure idx q =
    let o = Exec.parallel idx q in
    let runs = 5 in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to runs do
      ignore (Exec.parallel idx q)
    done;
    let ns = float_of_int (Obs.Clock.since_ns t0) /. float_of_int runs in
    (o.Exec.page_reads, ns)
  in
  let run ~checksums =
    with_file_index ~checksums (fun idx ->
        List.map (fun (_, _, q) -> measure idx q) queries)
  in
  let on_ = run ~checksums:true and off = run ~checksums:false in
  let rows =
    List.map2
      (fun ((ck_id, ck_descr, _), (ck_reads_on, ck_ns_on))
           (ck_reads_off, ck_ns_off) ->
        { ck_id; ck_descr; ck_reads_on; ck_reads_off; ck_ns_on; ck_ns_off })
      (List.combine queries on_)
      off
  in
  print_string
    (Tb.render
       ~header:[ "query"; "reads on"; "reads off"; "ns on"; "ns off" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.ck_id;
                string_of_int r.ck_reads_on;
                string_of_int r.ck_reads_off;
                Printf.sprintf "%.0f" r.ck_ns_on;
                Printf.sprintf "%.0f" r.ck_ns_off;
              ])
            rows));
  print_string
    "(page reads must be identical: checksums live out of band and cost\n\
    \ no extra fetches on the read path)\n";
  rows

(* --- Figures 5-8 and ablations A1-A7 -------------------------------------- *)

(* datasets are shared by figures 5-8, the ablations and the wall-clock
   section *)
let datasets = Ex.datasets ~n_objects ~seed

let run_figures () =
  print_string (Ex.render_figures (Ex.figures datasets ~reps))

(* A6's rows feed check_results: the queries' summed page reads are the
   pool's misses, and pager reads do not rise as the pool grows *)
let run_ablations () =
  let a = Ex.ablations datasets ~reps in
  print_string (Ex.render_ablations a);
  List.map
    (fun (r : Ex.pool_row) ->
      Obs.Json.Obj
        [
          ("pool_pages", Int r.pool_pages);
          ("pager_reads", Int r.pager_reads);
          ("pool_hits", Int r.pool_hits);
          ("exec_page_reads", Int r.exec_page_reads);
        ])
    (Ex.pool_rows a)

(* --- wall-clock: six figure queries ----------------------------------------- *)

(* Not a paper metric: ns per query on the 40-class, 1000-key dataset
   with 10 near sets, the best of 5 rounds that each repeat the query for
   [round_ns]. *)
let run_timing () =
  section "Wall-clock: ns per query, best of 5 rounds";
  let s = Ex.dataset datasets ~n_classes:40 ~distinct_keys:1000 in
  let sets =
    Qg.pick_sets (Workload.Rng.create seed) Qg.Near
      ~classes:(Ex.database s).classes ~k:10
  in
  let round_ns = if quick then 50_000_000 else 200_000_000 in
  let round run =
    let t0 = Obs.Clock.now_ns () and n = ref 0 in
    while Obs.Clock.since_ns t0 < round_ns do
      run ();
      incr n
    done;
    Obs.Clock.since_ns t0 / !n
  in
  List.iter
    (fun (name, structure, kind, lo, hi) ->
      let run () = ignore (Ex.page_reads s structure ~kind ~sets ~lo ~hi) in
      Printf.printf "%-20s %10d ns\n" name
        (List.fold_left min max_int (List.init 5 (fun _ -> round run))))
    [
      ("fig5.u-exact", `U, Ex.Exact, 500, 500);
      ("fig5.cg-exact", `Cg, Ex.Exact, 500, 500);
      ("fig6.u-range-10pc", `U, Ex.Range 0.10, 100, 199);
      ("fig6.cg-range-10pc", `Cg, Ex.Range 0.10, 100, 199);
      ("fig7.u-range-2pc", `U, Ex.Range 0.02, 100, 119);
      ("fig8.u-range-0.5pc", `U, Ex.Range 0.005, 100, 104);
    ]

(* --- serve sections: shared set-up -------------------------------------------- *)

(* The five serve sections are wall-clock by nature: their qps/p99 rows
   and cross-run digests are what check_results gates on.  Each is
   set-up, one Loadgen call per row, and the row's own extras. *)

module Db = Uindex.Db
module Server = Uindex_server.Server
module Service = Uindex_server.Service
module Client = Uindex_server.Client

(* The mix serve_throughput, telemetry_overhead and chaos_resilience
   share: check_results gates their digests against each other. *)
let served_mix =
  [|
    "query (Red, Bus*)";
    "query (White, Vehicle*)";
    "query-forward (Red, Bus*)";
    "query ([50-60], Employee*, Company*, Vehicle*)";
  |]

let served_queries = if quick then 240 else 480

let metric name =
  Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)

(* e1's two indexes behind a fresh Db over its store *)
let served_db (e : Dg.exp1) =
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  db

let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A server on the Unix socket [dir/name.sock]; [tweak] adjusts the
   config beyond the worker count and a 30 s request timeout. *)
let listen ?(tweak = Fun.id) ~workers dir name handler =
  let path = Filename.concat dir (name ^ ".sock") in
  let config =
    tweak
      {
        (Server.default_config (Server.Unix_sock path)) with
        workers;
        request_timeout = 30.;
      }
  in
  (Server.start_handler handler config, path)

let serving ?tweak ~workers dir name handler f =
  let server, path = listen ?tweak ~workers dir name handler in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f path)

(* --- serve throughput: the concurrent query service -------------------------- *)

(* N socket clients against a server with N workers, best-of-3 by qps
   (a fresh server per run) to damp scheduler noise.  check_results
   asserts the digests agree across thread counts — concurrent serving
   returns exactly the sequential answers — and that 4 workers keep up
   with 1. *)
let run_serve_throughput (e : Dg.exp1) =
  section "Serve throughput: N clients vs N workers, snapshot per request";
  let svc = Service.create ~schema:e.ext.b.schema (served_db e) in
  with_temp_dir "uindex_bench_srv" @@ fun dir ->
  List.map
    (fun threads ->
      let run () =
        serving ~workers:threads dir "srv" (Server.handler_of_service svc)
        @@ fun path ->
        Loadgen.run ~name:"serve_throughput" ~mix:served_mix ~clients:threads
          ~per_client:(served_queries / threads) (Loadgen.socket path)
      in
      let r = Loadgen.best_of 3 ~by:(fun (r : Loadgen.result) -> r.qps) run in
      Loadgen.row [ ("threads", Obs.Json.Int threads) ] r)
    [ 1; 2; 4 ]

(* --- mixed read/write serve throughput --------------------------------------- *)

(* The read-only rows above leave the write path idle; these rows run N
   reader clients against a file-backed index while N in-process writer
   threads insert and commit continuously.  What they demonstrate is
   group commit: at writer concurrency >= 4 the journal fsync count must
   amortize below one fsync per commit (check_results hard-fails
   otherwise).  Writers insert colors no benchmark query matches, so
   reader replies — and their digests — stay identical across rows and
   to a write-free run.  The fsyncs-per-commit ratio is
   scheduling-independent. *)
let run_serve_mixed (e : Dg.exp1) =
  section "Serve throughput, mixed: N readers + N committing writers";
  let b = e.ext.b in
  with_temp_dir "uindex_bench_mix" @@ fun dir ->
  let pager =
    Storage.Pager.create_file ~page_size:1024
      (Filename.concat dir "mixed.pages")
  in
  let ch =
    Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
  in
  let db = Db.create e.store in
  Db.add_index db ch (* bulk-builds over the store *);
  Db.sync db;
  Db.set_group_window db 0.002;
  let svc = Service.create ~schema:b.schema db in
  (* arity-1 queries only: the sole attached index is the file-backed
     class-hierarchy one *)
  let mix = Array.sub served_mix 0 3 in
  let min_commits = if quick then 20 else 40 in
  (* replies carry per-request I/O accounting (page_reads etc.) that
     legitimately moves as writers grow the tree; only the answer itself
     must be invariant *)
  let stable raw =
    match Obs.Json.of_string raw with
    | j ->
        let take k = Option.map (fun v -> (k, v)) (Obs.Json.member k j) in
        Obs.Json.to_string
          (Obs.Json.Obj (List.filter_map take [ "ok"; "type"; "count"; "rows" ]))
    | exception Obs.Json.Parse_error _ -> raw
  in
  List.map
    (fun threads ->
      let fsyncs0 = metric "journal.fsyncs" in
      let groups0 = metric "journal.group_commits" in
      serving ~workers:threads dir "mix" (Server.handler_of_service svc)
      @@ fun path ->
      let stop = Atomic.make false in
      let commits = Array.make threads 0 in
      let t0 = Loadgen.now () in
      let join_writers =
        Loadgen.spawn threads (fun w ->
            while (not (Atomic.get stop)) || commits.(w) < min_commits do
              let color =
                Value.Str (Printf.sprintf "zz-mix-%d-%d-%d" threads w commits.(w))
              in
              ignore (Db.insert db ~cls:b.vehicle [ ("color", color) ]);
              ignore (Db.commit db);
              commits.(w) <- commits.(w) + 1
            done)
      in
      let r =
        Fun.protect
          ~finally:(fun () -> Atomic.set stop true)
          (fun () ->
            Loadgen.run ~name:"serve_mixed" ~mix ~clients:threads
              ~per_client:(served_queries / threads) ~canon:stable
              (Loadgen.socket path))
      in
      join_writers ();
      let elapsed = Loadgen.seconds_since t0 in
      (* sample before Server.stop: its drain runs one final sync *)
      let fsyncs = metric "journal.fsyncs" - fsyncs0 in
      let groups = metric "journal.group_commits" - groups0 in
      let commits = Array.fold_left ( + ) 0 commits in
      Loadgen.row
        [ ("threads", Int threads); ("writers", Int threads) ]
        r
        ~extras:
          [
            ("commits", Int commits);
            ("commits_per_sec", Float (float_of_int commits /. elapsed));
            ("fsyncs", Int fsyncs);
            ( "fsyncs_per_commit",
              Float
                (if commits = 0 then infinity
                 else float_of_int fsyncs /. float_of_int commits) );
            ("groups", Int groups);
          ])
    [ 1; 2; 4 ]

(* --- telemetry overhead ------------------------------------------------------ *)

(* The served mix driven straight through Service.serve_line (no
   sockets, so the comparison isolates exactly what telemetry adds):
   tracing off + slow log disabled vs tracing every request + a
   threshold-0 slow log that admits all of them.  Reply bytes must not
   change — telemetry that alters responses would break the cross-mode
   digest — and check_results gates the traced p50 at <= 110% of the
   untraced one.  Best-of-3 by p50 damps scheduler noise. *)
let run_telemetry_overhead (e : Dg.exp1) =
  section "Telemetry overhead: tracing + slow-log on vs off, fixed digest";
  let db = served_db e in
  let row mode telemetry =
    let svc = Service.create ~telemetry ~schema:e.ext.b.schema db in
    (* one untimed warm cycle so first-touch costs don't bias run 1 *)
    Array.iter (fun l -> ignore (Service.serve_line svc l)) served_mix;
    let run () =
      let slow0 = metric "server.slow_queries" in
      let r =
        Loadgen.run ~name:"telemetry_overhead" ~mix:served_mix ~clients:1
          ~per_client:served_queries (Loadgen.in_process svc)
      in
      (r, metric "server.slow_queries" - slow0)
    in
    let r, slow =
      Loadgen.best_of 3 ~by:(fun ((r : Loadgen.result), _) -> -.r.p50_us) run
    in
    Loadgen.row [ ("mode", Str mode) ] r ~extras:[ ("slow_entries", Int slow) ]
  in
  [
    row "off"
      {
        Service.tracing = false;
        sample_every = 1;
        slow_threshold_ns = max_int;
        slow_capacity = 0;
      };
    row "on"
      {
        Service.tracing = true;
        sample_every = 1;
        slow_threshold_ns = 0;
        slow_capacity = 64;
      };
  ]

(* --- chaos resilience --------------------------------------------------------- *)

(* The served mix fired through the retrying client at a chaos-armed
   server: connection resets, truncated replies, injected delays,
   slow-loris reads and worker crashes.  Every accepted reply must be
   byte-identical to the fault-free answer from the service itself;
   the digest is built from those accepted replies.  check_results
   gates the story: both rows' digests must equal serve_throughput's,
   the chaos row must have actually injected faults and spent retries,
   and its success rate must stay above threshold — availability
   through retries, not luck. *)
let run_chaos_resilience (e : Dg.exp1) =
  section "Chaos resilience: retrying client vs fault-injected server";
  let svc = Service.create ~schema:e.ext.b.schema (served_db e) in
  let expected = Array.map (Service.serve_line svc) served_mix in
  let policy =
    {
      Client.attempts = 10;
      base_delay = 0.002;
      max_delay = 0.05;
      jitter = 0.5;
      retry_seed = 42;
    }
  in
  let retrying path _ =
    let c = Client.retrying ~timeout:5. ~policy (Server.Unix_sock path) in
    {
      Loadgen.send = Client.retry_request_raw c;
      close = (fun () -> Client.retry_close c);
    }
  in
  with_temp_dir "uindex_bench_chaos" @@ fun dir ->
  let row mode chaos =
    let faults0 = metric "chaos.faults" in
    let restarts0 = metric "server.worker_restarts" in
    let retries0 = metric "client.retries" in
    let tweak c =
      {
        c with
        Server.request_timeout = 5.;
        chaos = Option.map Uindex_server.Chaos.arm chaos;
        restart_budget = 100_000;
      }
    in
    serving ~tweak ~workers:2 dir ("chaos_" ^ mode)
      (Server.handler_of_service svc)
    @@ fun path ->
    let r =
      Loadgen.run ~name:"chaos_resilience" ~mix:served_mix ~clients:1
        ~per_client:served_queries ~expected ~errors_ok:true (retrying path)
    in
    Loadgen.row [ ("mode", Str mode) ] r
      ~extras:
        [
          ("retries", Int (metric "client.retries" - retries0));
          ("faults", Int (metric "chaos.faults" - faults0));
          ( "worker_restarts",
            Int (metric "server.worker_restarts" - restarts0) );
          ("success_rate", Float (float_of_int r.ok /. float_of_int r.queries));
        ]
  in
  let storm =
    {
      Uindex_server.Chaos.seed = 42;
      reset = 0.05;
      partial = 0.05;
      truncate = 0.02;
      delay = 0.10;
      slow_read = 0.05;
      crash = 0.03;
      delay_ms = 1.;
    }
  in
  [ row "off" None; row "on" (Some storm) ]

(* --- bulk load vs incremental build ------------------------------------------ *)

(* Builds the same 100k-entry tree twice — bottom-up bulk load vs
   entry-at-a-time insertion — and checks the results are identical,
   the bulk pages denser, and the bulk build faster in wall-clock
   (check_results gates on all three). *)
type bulk_report = {
  bl_entries : int;
  bl_bulk_ms : float;
  bl_incr_ms : float;
  bl_identical : bool;
  bl_bulk_fill : float;
  bl_incr_fill : float;
}

let run_bulk_load () =
  section "Bulk load: bottom-up build vs entry-at-a-time, 100k entries";
  let n = 100_000 in
  let entry i = (Printf.sprintf "key%08d" i, Printf.sprintf "v%d" (i * 7)) in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let x = f () in
    (x, float_of_int (Obs.Clock.since_ns t0) /. 1e6)
  in
  let bulk_tree = Btree.create (Storage.Pager.create ~page_size:1024 ()) in
  let (), bulk_ms =
    time (fun () -> Btree.bulk_load bulk_tree (Seq.init n entry))
  in
  let incr_tree = Btree.create (Storage.Pager.create ~page_size:1024 ()) in
  let (), incr_ms =
    time (fun () ->
        for i = 0 to n - 1 do
          let k, v = entry i in
          Btree.insert incr_tree ~key:k ~value:v
        done)
  in
  let digest t =
    let b = Buffer.create (n * 16) in
    Btree.iter t (fun e ->
        Buffer.add_string b e.Btree.key;
        Buffer.add_char b '=';
        Buffer.add_string b (e.value ());
        Buffer.add_char b '\n');
    Digest.string (Buffer.contents b)
  in
  let rb = Btree.check_invariants bulk_tree in
  let ri = Btree.check_invariants incr_tree in
  let identical =
    digest bulk_tree = digest incr_tree && rb.Btree.entries = ri.Btree.entries
  in
  let r =
    {
      bl_entries = rb.Btree.entries;
      bl_bulk_ms = bulk_ms;
      bl_incr_ms = incr_ms;
      bl_identical = identical;
      bl_bulk_fill = rb.Btree.avg_fill;
      bl_incr_fill = ri.Btree.avg_fill;
    }
  in
  Printf.printf
    "bulk %.1f ms vs incremental %.1f ms (%.1fx); identical=%b; avg fill \
     %.2f vs %.2f\n"
    r.bl_bulk_ms r.bl_incr_ms
    (r.bl_incr_ms /. Float.max 0.001 r.bl_bulk_ms)
    r.bl_identical r.bl_bulk_fill r.bl_incr_fill;
  r

(* --- shard scaling: scatter-gather over 1/2/4 COD-range shards --------------- *)

(* The same database partitioned into k COD-range shards, each shard
   behind its own server (own worker domains), with a scatter-gather
   router in front; a fixed client pool drives a fixed query mix and
   only k varies.  Correctness: the canonical projection of every reply
   (cost fields dropped — they are deployment-dependent sums) must be
   byte-identical at every shard count; one digest per row, and
   check_results asserts the rows agree.  Scaling: single-shard queries
   spread across shards and spanning queries fan out in parallel, so on
   a host with cores to spare the 4-shard deployment must beat 1-shard
   by at least 2x (gated by check_results when serve_cores >= 8; an
   anti-collapse floor otherwise).  Clients start the mix at staggered
   offsets so lock-step rounds cannot pile onto one shard. *)
let run_shard_scaling (e : Dg.exp1) =
  section "Shard scaling: scatter-gather router over 1/2/4 COD-range shards";
  let module Smap = Uindex_shard.Shard_map in
  let module Splitter = Uindex_shard.Splitter in
  let module Router = Uindex_shard.Router in
  let b = e.ext.b in
  let mix =
    [|
      "query (Red, Bus*)";
      "query (Blue, Automobile*)";
      "query (Green, Truck*)";
      "query (Black, CompactAutomobile)";
      "query (White, Vehicle*)";
      "query ([50-60], Employee*, Company*, Vehicle*)";
    |]
  in
  let clients = 8 in
  with_temp_dir "uindex_bench_shard" @@ fun dir ->
  let deployment shards =
    let bounds =
      if shards = 1 then []
      else Splitter.choose_boundaries ~source:e.ch_color ~shards
    in
    let rec ranges lo = function
      | [] -> [ { Smap.lo; hi = None; file = None; endpoint = None } ]
      | hi :: rest ->
          { Smap.lo; hi = Some hi; file = None; endpoint = None }
          :: ranges hi rest
    in
    let map = Smap.make (ranges "" bounds) in
    let shard_servers =
      Array.init (Smap.count map) (fun i ->
          let db = Db.create e.store in
          Db.attach_index db
            (Splitter.restrict ~source:e.ch_color map i (Storage.Pager.create ()));
          Db.attach_index db
            (Splitter.restrict ~source:e.path_age map i (Storage.Pager.create ()));
          listen ~workers:2 dir
            (Printf.sprintf "s%d_%d" shards i)
            (Server.handler_of_service (Service.create ~schema:b.schema db)))
    in
    Fun.protect ~finally:(fun () ->
        Array.iter (fun (s, _) -> Server.stop s) shard_servers)
    @@ fun () ->
    let router =
      Router.create ~schema:b.schema ~enc:b.enc ~map
        ~backends:
          (Array.map
             (fun (_, p) -> Router.Remote (Server.Unix_sock p))
             shard_servers)
        ()
    in
    serving ~workers:clients dir
      (Printf.sprintf "router%d" shards)
      (Router.handler router)
    @@ fun path ->
    (* shard indexes are built once per deployment; best-of-3 timed
       client phases damp scheduler noise *)
    let run () =
      Loadgen.run ~name:"shard_scaling" ~mix ~clients
        ~per_client:(served_queries / clients) ~stagger:true
        ~canon:Router.canonical_projection (Loadgen.socket path)
    in
    let r = Loadgen.best_of 3 ~by:(fun (r : Loadgen.result) -> r.qps) run in
    Loadgen.row [ ("shards", Int (Smap.count map)) ] r
  in
  List.map deployment [ 1; 2; 4 ]

(* --- machine-readable results ---------------------------------------------- *)

let json_path =
  Option.value ~default:"BENCH_results.json"
    (Sys.getenv_opt "UINDEX_BENCH_JSON")

let write_results ~t1_rows ~t1_vehicles ~cache_ab ~checksum_ab ~buffer_pool
    ~serve ~mixed ~telemetry ~chaos ~bulk ~shard =
  let open Obs.Json in
  let row (r : Ex.t1_row) =
    Obj
      [
        ("id", Str r.id);
        ("descr", Str r.descr);
        ("results", Int r.results);
        ("parallel", Int r.parallel);
        ("forward", Int r.forward);
      ]
  in
  let ab_row r =
    let denom = r.ab_warm + r.ab_hits in
    Obj
      [
        ("id", Str r.ab_id);
        ("descr", Str r.ab_descr);
        ("pool_pages", Int r.ab_pool_pages);
        ("cold_reads", Int r.ab_cold);
        ("warm_reads", Int r.ab_warm);
        ("warm_pool_hits", Int r.ab_hits);
        ( "warm_hit_rate",
          Float
            (if denom = 0 then 0.
             else float_of_int r.ab_hits /. float_of_int denom) );
      ]
  in
  let ck_row r =
    Obj
      [
        ("id", Str r.ck_id);
        ("descr", Str r.ck_descr);
        ("reads_on", Int r.ck_reads_on);
        ("reads_off", Int r.ck_reads_off);
        ("ns_on", Float r.ck_ns_on);
        ("ns_off", Float r.ck_ns_off);
      ]
  in
  let bulk_obj =
    Obj
      [
        ("entries", Int bulk.bl_entries);
        ("bulk_ms", Float bulk.bl_bulk_ms);
        ("incr_ms", Float bulk.bl_incr_ms);
        ("identical", Bool bulk.bl_identical);
        ("bulk_avg_fill", Float bulk.bl_bulk_fill);
        ("incr_avg_fill", Float bulk.bl_incr_fill);
      ]
  in
  let j =
    Obj
      [
        ("schema_version", Int 11);
        ("quick", Bool quick);
        ("reps", Int reps);
        ("objects", Int n_objects);
        ("seed", Int seed);
        ("table1_vehicles", Int t1_vehicles);
        ("table1", List (List.map row t1_rows));
        ("cache_ab", List (List.map ab_row cache_ab));
        ("checksum_ab", List (List.map ck_row checksum_ab));
        ("buffer_pool", List buffer_pool);
        (* scaling assertions only make sense with real cores to scale
           onto; check_results keys its serve gate on this *)
        ("serve_cores", Int (Domain.recommended_domain_count ()));
        ("serve_throughput", List serve);
        ("serve_mixed", List mixed);
        ("telemetry_overhead", List telemetry);
        ("chaos_resilience", List chaos);
        ("shard_scaling", List shard);
        ("bulk_load", bulk_obj);
        ("metrics", Obs.Metrics.to_json Obs.Metrics.default);
      ]
  in
  let oc = open_out json_path in
  output_string oc (to_multiline j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" json_path

let () =
  Printf.printf "U-index reproduction benchmarks (reps=%d, objects=%d%s)\n" reps
    n_objects
    (if quick then ", QUICK" else "");
  let t1_rows, t1_vehicles, e1 = run_table1 () in
  let cache_ab = run_cache_ab e1 in
  let checksum_ab = run_checksum_ab e1 in
  run_figures ();
  let buffer_pool = run_ablations () in
  run_timing ();
  let serve = run_serve_throughput e1 in
  (* telemetry must run before serve_mixed mutates e1's store: its digest
     is gated against serve_throughput's *)
  let telemetry = run_telemetry_overhead e1 in
  (* chaos replays the same mix, so the store must still be unmutated:
     its digests are gated against serve_throughput's *)
  let chaos = run_chaos_resilience e1 in
  (* the splitter reads e1's indexes, so this too must precede the
     store-mutating mixed section *)
  let shard = run_shard_scaling e1 in
  let bulk = run_bulk_load () in
  (* last: its writers mutate e1's store *)
  let mixed = run_serve_mixed e1 in
  write_results ~t1_rows ~t1_vehicles ~cache_ab ~checksum_ab ~buffer_pool
    ~serve ~mixed ~telemetry ~chaos ~bulk ~shard
