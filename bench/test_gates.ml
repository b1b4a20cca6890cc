(* The gate table keeps every gate: a results document that satisfies
   them all passes, and for each gate one mutation of that document
   fails exactly that gate. *)

module J = Obs.Json

let expected =
  J.of_string
    {|{"quick": true, "table1_vehicles": 2000, "seed": 20260706,
       "digests": {"serve_throughput": "d", "serve_mixed": "m",
                   "shard_scaling": "s"},
       "table1": [
         {"id": "1", "descr": "q1", "results": 10, "parallel": 12, "forward": 30},
         {"id": "2", "descr": "q2", "results": 4, "parallel": 7, "forward": 9}]}|}

let passing =
  J.of_string
    {|{"schema_version": 11, "quick": true, "reps": 10, "objects": 5000,
       "seed": 20260706, "table1_vehicles": 2000,
       "table1": [
         {"id": "1", "descr": "q1", "results": 10, "parallel": 12, "forward": 30},
         {"id": "2", "descr": "q2", "results": 4, "parallel": 7, "forward": 9}],
       "cache_ab": [
         {"id": "1", "cold_reads": 20, "warm_reads": 0, "warm_pool_hits": 20,
          "warm_hit_rate": 1.0},
         {"id": "3", "cold_reads": 9, "warm_reads": 9, "warm_pool_hits": 3,
          "warm_hit_rate": 0.25}],
       "checksum_ab": [{"id": "1", "reads_on": 12, "reads_off": 12}],
       "buffer_pool": [
         {"pool_pages": 64, "pager_reads": 100, "pool_hits": 8,
          "exec_page_reads": 100},
         {"pool_pages": 256, "pager_reads": 93, "pool_hits": 15,
          "exec_page_reads": 93},
         {"pool_pages": 1024, "pager_reads": 93, "pool_hits": 15,
          "exec_page_reads": 93}],
       "serve_cores": 2,
       "serve_throughput": [
         {"threads": 1, "qps": 800.0, "p50_us": 900.0, "p99_us": 5000.0, "digest": "d"},
         {"threads": 2, "qps": 1400.0, "p50_us": 900.0, "p99_us": 6000.0, "digest": "d"},
         {"threads": 4, "qps": 1200.0, "p50_us": 1900.0, "p99_us": 9000.0, "digest": "d"}],
       "serve_mixed": [
         {"threads": 1, "writers": 1, "digest": "m", "commits": 100,
          "fsyncs_per_commit": 2.0},
         {"threads": 2, "writers": 2, "digest": "m", "commits": 120,
          "fsyncs_per_commit": 1.02},
         {"threads": 4, "writers": 4, "digest": "m", "commits": 130,
          "fsyncs_per_commit": 0.53}],
       "telemetry_overhead": [
         {"mode": "off", "p50_us": 600.0, "digest": "d", "slow_entries": 0},
         {"mode": "on", "p50_us": 620.0, "digest": "d", "slow_entries": 240}],
       "chaos_resilience": [
         {"mode": "off", "digest": "d", "success_rate": 1.0, "faults": 0,
          "retries": 0},
         {"mode": "on", "digest": "d", "success_rate": 0.95, "faults": 112,
          "retries": 45}],
       "shard_scaling": [
         {"shards": 1, "qps": 500.0, "digest": "s"},
         {"shards": 2, "qps": 550.0, "digest": "s"},
         {"shards": 4, "qps": 600.0, "digest": "s"}],
       "bulk_load": {"entries": 100000, "bulk_ms": 40.0, "incr_ms": 300.0,
                     "identical": true, "bulk_avg_fill": 0.94,
                     "incr_avg_fill": 0.69},
       "metrics": {"pager.reads": 1}}|}

(* [set path v j] replaces the member at [path]; a path step into a list
   is "*" for every row or "key=value" for the rows whose [key] renders
   as [value]. *)
let rec set path v j =
  match (path, j) with
  | [], _ -> v
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) kvs)
  | sel :: rest, J.List rows ->
      let render = function J.Str s -> s | x -> J.to_string x in
      let selected r =
        match String.split_on_char '=' sel with
        | [ "*" ] -> true
        | [ key; want ] -> Option.map render (J.member key r) = Some want
        | _ -> invalid_arg sel
      in
      J.List (List.map (fun r -> if selected r then set rest v r else r) rows)
  | _ -> invalid_arg (String.concat "." path)

let drop k = function
  | J.Obj kvs -> J.Obj (List.remove_assoc k kvs)
  | j -> j

let sets changes j = List.fold_left (fun j (path, v) -> set path v j) j changes

(* One mutation per gate, keyed by the gate it must fail. *)
let mutations =
  let f x = J.Float x and i x = J.Int x and s x = J.Str x in
  [
    ("results: required members present", drop "reps");
    ("results: metrics is a non-empty object", set [ "metrics" ] (J.Obj []));
    ("results: config matches the expectations", set [ "seed" ] (i 1));
    ("table1: page reads equal the expectations",
      set [ "table1"; "id=2"; "parallel" ] (i 8));
    ("cache_ab: warm reads <= cold reads",
      set [ "cache_ab"; "id=3"; "warm_reads" ] (i 10));
    ("cache_ab: every warm run hits the pool",
      sets
        [ ([ "cache_ab"; "id=3"; "warm_pool_hits" ], i 0);
          ([ "cache_ab"; "id=3"; "warm_hit_rate" ], f 0.) ]);
    ("cache_ab: some query class cheaper warm",
      set [ "cache_ab"; "id=1"; "warm_reads" ] (i 20));
    ("checksum_ab: page reads identical with checksums on and off",
      set [ "checksum_ab"; "id=1"; "reads_on" ] (i 13));
    ("serve_throughput: digests agree across rows",
      set [ "serve_throughput"; "threads=4"; "digest" ] (s "x"));
    ("serve_throughput: qps at 4 >= core floor x qps at 1",
      set [ "serve_throughput"; "threads=4"; "qps" ] (f 799.));
    ("serve_mixed: digests agree across rows",
      set [ "serve_mixed"; "writers=2"; "digest" ] (s "x"));
    ("serve_mixed: every row commits",
      set [ "serve_mixed"; "writers=1"; "commits" ] (i 0));
    ("serve_mixed: < 1 fsync per commit at >= 4 writers",
      set [ "serve_mixed"; "writers=4"; "fsyncs_per_commit" ] (f 1.0));
    ("telemetry_overhead: digests agree across rows",
      set [ "telemetry_overhead"; "mode=on"; "digest" ] (s "x"));
    ("telemetry_overhead: digest equals serve_throughput's",
      set [ "telemetry_overhead"; "*"; "digest" ] (s "x"));
    ("telemetry_overhead: traced p50 <= 1.10x dark p50",
      set [ "telemetry_overhead"; "mode=on"; "p50_us" ] (f 720.));
    ("telemetry_overhead: >= 1 slow entry when traced",
      set [ "telemetry_overhead"; "mode=on"; "slow_entries" ] (i 0));
    ("chaos_resilience: digests agree across rows",
      set [ "chaos_resilience"; "mode=on"; "digest" ] (s "x"));
    ("chaos_resilience: digest equals serve_throughput's",
      set [ "chaos_resilience"; "*"; "digest" ] (s "x"));
    ("chaos_resilience: success rate 1.0 without chaos",
      set [ "chaos_resilience"; "mode=off"; "success_rate" ] (f 0.99));
    ("chaos_resilience: no faults without chaos",
      set [ "chaos_resilience"; "mode=off"; "faults" ] (i 1));
    ("chaos_resilience: faults injected under chaos",
      set [ "chaos_resilience"; "mode=on"; "faults" ] (i 0));
    ("chaos_resilience: retries engaged under chaos",
      set [ "chaos_resilience"; "mode=on"; "retries" ] (i 0));
    ("chaos_resilience: success rate >= 0.9 under chaos",
      set [ "chaos_resilience"; "mode=on"; "success_rate" ] (f 0.8));
    ("shard_scaling: digests agree across rows",
      set [ "shard_scaling"; "shards=2"; "digest" ] (s "x"));
    ("shard_scaling: qps at 4 >= core floor x qps at 1",
      set [ "shard_scaling"; "shards=4"; "qps" ] (f 499.));
    ("bulk_load: trees identical", set [ "bulk_load"; "identical" ] (J.Bool false));
    ("bulk_load: >= 100000 entries", set [ "bulk_load"; "entries" ] (i 99_999));
    ("bulk_load: bulk build faster", set [ "bulk_load"; "bulk_ms" ] (f 300.));
    ("bulk_load: bulk pages at least as dense",
      set [ "bulk_load"; "bulk_avg_fill" ] (f 0.68));
    ("buffer_pool: pager reads do not rise as the pool grows",
      sets
        [ ([ "buffer_pool"; "pool_pages=1024"; "pager_reads" ], i 94);
          ([ "buffer_pool"; "pool_pages=1024"; "exec_page_reads" ], i 94) ]);
    ("buffer_pool: Exec page reads = pool misses",
      set [ "buffer_pool"; "pool_pages=64"; "exec_page_reads" ] (i 99));
    (* every section that must equal serve_throughput's moves with it *)
    ("serve_throughput: digest equals the pinned digest",
      sets
        [ ([ "serve_throughput"; "*"; "digest" ], s "x");
          ([ "telemetry_overhead"; "*"; "digest" ], s "x");
          ([ "chaos_resilience"; "*"; "digest" ], s "x") ]);
    ("serve_mixed: digest equals the pinned digest",
      set [ "serve_mixed"; "*"; "digest" ] (s "x"));
    ("shard_scaling: digest equals the pinned digest",
      set [ "shard_scaling"; "*"; "digest" ] (s "x"));
  ]

let failed results =
  Gates.evaluate { results; expected; expected_path = "expected.json" }
  |> List.filter_map (fun (g, v) -> Option.map (fun _ -> Gates.id g) v)

let ids = Alcotest.(list string)

let test_passing () = Alcotest.check ids "no gate fails" [] (failed passing)

let test_every_gate_mutated () =
  Alcotest.check ids "one mutation per gate"
    (List.sort compare (List.map Gates.id Gates.table))
    (List.sort compare (List.map fst mutations))

let test_mutation (gate, mutate) () =
  Alcotest.check ids "exactly this gate fails" [ gate ] (failed (mutate passing))

(* The wall-clock floors follow serve_cores: 4-way at 1.2x of 1-way
   passes everywhere but the 2x shard floor at >= 8 cores; 0.6x passes
   only the single-core anti-collapse floors. *)
let test_core_floors () =
  let at cores ratio =
    passing
    |> sets
         [ ([ "serve_cores" ], J.Int cores);
           ([ "serve_throughput"; "threads=4"; "qps" ], J.Float (800. *. ratio));
           ([ "shard_scaling"; "shards=4"; "qps" ], J.Float (500. *. ratio)) ]
    |> failed
  in
  let serve = "serve_throughput: qps at 4 >= core floor x qps at 1" in
  let shard = "shard_scaling: qps at 4 >= core floor x qps at 1" in
  Alcotest.check ids "8 cores, 1.2x" [ shard ] (at 8 1.2);
  Alcotest.check ids "8 cores, 2.0x" [] (at 8 2.0);
  Alcotest.check ids "2 cores, 1.2x" [] (at 2 1.2);
  Alcotest.check ids "2 cores, 0.6x" [ serve; shard ] (at 2 0.6);
  Alcotest.check ids "1 core, 0.6x" [] (at 1 0.6);
  Alcotest.check ids "1 core, 0.4x" [ serve; shard ] (at 1 0.4)

let () =
  Alcotest.run "gates"
    [
      ( "table",
        [
          Alcotest.test_case "passing document passes" `Quick test_passing;
          Alcotest.test_case "every gate has a mutation" `Quick
            test_every_gate_mutated;
          Alcotest.test_case "core floors" `Quick test_core_floors;
        ] );
      ( "mutation",
        List.map
          (fun ((gate, _) as m) -> Alcotest.test_case gate `Quick (test_mutation m))
          mutations );
    ]
