(* CI gate over BENCH_results.json: validates the file parses, carries the
   expected members, and that the deterministic Table 1 page-read counts
   match the checked-in expectations (expected_table1_quick.json for the
   UINDEX_BENCH_QUICK=1 smoke run).  Any drift — a page-layout change, a
   descent regression, a planner change — fails the build until the
   expectations are regenerated on purpose.

   Usage: check_results <BENCH_results.json> <expected.json> *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check_results: " ^ m);
      exit 1)
    fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> fail "%s" m
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let parse path =
  match Obs.Json.of_string (read_file path) with
  | v -> v
  | exception Obs.Json.Parse_error m -> fail "%s: malformed JSON: %s" path m

let get path k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> fail "%s: missing member %S" path k

(* The cache A/B section carries invariants rather than pinned values
   (wall-clock-free, but dependent on pool capacity): every warm run must
   be no more expensive than its cold twin, hit the pool at all, and at
   least one query class must get strictly cheaper. *)
let check_cache_ab path j =
  let rows =
    match get path "cache_ab" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: cache_ab is empty" path
    | _ -> fail "%s: cache_ab is not a list" path
  in
  let any_strict = ref false in
  List.iter
    (fun row ->
      match
        ( Obs.Json.(member "id" row |> Option.map to_str),
          Obs.Json.(member "cold_reads" row |> Option.map to_int),
          Obs.Json.(member "warm_reads" row |> Option.map to_int),
          Obs.Json.(member "warm_pool_hits" row |> Option.map to_int),
          Obs.Json.member "warm_hit_rate" row )
      with
      | Some (Some id), Some (Some cold), Some (Some warm), Some (Some hits),
        Some rate ->
          let rate =
            match rate with
            | Obs.Json.Float f -> f
            | Obs.Json.Int i -> float_of_int i
            | _ -> fail "%s: cache_ab row %S: warm_hit_rate not a number" path id
          in
          if warm > cold then
            fail "cache_ab row %S: warm reads %d > cold reads %d" id warm cold;
          if hits <= 0 || rate <= 0. then
            fail "cache_ab row %S: warm run never hit the pool" id;
          if warm < cold then any_strict := true
      | _ -> fail "%s: malformed cache_ab row" path)
    rows;
  if not !any_strict then
    fail "cache_ab: no query class got strictly cheaper warm than cold";
  List.length rows

(* The checksum A/B section is a hard invariant, not a pinned value:
   verifying per-page checksums must not change the paper's metric, so
   every query class must read exactly the same pages with checksums on
   and off.  (The ns_* wall-clock columns are informational only.) *)
let check_checksum_ab path j =
  let rows =
    match get path "checksum_ab" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: checksum_ab is empty" path
    | _ -> fail "%s: checksum_ab is not a list" path
  in
  List.iter
    (fun row ->
      match
        ( Obs.Json.(member "id" row |> Option.map to_str),
          Obs.Json.(member "reads_on" row |> Option.map to_int),
          Obs.Json.(member "reads_off" row |> Option.map to_int) )
      with
      | Some (Some id), Some (Some on_), Some (Some off) ->
          if on_ <> off then
            fail
              "checksum_ab row %S: checksums changed page reads (%d on, %d \
               off) — verification must stay out of the paper's metric"
              id on_ off
      | _ -> fail "%s: malformed checksum_ab row" path)
    rows;
  List.length rows

(* The serve_throughput section carries two invariants.  Correctness:
   every thread count's clients must have received byte-identical reply
   streams (one digest per row; all rows must agree — concurrent serving
   returns exactly the sequential answers).  Scaling: on a multi-core
   host (serve_cores >= 2, i.e. any CI runner) queries/sec with 4 worker
   threads must be at least that with 1 (each row is best-of-3, so a
   scheduler hiccup doesn't trip this); on a single core, where 4
   CPU-bound workers cannot beat 1 by construction, the gate degrades to
   an anti-collapse floor of half the single-thread rate. *)
let check_serve_throughput path j =
  let rows =
    match get path "serve_throughput" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: serve_throughput is empty" path
    | _ -> fail "%s: serve_throughput is not a list" path
  in
  let parsed =
    List.map
      (fun row ->
        match
          ( Obs.Json.(member "threads" row |> Option.map to_int),
            Obs.Json.(member "qps" row),
            Obs.Json.(member "digest" row |> Option.map to_str),
            Obs.Json.(member "p99_us" row) )
        with
        | Some (Some threads), Some qps, Some (Some digest), Some _ ->
            let qps =
              match qps with
              | Obs.Json.Float f -> f
              | Obs.Json.Int i -> float_of_int i
              | _ -> fail "%s: serve_throughput qps not a number" path
            in
            (threads, qps, digest)
        | _ -> fail "%s: malformed serve_throughput row" path)
      rows
  in
  (match parsed with
  | (_, _, d) :: rest ->
      List.iter
        (fun (threads, _, d') ->
          if d' <> d then
            fail
              "serve_throughput: %d-thread answers differ from sequential \
               (digest %s vs %s) — concurrent readers returned different \
               rows"
              threads d' d)
        rest
  | [] -> ());
  let qps_at n =
    match List.find_opt (fun (t, _, _) -> t = n) parsed with
    | Some (_, q, _) -> q
    | None -> fail "%s: serve_throughput has no %d-thread row" path n
  in
  let q1 = qps_at 1 and q4 = qps_at 4 in
  let cores =
    match Obs.Json.(get path "serve_cores" j |> to_int) with
    | Some n -> n
    | None -> fail "%s: serve_cores is not an int" path
  in
  if cores >= 2 then begin
    if q4 < q1 then
      fail
        "serve_throughput: 4 workers slower than 1 on %d cores (%.1f vs \
         %.1f queries/s)"
        cores q4 q1
  end
  else if q4 < 0.5 *. q1 then
    fail
      "serve_throughput: single-core collapse — 4 workers at %.1f \
       queries/s, under half the 1-worker %.1f"
      q4 q1;
  ( List.length parsed,
    match parsed with (_, _, d) :: _ -> Some d | [] -> None )

(* The serve_mixed section is the group-commit gate.  Correctness:
   writers only insert values no benchmark query matches, so reader
   reply digests must agree across every mixed row (and every commit
   must actually have happened).  Amortization: at writer concurrency
   >= 4 the journal must have issued strictly fewer than one fsync per
   commit — if group commit ever stops batching, this hard-fails. *)
let check_serve_mixed path j =
  let rows =
    match get path "serve_mixed" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: serve_mixed is empty" path
    | _ -> fail "%s: serve_mixed is not a list" path
  in
  let num path name = function
    | Obs.Json.Float f -> f
    | Obs.Json.Int i -> float_of_int i
    | _ -> fail "%s: serve_mixed %s not a number" path name
  in
  let parsed =
    List.map
      (fun row ->
        match
          ( Obs.Json.(member "writers" row |> Option.map to_int),
            Obs.Json.(member "commits" row |> Option.map to_int),
            Obs.Json.member "fsyncs_per_commit" row,
            Obs.Json.(member "digest" row |> Option.map to_str) )
        with
        | Some (Some writers), Some (Some commits), Some fpc, Some (Some digest)
          ->
            (writers, commits, num path "fsyncs_per_commit" fpc, digest)
        | _ -> fail "%s: malformed serve_mixed row" path)
      rows
  in
  (match parsed with
  | (_, _, _, d) :: rest ->
      List.iter
        (fun (writers, _, _, d') ->
          if d' <> d then
            fail
              "serve_mixed: reader answers with %d writers differ (digest %s \
               vs %s) — writers leaked into snapshot reads"
              writers d' d)
        rest
  | [] -> ());
  let saw_concurrent = ref false in
  List.iter
    (fun (writers, commits, fpc, _) ->
      if commits <= 0 then
        fail "serve_mixed: %d-writer row committed nothing" writers;
      if writers >= 4 then begin
        saw_concurrent := true;
        if fpc >= 1.0 then
          fail
            "serve_mixed: %.2f fsyncs per commit with %d concurrent writers \
             (%d commits) — group commit is not amortizing"
            fpc writers commits
      end)
    parsed;
  if not !saw_concurrent then
    fail "serve_mixed: no row with >= 4 writers to gate on";
  List.length parsed

(* The telemetry_overhead section gates the cost of observability.
   Correctness: the "on" row (tracing every request, slow log admitting
   everything) and the "off" row (telemetry dark) must carry the same
   reply digest — and the same digest as serve_throughput's rows, since
   all three drive the identical query mix through the service.
   Telemetry that changes response bytes is a correctness bug, not an
   overhead.  Cost: the traced p50 must stay within 10% of the dark
   p50 (rows are best-of-3, damping scheduler noise), and at threshold
   0 the slow ring must actually have admitted entries. *)
let check_telemetry path j ~serve_digest =
  let rows =
    match get path "telemetry_overhead" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: telemetry_overhead is empty" path
    | _ -> fail "%s: telemetry_overhead is not a list" path
  in
  let num name row =
    match Obs.Json.member name row with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> fail "%s: telemetry_overhead.%s not a number" path name
  in
  let find mode =
    match
      List.find_opt
        (fun row ->
          Obs.Json.(member "mode" row |> Option.map to_str)
          = Some (Some mode))
        rows
    with
    | Some row -> row
    | None -> fail "%s: telemetry_overhead has no %S row" path mode
  in
  let off = find "off" and on_ = find "on" in
  let digest row =
    match Obs.Json.(member "digest" row |> Option.map to_str) with
    | Some (Some d) -> d
    | _ -> fail "%s: telemetry_overhead row missing digest" path
  in
  let d_off = digest off and d_on = digest on_ in
  if d_on <> d_off then
    fail
      "telemetry_overhead: tracing changed reply bytes (digest %s on, %s \
       off) — telemetry must never alter responses"
      d_on d_off;
  (match serve_digest with
  | Some d when d <> d_off ->
      fail
        "telemetry_overhead: digest %s differs from serve_throughput's %s \
         — the sections no longer run the same query mix"
        d_off d
  | _ -> ());
  let p50_off = num "p50_us" off and p50_on = num "p50_us" on_ in
  if p50_on > 1.10 *. p50_off then
    fail
      "telemetry_overhead: traced p50 %.1f us is %.1f%% over dark p50 %.1f \
       us (budget: 10%%)"
      p50_on
      ((p50_on /. p50_off -. 1.) *. 100.)
      p50_off;
  (match Obs.Json.(member "slow_entries" on_ |> Option.map to_int) with
  | Some (Some n) when n >= 1 -> ()
  | Some (Some n) ->
      fail
        "telemetry_overhead: %d slow entries admitted at threshold 0 — the \
         slow ring never saw the traffic"
        n
  | _ -> fail "%s: telemetry_overhead.slow_entries missing" path);
  (p50_on /. p50_off -. 1.) *. 100.

(* The chaos_resilience section gates the fault-tolerant serving story.
   Correctness: both rows' digests must equal serve_throughput's — every
   reply the retrying client accepted as a success was byte-identical to
   the fault-free answer, storm or no storm.  Robustness: the "on" row
   must show the storm actually happened (faults > 0) and that retries
   carried requests through it (retries > 0, success rate >= 90%); the
   "off" row must be perfect (success rate 1.0, zero faults) — a clean
   server that drops requests is a server bug, not chaos. *)
let check_chaos_resilience path j ~serve_digest =
  let rows =
    match get path "chaos_resilience" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: chaos_resilience is empty" path
    | _ -> fail "%s: chaos_resilience is not a list" path
  in
  let num name row =
    match Obs.Json.member name row with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> fail "%s: chaos_resilience.%s not a number" path name
  in
  let find mode =
    match
      List.find_opt
        (fun row ->
          Obs.Json.(member "mode" row |> Option.map to_str)
          = Some (Some mode))
        rows
    with
    | Some row -> row
    | None -> fail "%s: chaos_resilience has no %S row" path mode
  in
  let off = find "off" and on_ = find "on" in
  let digest row =
    match Obs.Json.(member "digest" row |> Option.map to_str) with
    | Some (Some d) -> d
    | _ -> fail "%s: chaos_resilience row missing digest" path
  in
  let d_off = digest off and d_on = digest on_ in
  if d_on <> d_off then
    fail
      "chaos_resilience: chaos changed accepted reply bytes (digest %s on, \
       %s off) — a corrupted answer slipped past the client"
      d_on d_off;
  (match serve_digest with
  | Some d when d <> d_off ->
      fail
        "chaos_resilience: digest %s differs from serve_throughput's %s — \
         the sections no longer run the same query mix"
        d_off d
  | _ -> ());
  if num "success_rate" off < 1.0 then
    fail
      "chaos_resilience: fault-free success rate %.3f < 1.0 — the server \
       drops requests without chaos"
      (num "success_rate" off);
  if num "faults" off > 0. then
    fail "chaos_resilience: %.0f faults injected with chaos off"
      (num "faults" off);
  let faults = num "faults" on_ and retries = num "retries" on_ in
  if faults <= 0. then
    fail "chaos_resilience: the storm never happened (0 faults injected)";
  if retries <= 0. then
    fail
      "chaos_resilience: %.0f faults injected but the client never retried \
       — the retry layer is not engaging"
      faults;
  let rate = num "success_rate" on_ in
  if rate < 0.9 then
    fail
      "chaos_resilience: success rate %.3f under chaos (threshold 0.9, %.0f \
       faults) — retries are not carrying requests through the storm"
      rate faults;
  (rate, faults, retries)

(* The shard_scaling section gates the scatter-gather layer.
   Correctness: the canonical reply digest must be identical at every
   shard count — partitioning the index by COD range must never change
   an answer, whether a query was served by one shard or merged from
   four.  Scaling: each shard brings its own worker domains, so with
   cores to actually spread onto (serve_cores >= 8: 4 shards x 2
   workers) the 4-shard deployment must reach at least twice the
   1-shard throughput; with fewer cores the gate degrades to
   monotonicity (4 shards no slower than 1), and on a single core to an
   anti-collapse floor of half the 1-shard rate — extra shards cannot
   buy parallelism that the host does not have. *)
let check_shard_scaling path j =
  let rows =
    match get path "shard_scaling" j with
    | Obs.Json.List (_ :: _ as rows) -> rows
    | Obs.Json.List [] -> fail "%s: shard_scaling is empty" path
    | _ -> fail "%s: shard_scaling is not a list" path
  in
  let parsed =
    List.map
      (fun row ->
        match
          ( Obs.Json.(member "shards" row |> Option.map to_int),
            Obs.Json.member "qps" row,
            Obs.Json.(member "digest" row |> Option.map to_str) )
        with
        | Some (Some shards), Some qps, Some (Some digest) ->
            let qps =
              match qps with
              | Obs.Json.Float f -> f
              | Obs.Json.Int i -> float_of_int i
              | _ -> fail "%s: shard_scaling qps not a number" path
            in
            (shards, qps, digest)
        | _ -> fail "%s: malformed shard_scaling row" path)
      rows
  in
  (match parsed with
  | (_, _, d) :: rest ->
      List.iter
        (fun (shards, _, d') ->
          if d' <> d then
            fail
              "shard_scaling: %d-shard answers differ from 1-shard (digest \
               %s vs %s) — partitioning changed query results"
              shards d' d)
        rest
  | [] -> ());
  let qps_at n =
    match List.find_opt (fun (s, _, _) -> s = n) parsed with
    | Some (_, q, _) -> q
    | None -> fail "%s: shard_scaling has no %d-shard row" path n
  in
  let q1 = qps_at 1 and q4 = qps_at 4 in
  let cores =
    match Obs.Json.(get path "serve_cores" j |> to_int) with
    | Some n -> n
    | None -> fail "%s: serve_cores is not an int" path
  in
  if cores >= 8 then begin
    if q4 < 2.0 *. q1 then
      fail
        "shard_scaling: 4 shards at %.1f queries/s, under 2x the 1-shard \
         %.1f on %d cores — scatter-gather is not scaling reads"
        q4 q1 cores
  end
  else if cores >= 2 then begin
    if q4 < q1 then
      fail
        "shard_scaling: 4 shards slower than 1 on %d cores (%.1f vs %.1f \
         queries/s)"
        cores q4 q1
  end
  else if q4 < 0.5 *. q1 then
    fail
      "shard_scaling: single-core collapse — 4 shards at %.1f queries/s, \
       under half the 1-shard %.1f"
      q4 q1;
  (List.length parsed, q4 /. q1)

(* The bulk_load section: a 100k-entry bottom-up build must produce a
   tree identical to entry-at-a-time insertion, beat it in wall-clock,
   and pack pages at least as densely. *)
let check_bulk_load path j =
  let o = get path "bulk_load" j in
  let num name =
    match Obs.Json.member name o with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> fail "%s: bulk_load.%s not a number" path name
  in
  let entries = int_of_float (num "entries") in
  let bulk_ms = num "bulk_ms" and incr_ms = num "incr_ms" in
  (match Obs.Json.member "identical" o with
  | Some (Obs.Json.Bool true) -> ()
  | Some (Obs.Json.Bool false) ->
      fail "bulk_load: bulk and incremental trees differ"
  | _ -> fail "%s: bulk_load.identical missing" path);
  if entries < 100_000 then
    fail "bulk_load: only %d entries (need >= 100000)" entries;
  if bulk_ms >= incr_ms then
    fail "bulk_load: bulk build (%.1f ms) not faster than incremental (%.1f ms)"
      bulk_ms incr_ms;
  if num "bulk_avg_fill" < num "incr_avg_fill" then
    fail "bulk_load: bulk pages (%.2f avg fill) looser than incremental (%.2f)"
      (num "bulk_avg_fill") (num "incr_avg_fill");
  entries

let table1_rows path j =
  match get path "table1" j with
  | Obs.Json.List rows ->
      List.map
        (fun row ->
          match
            ( Obs.Json.(member "id" row |> Option.map to_str),
              Obs.Json.(member "parallel" row |> Option.map to_int),
              Obs.Json.(member "forward" row |> Option.map to_int) )
          with
          | Some (Some id), Some (Some p), Some (Some f) -> (id, (p, f))
          | _ -> fail "%s: malformed table1 row" path)
        rows
  | _ -> fail "%s: table1 is not a list" path

let () =
  if Array.length Sys.argv <> 3 then
    fail "usage: check_results <BENCH_results.json> <expected.json>";
  let results_path = Sys.argv.(1) and expected_path = Sys.argv.(2) in
  let r = parse results_path and e = parse expected_path in
  (* structural validation of the results file *)
  List.iter
    (fun k -> ignore (get results_path k r))
    [ "schema_version"; "quick"; "reps"; "objects"; "seed"; "metrics" ];
  (match get results_path "metrics" r with
  | Obs.Json.Obj kvs when kvs <> [] -> ()
  | _ -> fail "%s: metrics is not a non-empty object" results_path);
  (* the expectations are only valid for a matching database size *)
  List.iter
    (fun k ->
      if get results_path k r <> get expected_path k e then
        fail "%s: %S differs from %s — expectations are for another config"
          results_path k expected_path)
    [ "quick"; "table1_vehicles"; "seed" ];
  let got = table1_rows results_path r in
  let want = table1_rows expected_path e in
  List.iter
    (fun (id, (p, f)) ->
      match List.assoc_opt id got with
      | None -> fail "%s: missing table1 row %S" results_path id
      | Some (p', f') ->
          if p' <> p || f' <> f then
            fail
              "table1 row %S drifted: parallel %d -> %d, forward %d -> %d \
               (regenerate %s if intentional)"
              id p p' f f' expected_path)
    want;
  let n_ab = check_cache_ab results_path r in
  let n_ck = check_checksum_ab results_path r in
  let n_sv, serve_digest = check_serve_throughput results_path r in
  let n_mx = check_serve_mixed results_path r in
  let tel_pct = check_telemetry results_path r ~serve_digest in
  let cr_rate, cr_faults, cr_retries =
    check_chaos_resilience results_path r ~serve_digest
  in
  let n_ss, ss_speedup = check_shard_scaling results_path r in
  let n_bl = check_bulk_load results_path r in
  Printf.printf
    "check_results: %d table1 rows match %s; %d cache A/B rows warm<=cold \
     with hits; %d checksum A/B rows read-identical; %d serve rows \
     digest-identical with 4>=1 scaling; %d mixed rows digest-identical \
     with <1 fsync/commit at >=4 writers; telemetry digest-identical at \
     %+.1f%% p50; chaos digest-identical at %.1f%% success through \
     %.0f faults and %.0f retries; %d shard rows digest-identical at \
     %.2fx 4-shard speedup; bulk load of %d entries identical and faster\n"
    (List.length want) expected_path n_ab n_ck n_sv n_mx tel_pct
    (100. *. cr_rate) cr_faults cr_retries n_ss ss_speedup n_bl
