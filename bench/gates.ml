(* The CI gates over BENCH_results.json, as a table.  Each gate names the
   section it reads and the property it states; its check reads the
   section through the shared accessors and returns the failure text
   when the property does not hold.  Table 1's page reads are pinned to
   a checked-in expectation file (expected_table1_quick.json for the
   UINDEX_BENCH_QUICK=1 smoke run), so a page-layout, descent or
   planner change fails the build until the expectations are
   regenerated on purpose; so are the serve, mixed and shard digests,
   so a change of reply bytes does too.  Every other section carries
   invariants:
   digests that must agree, counts that must be non-zero, and wall-clock
   ratios whose thresholds depend on the host's core count. *)

module J = Obs.Json

type doc = {
  results : J.t;
  expected : J.t;  (* the Table 1 expectations *)
  expected_path : string;
}

type gate = {
  section : string;
  name : string;
  check : doc -> string option;  (* [Some text]: the gate failed *)
}

let id g = g.section ^ ": " ^ g.name

(* --- shared accessors: each raises [Bad] on a missing or mistyped
   member, which fails the gate that read it --------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let member k j =
  match J.member k j with Some v -> v | None -> bad "missing member %S" k

let num k j =
  match member k j with
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> bad "%s is not a number" k

let int k j =
  match J.to_int (member k j) with
  | Some i -> i
  | None -> bad "%s is not an int" k

let str k j =
  match J.to_str (member k j) with
  | Some s -> s
  | None -> bad "%s is not a string" k

let rows section d =
  match member section d.results with
  | J.List (_ :: _ as rows) -> rows
  | J.List [] -> bad "%s is empty" section
  | _ -> bad "%s is not a list" section

let is key v r = J.member key r = Some v

let row section key v d =
  match List.find_opt (is key v) (rows section d) with
  | Some r -> r
  | None -> bad "%s has no row with %s = %s" section key (J.to_string v)

let unless ok fmt = Printf.ksprintf (fun m -> if ok then None else Some m) fmt

(* --- gate shapes ----------------------------------------------------------- *)

(* [ok] holds on every row that [where] selects, and there is one. *)
let every ?(where = fun _ -> true) section name ok text =
  let check d =
    match List.filter where (rows section d) with
    | [] -> Some "no row to gate on"
    | rs -> List.find_map (fun r -> if ok r then None else Some (text r)) rs
  in
  { section; name; check }

(* [ok] holds on the row whose [key] member is [v]. *)
let at section key v name ok text =
  every ~where:(is key v) section name ok text

(* Every row carries the first row's digest. *)
let digests_agree section ~key consequence =
  let check d =
    match rows section d with
    | [] -> None
    | first :: rest ->
        let d0 = str "digest" first in
        List.find_map
          (fun r ->
            let d' = str "digest" r in
            unless (d' = d0)
              "answers at %s = %s differ from the first row's (digest %s vs \
               %s) — %s"
              key
              (J.to_string (member key r))
              d' d0 consequence)
          rest
  in
  { section; name = "digests agree across rows"; check }

(* The [key = v] row's digest equals serve_throughput's first row's. *)
let matches_serve section key v =
  let check d =
    let mine = str "digest" (row section key v d) in
    let serve = str "digest" (List.hd (rows "serve_throughput" d)) in
    unless (mine = serve)
      "digest %s differs from serve_throughput's %s — the sections no \
       longer run the same query mix"
      mine serve
  in
  { section; name = "digest equals serve_throughput's"; check }

(* The section's digest equals the one pinned in the expectations: the
   rows digests_agree compares with each other are also the bytes the
   parent build served, so a reply-format change fails here until the
   expectations are regenerated on purpose. *)
let pinned section =
  let check d =
    let mine = str "digest" (List.hd (rows section d)) in
    let want = str section (member "digests" d.expected) in
    unless (mine = want)
      "digest %s differs from the pinned %s (regenerate %s if intentional)"
      mine want d.expected_path
  in
  { section; name = "digest equals the pinned digest"; check }

(* 4-way qps against 1-way, with a floor that depends on the cores the
   host has to spread onto. *)
let scaling section ~key ~floor =
  let check d =
    let qps n = num "qps" (row section key (J.Int n) d) in
    let q1 = qps 1 and q4 = qps 4 and cores = int "serve_cores" d.results in
    let f = floor cores in
    unless (q4 >= f *. q1)
      "qps at %s = 4 is %.1f, under %.1fx the %.1f at %s = 1 on %d cores" key
      q4 f q1 key cores
  in
  { section; name = "qps at 4 >= core floor x qps at 1"; check }

let bulk name ok text =
  let check d =
    let o = member "bulk_load" d.results in
    if ok o then None else Some (text o)
  in
  { section = "bulk_load"; name; check }

let top name check = { section = "results"; name; check }

let table1 j =
  match member "table1" j with
  | J.List rows ->
      List.map (fun r -> (str "id" r, (int "parallel" r, int "forward" r))) rows
  | _ -> bad "table1 is not a list"

let on = J.Str "on"
let off = J.Str "off"

(* --- the table -------------------------------------------------------------- *)

let table =
  [
    top "required members present" (fun d ->
        List.iter
          (fun k -> ignore (member k d.results))
          [ "schema_version"; "quick"; "reps"; "objects"; "seed"; "metrics" ];
        None);
    top "metrics is a non-empty object" (fun d ->
        match member "metrics" d.results with
        | J.Obj (_ :: _) -> None
        | _ -> Some "metrics is not a non-empty object");
    (* the expectations are only valid for a matching database size *)
    top "config matches the expectations" (fun d ->
        List.find_map
          (fun k ->
            unless
              (member k d.results = member k d.expected)
              "%S differs from %s — expectations are for another config" k
              d.expected_path)
          [ "quick"; "table1_vehicles"; "seed" ]);
    {
      section = "table1";
      name = "page reads equal the expectations";
      check =
        (fun d ->
          let got = table1 d.results in
          List.find_map
            (fun (id, (p, f)) ->
              match List.assoc_opt id got with
              | None -> Some (Printf.sprintf "missing table1 row %S" id)
              | Some (p', f') ->
                  unless
                    (p' = p && f' = f)
                    "table1 row %S drifted: parallel %d -> %d, forward %d -> \
                     %d (regenerate %s if intentional)"
                    id p p' f f' d.expected_path)
            (table1 d.expected));
    };
    (* A warm pool never costs more than the cold run, is actually hit,
       and makes at least one query class strictly cheaper. *)
    every "cache_ab" "warm reads <= cold reads"
      (fun r -> int "warm_reads" r <= int "cold_reads" r)
      (fun r ->
        Printf.sprintf "row %S: warm reads %d > cold reads %d" (str "id" r)
          (int "warm_reads" r) (int "cold_reads" r));
    every "cache_ab" "every warm run hits the pool"
      (fun r -> int "warm_pool_hits" r > 0 && num "warm_hit_rate" r > 0.)
      (fun r ->
        Printf.sprintf "row %S: warm run never hit the pool" (str "id" r));
    {
      section = "cache_ab";
      name = "some query class cheaper warm";
      check =
        (fun d ->
          unless
            (List.exists
               (fun r -> int "warm_reads" r < int "cold_reads" r)
               (rows "cache_ab" d))
            "no query class got strictly cheaper warm than cold");
    };
    (* verifying checksums must stay out of the paper's metric *)
    every "checksum_ab" "page reads identical with checksums on and off"
      (fun r -> int "reads_on" r = int "reads_off" r)
      (fun r ->
        Printf.sprintf "row %S: checksums changed page reads (%d on, %d off)"
          (str "id" r) (int "reads_on" r) (int "reads_off" r));
    (* A6: the served walk under a shared pool.  Both are page counts,
       deterministic for the bench's fixed queries *)
    {
      section = "buffer_pool";
      name = "pager reads do not rise as the pool grows";
      check =
        (fun d ->
          let rec rising = function
            | (p, r) :: ((p', r') :: _ as rest) ->
                if r' > r then
                  Some
                    (Printf.sprintf "%d pager reads with %d pool pages, over \
                                     %d with %d" r' p' r p)
                else rising rest
            | [ _ ] | [] -> None
          in
          rising
            (List.sort compare
               (List.map
                  (fun r -> (int "pool_pages" r, int "pager_reads" r))
                  (rows "buffer_pool" d))));
    };
    every "buffer_pool" "Exec page reads = pool misses"
      (fun r -> int "exec_page_reads" r = int "pager_reads" r)
      (fun r ->
        Printf.sprintf "%d pool pages: queries read %d pages, the pool missed %d"
          (int "pool_pages" r) (int "exec_page_reads" r) (int "pager_reads" r));
    (* concurrent serving returns exactly the sequential answers; with
       >= 2 cores 4 workers keep up with 1, on one core they must not
       collapse below half *)
    digests_agree "serve_throughput" ~key:"threads"
      "concurrent readers returned different rows";
    scaling "serve_throughput" ~key:"threads" ~floor:(fun cores ->
        if cores >= 2 then 1.0 else 0.5);
    pinned "serve_throughput";
    (* group commit: writers insert values no query matches, so reader
       digests agree, every row commits, and at >= 4 writers the journal
       issues fewer than one fsync per commit *)
    digests_agree "serve_mixed" ~key:"writers"
      "writers leaked into snapshot reads";
    pinned "serve_mixed";
    every "serve_mixed" "every row commits"
      (fun r -> int "commits" r > 0)
      (fun r ->
        Printf.sprintf "%d-writer row committed nothing" (int "writers" r));
    every "serve_mixed" "< 1 fsync per commit at >= 4 writers"
      ~where:(fun r -> int "writers" r >= 4)
      (fun r -> num "fsyncs_per_commit" r < 1.0)
      (fun r ->
        Printf.sprintf
          "%.2f fsyncs per commit with %d concurrent writers (%d commits) — \
           group commit is not amortizing"
          (num "fsyncs_per_commit" r) (int "writers" r) (int "commits" r));
    (* telemetry never changes reply bytes, costs at most 10% of p50, and
       its threshold-0 slow ring sees the traffic *)
    digests_agree "telemetry_overhead" ~key:"mode"
      "telemetry must never alter responses";
    matches_serve "telemetry_overhead" "mode" off;
    {
      section = "telemetry_overhead";
      name = "traced p50 <= 1.10x dark p50";
      check =
        (fun d ->
          let p50 v = num "p50_us" (row "telemetry_overhead" "mode" v d) in
          let p_on = p50 on and p_off = p50 off in
          unless (p_on <= 1.10 *. p_off)
            "traced p50 %.1f us is %.1f%% over dark p50 %.1f us (budget: 10%%)"
            p_on
            ((p_on /. p_off -. 1.) *. 100.)
            p_off);
    };
    at "telemetry_overhead" "mode" on ">= 1 slow entry when traced"
      (fun r -> int "slow_entries" r >= 1)
      (fun r ->
        Printf.sprintf "%d slow entries admitted at threshold 0"
          (int "slow_entries" r));
    (* every reply the retrying client accepted is byte-identical to the
       fault-free answer; the clean server is perfect, and under the
       storm faults happened, retries engaged and >= 90% succeeded *)
    digests_agree "chaos_resilience" ~key:"mode"
      "a corrupted answer slipped past the client";
    matches_serve "chaos_resilience" "mode" off;
    at "chaos_resilience" "mode" off "success rate 1.0 without chaos"
      (fun r -> num "success_rate" r >= 1.0)
      (fun r ->
        Printf.sprintf "fault-free success rate %.3f < 1.0"
          (num "success_rate" r));
    at "chaos_resilience" "mode" off "no faults without chaos"
      (fun r -> num "faults" r <= 0.)
      (fun r ->
        Printf.sprintf "%.0f faults injected with chaos off" (num "faults" r));
    at "chaos_resilience" "mode" on "faults injected under chaos"
      (fun r -> num "faults" r > 0.)
      (fun _ -> "the storm never happened (0 faults injected)");
    at "chaos_resilience" "mode" on "retries engaged under chaos"
      (fun r -> num "retries" r > 0.)
      (fun r ->
        Printf.sprintf "%.0f faults injected but the client never retried"
          (num "faults" r));
    at "chaos_resilience" "mode" on "success rate >= 0.9 under chaos"
      (fun r -> num "success_rate" r >= 0.9)
      (fun r ->
        Printf.sprintf "success rate %.3f under chaos (threshold 0.9)"
          (num "success_rate" r));
    (* partitioning never changes an answer; 4 shards reach 2x one shard
       with >= 8 cores, keep up with 2-7, and must not collapse on 1 *)
    digests_agree "shard_scaling" ~key:"shards"
      "partitioning changed query results";
    scaling "shard_scaling" ~key:"shards" ~floor:(fun cores ->
        if cores >= 8 then 2.0 else if cores >= 2 then 1.0 else 0.5);
    pinned "shard_scaling";
    (* a bottom-up build equals entry-at-a-time insertion, beats it, and
       packs pages at least as densely *)
    bulk "trees identical"
      (fun o -> member "identical" o = J.Bool true)
      (fun _ -> "bulk and incremental trees differ");
    bulk ">= 100000 entries"
      (fun o -> num "entries" o >= 100_000.)
      (fun o -> Printf.sprintf "only %.0f entries" (num "entries" o));
    bulk "bulk build faster"
      (fun o -> num "bulk_ms" o < num "incr_ms" o)
      (fun o ->
        Printf.sprintf
          "bulk build (%.1f ms) not faster than incremental (%.1f ms)"
          (num "bulk_ms" o) (num "incr_ms" o));
    bulk "bulk pages at least as dense"
      (fun o -> num "bulk_avg_fill" o >= num "incr_avg_fill" o)
      (fun o ->
        Printf.sprintf
          "bulk pages (%.2f avg fill) looser than incremental (%.2f)"
          (num "bulk_avg_fill" o) (num "incr_avg_fill" o));
  ]

(* Every gate's verdict, in table order: [None] passed, [Some text]
   failed. *)
let evaluate d =
  List.map
    (fun g -> (g, try g.check d with Bad m -> Some m))
    table
