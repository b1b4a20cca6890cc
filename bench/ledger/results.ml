(* The metric catalogue, the result line every run prints last, the
   results files the default command writes, and [compare]. *)

module Json = Obs.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (* the share of the baseline median by which the metric may worsen
         before it counts as a regression *)
}

let m name unit_ better bound = { name; unit_; better; bound }

(* What a client of the server sees; BENCHMARK.json lists exactly
   these, and the result line of an untraced run carries exactly
   these. *)
let end_to_end =
  [
    m "qps" "req/s" Higher 0.25;
    m "p50_us" "us" Lower 0.25;
    m "p99_us" "us" Lower 0.25;
    m "setup_s" "s" Lower 0.25;
    m "peak_rss_mb" "MiB" Lower 0.25;
  ]

(* End-to-end metrics the ledger reports and compares but BENCHMARK.json
   cannot list: a listed metric must be non-zero on every workload, and
   [error_rate] is 0 on a healthy run while the commit metrics exist only
   on [rw].  [error_rate] allows no increase at all. *)
let ledger_only =
  [
    m "error_rate" "fraction" Lower 0.;
    m "commits_per_s" "1/s" Higher 0.25;
    m "commit_p50_us" "us" Lower 0.25;
    m "commit_p99_us" "us" Lower 0.25;
  ]

(* The traced run's per-layer metrics, one set per workload; for
   [sharded] the shard-side ones are summed over the shards a request
   contacted.  Unbounded: they explain end-to-end changes, they do not
   gate them. *)
let per_layer =
  [
    ("wire.rtt_us", "us");
    ("wire.self_us", "us");
    ("wire.reply_bytes", "bytes");
    ("service.serve_line_us", "us");
    ("service.unattributed_us", "us");
    ("service.alloc_words", "words");
    ("json.to_string_us", "us");
    ("protocol.parse_line_ns", "ns");
    ("qparse.parse_ns", "ns");
    ("db.session_us", "us");
    ("db.pin_page_reads", "count");
    ("exec.session_query_us", "us");
    ("exec.page_reads", "count");
    ("exec.entries_scanned", "count");
    ("exec.accept_ratio", "fraction");
    ("exec.descents", "count");
    ("exec.alloc_words", "words");
    ("exec.unattributed_us", "us");
    ("plan.compile_ns", "ns");
    ("btree.seek_ns", "ns");
    ("btree.next_ns", "ns");
    ("plan.classify_ns", "ns");
    ("ukey.decode_ns", "ns");
    ("pager.read_ns", "ns");
  ]

(* Per-layer metrics of one workload only, printed with the traced run
   of that workload but not listed in BENCHMARK.json (whose per-layer
   metrics every workload must report). *)
let per_layer_only =
  [
    ("rw", [ ("db.insert_us", "us"); ("journal.fsyncs_per_commit", "count");
             ("journal.group_size", "count") ]);
    ("sharded", [ ("router.respond_us", "us"); ("router.fanout", "count");
                  ("router.self_us", "us") ]);
  ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ ledger_only) with
  | Some x -> x.unit_
  | None ->
      (* the rest are per-layer, or the sample count *)
      List.assoc_opt name (per_layer @ List.concat_map snd per_layer_only)
      |> Option.value ~default:"count"

let num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (n, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of n)) ]))
       metrics)

(* The metric values of a [metrics_json] document. *)
let metric_values = function
  | Json.Obj kvs ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (Json.member "value" v) num)) kvs
  | _ -> []

(* The last line of standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json metrics);
       ])

(* --- results files ------------------------------------------------------------ *)

(* A results file holds sets of runs: per workload, one flat
   metric -> value object per run.  The default command appends one set
   per invocation. *)

let load file =
  let ic = open_in_bin file in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  Json.of_string s

let sets doc =
  match Json.member "sets" doc with Some (Json.List l) -> l | _ -> failwith "not a ledger results file"

(* set -> workload -> runs (metric name -> value) *)
let runs set workload =
  match Json.member workload set with
  | Some (Json.List runs) ->
      List.map
        (function
          | Json.Obj kvs -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) kvs
          | _ -> [])
        runs
  | _ -> []

let save ~file ~header set =
  let previous = if Sys.file_exists file then sets (load file) else [] in
  let doc = Json.Obj (header @ [ ("sets", Json.List (previous @ [ set ])) ]) in
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_multiline doc);
      output_char oc '\n')

(* --- compare ---------------------------------------------------------------- *)

(* How much worse [b] is than [a], as a share of [a] (negative = better). *)
let worsening x a b =
  if a = 0. then (if b = a then 0. else if (b > a) = (x.better = Lower) then infinity else neg_infinity)
  else match x.better with Lower -> (b -. a) /. a | Higher -> (a -. b) /. a

let spread xs =
  let q1, med, q3 = Stat.quartiles xs in
  if med = 0. then (if q3 = q1 then 0. else infinity) else (q3 -. q1) /. Float.abs med

(* [same] when the medians differ by at most the bound; [unresolved] when
   either side's spread is wider than the bound, unless every run of B
   reads better (or worse) than every run of A. *)
let verdict x a b =
  let w = worsening x (Stat.median a) (Stat.median b) in
  let beats p q = List.for_all (fun u -> List.for_all (fun v -> worsening x v u < 0.) q) p in
  if spread a > x.bound || spread b > x.bound then
    if beats b a then "better" else if beats a b then "worse" else "unresolved"
  else if w > x.bound then "worse"
  else if w < -.x.bound then "better"
  else "same"

let compare_sets ~workloads a b =
  let verdicts = ref [] in
  Printf.printf "%-8s %-14s %28s %28s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B worse" "verdict";
  List.iter
    (fun w ->
      let ra = runs a w and rb = runs b w in
      List.iter
        (fun x ->
          let col r = List.filter_map (List.assoc_opt x.name) r in
          match (col ra, col rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let fmt v =
                let q1, med, q3 = Stat.quartiles v in
                Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
              in
              let v = verdict x va vb in
              verdicts := v :: !verdicts;
              Printf.printf "%-8s %-14s %28s %28s %+7.1f%%  %s\n" w x.name (fmt va) (fmt vb)
                (100. *. worsening x (Stat.median va) (Stat.median vb))
                v)
        (end_to_end @ ledger_only))
    workloads;
  List.rev !verdicts
