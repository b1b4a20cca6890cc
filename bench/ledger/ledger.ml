(* The benchmark: five served workloads, end-to-end metrics, and a traced
   per-layer replay.  See README.md in this directory.

     ledger.exe                      every workload, each in a fresh process
     ledger.exe --workload W         one workload in this process
     ledger.exe --traced             per-layer replay instead of the load
     ledger.exe compare A.json [B.json]

   The last line of standard output is the JSON result. *)

module Json = Obs.Json
module Server = Uindex_server.Server

let default_seed = 20260706

(* Canonical-projection digests of each workload's verification prefix
   for the default seed at full size.  A change that alters any answer
   changes these; [rw] equals [lookup] because it reads the same
   stream. *)
let committed_digests =
  [
    ("lookup", "02b248a680a9cb582737912ebf51fe94");
    ("scan", "787601cc6e9dfc944ae6343393bd38af");
    ("filter", "2a90e51787ffdd0b5ecd27476ebb6dbf");
    ("rw", "02b248a680a9cb582737912ebf51fe94");
    ("sharded", "55ea5c7c70c90ca0cf63d4137c29234d");
  ]

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable trace_out : string option;
  mutable runs : int;
  mutable out : string option;
  mutable smoke : bool;
}

(* Per-mode constants: the full benchmark, and the smoke test that keeps
   it building and its answers correct under [dune runtest]. *)
type scale = {
  size : Deploy.size;
  warmup : float;  (* seconds of load discarded before the window *)
  setups : int;  (* set-ups per run; setup_s is their median *)
  replayed : int;  (* lines of client 0's stream the traced run replays *)
}

let full = { size = Deploy.full; warmup = 3.; setups = 3; replayed = 300 }
let smoke = { size = Deploy.smoke; warmup = 0.2; setups = 1; replayed = 40 }

(* Lines of client 0's stream the correctness gate checks. *)
let verified = 40

let secs ns = float_of_int ns /. 1e9

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    let l = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" l then
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    else go ()
  in
  go ()

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* --- one workload, in this process -------------------------------------------- *)

let pct sorted p = float_of_int (Stat.percentile sorted p) /. 1e3

(* Stops the writer and the server, then runs the rw durability check. *)
let stop (d : Deploy.t) writer =
  let acked = Option.map Deploy.stop_writer writer in
  Server.stop d.server;
  match (d.rw, acked) with
  | Some rw, Some acked -> Deploy.check_durability d rw ~acked
  | _ -> Ok ()

let report_durability = function
  | Ok () -> true
  | Error msg ->
      prerr_endline ("ledger: rw durability: " ^ msg);
      false

(* What one run measured, less [setup_s]. *)
type measured = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float) list;  (* the result line's metrics *)
  extra : (string * float) list;  (* the ledger-only metrics *)
}

let run_load o sc (d : Deploy.t) streams ~writer =
  let t_start = Stat.now () + int_of_float (sc.warmup *. 1e9) in
  let t_end = t_start + int_of_float (o.seconds *. 1e9) in
  let r = Load.run ~sock:d.sock ~streams ~t_start ~t_end in
  let durable = report_durability (stop d writer) in
  let lat = r.latencies in
  let have = Array.length lat > 0 in
  let commit_metrics =
    match writer with
    | None -> []
    | Some (w : Deploy.writer) ->
        let c = Stat.buf () in
        for i = 0 to w.starts.n - 1 do
          let s = w.starts.a.(i) in
          if s >= t_start && s < t_end then Stat.push c w.commits.a.(i)
        done;
        let c = Stat.sorted c in
        let p q = if Array.length c > 0 then pct c q else 0. in
        [
          ("commits_per_s", float_of_int (Array.length c) /. o.seconds);
          ("commit_p50_us", p 0.50);
          ("commit_p99_us", p 0.99);
        ]
  in
  let p q = if have then pct lat q else 0. in
  Printf.printf "%s: %d requests in %g s, %d failed; p50 %.1f us, p99 %.1f us over %d samples\n"
    (Deploy.name d.kind) r.attempted o.seconds r.failed (p 0.50) (p 0.99) (Array.length lat);
  List.iter (fun (k, v) -> Printf.printf "  %s = %.6g\n" k v) commit_metrics;
  {
    attempted = r.attempted;
    failed = r.failed;
    correct = have && r.failed = 0 && durable;
    metrics =
      [
        ("qps", float_of_int (r.attempted - r.failed) /. o.seconds);
        ("p50_us", p 0.50);
        ("p99_us", p 0.99);
        (* before any timing-only set-up below can raise the high-water mark *)
        ("peak_rss_mb", peak_rss_mb ());
      ];
    extra =
      ("error_rate", float_of_int r.failed /. float_of_int (max 1 r.attempted))
      :: ("samples", float_of_int (Array.length lat))
      :: commit_metrics;
  }

let run_traced o sc (d : Deploy.t) streams ~writer =
  let lines = Array.sub streams.(0) 0 sc.replayed in
  let out = Replay.run d ~lines ~seconds:o.seconds ~seed:o.seed ~writer in
  let durable = report_durability (stop d writer) in
  Option.iter
    (fun f -> Replay.write_spans f ~workload:(Deploy.name d.kind) ~seed:o.seed out.spans)
    o.trace_out;
  List.iter
    (fun (k, v) -> Printf.printf "  %-26s %14.3f %s\n" k v (Results.unit_of k))
    (out.metrics @ out.extra);
  let spans = float_of_int (List.length out.spans) /. float_of_int (min out.requests sc.replayed) in
  let cost = Replay.span_cost_ns () in
  Printf.printf
    "tracing overhead: %.1f spans x %.0f ns = %.2f us per request (%.2f%% of service.serve_line_us)\n"
    spans cost (spans *. cost /. 1e3)
    (100. *. spans *. cost /. 1e3 /. List.assoc "service.serve_line_us" out.metrics);
  Printf.printf "requests whose measured children exceed their parent, of %d:%s\n" out.requests
    (String.concat "" (List.map (fun (level, n) -> Printf.sprintf " %s %d" level n) out.over));
  {
    attempted = out.requests;
    failed = out.failed;
    correct = out.failed = 0 && durable;
    metrics = out.metrics;
    extra = out.extra;
  }

let timed_setup o sc ~dir ~tag kind =
  let t0 = Stat.now () in
  let d = Deploy.setup ~dir ~size:sc.size ~seed:o.seed ~tag kind in
  (d, secs (Stat.now () - t0))

(* Serves from the first set-up, then (untraced) times [sc.setups - 1]
   more, each torn down at once, so the server under load lives in a
   process that set up once; [setup_s] is the median. *)
let run_workload o sc kind =
  let wname = Deploy.name kind in
  let dir = Filename.concat "_ledger" (Printf.sprintf "%s-%d" wname (Unix.getpid ())) in
  (try Unix.mkdir "_ledger" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      List.iter (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ()) [ dir; "_ledger" ])
  @@ fun () ->
  let d, first = timed_setup o sc ~dir ~tag:"1" kind in
  let writer = ref None in
  let m, digest =
    Fun.protect
      ~finally:(fun () ->
        ignore (Option.map Deploy.stop_writer !writer);
        Server.stop d.server;
        Deploy.remove_files d)
    @@ fun () ->
    let pools = Deploy.pools d in
    let streams =
      Array.init (Deploy.clients kind) (fun k -> Deploy.stream d pools ~seed:o.seed ~client:k)
    in
    let digest =
      match Deploy.gate d (Array.to_list (Array.sub streams.(0) 0 verified)) with
      | Ok digest -> digest
      | Error msg -> failf "%s: correctness gate: %s" wname msg
    in
    (match List.assoc_opt wname committed_digests with
    | Some want when o.seed = default_seed && sc.size = Deploy.full && want <> digest ->
        failf "%s: answers differ from the committed digest (%s, want %s)" wname digest want
    | _ -> ());
    Printf.printf "%s: gate digest %s\n%!" wname digest;
    writer := Option.map (fun rw -> Deploy.start_writer d rw ~seed:o.seed) d.rw;
    let run = if o.traced then run_traced else run_load in
    (run o sc d streams ~writer:!writer, digest)
  in
  let metrics =
    if o.traced then m.metrics
    else begin
      let more =
        List.init (sc.setups - 1) (fun i ->
            Gc.full_major ();
            let d, t = timed_setup o sc ~dir ~tag:(string_of_int (i + 2)) kind in
            Deploy.discard d;
            t)
      in
      let setup_s = Stat.median (first :: more) in
      Printf.printf "%s: set-up %.3f s (median of %d)\n" wname setup_s sc.setups;
      print_endline
        ("ledger-extra "
        ^ Json.to_string
            (Json.Obj
               [
                 ("workload", Json.Str wname);
                 ("seed", Json.Int o.seed);
                 ("digest", Json.Str digest);
                 ("metrics", Results.metrics_json m.extra);
               ]));
      (* in BENCHMARK.json's order *)
      List.map
        (fun (x : Results.metric) ->
          (x.name, if x.name = "setup_s" then setup_s else List.assoc x.name m.metrics))
        Results.end_to_end
    end
  in
  print_endline
    (Results.result_line ~correct:m.correct ~attempted:(max 1 m.attempted) ~failed:m.failed metrics);
  if m.correct then 0 else 1

(* --- every workload, each in a fresh process ------------------------------------ *)

let child_args o ~seed w =
  [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" o.seconds;
    "--trace"; (if o.traced then "1" else "0") ]
  @ (if o.smoke then [ "--smoke" ] else [])
  @ match o.trace_out with Some f -> [ "--trace-out"; Printf.sprintf "%s.%s.json" f w ] | None -> []

(* Re-executes this program for one workload; returns its result line
   and extra line. *)
let run_child o ~seed w =
  let argv = Array.of_list (Sys.executable_name :: child_args o ~seed w) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       print_endline l;
       lines := l :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let result = match !lines with l :: _ -> (try Some (Json.of_string l) with Json.Parse_error _ -> None) | [] -> None in
  let extra =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"ledger-extra " l then
          Some (Json.of_string (String.sub l 13 (String.length l - 13)))
        else None)
      !lines
  in
  (status = Unix.WEXITED 0, result, extra)

let run_all o =
  let workloads = List.map Deploy.name Deploy.kinds in
  let failed = ref false in
  let runs = Hashtbl.create 8 in
  let digests = Hashtbl.create 8 in
  for i = 0 to o.runs - 1 do
    List.iter
      (fun w ->
        let seed = o.seed + i in
        let ok, result, extra = run_child o ~seed w in
        if not ok then failed := true;
        let values doc =
          match Option.bind doc (Json.member "metrics") with
          | Some m -> List.map (fun (k, v) -> (k, Json.Float v)) (Results.metric_values m)
          | None -> []
        in
        let run = Json.Obj (values result @ values extra) in
        Hashtbl.replace runs w (Option.value ~default:[] (Hashtbl.find_opt runs w) @ [ run ]);
        match Option.bind extra (Json.member "digest") with
        | Some (Json.Str dg) -> Hashtbl.replace digests (w, seed) dg
        | _ -> ())
      workloads
  done;
  (* rw serves lookup's stream from page files under a writer: same answers *)
  for i = 0 to o.runs - 1 do
    let seed = o.seed + i in
    match (Hashtbl.find_opt digests ("lookup", seed), Hashtbl.find_opt digests ("rw", seed)) with
    | Some a, Some b when a <> b ->
        prerr_endline (Printf.sprintf "ledger: seed %d: rw answers differ from lookup's" seed);
        failed := true
    | _ -> ()
  done;
  let set =
    List.map (fun w -> (w, Option.value ~default:[] (Hashtbl.find_opt runs w))) workloads
  in
  if not o.traced then begin
    Printf.printf "\nmedians over %d run(s):\n" o.runs;
    List.iter
      (fun (w, rs) ->
        Printf.printf "  %-8s" w;
        List.iter
          (fun (x : Results.metric) ->
            match List.filter_map (fun r -> Option.bind (Json.member x.name r) Results.num) rs with
            | [] -> ()
            | v -> Printf.printf "  %s %.4g" x.name (Stat.median v))
          Results.end_to_end;
        print_newline ())
      set
  end;
  (match o.out with
  | Some file when not o.traced ->
      Results.save ~file
        ~header:
          [
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("seed", Json.Int o.seed);
            ("seconds", Json.Float o.seconds);
          ]
        (Json.Obj (List.map (fun (w, rs) -> (w, Json.List rs)) set))
  | _ -> ());
  if !failed then 1 else 0

(* --- compare --------------------------------------------------------------------- *)

let compare_cmd files =
  let nth file i =
    let sets = Results.sets (Results.load file) in
    let i = if i < 0 then List.length sets + i else i in
    match List.nth_opt sets i with Some s -> s | None -> failf "%s has no set %d" file i
  in
  let a, b =
    match files with
    | [ f ] -> (nth f 0, nth f 1)
    | [ fa; fb ] -> (nth fa (-1), nth fb (-1))
    | _ -> failf "usage: ledger.exe compare A.json [B.json]"
  in
  let verdicts = Results.compare_sets ~workloads:(List.map Deploy.name Deploy.kinds) a b in
  if List.mem "worse" verdicts then 1 else 0

(* --- command line ----------------------------------------------------------------- *)

let main () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: files -> compare_cmd files
  | _ ->
      let o =
        {
          workload = None;
          seed = default_seed;
          seconds = 15.;
          traced = false;
          trace_out = None;
          runs = 1;
          out = None;
          smoke = false;
        }
      in
      let spec =
        [
          ("--workload", Arg.String (fun s -> o.workload <- Some s), "W run one workload in this process");
          ("--seed", Arg.Int (fun n -> o.seed <- n), "N seed of the data and the request streams");
          ("--seconds", Arg.Float (fun s -> o.seconds <- s), "S measured window (default 15)");
          ("--trace", Arg.Int (fun n -> o.traced <- n = 1), "0|1 per-layer replay instead of the load");
          ("--traced", Arg.Unit (fun () -> o.traced <- true), " same as --trace 1");
          ("--trace-out", Arg.String (fun f -> o.trace_out <- Some f), "FILE write the replay's spans here");
          ("--runs", Arg.Int (fun n -> o.runs <- n), "N runs per workload, seeds SEED .. SEED+N-1");
          ("--out", Arg.String (fun f -> o.out <- Some f), "FILE append this set of runs to a results file");
          ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " small data, short windows, every check");
        ]
      in
      Arg.parse spec
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "ledger.exe [options] | compare A.json [B.json]";
      let sc = if o.smoke then smoke else full in
      if o.smoke && o.workload = None then o.seconds <- 1.;
      let code =
        match o.workload with
        | None ->
            if o.smoke then begin
              (* every correctness and page-read check, no timing thresholds *)
              let untraced = run_all o in
              o.traced <- true;
              max untraced (run_all o)
            end
            else run_all o
        | Some w -> (
            match Deploy.of_name w with
            | None -> failf "unknown workload %s" w
            | Some kind -> run_workload o sc kind)
      in
      code

(* A failure prints no result line and exits non-zero. *)
let () =
  match main () with
  | code -> exit code
  | exception (Failed msg | Sys_error msg) ->
      prerr_endline ("ledger: " ^ msg);
      exit 1
