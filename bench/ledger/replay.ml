(* The traced run: client 0's first requests replayed one at a time
   through the public functions the request path calls, each call timed
   as a span from this file (the program itself records no timed spans).

   Per request:
   - [wire.rtt]: the line over the socket to the running server;
   - [service.serve_line]: the same line through the in-process service
     (what a server worker runs);
   - its layers, called one by one on the same line: Protocol.parse_line,
     Qparse.parse, Db.open_session, Db.session_query (under a trace
     collector, as the service runs it with default telemetry),
     Db.close_session, and Json.to_string of the Service.handle_line
     document;
   - below exec, per call on the request's own plan and keys, on a view
     pinned by a second session: Plan.compile, Scanner.seek to
     Plan.lower, Scanner.next and Plan.classify over the keys in
     Plan.bracket, Ukey.decode of the accepted keys.

   Each layer call is made up to three times (fewer once it has taken
   2 ms) and the fastest is kept, so one GC pause does not land on a
   layer but not on its parent.  A parent's time minus its measured
   children is reported as [*.unattributed_*], never dropped.  The
   children are separate calls of the same functions, not intervals of
   the parent's own call, so on a single request they can exceed it;
   such requests are counted and printed per level.

   For [sharded], the router's [respond] is the wire's child and the
   shards' [serve_line]s are its children; every shard-side value is
   summed over the shards the request contacted.  In [rw] the writer
   commits between replayed requests, not during one, so a parent and
   its children are timed under the same conditions and the pager's
   read counter moves only for the request (the writer's contention
   shows end to end). *)

module Db = Uindex.Db
module Index = Uindex.Index
module Plan = Uindex.Plan
module Ukey = Uindex.Ukey
module Qparse = Uindex.Qparse
module Query = Uindex.Query
module Service = Uindex_server.Service
module Protocol = Uindex_server.Protocol
module Client = Uindex_server.Client
module Router = Uindex_shard.Router
module Pager = Storage.Pager
module Trace = Obs.Trace
module Json = Obs.Json

(* --- spans --------------------------------------------------------------------- *)

type span = { trace : int; id : int; parent : int; name : string; t0 : int; t1 : int }

type recorder = {
  mutable keep : bool;  (* spans are kept for the first pass only *)
  mutable trace : int;
  mutable next_id : int;
  mutable spans : span list;
}

let record r ~parent name t0 t1 =
  let id = r.next_id in
  r.next_id <- id + 1;
  if r.keep then r.spans <- { trace = r.trace; id; parent; name; t0; t1 } :: r.spans;
  id

let best_of = 3
let budget_ns = 2_000_000

(* Calls [f] up to [best_of] times, stopping once [budget_ns] is spent,
   and returns the result and (start, end) of the fastest call.  [f]
   must be safe to repeat. *)
let fastest f =
  let rec go i ((_, b0, b1) as best) spent =
    if i = best_of || spent >= budget_ns then best
    else
      let t0 = Stat.now () in
      let y = f () in
      let t1 = Stat.now () in
      go (i + 1) (if t1 - t0 < b1 - b0 then (y, t0, t1) else best) (spent + t1 - t0)
  in
  let t0 = Stat.now () in
  let x = f () in
  let t1 = Stat.now () in
  go 1 (x, t0, t1) (t1 - t0)

(* [fastest] recorded as a span of the current request: the result, the
   kept duration and the span's id. *)
let span r ~parent name f =
  let x, t0, t1 = fastest f in
  (x, t1 - t0, record r ~parent name t0 t1)

let span_json (s : span) =
  Json.Obj
    [
      ("trace", Json.Int s.trace);
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.Str s.name);
      ("start_ns", Json.Int s.t0);
      ("end_ns", Json.Int s.t1);
    ]

(* --- one service's layers for one line -------------------------------------------- *)

(* Times in ns, the rest counts; summed field-wise over shards. *)
type layers = {
  serve : int;
  serve_alloc : int;
  parse_line : int;
  qparse : int;
  session : int;
  pin_reads : int;
  exec : int;
  page_reads : int;
  entries : int;
  accepted : int;
  descents : int;
  exec_alloc : int;
  json : int;
  compile : int;  (* the rest are per call *)
  seek : int;  (* cold per-query cache: the first descent *)
  seek_warm : int;  (* warm per-query cache: a later descent *)
  next : int * int;  (* total ns, calls *)
  classify_acc : int * int;
  classify_rej : int * int;
  decode : int * int;
  reads_mismatch : bool;
}

let zero =
  {
    serve = 0; serve_alloc = 0; parse_line = 0; qparse = 0; session = 0; pin_reads = 0;
    exec = 0; page_reads = 0; entries = 0; accepted = 0; descents = 0; exec_alloc = 0;
    json = 0; compile = 0; seek = 0; seek_warm = 0; next = (0, 0);
    classify_acc = (0, 0); classify_rej = (0, 0); decode = (0, 0);
    reads_mismatch = false;
  }

let add a b =
  let p (x, y) (u, v) = (x + u, y + v) in
  {
    serve = a.serve + b.serve; serve_alloc = a.serve_alloc + b.serve_alloc;
    parse_line = a.parse_line + b.parse_line; qparse = a.qparse + b.qparse;
    session = a.session + b.session; pin_reads = a.pin_reads + b.pin_reads;
    exec = a.exec + b.exec; page_reads = a.page_reads + b.page_reads;
    entries = a.entries + b.entries; accepted = a.accepted + b.accepted;
    descents = a.descents + b.descents; exec_alloc = a.exec_alloc + b.exec_alloc;
    json = a.json + b.json; compile = a.compile + b.compile; seek = a.seek + b.seek;
    seek_warm = a.seek_warm + b.seek_warm; next = p a.next b.next;
    classify_acc = p a.classify_acc b.classify_acc;
    classify_rej = p a.classify_rej b.classify_rej; decode = p a.decode b.decode;
    reads_mismatch = a.reads_mismatch || b.reads_mismatch;
  }

let per_call (total, calls) = if calls = 0 then 0. else float_of_int total /. float_of_int calls

(* What the executor's measured children account for: one plan; the
   first descent on a cold per-query cache and the later ones on a warm
   one; a next for every entry not reached by a descent; a classify per
   entry, priced by its verdict (classify decodes the key itself, so
   decode sits inside it). *)
let exec_children l =
  float_of_int (l.compile + l.seek + (max 0 (l.descents - 1) * l.seek_warm))
  +. (float_of_int (max 0 (l.entries - l.descents)) *. per_call l.next)
  +. (float_of_int l.accepted *. per_call l.classify_acc)
  +. (float_of_int (l.entries - l.accepted) *. per_call l.classify_rej)

let service_children l = l.parse_line + l.qparse + l.session + l.exec + l.json

let minor_words () = int_of_float (Gc.minor_words ())

let rec count_named name (sp : Trace.span) =
  (if sp.name = name then 1 else 0)
  + List.fold_left (fun a c -> a + count_named name c) 0 sp.children

let reps = 8
let max_bracket_keys = 4096

(* Times [f] over the keys at [idx] in one loop: (total ns, calls). *)
let per_key r ~parent name keys idx f =
  let (), ns, _ = span r ~parent name (fun () -> List.iter (fun i -> f keys.(i)) idx) in
  (ns, List.length idx)

(* Plan, Btree and Ukey per call, on a view pinned by a second session
   (after the page-read window). *)
let below_exec r ~parent db idx ~algo q =
  let s = Db.open_session db in
  Fun.protect ~finally:(fun () -> Db.close_session s) @@ fun () ->
  let view = Db.session_view s idx in
  let enc = Index.encoding view and ty = Index.attr_ty view and tree = Index.tree view in
  let plan, compile, _ =
    span r ~parent "plan.compile" (fun () ->
        for _ = 2 to reps do ignore (Plan.compile ~enc ~ty q) done;
        Plan.compile ~enc ~ty q)
  in
  (* the executor's page source: a fresh per-query cache for the
     parallel algorithm, the tree's own reads for the forward one *)
  let read () =
    match algo with
    | `Parallel -> Pager.Cache.read (Btree.cached_read tree)
    | `Forward -> Btree.raw_read tree
  in
  let sc = Btree.Scanner.create tree ~read:(read ()) in
  let l = { zero with compile = compile / reps } in
  match Plan.lower plan with
  | None -> l
  | Some lo ->
      let (), seek, _ =
        span r ~parent "btree.seek" (fun () ->
            for _ = 1 to reps do
              Btree.Scanner.reset sc tree ~read:(read ());
              ignore (Btree.Scanner.seek sc lo)
            done)
      in
      let (), seek_warm, _ =
        span r ~parent "btree.seek_warm" (fun () ->
            for _ = 1 to reps do ignore (Btree.Scanner.seek sc lo) done)
      in
      let inside k = match Plan.upper plan with Some h -> String.compare k h < 0 | None -> true in
      let keys = Array.make max_bracket_keys "" in
      (* a walk of n keys calls next n times, the last one leaving the
         bracket; the descent before it is not timed *)
      let walk () =
        Btree.Scanner.reset sc tree ~read:(read ());
        let first = Btree.Scanner.seek sc lo in
        let t0 = Stat.now () in
        let rec go n = function
          | Some (e : Btree.entry) when inside e.key ->
              keys.(n) <- e.key;
              if n + 1 = max_bracket_keys then n + 1 else go (n + 1) (Btree.Scanner.next sc)
          | _ -> n
        in
        let n = go 0 first in
        (n, Stat.now () - t0)
      in
      let (n, next_ns), _, _ = span r ~parent "btree.next" walk in
      let accepted i =
        match Plan.classify plan keys.(i) with Plan.Accept _ -> true | Plan.Reject _ -> false
      in
      let acc, rej = List.partition accepted (List.init n Fun.id) in
      let classify idx = per_key r ~parent "plan.classify" keys idx (fun k -> ignore (Plan.classify plan k)) in
      {
        l with
        seek = seek / reps;
        seek_warm = seek_warm / reps;
        next = (next_ns, n);
        classify_acc = classify acc;
        classify_rej = classify rej;
        decode = per_key r ~parent "ukey.decode" keys acc (fun k -> ignore (Ukey.decode ~enc ~ty k));
      }

let service_layers r ~parent schema svc line =
  let db = Service.db svc in
  let serve_alloc = ref (-1) in
  let payload, serve, sid =
    span r ~parent "service.serve_line" (fun () ->
        let w0 = minor_words () in
        let p = Service.serve_line svc line in
        if !serve_alloc < 0 then serve_alloc := minor_words () - w0;
        p)
  in
  let parsed, parse_line, _ =
    span r ~parent:sid "protocol.parse_line" (fun () -> Protocol.parse_line line)
  in
  let algo, text =
    match parsed with
    | Ok (_, Protocol.Query { algo; text }) -> (algo, text)
    | _ -> invalid_arg ("not a query line: " ^ line)
  in
  let q, qparse, _ = span r ~parent:sid "qparse.parse" (fun () -> Qparse.parse schema text) in
  (* the service routes a query to the index of its arity *)
  let arity = List.length q.Query.comps in
  let idx = List.find (fun i -> Index.arity i = arity) (Db.indexes db) in
  let reads views =
    List.fold_left
      (fun a i -> a + (Pager.stats (Btree.pager (Index.tree i))).Storage.Stats.reads)
      0 views
  in
  (* open, query and close as one block, repeated like [span]; every
     repetition's page reads must reconcile *)
  let mismatch = ref false in
  let block () =
    let before = reads (Db.indexes db) in
    let t0 = Stat.now () in
    let s = Db.open_session db in
    let t1 = Stat.now () in
    let pin_reads = reads (Db.session_indexes s) in
    let w0 = minor_words () in
    let t2 = Stat.now () in
    let out, trees = Trace.with_collector (fun () -> Db.session_query ~algo s idx q) in
    let t3 = Stat.now () in
    let exec_alloc = minor_words () - w0 in
    let t4 = Stat.now () in
    Db.close_session s;
    let t5 = Stat.now () in
    (* views fold their reads into the parent pagers on release *)
    if reads (Db.indexes db) - before <> pin_reads + out.page_reads then mismatch := true;
    let count f = List.fold_left (fun a sp -> a + f sp) 0 trees in
    ( {
        zero with
        session = t1 - t0 + (t5 - t4);
        pin_reads;
        exec = t3 - t2;
        page_reads = out.page_reads;
        entries = out.entries_scanned;
        accepted = count (fun sp -> Trace.total sp "accepted");
        descents = count (count_named "descent");
        exec_alloc;
      },
      (t0, t1, t2, t3, t4, t5) )
  in
  let (l, (t0, t1, t2, t3, t4, t5)), _, _ = fastest block in
  ignore (record r ~parent:sid "db.open_session" t0 t1);
  ignore (record r ~parent:sid "exec.session_query" t2 t3);
  ignore (record r ~parent:sid "db.close_session" t4 t5);
  (* the Service.handle_line document, recovered from the reply it
     rendered rather than by running the query again *)
  let doc = Json.of_string payload in
  let _, json, _ = span r ~parent:sid "json.to_string" (fun () -> Json.to_string doc) in
  let below = below_exec r ~parent:sid db idx ~algo q in
  {
    l with
    serve; serve_alloc = !serve_alloc; parse_line; qparse; json; reads_mismatch = !mismatch;
    compile = below.compile; seek = below.seek; seek_warm = below.seek_warm;
    next = below.next; classify_acc = below.classify_acc;
    classify_rej = below.classify_rej; decode = below.decode;
  }

(* --- the replay --------------------------------------------------------------------- *)

(* Running sums: metric -> (numerator, denominator). *)
type sums = (string, float * float) Hashtbl.t

let accum (s : sums) name num den =
  let a, b = Option.value ~default:(0., 0.) (Hashtbl.find_opt s name) in
  Hashtbl.replace s name (a +. num, b +. den)

let mean s name v = accum s name v 1.

(* Pager.read over a seeded sample of live pages of every index, through
   snapshots (safe beside the rw writer). *)
let time_pager_reads s rng svcs =
  Array.iter
    (fun svc ->
      List.iter
        (fun idx ->
          let p = Pager.snapshot (Btree.pager (Index.tree idx)) in
          Fun.protect ~finally:(fun () -> Pager.release_snapshot p) @@ fun () ->
          let hw = Pager.high_water p in
          let ids = List.filter (Pager.is_live p) (List.init 64 (fun _ -> Random.State.int rng hw)) in
          let t0 = Stat.now () in
          List.iter (fun id -> ignore (Pager.read p id)) ids;
          accum s "pager.read_ns" (float_of_int (Stat.now () - t0)) (float_of_int (List.length ids)))
        (Db.indexes (Service.db svc)))
    svcs

type outcome = {
  requests : int;
  failed : int;  (* not-ok replies and page-read mismatches *)
  over : (string * int) list;  (* per level: requests whose children exceed the parent *)
  metrics : (string * float) list;
  extra : (string * float) list;  (* the per-layer metrics of [rw] or [sharded] only *)
  spans : span list;
}

let metric_counter name = Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)

let run (d : Deploy.t) ~lines ~seconds ~seed ~(writer : Deploy.writer option) =
  let schema = Deploy.schema d in
  let r = { keep = true; trace = 0; next_id = 0; spans = [] } in
  let s : sums = Hashtbl.create 64 in
  let quiet f = match writer with None -> f () | Some w -> Deploy.quiet w f in
  let over = Hashtbl.create 4 in
  let exceeds level child parent =
    if child > parent then
      Hashtbl.replace over level (1 + Option.value ~default:0 (Hashtbl.find_opt over level))
  in
  let c = Client.connect_unix d.sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let requests = ref 0 and failed = ref 0 in
  let replay_one line =
    quiet @@ fun () ->
    let raw, rtt, rid = span r ~parent:(-1) "wire.rtt" (fun () -> Client.request_raw c line) in
    if not (Deploy.is_ok raw) then incr failed;
    let top, l =
      match d.router with
      | None ->
          let l = service_layers r ~parent:rid schema d.services.(0) line in
          (l.serve, l)
      | Some router ->
          let text =
            match Protocol.parse_line line with
            | Ok (_, Protocol.Query { text; _ }) -> text
            | _ -> invalid_arg ("not a query line: " ^ line)
          in
          let q = Qparse.parse schema text in
          let targets = Router.route_query router q in
          let _, respond, pid = span r ~parent:rid "router.respond" (fun () -> Router.respond router q) in
          (* the line a shard receives from [respond] *)
          let fwd =
            Protocol.line_to_string
              (Protocol.Query { algo = `Parallel; text = Qparse.to_syntax schema q })
          in
          let l =
            List.fold_left
              (fun acc i -> add acc (service_layers r ~parent:pid schema d.services.(i) fwd))
              zero targets
          in
          mean s "router.respond_us" (float_of_int respond /. 1e3);
          mean s "router.fanout" (float_of_int (List.length targets));
          mean s "router.self_us" (float_of_int (respond - l.serve) /. 1e3);
          exceeds "router" l.serve respond;
          (respond, l)
    in
    if l.reads_mismatch then incr failed;
    let exec_rest = float_of_int l.exec -. exec_children l in
    exceeds "wire" top rtt;
    exceeds "service" (service_children l) l.serve;
    exceeds "exec" (exec_children l) (float_of_int l.exec);
    let us ns = float_of_int ns /. 1e3 in
    mean s "wire.rtt_us" (us rtt);
    mean s "wire.self_us" (us (rtt - top));
    mean s "wire.reply_bytes" (float_of_int (String.length raw));
    mean s "service.serve_line_us" (us l.serve);
    mean s "service.unattributed_us" (us (l.serve - service_children l));
    mean s "service.alloc_words" (float_of_int l.serve_alloc);
    mean s "json.to_string_us" (us l.json);
    mean s "protocol.parse_line_ns" (float_of_int l.parse_line);
    mean s "qparse.parse_ns" (float_of_int l.qparse);
    mean s "db.session_us" (us l.session);
    mean s "db.pin_page_reads" (float_of_int l.pin_reads);
    mean s "exec.session_query_us" (us l.exec);
    mean s "exec.page_reads" (float_of_int l.page_reads);
    mean s "exec.entries_scanned" (float_of_int l.entries);
    accum s "exec.accept_ratio" (float_of_int l.accepted) (float_of_int l.entries);
    mean s "exec.descents" (float_of_int l.descents);
    mean s "exec.alloc_words" (float_of_int l.exec_alloc);
    mean s "exec.unattributed_us" (exec_rest /. 1e3);
    mean s "plan.compile_ns" (float_of_int l.compile);
    mean s "btree.seek_ns" (float_of_int l.seek);
    let calls name (t, n) = accum s name (float_of_int t) (float_of_int n) in
    calls "btree.next_ns" l.next;
    calls "plan.classify_ns" l.classify_acc;
    calls "plan.classify_ns" l.classify_rej;
    calls "ukey.decode_ns" l.decode;
    incr requests
  in
  let rng = Random.State.make [| seed |] in
  (* the writer's commits, insert time and journal counters, read between
     two of its commits *)
  let writer_totals () =
    match writer with
    | None -> (0, 0, 0, 0)
    | Some w ->
        Deploy.quiet w (fun () ->
            let inserts = ref 0 in
            for i = 0 to w.inserts.n - 1 do inserts := !inserts + w.inserts.a.(i) done;
            ( w.commits.n,
              !inserts,
              metric_counter "journal.fsyncs",
              metric_counter "journal.group_commits" ))
  in
  let commits0, inserts0, fsyncs0, groups0 = writer_totals () in
  (* one whole pass, then more lines until the window closes *)
  let t_end = Stat.now () + int_of_float (seconds *. 1e9) in
  let rec go i =
    if i < Array.length lines || Stat.now () < t_end then begin
      let k = i mod Array.length lines in
      if k = 0 && i > 0 then begin
        time_pager_reads s rng d.services;
        r.keep <- false
      end;
      r.trace <- k;
      replay_one lines.(k);
      go (i + 1)
    end
  in
  go 0;
  time_pager_reads s rng d.services;
  let value name =
    match Hashtbl.find_opt s name with Some (a, b) when b > 0. -> a /. b | _ -> 0.
  in
  let metrics = List.map (fun (name, _) -> (name, value name)) Results.per_layer in
  let extra =
    match (d.kind, writer) with
    | Deploy.Rw, Some _ ->
        let commits1, inserts1, fsyncs1, groups1 = writer_totals () in
        let commits = commits1 - commits0 and groups = groups1 - groups0 in
        let per x = if commits = 0 then 0. else float_of_int x /. float_of_int commits in
        [
          ("db.insert_us", per (inserts1 - inserts0) /. 1e3);
          ("journal.fsyncs_per_commit", per (fsyncs1 - fsyncs0));
          ("journal.group_size", if groups = 0 then 0. else float_of_int commits /. float_of_int groups);
        ]
    | Deploy.Sharded, _ ->
        List.map (fun n -> (n, value n)) [ "router.respond_us"; "router.fanout"; "router.self_us" ]
    | _ -> []
  in
  Printf.printf "traced: %d requests, replaying %d lines\n" !requests (Array.length lines);
  {
    requests = !requests;
    failed = !failed;
    over = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) over []);
    metrics;
    extra;
    spans = List.rev r.spans;
  }

(* What recording one span costs: the tracing overhead per span. *)
let span_cost_ns () =
  let r = { keep = true; trace = 0; next_id = 0; spans = [] } in
  let n = 100_000 in
  let t0 = Stat.now () in
  for _ = 1 to n do
    let a = Stat.now () in
    ignore (record r ~parent:0 "x" a (Stat.now ()))
  done;
  float_of_int (Stat.now () - t0) /. float_of_int n

let write_spans file ~workload ~seed spans =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc
    (Json.to_multiline
       (Json.Obj
          [
            ("workload", Json.Str workload);
            ("seed", Json.Int seed);
            ("spans", Json.List (List.map span_json spans));
          ]));
  output_char oc '\n'
