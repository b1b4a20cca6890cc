module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Ring = Obs.Ring
module Schema = Oodb_schema.Schema
module Value = Objstore.Value
module Db = Uindex.Db
module Index = Uindex.Index
module Query = Uindex.Query
module Qparse = Uindex.Qparse

let requests = Metrics.counter ~subsystem:"server" "requests"
let request_errors = Metrics.counter ~subsystem:"server" "request_errors"

let request_ns =
  Metrics.histogram ~subsystem:"server"
    ~help:"request handling latency (ns)" "request_ns"

(* per-stage histograms fed by every served request *)
let h_queue_wait =
  Metrics.histogram ~subsystem:"server"
    ~help:"time between accept and a worker picking the connection (ns)"
    "queue_wait_ns"

let h_pin =
  Metrics.histogram ~subsystem:"server"
    ~help:
      "snapshot-session latency before execution (ns): pinning every index \
       at one cut, then attaching the queried one (a leftmost-path walk \
       only on the first attach in an epoch)"
    "session_pin_ns"

let h_exec =
  Metrics.histogram ~subsystem:"server"
    ~help:"query execution latency, reply rows rendered included (ns)"
    "exec_ns"

let h_render =
  Metrics.histogram ~subsystem:"server"
    ~help:
      "reply writing latency: rendered rows joined, or an admin document \
       printed (ns)"
    "render_ns"

let h_bytes =
  Metrics.histogram ~subsystem:"server" ~help:"response payload bytes"
    "bytes_out"

let slow_admitted =
  Metrics.counter ~subsystem:"server"
    ~help:"requests admitted to the slow-query log" "slow_queries"

let corruption_replies =
  Metrics.counter ~subsystem:"server"
    ~help:"requests answered with a typed data_corruption error"
    "corruption_replies"

(* --- telemetry configuration ------------------------------------------ *)

type telemetry = {
  tracing : bool;
  slow_threshold_ns : int;
  slow_capacity : int;
}

let default_telemetry =
  {
    tracing = true;
    slow_threshold_ns = 10_000_000 (* 10 ms *);
    slow_capacity = 128;
  }

type slow_entry = {
  se_seq : int;
  se_trace : int;
  se_at : float;
  se_line : string;
  se_dur_ns : int;
  se_reads : int;
  se_span : Trace.span option;
      (* compacted; None when the request was not traced *)
}

(* --- the request pipeline ---------------------------------------------- *)

type pipeline = {
  schema : Schema.t;
  tel : telemetry;
  slow : slow_entry Ring.t;
  seq : int Atomic.t;  (* server-assigned trace ids *)
  started : float;
}

let pipeline ?(telemetry = default_telemetry) ~schema () =
  {
    schema;
    tel = telemetry;
    slow = Ring.create (max 0 telemetry.slow_capacity);
    seq = Atomic.make 0;
    started = Unix.gettimeofday ();
  }

type answer = Protocol.answer = Doc of Json.t | Rows of Protocol.rows

type query_answer =
  root:Trace.span option ->
  line:string ->
  deadline:int option ->
  algo:[ `Parallel | `Forward ] ->
  Query.t ->
  answer

let slow_entry_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.se_seq);
       ("trace_id", Json.Str (Printf.sprintf "%x" e.se_trace));
       ("at", Json.Float e.se_at);
       ("request", Json.Str e.se_line);
       ("dur_ns", Json.Int e.se_dur_ns);
       ("page_reads", Json.Int e.se_reads);
     ]
    @ match e.se_span with
      | None -> []
      | Some sp -> [ ("span", Trace.to_json sp) ])

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let slow_log_fields ?limit p =
  let entries = Ring.to_list p.slow in
  let entries =
    match limit with Some n -> take n entries | None -> entries
  in
  [
    ("threshold_ns", Json.Int p.tel.slow_threshold_ns);
    ("capacity", Json.Int (Ring.capacity p.slow));
    ("count", Json.Int (List.length entries));
    ("entries", Json.List (List.map slow_entry_json entries));
  ]

let pipeline_slow_log ?limit p = Json.Obj (slow_log_fields ?limit p)

let metric name = Option.value ~default:0 (Metrics.find Metrics.default name)

let stats_response p =
  let latency =
    match Metrics.find_summary Metrics.default "server.request_ns" with
    | Some s -> Metrics.summary_json s
    | None -> Json.Null
  in
  Protocol.ok
    [
      ("type", Json.Str "stats");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. p.started));
      ("request_latency", latency);
      ("metrics", Metrics.to_json Metrics.default);
      ("counters", Metrics.counters_json Metrics.default);
    ]

let health_response p fields =
  let gc = Gc.quick_stat () in
  Protocol.ok
    ([
       ("type", Json.Str "health");
       ("uptime_s", Json.Float (Unix.gettimeofday () -. p.started));
       ("workers", Json.Int (metric "server.workers"));
       ("queue_depth", Json.Int (metric "server.queue_depth"));
       ("tracing", Json.Bool p.tel.tracing);
       ( "slow_log",
         Json.Obj
           [
             ("length", Json.Int (Ring.length p.slow));
             ("capacity", Json.Int (Ring.capacity p.slow));
             ("threshold_ns", Json.Int p.tel.slow_threshold_ns);
           ] );
       ( "gc",
         Json.Obj
           [
             ("minor_words", Json.Int (int_of_float gc.Gc.minor_words));
             ("promoted_words", Json.Int (int_of_float gc.Gc.promoted_words));
             ("major_words", Json.Int (int_of_float gc.Gc.major_words));
             ("minor_collections", Json.Int gc.Gc.minor_collections);
             ("major_collections", Json.Int gc.Gc.major_collections);
             ("compactions", Json.Int gc.Gc.compactions);
             ("heap_words", Json.Int gc.Gc.heap_words);
             ("top_heap_words", Json.Int gc.Gc.top_heap_words);
           ] );
     ]
    @ fields)

let contain f =
  try f () with
  | Storage.Storage_error.Corruption { page; component; detail } ->
      (* the page goes into the quarantine, the client gets a typed
         error, and every query that does not touch the damage keeps
         being served *)
      Metrics.incr corruption_replies;
      Quarantine.record ~source:"request" ?page ~component ~detail ();
      Doc
        (Protocol.error
           ~detail:
             (Printf.sprintf "%s%s: %s" component
                (match page with
                | Some p -> Printf.sprintf " (page %d)" p
                | None -> "")
                detail)
           Protocol.Corrupt)
  | e -> Doc (Protocol.error ~detail:(Printexc.to_string e) Protocol.Internal)

let dispatch ~deadline ~root p ~health ~(answer : query_answer) ~line
    (req : Protocol.request) =
  let expired =
    match deadline with
    | Some d -> Obs.Clock.now_ns () > d
    | None -> false
  in
  if expired then
    Doc
      (Protocol.error ~detail:"deadline exceeded before execution"
         Protocol.Timeout)
  else
    match req with
    | Protocol.Ping -> Doc (Protocol.ok [ ("type", Json.Str "pong") ])
    | Protocol.Quit -> Doc (Protocol.ok [ ("type", Json.Str "bye") ])
    | Protocol.Stats -> Doc (stats_response p)
    | Protocol.Health -> Doc (health_response p (health ()))
    | Protocol.Slow_queries limit ->
        Doc
          (Protocol.ok
             (("type", Json.Str "slow_queries") :: slow_log_fields ?limit p))
    | Protocol.Query { algo; text } ->
        contain (fun () ->
            match Qparse.parse p.schema text with
            | exception Qparse.Parse_error msg ->
                Doc (Protocol.error ~detail:msg Protocol.Parse_error)
            | q -> answer ~root ~line ~deadline ~algo q)

(* The single request pipeline: request line in, reply bytes out.
   Everything a server or router sends goes through here, so per-stage
   histograms, tracing, and slow-log admission see every request —
   including parse failures, which are logged spanless — and the client
   trace id is echoed here and nowhere else.  Only the query answer
   differs per front end. *)
let serve_core ?(queued_ns = 0) ?deadline p ~health ~answer line =
  Metrics.incr requests;
  let at = Unix.gettimeofday () in
  let t0 = Obs.Clock.now_ns () in
  let w0 = Gc.minor_words () in
  if queued_ns > 0 then Metrics.observe h_queue_wait queued_ns;
  let parsed = Protocol.parse_line line in
  let seq = Atomic.fetch_and_add p.seq 1 in
  let client_id =
    match parsed with Ok (id, _) -> id | Error _ -> None
  in
  let traced = p.tel.tracing && Result.is_ok parsed in
  let trace_id = match client_id with Some id -> id | None -> seq in
  let root = if traced then Some (Trace.span "request") else None in
  (match root with
  | Some sp ->
      Trace.add_field sp "trace_id" trace_id;
      if queued_ns > 0 then Trace.add_field sp "queue_wait_ns" queued_ns
  | None -> ());
  let ans =
    match parsed with
    | Error msg -> Doc (Protocol.error ~detail:msg Protocol.Bad_request)
    | Ok (_, req) -> dispatch ~deadline ~root p ~health ~answer ~line req
  in
  let render0 = Obs.Clock.now_ns () in
  let payload = Protocol.answer_to_string ?trace_id:client_id ans in
  let render_ns = Obs.Clock.since_ns render0 in
  let bytes_out = String.length payload in
  Metrics.observe h_render render_ns;
  Metrics.observe h_bytes bytes_out;
  let dur_ns = Obs.Clock.since_ns t0 in
  Metrics.observe request_ns dur_ns;
  (match root with
  | Some sp ->
      Trace.add_field sp "render_ns" render_ns;
      Trace.add_field sp "bytes_out" bytes_out;
      Trace.add_field sp "alloc_words"
        (int_of_float (Gc.minor_words () -. w0));
      Trace.add_field sp "dur_ns" dur_ns
  | None -> ());
  if Ring.capacity p.slow > 0 && dur_ns >= p.tel.slow_threshold_ns then begin
    Metrics.incr slow_admitted;
    (* traced: every read the request issued (pin + descent, the span
       total); untraced fallback: the executor's descent reads from the
       response — exact pager.reads reconciliation needs tracing on *)
    let se_reads =
      match (root, ans) with
      | Some sp, _ -> Trace.total sp "page_reads"
      | None, Rows r -> r.page_reads
      | None, Doc _ -> 0
    in
    Ring.add p.slow
      {
        se_seq = seq;
        se_trace = trace_id;
        se_at = at;
        se_line = line;
        se_dur_ns = dur_ns;
        se_reads;
        se_span = Option.map Trace.compact root;
      }
  end;
  (match ans with
  | Doc d when not (Protocol.response_is_ok d) -> Metrics.incr request_errors
  | Doc _ | Rows _ -> ());
  payload

(* --- the local query answer -------------------------------------------- *)

type t = {
  db : Db.t;
  route : (int * Index.t) list;  (* query arity -> serving index *)
  pipe : pipeline;
  shard_info : Json.t option;  (* topology of the shard this node serves *)
}

let create ?telemetry ?shard_info ~schema db =
  let route =
    List.map (fun idx -> (Index.arity idx, idx)) (Db.indexes db)
  in
  { db; route; pipe = pipeline ?telemetry ~schema (); shard_info }

let db t = t.db

(* Each accepted entry becomes its reply row where the scanner holds it:
   printed from the key bytes, with no decode and no Json.t. *)
let json_row idx plan =
  let r = Uindex.Keyrow.create ~enc:(Index.encoding idx) plan in
  fun sc arity acc -> Uindex.Keyrow.render r (Btree.Scanner.key_bytes sc) ~arity :: acc

let health_fields t () =
  let acked = Db.acked_lsn t.db and durable = Db.durable_lsn t.db in
  let shard_fields =
    match t.shard_info with None -> [] | Some j -> [ ("shard", j) ]
  in
  [
    ("active_sessions", Json.Int (Db.active_sessions ()));
    ("acked_lsn", Json.Int acked);
    ("durable_lsn", Json.Int durable);
    ("lsn_lag", Json.Int (acked - durable));
    ( "supervisor",
      Json.Obj
        [
          ("worker_restarts", Json.Int (metric "server.worker_restarts"));
          ("acceptor_restarts", Json.Int (metric "server.acceptor_restarts"));
          ( "restart_budget_left",
            Json.Int (metric "server.restart_budget_left") );
        ] );
    ("quarantine", Quarantine.summary_json ());
    ( "scrub",
      Json.Obj
        [
          ("passes", Json.Int (metric "scrub.passes"));
          ("pages", Json.Int (metric "scrub.pages"));
          ("issues", Json.Int (metric "scrub.issues"));
          ("last_issues", Json.Int (metric "scrub.last_issues"));
        ] );
  ]
  @ shard_fields

let query_answer t ~root ~line:_ ~deadline:_ ~algo q =
  let arity = List.length q.Query.comps in
  match List.assoc_opt arity t.route with
  | None ->
      Doc
        (Protocol.error
           ~detail:(Printf.sprintf "no index serves arity-%d queries" arity)
           Protocol.Unroutable)
  | Some idx ->
      let pin0 = Obs.Clock.now_ns () in
      let s = Db.open_session t.db in
      Fun.protect ~finally:(fun () -> Db.close_session s) @@ fun () ->
      (* only the queried index is attached: damage under another index
         cannot fail this request *)
      let view = Db.session_view s idx in
      let pin_ns = Obs.Clock.since_ns pin0 in
      (* the first attach of an index in an epoch reads its leftmost path
         to learn the tree's height, before the executor's stats
         baseline.  Charge those reads to the root span — exec children
         carry only descent reads, so [Trace.total root "page_reads"]
         equals every pager read the request issued. *)
      let pin_reads =
        (Storage.Pager.stats (Btree.pager (Index.tree view))).Storage.Stats.reads
      in
      let exec0 = Obs.Clock.now_ns () in
      let run () = Uindex.Exec.run_rows ~algo ~row:json_row view q in
      let out, children =
        match root with
        | None -> (run (), [])
        | Some _ -> Trace.with_collector run
      in
      let exec_ns = Obs.Clock.since_ns exec0 in
      Metrics.observe h_pin pin_ns;
      Metrics.observe h_exec exec_ns;
      (match root with
      | Some sp ->
          Trace.add_field sp "session_pin_ns" pin_ns;
          Trace.add_field sp "page_reads" pin_reads;
          Trace.add_field sp "exec_ns" exec_ns;
          Trace.add_field sp "pool_hits" out.pool_hits;
          Trace.add_children sp children
      | None -> ());
      Rows
        (Protocol.rows ~page_reads:out.page_reads ~pool_hits:out.pool_hits
           ~entries_scanned:out.entries_scanned out.bindings)

let serve_line ?queued_ns ?deadline t line =
  serve_core ?queued_ns ?deadline t.pipe ~health:(health_fields t)
    ~answer:(query_answer t) line
let slow_log_json ?limit t = pipeline_slow_log ?limit t.pipe
