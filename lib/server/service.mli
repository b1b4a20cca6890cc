(** Request dispatch: a {!Uindex.Db} behind the wire protocol, and the
    one request pipeline every front end serves through.

    A service routes each parsed query to the registered index whose
    {!Uindex.Index.arity} matches the query's component count — the same
    routing the CLI's [query] command performs — and executes it inside a
    {!Uindex.Db.session}, so every request sees one committed snapshot no
    matter what the writer does meanwhile.

    Each row is printed once, straight from its index entry's key bytes
    ({!Uindex.Keyrow}, inside execution, so [server.exec_ns] includes
    it), and the rendered rows are sorted into the canonical order
    {!Protocol.rows} defines, so two replies to the same
    query against the same snapshot are byte-identical regardless of
    which worker (or process) produced them.

    {b One pipeline, two query answers.}  Parsing, the deadline check,
    the admin requests ([ping], [quit], [stats], [health],
    [slow-queries]), echoing the client trace id (here and nowhere
    else), per-request exception containment ({!contain}), rendering,
    the [server.*] instruments and slow-log admission live in
    {!serve_core}, once.  A front end supplies only its
    {!query_answer} and its [health] fields: a service answers from its
    own database, the shard router ([Uindex_shard.Router]) by fanning out.

    {b Telemetry.}  Every request flows through the pipeline, which feeds
    per-stage histograms ([server.queue_wait_ns], [server.session_pin_ns],
    [server.exec_ns], [server.render_ns], [server.bytes_out],
    [server.request_ns]) in {!Obs.Metrics.default}.  When tracing is on,
    sampled requests (and every request carrying a client trace id) run
    under an {!Obs.Trace} root span; a service hangs the executor's
    plan/descent spans under it.  Requests at or above the slow threshold
    are admitted to a bounded ring — the slow-query log — drainable with
    the [slow-queries] admin request or {!slow_log_json}.  The ring keeps
    an {!Obs.Trace.compact}ed copy of each span tree (at most 64 children
    per node, the rest summed into one [elided] span), so an entry's
    size is bounded however many descents its query ran, and its span
    totals still equal the request's.  Stage durations are read on
    {!Obs.Clock}; only the entry's [at] timestamp is wall-clock.
    Telemetry never changes response bytes: a server-assigned trace id
    stays internal, and only a client-propagated id is echoed back.

    Page-read accounting is exact under tracing: the root span's own
    [page_reads] field carries the session-pin reads (every snapshot
    view's attach walk) and the exec children carry the descent reads,
    so summing span totals over a window of requests reconciles with
    the global [pager.reads] counter delta over the same window.

    Handling is thread-safe: any number of threads may call
    {!serve_line} on one service concurrently, and worker domains trace
    into domain-local collectors.

    {b Corruption containment.}  A request that trips
    [Storage_error.Corruption] (a page failed its checksum mid-query)
    is answered with a typed [data_corruption] error — the connection
    stays up — and the finding is recorded in the {!Quarantine}, which
    the [health] response surfaces alongside scrub and supervisor
    vitals.  Queries that do not touch the damaged page keep serving
    normally; none ever returns a silently wrong answer. *)

type t

type telemetry = {
  tracing : bool;
      (** span capture for every request that parses; off, no request
          is traced *)
  slow_threshold_ns : int;
      (** requests at least this slow enter the slow-query log; [0]
          logs everything *)
  slow_capacity : int;  (** slow-log ring size; [0] disables the log *)
}

val default_telemetry : telemetry
(** Tracing on, 10 ms slow threshold, 128-entry slow log. *)

val create :
  ?telemetry:telemetry ->
  ?shard_info:Obs.Json.t ->
  schema:Oodb_schema.Schema.t ->
  Uindex.Db.t ->
  t
(** Snapshots the database's current index registration into a routing
    table (indexes registered later are not served).  [?shard_info], when
    given, is surfaced verbatim as a ["shard"] member of the [health]
    response — a shard server uses it to report which COD range it
    holds. *)

val db : t -> Uindex.Db.t

val serve_line : ?queued_ns:int -> ?deadline:int -> t -> string -> string
(** {!serve_core} over this service's database: one request line in,
    the reply bytes out — what the server's workers call.  [?deadline]
    is an absolute {!Obs.Clock.now_ns} instant, so a wall-clock step can
    neither fire it early nor postpone it; a request that starts after
    its deadline gets a [timeout] error instead of running.  Never
    raises: unparseable lines become [bad_request] errors and execution
    failures [internal] ones.  [?queued_ns] is how long the connection
    waited in the accept queue; it is observed on the first request of
    the connection and recorded on its root span. *)

val slow_log_json : ?limit:int -> t -> Obs.Json.t
(** Snapshot of the slow-query log, newest first — the same document
    the [slow-queries] admin request returns (sans envelope).  Used to
    dump the log when a drained server shuts down. *)

(** {1 The request pipeline} *)

type pipeline
(** Per-front-end pipeline state: telemetry settings, the slow-query
    ring, the request sequence counter and the start time. *)

val pipeline :
  ?telemetry:telemetry -> schema:Oodb_schema.Schema.t -> unit -> pipeline
(** [?telemetry] defaults to {!default_telemetry}; [schema] parses query
    text. *)

type answer = Protocol.answer =
  | Doc of Obs.Json.t
  | Rows of Protocol.rows
      (** A query's answer, without a trace id: the pipeline echoes the
          client's and renders it with {!Protocol.answer_to_string}. *)

type query_answer =
  root:Obs.Trace.span option ->
  line:string ->
  deadline:int option ->
  algo:[ `Parallel | `Forward ] ->
  Uindex.Query.t ->
  answer
(** A front end's answer to a parsed query.  [root] is the request's
    span when traced, to carry the answer's fields; [line] is the
    request line as received.  An exception it raises becomes a typed
    error reply ([data_corruption] or [internal]) through {!contain}. *)

val contain : (unit -> answer) -> answer
(** Runs a query answer under per-request containment: a
    [Storage_error.Corruption] becomes a [data_corruption] error reply
    (counted in [server.corruption_replies] and recorded in the
    {!Quarantine}), any other exception an [internal] one. *)

val query_answer : t -> query_answer
(** This service's answer to an already-parsed query: the pin, the
    execution and the rows, without the request pipeline around them.
    The shard router calls it for an in-process shard, under
    {!contain}. *)

val serve_core :
  ?queued_ns:int ->
  ?deadline:int ->
  pipeline ->
  health:(unit -> (string * Obs.Json.t) list) ->
  answer:query_answer ->
  string ->
  string
(** The request pipeline: parses the line, checks the deadline, answers
    the admin requests itself ([health] as the common vitals — uptime,
    workers, queue depth, tracing, slow-log occupancy, GC — followed by
    [health ()]'s fields), hands queries to [answer] under {!contain},
    and returns the reply bytes.  Observes the [server.requests],
    [server.request_errors] and [server.request_ns] instruments in
    {!Obs.Metrics.default}. *)

val pipeline_slow_log : ?limit:int -> pipeline -> Obs.Json.t
(** {!slow_log_json} for any front end's pipeline. *)
