(** The scatter-gather query frontend.

    One router serves the same wire protocol as an unsharded
    {!Uindex_server.Service} through the same pipeline
    ({!Uindex_server.Service.serve_core}): parsing, deadlines, the admin
    requests, trace-id echo, error containment, rendering, the
    [server.*] instruments and the slow-query log are the service's.
    Only the query answer is the router's: it asks {!Planner} which
    shards the query's code intervals can touch, fans the request out to
    exactly those shards — in-process services or remote endpoints — and
    merges the replies.

    {b Reply canonicalization.}  Every shard's rows come back in the
    canonical order ({!Uindex_server.Protocol.rows}), and a COD-range
    partition assigns each entry to exactly one shard, so merging the
    sorted lists ({!Uindex_server.Protocol.merge_rows}) gives a row
    list byte-identical to the unsharded engine's; [count] is the sum
    of shard counts and the cost fields ([page_reads], [pool_hits],
    [entries_scanned]) are sums over the shards actually contacted.
    {!canonical_projection} extracts the deployment-independent part of
    a reply — everything except the cost fields — which is the
    byte-comparable answer.

    {b Shard calls.}  A [Local] shard answers the query the router has
    already parsed through {!Uindex_server.Service.query_answer}, under
    {!Uindex_server.Service.contain} — no second request pipeline, no
    root span, no re-parse, but the same typed [data_corruption] reply
    and quarantine record a damaged page gets on the shard's own
    server.  A [Remote] shard is sent the request line; its reply is
    parsed once and turned into an answer by
    {!Uindex_server.Protocol.answer_of_reply} (rows rendered back one by
    one, its trace-id echo dropped).  A query routed to one shard
    returns that shard's answer unchanged, so the reply is
    byte-identical to the shard's own; the pipeline echoes the client
    trace id once, as for every reply.

    {b Telemetry.}  A traced request's root span carries [fanout]
    (shards contacted), [merge_ns] on fan-outs, and [page_reads] equal
    to the reply's summed [page_reads] — so a router slow-log entry
    reports its reply's page reads.  The shards' own span trees stay in
    the shards' pipelines.

    {b Partial failure.}  A shard that cannot be reached (after the
    client's retry policy is exhausted) or that replies with an error
    the others do not turns the whole reply into a typed
    [shard_failure] error naming the lost shards — never a hang and
    never a silently partial row set.  If every contacted shard returns
    the {e same} error kind (e.g. [unroutable]), that reply is passed
    through unchanged. *)

module Schema := Oodb_schema.Schema
module Encoding := Oodb_schema.Encoding
module Service := Uindex_server.Service
module Server := Uindex_server.Server
module Client := Uindex_server.Client
module Endpoint := Uindex_server.Endpoint

type backend =
  | Local of Service.t  (** in-process shard: direct dispatch *)
  | Remote of Endpoint.t
      (** a shard server; each fan-out request opens a fresh retrying
          connection, so any number of worker domains may serve through
          the router concurrently.  A [shard_failure] detail names it by
          {!Endpoint.to_string}. *)

type t

val create :
  ?shard_timeout:float ->
  ?retry_policy:Client.retry_policy ->
  ?telemetry:Service.telemetry ->
  schema:Schema.t ->
  enc:Encoding.t ->
  map:Shard_map.t ->
  backends:backend array ->
  unit ->
  t
(** [backends] must have one entry per shard of [map].
    [?shard_timeout] (default 5 s) is the per-shard socket deadline on
    remote fan-out requests.  [?telemetry] configures the router's own
    pipeline exactly as {!Uindex_server.Service.create}'s does (default
    {!Uindex_server.Service.default_telemetry}). *)

val requests_per_shard : t -> int array
(** How many requests this router has forwarded to each shard — the
    pruning-exactness witness: a shard disjoint from every query's
    interval set must show zero. *)

val route_query : t -> Uindex.Query.t -> int list
(** The shards {!Planner} would fan this query to (no request is
    sent). *)

val respond : t -> Uindex.Query.t -> string
(** The reply for an already-parsed query — {!serve_line}'s query path
    without the wire parsing.  This is how a query whose pattern admits
    no code interval at all ([P_union []], which has no textual form)
    gets its canonical empty reply without contacting any shard. *)

val serve_line : ?queued_ns:int -> ?deadline:int -> t -> string -> string
(** {!Uindex_server.Service.serve_core} applied to the router's query
    answer — same contract as {!Uindex_server.Service.serve_line}, plus
    the [shard.fanout] (shards contacted per query), [shard.pruned]
    (shard requests avoided) and [shard.merge_ns] instruments. *)

val slow_log_json : ?limit:int -> t -> Obs.Json.t
(** The router's slow-query log, as {!Uindex_server.Service.slow_log_json}
    renders a service's. *)

val handler : t -> Server.handler
(** Plug the router behind the socket server:
    [Server.start_handler (Router.handler r) config]. *)

val canonical_projection : string -> string
(** The deployment-independent projection of a reply payload: parses the
    JSON and keeps [ok], [type], [count], [rows], [error] and
    [trace_id] members (in that order), dropping per-deployment cost
    fields.  Two deployments answer a query identically iff their
    projections are byte-identical.  Unparseable payloads are returned
    unchanged. *)
