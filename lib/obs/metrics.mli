(** A process-wide metrics registry: named counters, gauges and
    log-scaled histograms, grouped by subsystem.

    The paper's whole evaluation is counted in page reads; this registry
    generalizes that discipline to every layer of the engine.  Each
    subsystem (pager, journal, buffer pool, btree, exec) registers its
    instruments once at module initialization; the hot paths then pay a
    single unboxed integer increment per event.  Registration is
    idempotent — asking for an existing [(subsystem, name)] pair returns
    the already-registered instrument — so instruments can be declared
    wherever they are used.

    Snapshots export as a human-readable table ({!pp}) or as
    line-oriented JSON ({!to_json}), which is the payload of
    [BENCH_results.json] and [uindex-cli stats --json].

    Instruments default to the process-wide {!default} registry; tests
    can create private registries.  Histograms bucket by powers of two
    ([0], [1], [2–3], [4–7], ...), which spans page-read counts and
    nanosecond latencies alike in 63 buckets.

    {b Thread safety.}  Every operation in this interface is safe to call
    from concurrent threads and domains.  Counters and gauges are single
    atomic words ({!incr}/{!add} are one fetch-and-add, never a lock);
    histogram observations and summaries serialize on a per-histogram
    mutex; registration and export take a per-registry mutex.  Exports
    ({!pp}, {!to_json}, {!summary}) are internally consistent per
    instrument but not a cross-instrument atomic snapshot — concurrent
    increments may land between two instruments' readouts. *)

type registry

val create_registry : unit -> registry
val default : registry

type counter
(** A monotonically increasing event count. *)

type gauge
(** A last-value-wins instantaneous measurement. *)

type histogram
(** A log2-bucketed distribution of non-negative integer observations
    (page reads per query, latency in nanoseconds, bytes). *)

val counter :
  ?registry:registry -> subsystem:string -> ?help:string -> string -> counter
(** [counter ~subsystem name] registers (or retrieves) the counter
    [subsystem.name].  Raises [Invalid_argument] when the name is already
    registered as a different instrument kind. *)

val gauge :
  ?registry:registry -> subsystem:string -> ?help:string -> string -> gauge

val histogram :
  ?registry:registry -> subsystem:string -> ?help:string -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Negative observations clamp to 0. *)

val observe_span : histogram -> (unit -> 'a) -> 'a
(** Times the thunk on {!Clock.now_ns} and observes the elapsed
    nanoseconds. *)

type histogram_summary = {
  count : int;
  sum : int;
  max_value : int;
  p50 : int;
  p90 : int;
  p95 : int;
  p99 : int;
      (** quantiles are upper bounds of the containing log2 bucket — exact
          enough to read orders of magnitude, cheap enough for hot paths *)
}

val summary : histogram -> histogram_summary

val find_summary : registry -> string -> histogram_summary option
(** [find_summary r "server.request_ns"] is the current summary of the
    histogram with that fully-qualified name; [None] for counters, gauges
    and unknown names.  This is how the CLI and the server's [stats]
    response surface request-latency percentiles. *)

val summary_json : histogram_summary -> Json.t
(** [{"count": ..., "sum": ..., "max": ..., "p50": ..., "p90": ...,
    "p95": ..., "p99": ...}] — the same rendering {!to_json} uses for
    histogram members. *)

(* {1 Snapshot and export} *)

val find : registry -> string -> int option
(** [find r "pager.reads"] is the current value of a counter or gauge
    with that fully-qualified name; [None] for histograms and unknown
    names. *)

val reset : registry -> unit
(** Zeroes every instrument, keeping registrations — used between
    benchmark phases and by tests. *)

val pp : Format.formatter -> registry -> unit
(** A table of every instrument, grouped by subsystem, zero-valued
    instruments included. *)

val to_json : registry -> Json.t
(** [{"subsystem.name": value, ...}] for counters/gauges, and
    [{"subsystem.name": {"count": ..., "sum": ..., "max": ...,
    "p50": ..., "p90": ..., "p95": ..., "p99": ...}}] for histograms,
    sorted by name. *)

val counters_json : registry -> Json.t
(** The counters-only subset of {!to_json} — every member is monotone
    by construction, which is what snapshot diffing ({!delta}) and the
    CI monotonicity gate rely on.  Gauges and histograms are excluded
    because they may legitimately move backwards. *)

val merge_counters : Json.t list -> Json.t
(** Key-wise sum of several counter snapshots (as produced by
    {!counters_json}) into one — the cluster-wide totals a
    multi-endpoint [uindex stats]/[uindex top] shows as its merged row.
    A key missing from some snapshots counts from 0 there; non-integer
    members are dropped; the result's keys are sorted, so the merge is
    insensitive to both snapshot order and member order. *)

val delta : before:Json.t -> after:Json.t -> (string * int) list
(** Pairwise differences of the integer members of two registry
    snapshots (as produced by {!counters_json} or {!to_json}), keyed by
    the members of [after]; a key missing from [before] counts from 0.
    Non-integer members (histogram summaries) are skipped.  This is the
    rate source for [uindex top] and the monotone-counters check. *)
