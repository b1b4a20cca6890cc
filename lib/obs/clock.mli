(** The monotonic clock every duration in the system is measured on.

    [now_ns] reads [clock_gettime(CLOCK_MONOTONIC)]: it never steps
    backwards when the wall clock is adjusted, so a latency computed as
    the difference of two readings is never negative and never jumps.
    Its origin is arbitrary (typically boot), so a reading means nothing
    on its own, only relative to another reading in the same process:
    request deadlines are instants on this clock, while timestamps shown
    to people ([uptime_s], the slow log's [at]) stay on
    [Unix.gettimeofday]. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock.  Allocation-free. *)

val since_ns : int -> int
(** [since_ns t0] is [now_ns () - t0]: the nanoseconds elapsed since the
    reading [t0]. *)
