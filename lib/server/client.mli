(** A blocking client for the wire protocol: one connection, one request
    in flight at a time.  Not thread-safe — one client per thread.

    A server is named by an {!Endpoint.t}, parsed once by
    {!Endpoint.of_string}; {!connect} and {!retrying} are the only
    constructors.

    Every failure is typed ({!Error}); no bare [Failure] and no raw
    [Unix.Unix_error] escapes the request path.  Reads and writes carry
    OS-level deadlines ([SO_RCVTIMEO]/[SO_SNDTIMEO], mirroring the
    server side), so a stalled or chaos-injected server surfaces as
    {!Timed_out} instead of a hang.

    {!retrying} layers a bounded exponential-backoff-with-jitter retry
    policy on top: transport failures and replies documented "retry
    later" ([overloaded], [timeout]) are retried against a fresh
    connection; malformed input and other typed errors fail fast. *)

type failure =
  | Connect_failed of string  (** connection could not be established *)
  | Timed_out  (** a read/write deadline expired *)
  | Reset  (** the stream died mid-frame (reset, [EPIPE], truncation) *)
  | Closed_by_server
      (** clean close instead of a reply — e.g. after [quit], a fatal
          framing error, or shutdown *)
  | Bad_frame of string  (** oversized or unparseable reply frame *)
  | Rejected of { kind : string; detail : string }
      (** an admin helper got a typed error reply *)
  | Exhausted of { attempts : int; last : string }
      (** the retry policy gave up; [last] describes the final failure *)

exception Error of failure

val failure_to_string : failure -> string

type t

val connect : ?timeout:float -> Endpoint.t -> t
(** The one connector.  [?timeout] (default 30 s, [0.] disables) sets
    both socket deadlines.  Raises [Error (Connect_failed _)] on failure
    — a refused or missing endpoint, or a [Tcp] host that is not a
    numeric IPv4 address. *)

val connect_unix : ?timeout:float -> string -> t
(** [connect (Unix_sock path)]. *)

val request_raw : t -> string -> string
(** Sends one request line, returns the raw response payload —
    byte-exact, for differential comparison across clients.  Raises
    {!Error} ({!Timed_out}, {!Reset}, {!Closed_by_server},
    {!Bad_frame}). *)

val request : t -> string -> Obs.Json.t
(** {!request_raw} parsed as JSON; an unparseable reply raises
    [Error (Bad_frame _)]. *)

val stats : t -> Obs.Json.t
val health : t -> Obs.Json.t

val slow_queries : ?limit:int -> t -> Obs.Json.t
(** Admin requests, with the [ok] envelope checked: each returns the
    successful response document and raises [Error (Rejected _)] on an
    error response. *)

val close : t -> unit

(** {1 Retrying requests} *)

type retry_policy = {
  attempts : int;  (** total attempts per request, >= 1 *)
  base_delay : float;  (** first backoff, seconds *)
  max_delay : float;  (** backoff cap, seconds *)
  jitter : float;  (** multiplicative jitter fraction in [0, 1] *)
  retry_seed : int;  (** seeds the jitter stream — runs are replayable *)
}

val default_retry_policy : retry_policy
(** 5 attempts, 50 ms doubling to a 1 s cap, 0.5 jitter, seed 1. *)

type retrying
(** A reconnecting handle: the endpoint, a policy, and the current
    connection (re-established on demand after a failure). *)

val retrying :
  ?timeout:float -> ?policy:retry_policy -> Endpoint.t -> retrying
(** Over a {!connect} endpoint.  Connection is lazy: a server that is
    briefly down (e.g. mid-[supervise] restart) only costs retries. *)

val retry_request_raw : retrying -> string -> string
(** Sends one request line, retrying with backoff on transport failures
    ({!Connect_failed}, {!Timed_out}, {!Reset}, {!Closed_by_server})
    and on [overloaded]/[timeout] error replies.  Returns the raw bytes
    of the first conclusive reply — a success {e or} a non-retryable
    typed error ([bad_request], [parse_error], [unroutable],
    [frame_too_large], [data_corruption], [internal]); the caller
    inspects the envelope.  Raises [Error (Exhausted _)] when the
    policy runs out and [Error (Bad_frame _)] immediately on a
    malformed reply. *)

val retry_count : retrying -> int
(** Retries this handle has performed (for availability accounting). *)

val retry_close : retrying -> unit
