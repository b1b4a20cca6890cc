(** The socket server: a supervised worker pool serving the wire protocol
    over a Unix-domain or TCP listener, named by an {!Endpoint.t} (the
    same type clients, shard maps and the router use).

    One acceptor domain polls the listener and pushes connections onto a
    bounded queue; [workers] domains pop connections and serve requests
    through {!Service.serve_line}.  Overflowing the queue gets the client a
    typed [overloaded] reply instead of a hang; a connection that waited
    in the queue past the request timeout gets a [timeout] reply; socket
    reads and writes carry OS-level timeouts so a stalled peer can never
    pin a worker.  Workers survive every per-connection failure, and
    send a best-effort typed [internal] reply before closing when one
    slips past the request pipeline.

    {b Supervision.}  A supervisor domain watches for dying worker or
    acceptor domains (the only way a domain dies is an escaped
    exception — e.g. the deliberate {!Chaos.Crash} fault), joins each
    corpse and respawns a fresh domain in its slot while the
    [restart_budget] lasts.  An exhausted budget degrades capacity
    instead of masking a crash loop.  Restart counts surface as
    [server.worker_restarts] / [server.acceptor_restarts] and in the
    [health] response.

    {b Chaos.}  An armed {!Chaos.t} in the config wraps every
    connection's frame I/O with seeded fault injection — see {!Chaos}.

    {!stop} is graceful: the supervisor and acceptor quit, workers
    finish every queued connection, the listener closes (Unix-domain
    socket files are unlinked), and the database syncs — after a clean
    stop the journal is empty. *)

type addr = Endpoint.t =
  | Unix_sock of string  (** path to a Unix-domain socket *)
  | Tcp of string * int  (** numeric IPv4 bind address and port; port [0]
                             picks an ephemeral port (see {!bound_addr}) *)
(** The listener's {!Endpoint.t}: [--socket]/[--tcp] parse into it. *)

type config = {
  addr : addr;
  workers : int;  (** worker domains (>= 1) *)
  backlog : int;  (** max queued connections before shedding (>= 1) *)
  request_timeout : float;
      (** per-request deadline and socket timeout in seconds; [0.]
          disables both *)
  chaos : Chaos.t option;
      (** armed fault injector; [None] serves honestly *)
  restart_budget : int;
      (** domain respawns before the supervisor gives up (>= 0) *)
}

val default_config : addr -> config
(** 4 workers, backlog 64, 5 s timeout, no chaos, restart budget 8. *)

type t

type handler = {
  serve : queued_ns:int -> deadline:int option -> string -> string;
      (** one request line in, one JSON reply out.  [queued_ns] is the
          time the connection waited in the accept queue; [deadline] is
          an absolute {!Obs.Clock.now_ns} cutoff (or [None]). *)
  on_stop : unit -> unit;
      (** called once after a graceful {!stop} has drained the workers —
          the place to sync a database or flush downstream state. *)
}
(** What the worker pool actually runs.  {!start} wraps a {!Service.t}
    in one; {!start_handler} accepts any implementation, letting a
    shard router (or any other request processor) sit behind the same
    listener, queueing, chaos and supervision machinery. *)

val handler_of_service : Service.t -> handler
(** [serve] is {!Service.serve_line}; [on_stop] syncs the service's
    database. *)

val start_handler : handler -> config -> t
(** {!start} generalized over the request handler. *)

val start : Service.t -> config -> t
(** Binds, listens and spawns the acceptor, worker and supervisor
    domains.  Raises [Unix.Unix_error] if the address cannot be bound
    and [Invalid_argument] on nonsensical config (including a [Tcp]
    host that is not a numeric IPv4 address) or a non-socket file at
    a Unix-domain path (a stale socket file is unlinked and rebound).
    Sets the process's [SIGPIPE] disposition to ignore, so peers that
    vanish mid-reply surface as [EPIPE] writes. *)

val stop : t -> unit
(** Graceful shutdown as described above; blocks until every domain has
    joined and the database has synced.  Idempotent. *)

val bound_addr : t -> addr
(** The listener's actual endpoint — carrying the chosen port for
    [Tcp (_, 0)] — ready for {!Client.connect}. *)
