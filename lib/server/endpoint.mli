(** Where a server listens and a client connects: the one way every
    layer names a server — the listener ({!Server.addr}), the client
    connectors, the shard map's [endpoint] values and the router's
    remote backends.

    {b Syntax}, decided here once for [--socket], [--tcp], [--connect],
    [--endpoints] and shard-map files:
    - A spec with no ['/'] whose suffix after the last [':'] is all
      digits is TCP, [HOST:PORT].  The port must be in [0, 65535]; the
      host must be a numeric IPv4 address, and an empty host means
      [127.0.0.1] (so [:7771] is the local port 7771).  Any other spec
      of this form is an [Error] naming it — [localhost:7771] included:
      names are not resolved.
    - Every other spec is a Unix-domain socket path ([/tmp/x.sock],
      [rel.sock], [a:b], [/tmp/a:1]); a path that would read as
      [HOST:PORT] is written with a directory, e.g. [./a:1]. *)

type t =
  | Unix_sock of string  (** path to a Unix-domain socket *)
  | Tcp of string * int
      (** numeric IPv4 address and port; port [0] on a listener picks an
          ephemeral port (see {!Server.bound_addr}) *)

val of_string : string -> (t, string) result
(** Parses a spec by the rule above; an empty spec is an [Error]. *)

val tcp_of_string : string -> (t, string) result
(** Parses a spec that must be [HOST:PORT] (what [--tcp] takes): the
    same HOST:PORT rule as {!of_string}, and an [Error] for anything
    {!of_string} would read as a socket path. *)

val to_string : t -> string
(** The spec {!of_string} parses back to the same endpoint: the path, or
    [HOST:PORT]. *)

val to_sockaddr : t -> Unix.sockaddr
(** Raises [Invalid_argument] for a [Tcp] host that is not a numeric
    IPv4 address (possible only for a value built without a parser). *)
