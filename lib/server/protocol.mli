(** The wire protocol: length-prefixed frames carrying text requests and
    JSON responses.

    A frame is a 4-byte big-endian unsigned payload length followed by
    that many payload bytes.  Requests are one-line text commands
    ([ping], [stats], [health], [slow-queries [n]], [quit], [query <q>],
    [query-forward <q>] where [<q>] uses the paper's query syntax — see
    [Qparse]); responses are one {!Obs.Json} object per request:
    [{"ok": true, ...}] on success, [{"ok": false, "error":
    {"kind": ..., "detail": ...}}] on a typed error.  Frames longer than
    {!max_frame} are rejected without being read, so a hostile length
    prefix cannot balloon server memory.

    Any request line may carry a client-propagated trace id as a leading
    [@<hex>] token ([@a1b2c3 query (Red, Bus)], 1–16 hex digits).  The
    server traces that request under the given id and echoes it back as
    a ["trace_id"] member of the response, correlating client-side and
    server-side observations of one request.

    The answer to a query is written here and nowhere else: its JSON
    form, its canonical row order, the merge of shard replies and the
    trace-id echo ({!answer}). *)

val max_frame : int
(** Maximum payload bytes per frame (1 MiB), both directions. *)

val write_frame : Unix.file_descr -> string -> unit
(** Raises [Invalid_argument] if the payload exceeds {!max_frame};
    [Unix.Unix_error] on I/O failure. *)

val encode_frame : string -> bytes
(** The on-wire bytes of one frame (header + payload) without writing
    them — what the chaos injector cuts short to fake partial writes.
    Raises [Invalid_argument] past {!max_frame}. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd b off len] writes exactly the given byte range,
    looping over short writes.  [Unix.Unix_error] propagates. *)

type read_result =
  | Frame of string  (** one complete payload *)
  | Eof  (** clean close: the peer finished before any header byte *)
  | Too_large of int
      (** header announced this many bytes (> {!max_frame}); nothing
          further was read, and the stream position is unrecoverable *)
  | Truncated  (** the peer disconnected mid-frame *)

val read_frame : Unix.file_descr -> read_result
(** Blocking read of one frame.  [Unix.Unix_error] propagates — with a
    receive timeout set, a stalled peer surfaces as
    [EAGAIN]/[EWOULDBLOCK]. *)

type request =
  | Query of { algo : [ `Parallel | `Forward ]; text : string }
  | Stats  (** full registry snapshot + request-latency summary *)
  | Health
      (** server vitals: workers, queue depth, active sessions, LSN
          lag, GC counters, slow-log occupancy *)
  | Slow_queries of int option
      (** drain the slow-query log (newest first), optionally capped *)
  | Ping
  | Quit

val parse_line : string -> (int option * request, string) result
(** Parses one request line, splitting off the optional leading
    [@<hex>] trace-id token.  A malformed trace id is an error even if
    the command after it is well-formed. *)

val parse_request : string -> (request, string) result
(** {!parse_line} with the trace id discarded.  Case-insensitive on the
    command word; the query text is passed through verbatim. *)

val request_to_string : request -> string
(** Inverse of {!parse_request} (canonical spelling). *)

val line_to_string : ?trace_id:int -> request -> string
(** {!request_to_string} with an optional [@<hex>] trace-id prefix —
    what a tracing client sends. *)

type error_kind =
  | Bad_request  (** unparseable command *)
  | Parse_error  (** query text rejected by [Qparse] *)
  | Unroutable  (** no index serves this query's arity *)
  | Timeout  (** the request exceeded its deadline *)
  | Overloaded  (** accept queue full; retry later *)
  | Frame_too_large
  | Corrupt
      (** the request touched a page that failed its checksum — the
          damage is quarantined and deterministic, so {e not} retryable *)
  | Shard_failure
      (** a scatter-gather fan-out lost one or more shards: the router
          refuses to return a silently partial row set *)
  | Internal

val ok : (string * Obs.Json.t) list -> Obs.Json.t
(** [{"ok": true, <fields>}]. *)

val error : ?detail:string -> error_kind -> Obs.Json.t
(** [{"ok": false, "error": {"kind": ..., "detail": ...}}]. *)

val response_is_ok : Obs.Json.t -> bool
val response_error_kind : Obs.Json.t -> string option

(** {1 Answers} *)

type rows = {
  rendered : string list;
      (** each row's compact JSON, ascending by [String.compare]: the
          canonical order, byte-identical whichever worker, process or
          shard fleet answered *)
  page_reads : int;
  pool_hits : int;
  entries_scanned : int;
}

val rows :
  page_reads:int -> pool_hits:int -> entries_scanned:int -> string list -> rows
(** Puts rendered rows in the canonical order. *)

val merge_rows : rows list -> rows
(** Merges replies over disjoint row sets (a COD-range partition puts
    each entry on one shard): a merge of the sorted lists, not a
    re-sort, with the cost fields summed.  [merge_rows []] is the empty
    reply. *)

type answer = Doc of Obs.Json.t | Rows of rows

val answer_to_string : ?trace_id:int -> answer -> string
(** The reply bytes: {!Obs.Json.to_string} of the document, where a
    [Rows] document is [{"ok":true,"type":"rows","count":_,"rows":[_],
    "page_reads":_,"pool_hits":_,"entries_scanned":_}], written straight
    from the rendered rows.  [?trace_id] is appended last as a
    ["trace_id"] member in hex — the client trace-id echo. *)

val answer_of_reply : Obs.Json.t -> answer
(** Another server's parsed reply as an answer: an ok [rows] reply
    becomes [Rows] (each row rendered back), anything else a [Doc];
    an echoed ["trace_id"] is dropped. *)
