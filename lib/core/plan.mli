(** Query compilation: from {!Query.t} to key-space navigation.

    A compiled plan drives both retrieval algorithms of the paper:

    - {e forward scanning} uses {!bracket}: one contiguous key interval
      from the first to the last possibly-relevant entry;
    - the {e parallel algorithm} (Algorithm 1) repeatedly asks
      {!next_candidate} for the smallest admissible position at or after
      the current key and {!classify} for accept/skip decisions, so the
      executor only ever touches B-tree nodes that can hold relevant
      entries — the paper's dynamically-built search tree over partial
      keys, with the partial-key set expressed as (value spec × code
      intervals) plus per-component skip targets. *)

module Schema := Oodb_schema.Schema
module Encoding := Oodb_schema.Encoding

type t

val compile : enc:Encoding.t -> ty:Schema.attr_type -> Query.t -> t
(** Raises [Invalid_argument] if the query has no components or uses a
    non-indexable value. *)

val query : t -> Query.t

val lower : t -> string option
(** First admissible position; [None] when the plan is empty (e.g. an
    empty range). *)

val upper : t -> string option
(** Exclusive upper bound of all admissible keys; [None] = unbounded. *)

val bracket : t -> (string * string option) option
(** [(lower, upper)]: the one key interval that holds every admissible
    key — the span both retrieval algorithms walk. *)

val intervals : t -> (string * string) list option
(** The finite set of admissible key intervals — one per (value, code
    interval) pair — when the value spec is enumerable ([V_eq]/[V_in]);
    [None] for contiguous ranges, whose candidates are generated lazily
    during the scan.  Sorted and disjoint.  The grouped layout's query
    seeks to each; the executor reports their count in its [plan]
    span. *)

val next_candidate : t -> string -> string option
(** Smallest admissible position [>=] the given byte string.  The result
    is a seek target, not necessarily an existing key.  Admissibility here
    covers the value spec and the first component's code/OID intervals;
    later components are checked by {!classify}. *)

type next =
  | Seek of string  (** jump to this position *)
  | Advance  (** just move to the next entry *)
  | Stop  (** no admissible position remains *)

type verdict =
  | Accept of { d : Ukey.decoded; arity : int; next : next }
      (** [arity] is the number of query components that matched (the
          query may be a proper prefix of the entry — the paper's
          partial-path queries, in which case [next] jumps past the
          remaining entries of the same matched prefix so each binding is
          produced once) *)
  | Reject of next

val classify : t -> string -> verdict
(** Full match check of an entry key, producing a skip target on
    rejection: failing the value or first component jumps to the next
    admissible group; failing a later component's class skips that class's
    run; failing a slot skips that object's run (the paper's "skip by
    looking the uncompressed part of the key up in the parent",
    Section 3.4).  An entry whose key bytes do not decode at all (e.g. a
    truncated [Int] key) is rejected with [Advance] and counted in the
    [exec.undecodable_entries] metric — corruption is tolerated but never
    silent. *)

val undecodable_entries : unit -> int
(** Current value of the process-wide [exec.undecodable_entries] counter
    (0 when no entry ever failed to decode). *)
