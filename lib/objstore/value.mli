(** Attribute values of database objects. *)

type oid = int
(** Object identifiers; encoded on 4 bytes in index keys, as in the
    paper's experiments. *)

type t =
  | Null
  | Int of int
  | Str of string
  | Ref of oid          (** single-valued reference (m:1) *)
  | Ref_set of oid list (** multi-valued reference *)

val equal : t -> t -> bool
val compare : t -> t -> int

val encode : t -> string
(** Order-preserving key encoding of an indexable value ([Int] or [Str]).
    Raises [Invalid_argument] on [Null], [Ref] and [Ref_set]: references
    are traversed, not indexed as key bytes. *)

val decode : ty:Oodb_schema.Schema.attr_type -> string -> int -> t * int
(** [decode ~ty s off] reads the value back from a key, returning it
    together with the offset of the separator byte that follows it in the
    key format ([Int] is 8 fixed bytes; [Str] runs to the next [0x01]).
    Raises [Invalid_argument] with a ["truncated Int key"] diagnostic
    when fewer than 8 bytes remain for an [Int] — a distinct message, so
    callers that tolerate malformed entries can still surface corruption
    in their counters rather than conflating it with type errors — and
    an ["Int key out of range"] one when the 8 bytes are no int's image
    ({!Storage.Bytes_util.int_fits}). *)

val pp : Format.formatter -> t -> unit
