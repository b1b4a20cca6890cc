(** Class codes: the paper's [COD] naming scheme (Section 3).

    A code is a sequence of {e units}, one per level of the class
    hierarchy: the code of a class is its parent's code extended by one
    unit, so a class-hierarchy subtree is exactly a unit-prefix range.

    Codes are serialized for use inside index keys by terminating every
    unit with the byte [0x02], which is smaller than any unit character.
    This gives the two properties the scheme needs:

    - serialized order = pre-order of the hierarchy (a class sorts before
      its descendants, the paper's "`$` is lower lexicographically than
      `A`");
    - the serialized keys of a subtree form one contiguous byte-string
      interval.

    Units are strings over ['A'..'z'].  Fresh sibling units are allocated
    in order, and {!unit_between} produces a unit strictly between two
    existing ones — this is what makes the Fig. 4 schema-evolution cases
    (insert a class anywhere without recoding the rest) work. *)

type t
(** A class code; the root-level unit comes first. *)

val root : string -> t
(** A top-level code made of a single unit. *)

val child : t -> string -> t
(** [child c u] extends [c] with unit [u]. *)

val units : t -> string list
val depth : t -> int
(** Number of units; a hierarchy root has depth 1. *)

val parent : t -> t option

val compare : t -> t -> int
(** Pre-order: equals [String.compare] on {!serialize}. *)

val equal : t -> t -> bool

val is_ancestor : ancestor:t -> t -> bool
(** Reflexive: a code is its own ancestor. *)

val serialize : t -> string
(** The byte-string image used in index keys. *)

val component_end : string
(** The byte ([0x01]) that index-key formats place after a serialized code
    and before the payload (OID).  It is smaller than the unit terminator,
    so a class's own entries sort before its descendants' — the paper's
    "`$` is lower lexicographically than `A`". *)

val of_serialized : string -> t
(** Inverse of {!serialize}; raises [Invalid_argument] on malformed
    input. *)

val subtree_interval : t -> string * string
(** [subtree_interval c] is the half-open serialized-key interval
    containing exactly the codes of [c]'s subtree (including [c]). *)

val serialized_subtree_interval : string -> string * string
(** {!subtree_interval} of the code with this serialization. *)

val to_string : t -> string
(** Display form, units joined with ['.'] (e.g. ["C.E.A"]). *)

val pp : Format.formatter -> t -> unit

(** {1 Unit allocation} *)

val unit_of_rank : int -> string
(** [unit_of_rank i] is the [i]-th unit in allocation order ([i >= 0]):
    single characters first, then longer strings; strictly increasing in
    code order, never ending in ['A']. *)

val unit_between : string -> string option -> string
(** [unit_between u v] is a unit strictly between [u] and [v] ([None]
    means unbounded above).  [u] may be [""] to mean "below every unit".
    Raises [Invalid_argument] if the gap is empty.  Never returns a unit
    ending in ['A'], which guarantees further insertions always fit. *)

val check_unit : string -> string
(** Validates that a unit is non-empty and uses only ['A'..'z']. *)
