(** Assignment of {!Code} values to classes (the paper's [COD] relation).

    The lexicographic order of the assigned codes matches a depth-first
    topological order of the schema graph:

    - within a class hierarchy, a subclass's code extends its
      superclass's, so pre-order traversal equals code order and every
      subtree is a contiguous code interval;
    - across hierarchies, the hierarchy roots are topologically ordered by
      the lifted REF constraints: if any class of tree [T1] references a
      class of tree [T2] then [root(T2)]'s code precedes [root(T1)]'s —
      this is what makes a REF path's class codes appear in ascending
      order inside a composite index key (Section 3.1).

    The assignment is incremental: classes added to the schema after
    {!assign} get codes via {!assign_new_class} without recoding anything
    (the Fig. 4 evolution cases). *)

exception Cycle of string list
(** Raised by {!assign} when the lifted REF constraints between hierarchy
    roots are cyclic; carries the class names on the cycle.  Break the
    cycle by partitioning the REF edges ({!Graph.partition_acyclic}) and
    encoding each group separately. *)

type t

val assign : ?ref_edges:(Schema.class_id * Schema.class_id) list ->
  Schema.t -> t
(** Assigns codes to every class currently in the schema.  [ref_edges]
    overrides the set of REF constraints to honour (defaults to all of the
    schema's REF edges) — pass a subset to encode one acyclic group of a
    cyclic schema. *)

val schema : t -> Schema.t
val code : t -> Schema.class_id -> Code.t
val class_of_code : t -> Code.t -> Schema.class_id option
val class_of_serialized : t -> string -> Schema.class_id option

val serialized_codes : t -> string array
(** Every assigned code, serialized, in ascending order: the set a key's
    component codes are checked against by binary search.  The array is
    shared and must not be written; a class added later yields a fresh
    one. *)

val serialized_classes : t -> Schema.class_id array
(** The class of each of {!serialized_codes}' codes, at the same index:
    a code's rank in that array is its class's index in this one.
    Shared like it, and replaced with it when a class is added. *)

val subtree_interval : t -> Schema.class_id -> string * string
(** Serialized-key interval of the class-hierarchy subtree rooted at the
    class. *)

val exact_interval : t -> Schema.class_id -> string * string
(** Serialized-key interval containing exactly this class's entries (the
    serialized code followed by the component terminator). *)

val assign_new_class : t -> Schema.class_id -> unit
(** Gives a code to a class added after {!assign}: as a fresh child unit
    under its parent's code, or as a new hierarchy root placed between
    existing roots so that its REF constraints still hold.  Raises
    {!Cycle} if no valid root position exists. *)

val path_is_encodable : t -> Schema.class_id list -> bool
(** [path_is_encodable t [a; b; c]] checks that codes strictly decrease
    along the REF path [a -> b -> c], i.e. the composite key components
    (listed target-first) come out in ascending code order. *)

val pp : Format.formatter -> t -> unit
