(** OODB schema: classes, attributes, the class ("is-a") hierarchy and the
    class-composition ("REF") hierarchy of Section 2.

    A class may have one parent (SUP/SUB edges form a forest; the paper's
    encoding needs an acyclic class hierarchy, and multiple inheritance is
    out of scope here — Section 4.3 argues it rarely breaks acyclicity).
    REF relationships are declared as attributes of type {!attr_type.Ref}
    (m:1, single object reference) or {!attr_type.Ref_set} (multi-value
    reference, Section 4.3).  Attributes are inherited by subclasses. *)

type class_id = int

type attr_type =
  | Int
  | String
  | Ref of class_id  (** m:1 reference — a REF edge to the target class *)
  | Ref_set of class_id  (** multi-valued reference *)

type t

val create : unit -> t

val add_class :
  ?parent:class_id -> t -> name:string -> attrs:(string * attr_type) list ->
  class_id
(** Declares a class.  Raises [Invalid_argument] on duplicate names,
    unknown parents, or attribute names clashing with inherited ones. *)

val add_attr : t -> class_id -> string -> attr_type -> unit
(** Adds an attribute to an existing class. *)

val name : t -> class_id -> string
val find : t -> string -> class_id option
val parent : t -> class_id -> class_id option
val children : t -> class_id -> class_id list
(** In declaration order. *)

val roots : t -> class_id list
val all_classes : t -> class_id list
val class_count : t -> int

val subtree : t -> class_id -> class_id list
(** Pre-order: the class itself first, then descendants. *)

val is_subclass : t -> sub:class_id -> super:class_id -> bool
(** Reflexive. *)

val own_attrs : t -> class_id -> (string * attr_type) list

val attr_type : t -> class_id -> string -> attr_type option
(** Looks the attribute up on the class and then on its ancestors
    (inheritance). *)

val attr_type_exn : t -> class_id -> string -> attr_type

val refs : t -> class_id -> (string * class_id * [ `One | `Many ]) list
(** All REF attributes (own and inherited) of a class: attribute name,
    target class, multiplicity. *)

val ref_edges : t -> (class_id * string * class_id) list
(** Every REF edge in the schema as [(source, attribute, target)]. *)

val pp : Format.formatter -> t -> unit
