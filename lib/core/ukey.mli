(** Composite-key encoding of U-index entries (Section 3.2).

    An entry key is

    {v value-bytes 0x01 component ... component v}

    where each component is [serialized-code 0x01 oid(4 bytes)] and the
    components appear in ascending code order (for a REF path that is
    target first, head last — the paper's [(Age,50) C1$e1 C2$c1 C5$v...]
    layout).  The class-hierarchy index is the one-component case.

    Because codes sort in schema pre-order, this makes every value group,
    every class-subtree run within a group, and every shared path prefix a
    contiguous key range, and the B-tree's front compression absorbs the
    repetition. *)

module Schema := Oodb_schema.Schema
module Code := Oodb_schema.Code
module Encoding := Oodb_schema.Encoding

val sep : string
(** The [0x01] separator after the value bytes. *)

val component : Code.t -> Objstore.Value.oid -> string

val entry_key : value:Objstore.Value.t -> (Code.t * Objstore.Value.oid) list -> string
(** Components must already be in ascending code order; raises
    [Invalid_argument] otherwise. *)

type decoded = {
  value : Objstore.Value.t;
  comps : (Schema.class_id * Objstore.Value.oid) list;
  comp_offsets : (int * int * int) list;
      (** per component: (start of code, start of oid, end) byte offsets
          into the key — used to build skip targets *)
}

val decode :
  ?arity:int -> enc:Encoding.t -> ty:Schema.attr_type -> string -> decoded
(** Raises [Invalid_argument] on malformed keys or unknown codes.  With
    [arity], only the value and the first [arity] components are decoded
    (and checked): what a binding of that arity needs. *)

val succ_prefix : string -> string
(** The smallest key greater than every key that starts with the given
    prefix (byte-string increment with carry).  Raises [Invalid_argument]
    on a prefix of all [0xff] bytes. *)
