(** Result rows printed straight from an entry's key bytes.

    A served query answers with one JSON row per binding,

    {v {"value":V,"comps":[["Name",oid],...]} v}

    and every field of it is already in the accepted entry's key
    ({!Ukey}: [value 0x01 code 0x01 oid ...]).  A renderer prints the row
    from those bytes: the value once per value group (the layout keeps a
    value's entries adjacent, so consecutive rows share it), each class
    name from a per-encoding table of quoted names, each oid from its
    four bytes.  It builds no {!Ukey.decoded}, no {!Exec.binding} and no
    {!Obs.Json.t}: the row string is its only allocation.  Its bytes are
    [Obs.Json.to_string] of the row document built from
    [Ukey.decode ~arity] of the key, strings escaped by
    {!Obs.Json.add_quoted}. *)

module Schema := Oodb_schema.Schema
module Encoding := Oodb_schema.Encoding

type t
(** A renderer for one query: its scratch buffers and the last row's
    value group.  Not shared between threads. *)

val create : enc:Encoding.t -> ty:Schema.attr_type -> t
(** The name table is built once per code set of the encoding and
    shared by every renderer over it; a class added later
    ({!Encoding.assign_new_class}) makes the next lookup that misses
    rebuild it.  Raises [Invalid_argument] unless [ty] is [Int] or
    [String]. *)

val render : t -> Bytes.t -> int -> arity:int -> string
(** [render t key len ~arity] is the row of [key.[0, len)] with its
    value and first [arity] components.  A key that [Ukey.decode ~arity]
    rejects raises the exception [Ukey.decode] raises for it. *)
