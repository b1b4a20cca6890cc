(** Result rows printed straight from an entry's key bytes.

    A served query answers with one JSON row per binding,

    {v {"value":V,"comps":[["Name",oid],...]} v}

    and every field of it is already in the accepted entry's key
    ({!Ukey}: [value 0x01 code 0x01 oid ...]), where the classifier has
    just found it ({!Plan.classify_in_place}): the value's end, each
    component's end and its code's rank.  A renderer prints the row from
    those findings and the key's bytes, parsing nothing again: the value
    once per value group (the layout keeps a value's entries adjacent,
    so consecutive rows share it), each class name by its code's rank
    from a per-code-set table of quoted names, each oid from its four
    bytes.  It builds no {!Ukey.decoded}, no {!Exec.binding} and no
    {!Obs.Json.t}: the row string is its only allocation.  Its bytes are
    [Obs.Json.to_string] of the row document built from
    [Ukey.decode ~arity] of the key, strings escaped by
    {!Obs.Json.add_quoted}. *)

module Encoding := Oodb_schema.Encoding

type t
(** A renderer for one query's plan: its scratch buffers and the last
    row's value group.  Not shared between threads. *)

val create : enc:Encoding.t -> Plan.t -> t
(** [create ~enc plan]: a renderer for the keys [plan] accepts; [enc]
    is the encoding the plan was compiled with.  The name table belongs
    to the plan's code set ({!Plan.known}) and is built once per code
    set, shared by every renderer over it. *)

val render : t -> Bytes.t -> arity:int -> string
(** [render t key ~arity] is the row of the key in [key] with its value
    and first [arity] components, right after the renderer's plan
    accepted those bytes at an arity of at least [arity]
    ({!Plan.classify_in_place}). *)
