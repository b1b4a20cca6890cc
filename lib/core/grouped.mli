(** The grouped entry layout of Section 3.2.1.

    Before suggesting single-value entries, the paper describes U-index
    leaf entries as

    {v (attribute-value, Class-name-code)  ->  list of object-ids v}

    i.e. one entry per (value, class) pair carrying that class's OID list.
    The main library ({!Index}) uses the single-value form ("one can use
    only single-value entries ... and rely on the compression mechanism");
    this module implements the grouped form for the class-hierarchy case
    so the two layouts can be compared (ablation A7): grouped entries
    store OIDs more densely but pay read-modify-write maintenance and
    lose per-OID key compression.

    Keys are [value-bytes 0x01 serialized-code 0x01], so all the
    clustering properties (value groups, contiguous class subtrees) are
    identical to the single-value layout's, and one walk serves both. *)

module Schema := Oodb_schema.Schema
module Encoding := Oodb_schema.Encoding

type t

val create :
  ?config:Btree.config ->
  Storage.Pager.t ->
  Encoding.t ->
  root:Schema.class_id ->
  attr:string ->
  t

val tree : t -> Btree.t

val insert : t -> value:Objstore.Value.t -> cls:Schema.class_id -> int -> unit
val remove : t -> value:Objstore.Value.t -> cls:Schema.class_id -> int -> unit

val build : t -> Objstore.Store.t -> unit

val query :
  t -> Query.t -> (Schema.class_id * int) list * int
(** [(results, page_reads)] for a single-component query (the value
    predicate and class pattern of a {!Query.class_hierarchy} query; the
    slot restricts the OID list), in key order and list order.  The
    query is compiled for the grouped key form ([Plan.compile
    ~grouped:true]) and run by {!Exec.scan}'s Algorithm 1 walk over a
    per-query page cache, so [page_reads] counts distinct pages, as
    {!Exec.parallel} does for the single-value layout.  A key that does
    not decode is skipped and counted in [exec.undecodable_entries]. *)

val entry_count : t -> int
