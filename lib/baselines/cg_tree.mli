(** CG-tree: the multiple-set index of Kilger and Moerkotte [6], the
    structure the paper's second experiment compares the U-index against
    (Section 5.1).

    Architecture, as described there:

    - an inner B+-tree on the attribute value whose leaf records are
      {e set directories}: for each set (class) having objects with that
      value, a pointer to the data page holding that [(value, set)] run —
      only non-NULL references are stored;
    - {e data pages}, chained per set in key order (the "link pointers
      between leaf pages of the same set"), each holding several keys'
      runs of its set (the "sharing of multiple keys entries in one leaf
      page") — this is what gives CG-trees their set-grouping behaviour
      on range queries;
    - page splits choose the best splitting key (a run boundary closest
      to the byte midpoint, never separating a continuation run).

    Like the paper's own reimplementation, leaf-page balancing is not
    implemented.

    The per-set chain heads/positions that the original stores as set
    links in inner nodes are kept here as an in-memory locator; a range
    query charges one shared inner-tree descent plus the per-set chain
    pages, matching the original's accounting. *)

type t

val create : ?config:Btree.config -> Storage.Pager.t -> t

val insert : t -> value:Objstore.Value.t -> cls:int -> int -> unit
val remove : t -> value:Objstore.Value.t -> cls:int -> int -> unit
val build : t -> (Objstore.Value.t * int * int) list -> unit

val exact : t -> value:Objstore.Value.t -> sets:int list -> (int * int) list
val range :
  t ->
  lo:Objstore.Value.t ->
  hi:Objstore.Value.t ->
  sets:int list ->
  (int * int) list

val pager : t -> Storage.Pager.t
val entry_count : t -> int
val check : t -> unit
(** Structural invariants: chains sorted, directory pointers valid,
    runs consistent.  For tests. *)
