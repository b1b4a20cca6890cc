(** The U-index (Section 3): one key-compressed B+-tree serving
    class-hierarchy, path, combined class/path, and multi-path indexing.

    A {e class-hierarchy} index on [(root, attr)] holds one entry per
    object of [root]'s subtree having a value for [attr].

    A {e path} index on [head.ref1.ref2...attr] holds one entry per
    instantiation of the REF path: the key carries the whole path
    (target object first, head object last, in ascending code order).
    Because entries record the {e actual} classes of the objects on the
    chain — which may be subclasses of the declared path classes — the
    same structure answers plain path queries, combined class-hierarchy /
    path queries, and partial-path queries; the paper's "combined index"
    is not a separate structure here.

    Several paths that share a suffix (e.g. [Vehicle.manufactured_by] and
    [Division.belongs_to], both ending in [Company.president.age]) can
    live in {e one} index ({!add_path}, the "Multiple Paths" case of
    Section 3.3): their entries share key prefixes, which front
    compression erases, and a single query retrieves objects of several
    heads at once.

    Entries are single-valued (the OID lives in the key, the B-tree value
    is empty) and rely on front compression to erase the repetition, as
    suggested at the end of Section 3.2.1. *)

module Schema := Oodb_schema.Schema
module Encoding := Oodb_schema.Encoding
module Store := Objstore.Store

type kind =
  | Class_hierarchy of { root : Schema.class_id; attr : string }
  | Path of { head : Schema.class_id; refs : string list; attr : string }
      (** [refs] are the REF attribute names walked from [head]; [attr]
          is the indexed attribute of the final target class.  An index
          created as [Path] may carry further paths ({!add_path}). *)

type t

val create_class_hierarchy :
  ?config:Btree.config ->
  Storage.Pager.t ->
  Encoding.t ->
  root:Schema.class_id ->
  attr:string ->
  t
(** Raises [Invalid_argument] if [attr] is not an [Int]/[String]
    attribute of [root] (possibly inherited). *)

val attach_class_hierarchy :
  ?config:Btree.config ->
  Storage.Pager.t ->
  Encoding.t ->
  root:Schema.class_id ->
  attr:string ->
  t
(** Re-opens a class-hierarchy index previously persisted with {!sync}
    on this pager (usually after {!Storage.Pager.open_file}), via
    {!Btree.reattach}.  The caller supplies the index description —
    only the tree root lives in the pager metadata.  Raises
    {!Storage.Storage_error.Corruption} when the metadata does not name
    a tree. *)

val recreate : ?config:Btree.config -> t -> Storage.Pager.t -> t
(** [recreate t pager] is an {e empty} index with the same encoding,
    kind, attribute type and registered paths as [t], on a fresh tree
    over [pager] — the skeleton {!Verify.salvage} rebuilds into.  [t]'s
    tree configuration is inherited when the page sizes match. *)

val create_path :
  ?config:Btree.config ->
  Storage.Pager.t ->
  Encoding.t ->
  head:Schema.class_id ->
  refs:string list ->
  attr:string ->
  t
(** Validates that the REF chain is well-typed, that the class subtrees
    along the path are disjoint, and that their codes strictly decrease
    from head to target (i.e. the path is encodable, Section 3.1). *)

val add_path :
  t -> head:Schema.class_id -> refs:string list -> attr:string -> unit
(** Registers an additional REF path on a path index (Section 3.3,
    "Multiple Paths").  The new path is validated like {!create_path} and
    must index an attribute of the same type; existing entries are kept —
    rebuild ({!build}) or index objects incrementally afterwards.
    Raises [Invalid_argument] on a class-hierarchy index. *)

val kind : t -> kind
val encoding : t -> Encoding.t
val tree : t -> Btree.t
val attr_ty : t -> Schema.attr_type

val pool : t -> Storage.Buffer_pool.t option
(** The shared buffer pool serving this index's reads, if any. *)

val set_cache_pages : t -> int -> unit
(** [set_cache_pages t n] attaches a fresh shared LRU buffer pool of [n]
    pages over the index's pager; [0] detaches any pool, restoring the
    paper's exact uncached page-read accounting.  The pool persists
    across queries (that is the point: steady-state hit rates), stays
    coherent with the index's own inserts and deletes via write-through,
    and counts hits as [Stats.pool_hits] rather than pager reads. *)

val paths : t -> (Schema.class_id list * string list * string) list
(** Every registered path as [(declared classes head-first, refs, attr)];
    a class-hierarchy index reports the singleton
    [([root], [], attr)]. *)

val arity : t -> int
(** Components per entry of the first path. *)

val entry_keys : t -> Store.t -> Objstore.Value.oid -> string list
(** The index keys the object currently participates in, across all
    registered paths, at whatever positions its class fits.  Used by
    maintenance; deduplicated. *)

val index_object : t -> Store.t -> Objstore.Value.oid -> unit
val deindex_object : t -> Store.t -> Objstore.Value.oid -> unit

val insert_entry :
  t -> value:Objstore.Value.t -> (Schema.class_id * Objstore.Value.oid) list -> unit
(** Low-level bulk loading: insert one entry directly, bypassing the
    object store.  Components are [(class, oid)] in ascending code order
    (single component for a class-hierarchy index).  Used by the
    experiment generators. *)

val remove_entry :
  t -> value:Objstore.Value.t -> (Schema.class_id * Objstore.Value.oid) list -> unit

val build : ?fill:float -> t -> Store.t -> unit
(** (Re)indexes every relevant object of the store, over all paths.
    Into an empty tree this bulk-loads bottom-up ({!Btree.bulk_load},
    packing pages to [fill], default [0.9]); into a populated tree it
    falls back to batched merging. *)

val sync : t -> unit
(** {!Btree.sync} on the underlying tree: persists the root and commits
    buffered pages when the index lives on a file-backed pager. *)

val snapshot_view : t -> t
(** [snapshot_view t] pins the index's last committed image
    ({!Storage.Pager.snapshot}) and attaches a read-only index over it:
    queries against the view answer from that image — with their page
    reads accounted in the view's own pager stats — no matter what the
    writer inserts, deletes or syncs concurrently.  For a file-backed
    index the view answers from the last {!sync} (raises
    {!Storage.Storage_error.Corruption} if the index was never synced);
    for an in-memory index it answers from the current state.  Views
    attach without a buffer pool (a pool caches the live image).
    Release with {!release_view}; one view belongs to one thread at a
    time.  Do not call the mutating operations, {!sync}, or
    {!add_path}/{!set_cache_pages} on a view. *)

val release_view : t -> unit
(** Release a view's pinned snapshot (idempotent), folding its read
    accounting into the parent pager's stats.  Raises
    [Invalid_argument] if the argument is not a view. *)

(** {2 Pins: a snapshot now, its view on first use}

    {!snapshot_view} in two steps.  {!pin} reads no page and allocates
    a few words whatever the tree's size (the pager shares one frozen
    image among every pin of the same commit), so a caller can pin many
    indexes at one cut and attach only those it queries.  {!pin_view}
    attaches: the first attach in an epoch walks the leftmost path to
    learn the tree's height and caches it in the epoch
    ({!Storage.Pager.epoch_tree}); later ones read no page. *)

type pin

val pin : t -> pin
(** Pins the index's last committed image (as {!snapshot_view}) without
    attaching a tree over it. *)

val pinned : pin -> t
(** The (live) index the pin was taken of. *)

val pin_view : pin -> t
(** The pin's view, attached on the first call and returned again
    after.  Its page reads — the leftmost walk when this is the epoch's
    first attach — land in the view's own pager stats.  Raises
    {!Storage.Storage_error.Corruption} when the attach trips over
    damage (the next call tries again) or the file-backed index was
    never synced. *)

val attached : pin -> t option
(** The view, if {!pin_view} has attached it. *)

val release_pin : pin -> unit
(** Releases the pin's snapshot (idempotent); the view, if any, with it. *)

val entry_count : t -> int
val pp_stats : Format.formatter -> t -> unit
