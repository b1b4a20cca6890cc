(** A disk-format B+-tree with variable-length, front-compressed keys.

    This is the single index structure of the paper (Section 3.2): the
    U-index and several baselines are thin encodings over it.  Keys are
    arbitrary byte strings ordered by [String.compare]; values are byte
    strings, spilled transparently to overflow-page chains when large
    (needed by the directory-style baselines, e.g. CH-trees).

    Node capacity is the page size in bytes — front compression therefore
    directly increases fanout, which is the paper's storage argument — with
    an optional maximum entry count to model Experiment 1's "at most
    [m = 10] records per node".

    All page accesses go through one pluggable page source.  Without a
    pool, {!raw_read} is the pager itself, so the pager's
    {!Storage.Stats} counts exactly the page reads the paper reports.
    With a shared {!Storage.Buffer_pool} attached ({!create}'s [?pool]
    or {!set_pool}), {!raw_read} serves hits from the pool (counted as
    [pool_hits], not pager reads) and only misses reach the pager; every
    page the tree writes is written through to the pool and every freed
    page is invalidated, so the pool can never serve stale bytes.
    Read-only operations take an explicit [read] function: pass
    {!raw_read} to count every access (forward scanning), or a
    {!Storage.Pager.Cache} reader to count distinct pages only (the
    parallel retrieval algorithm's "utilize any page already in
    memory") — {!cached_read} layers that per-query cache over the
    tree's page source, pooled or not. *)

module Node : module type of Node
(** The on-page node layout, exposed for white-box tests and tooling. *)

type config = {
  max_entries : int option;
      (** cap on keys per node, in addition to the byte capacity *)
  front_coding : bool;  (** store key suffixes only (default [true]) *)
  overflow_threshold : int;
      (** values longer than this spill to overflow pages *)
}

val default_config : page_size:int -> config

type t

val create : ?config:config -> ?pool:Storage.Buffer_pool.t -> Storage.Pager.t -> t
(** An empty tree whose nodes live on pages of the given pager.  [?pool]
    attaches a shared buffer pool as the page source (see {!set_pool}). *)

val root : t -> int
(** The root's current page id.  Together with the pager's backing file
    this is all the state needed to re-open the tree. *)

val attach :
  ?config:config -> ?pool:Storage.Buffer_pool.t -> Storage.Pager.t -> root:int -> t
(** [attach pager ~root] re-opens a tree previously built on this pager's
    pages (e.g. after {!Storage.Pager.open_file}); the height is recovered
    by walking to the leftmost leaf.  The configuration must match the one
    the tree was built with — in particular [front_coding]. *)

val sync : t -> unit
(** Records the current root in the pager's header metadata and commits
    everything with {!Storage.Pager.sync}.  Because a sync is atomic
    (journal then checkpoint), a tree on a file-backed pager always
    reopens to its last-synced state, however many splits or merges were
    in flight when a crash hit. *)

val reattach : ?config:config -> ?pool:Storage.Buffer_pool.t -> Storage.Pager.t -> t
(** [reattach pager] re-opens the tree whose root a previous {!sync}
    recorded in the pager's metadata — the usual way to resume after
    {!Storage.Pager.open_file}.  Raises {!Storage.Storage_error.Corruption}
    when the metadata does not name a tree (no {!sync} ever ran, or the
    header was damaged). *)

val pager : t -> Storage.Pager.t
val config : t -> config

val pool : t -> Storage.Buffer_pool.t option
(** The shared buffer pool currently serving reads, if any. *)

val set_pool : t -> Storage.Buffer_pool.t option -> unit
(** Attach (or detach, with [None]) a shared buffer pool as the tree's
    page source.  The pool must be over this tree's pager (raises
    [Invalid_argument] otherwise).  While attached, all reads go through
    the pool and all writes/frees keep it coherent; [None] restores the
    paper's uncached accounting exactly. *)

val height : t -> int
(** Number of levels; [1] when the root is a leaf. *)

val raw_read : t -> int -> Bytes.t
(** Reads through the tree's page source: the pager directly (counting
    every call), or the attached pool (hits served without a pager
    read). *)

val cached_read : t -> Storage.Pager.Cache.t
(** A fresh per-query cache over this tree's page source. *)

(** {1 Updates} *)

val insert : t -> key:string -> value:string -> unit
(** Inserts, replacing any existing value for [key]. *)

val insert_batch : t -> (string * string) list -> unit
(** Batched insertion (Tsur & Gudes [4], used by the paper's Section 3.5
    "batch" update argument): the batch is sorted and merged into the
    tree in one pass, so each touched node is read and written once no
    matter how many of the batch's keys it receives.  Semantically
    equivalent to inserting the pairs in list order (later duplicates
    win). *)

val delete : t -> string -> bool
(** Removes the key; [false] if absent.  Rebalances by borrowing from or
    merging with siblings. *)

val is_empty : t -> bool
(** [true] iff the tree holds no entries (a lone empty root leaf). *)

val bulk_load : ?fill:float -> t -> (string * string) Seq.t -> unit
(** [bulk_load t entries] builds the tree bottom-up from a stream of
    entries in non-decreasing key order (adjacent duplicates collapse,
    later wins): leaves are packed left to right up to [fill]
    (default [0.9]) of the page — or of [max_entries] — and the internal
    levels are synthesized above them, so every page is written exactly
    once.  Far cheaper than entry-at-a-time insertion for an initial
    build, and the resulting pages are denser.

    Raises [Invalid_argument] if the tree is not empty, the input is out
    of order, or [fill] is outside [(0, 1]]. *)

(** {1 Point and range access} *)

val find : t -> ?read:(int -> Bytes.t) -> string -> string option
(** Exact lookup; resolves overflow values (counting their page reads). *)

val mem : t -> ?read:(int -> Bytes.t) -> string -> bool

type entry = { key : string; value : unit -> string }
(** A scan result.  [value ()] resolves the payload lazily, reading
    overflow pages only when called. *)

val iter : t -> ?read:(int -> Bytes.t) -> (entry -> unit) -> unit
(** All entries in key order. *)

val length : t -> int
(** Number of entries (O(leaves)); does not touch the stats counters. *)

val scan_range :
  t -> read:(int -> Bytes.t) -> lo:string -> hi:string -> (entry -> unit) -> unit
(** Forward scan of [[lo, hi)]: one descent to [lo], then sequential leaf
    traversal.  Every leaf between the bounds is read — the naive
    algorithm of Section 3.3. *)

(** {1 Positioned scans}

    A scanner supports the paper's skip-scan: sequential advance plus
    re-seek to an arbitrary key.  It is the only way the library walks a
    set of key intervals: [Uindex.Exec]'s one interval walk runs both
    retrieval algorithms, their explain dry run and the grouped layout's
    queries on it, seeking to each skip target and advancing between
    them.

    A seek to a key strictly above the cursor is a finger seek: the
    scanner holds the root-to-leaf path of its current leaf (at most
    [height - 1] internal pages, dropped by {!Scanner.reset}) and
    searches the current leaf forward from the cursor, or climbs to the
    lowest held ancestor whose range provably contains the key and
    descends from there.  Any other seek descends from the root.  A
    finger seek reads exactly the pages a root descent would read below
    that ancestor; the pages above it were already read since the last
    reset.  So under a {!Storage.Pager.Cache} reader a walk reads the
    same distinct pages either way, and under {!raw_read} a finger seek
    reads no more pages than a root descent.  The held path is no read
    memo: it dedups no reads, and every page the scanner reads comes
    from [read], so a recording reader sees exactly the pages a walk
    touches. *)

module Scanner : sig
  type tree := t
  type t

  val create : tree -> read:(int -> Bytes.t) -> t

  val reset : t -> tree -> read:(int -> Bytes.t) -> unit
  (** Re-point an existing scanner at a tree, recycling its key scratch
      instead of allocating a fresh one — the session cursor-reuse hook.
      {b Contract:} any mutation of the underlying tree (insert, delete,
      bulk load, root change) or swap of the view it reads from
      invalidates a scanner's position; the owner must [reset] before
      the next query and must not interleave two queries on one
      scanner. *)

  val seek : t -> string -> entry option
  (** Position at the first entry with key [>=] the argument and return
      it. *)

  val next : t -> entry option
  (** Advance to the following entry. *)

  (** {2 In-place access}

      The allocation-free form of the same cursor, for callers that test
      each key where it sits: {!seek} and {!next} are {!seek_bytes} and
      {!advance} plus building the {!entry} under the cursor. *)

  val seek_bytes : t -> Bytes.t -> int -> bool
  (** [seek_bytes t probe len] is {!seek} to the first [len] bytes of
      [probe] without building the entry: [false] when no entry is at
      or after it.  The probe is read during the call only, so a caller
      may reuse its buffer. *)

  val advance : t -> bool
  (** {!next} without building the entry; [false] past the end. *)

  val key_bytes : t -> Bytes.t
  val key_length : t -> int
  (** The cursor key in place: bytes [[0, key_length t)] of
      [key_bytes t].  They are the scanner's scratch: valid until it
      next moves, and not to be written. *)

  val value : t -> string
  (** The payload of the entry under the cursor, overflow pages read
      through the scanner's [read]: the [value ()] of the entry
      {!seek} or {!next} would have built. *)

  val level : t -> int
  (** The tree level (root = 0) of the page the scanner last asked its
      [read] for: called from inside [read], it places the page being
      read.  A leaf is at [height - 1], also when reached along the
      leaf chain. *)
end

(** {1 Introspection (tests, experiments)} *)

type invariant_report = {
  height : int;  (** levels, [1] = root is a leaf *)
  nodes : int;  (** internal + leaf nodes *)
  leaves : int;
  entries : int;
  min_fill : float;
      (** worst fill factor over non-root nodes ([1.0] for a lone root):
          bytes used / page size, or entries / cap under [max_entries] *)
  avg_fill : float;  (** mean fill factor over all nodes *)
}

val check_invariants : t -> invariant_report
(** Validates structural invariants — sorted unique keys, node sizes
    within capacity, separator consistency, uniform leaf depth, non-root
    leaves non-empty, leaf-chain order and completeness — and returns
    occupancy statistics.  Raises [Failure] with a diagnostic on
    violation. *)

val pp_invariant_report : Format.formatter -> invariant_report -> unit

val check : t -> unit
(** [check_invariants] with the report discarded. *)

val leaf_count : t -> int

type compression_stats = {
  entries : int;
  raw_key_bytes : int;  (** sum of full key lengths *)
  stored_key_bytes : int;  (** sum of stored suffix lengths *)
  avg_prefix_len : float;  (** average compressed-away prefix *)
}

val compression_stats : t -> compression_stats
(** How much the per-node front compression saves on this tree's leaf and
    internal keys (Section 4.2's storage-cost argument). *)

val pp_stats : Format.formatter -> t -> unit
