(** Fixed-size page store with crash-safe commits, per-page checksums,
    and fault injection.

    The U-index lives in B-tree nodes stored as fixed-size pages.  A pager
    hands out pages by integer id and counts every access in a {!Stats.t},
    which is what the paper's page-read experiments measure.

    Three backends:

    - {!create} keeps pages in memory (the default for experiments);
    - {!create_file} / {!open_file} back the store with a single file;
    - {!create_faulty} wraps either of the above with deterministic
      injected faults for crash and corruption testing.

    {2 File layout and durability}

    Physical page 0 of a page file is a header (magic, page size,
    allocation counters, the head of the free-page chain, a flags word, a
    small client metadata string, and an FNV-1a checksum).  Without
    checksums, logical page [i] is stored at physical page [i + 1]; with
    checksums (the default for file pagers) data pages are interleaved
    with {e checksum pages} — one per group of [page_size/4 - 1] logical
    pages, holding a u32 FNV-1a checksum of each page in its group plus a
    self-checksum — so client pages keep their full capacity and page-read
    counts are identical either way.  Freed pages form an intrusive
    on-disk list: each stores the id of the next free page in its first 4
    bytes, so {!open_file} restores the full allocation state of a
    previous session.

    File-backed writes are buffered in memory until {!sync}, which commits
    them atomically with a redo journal ([path ^ ".journal"]): the new
    page images — checksum pages included, so they commit atomically with
    the data they cover — are appended to the journal and fsynced, then
    written in place and fsynced, then the journal is removed.  A crash
    before the journal's commit marker is durable leaves the main file
    untouched (the torn journal is discarded); a crash after it is
    replayed by {!recover}, which {!open_file} runs automatically.
    Between syncs the on-disk file always holds the last committed state.

    {2 Corruption detection}

    With checksums enabled, every {!read} that hits the backend verifies
    the page against its recorded checksum; a mismatch raises
    {!Storage_error.Corruption} and increments the process-wide
    [storage.checksum_failures] counter — a damaged page is never served
    silently.  {!open_file} additionally validates the header, every
    checksum page, and the free-list chain, raising
    {!Storage_error.Corruption} with the failing component.  Only a
    missing magic or an explicit page-size mismatch — "this is not the
    file you meant", rather than "this file is damaged" — still raise
    [Invalid_argument].

    {2 Snapshots and thread safety}

    {!snapshot} pins an immutable read view of the pager's last committed
    image as a read-only pager: file-backed pagers pin the on-disk state
    of the last {!sync}, in-memory pagers (whose writes apply
    immediately) pin the current state.  Snapshots are copy-on-commit:
    when the writer is about to overwrite a committed page — an in-memory
    write/free, or a file checkpoint — the old image is stashed into the
    overlay of every snapshot that can still see it, so snapshot reads
    cost nothing until the writer actually commits over them.  A snapshot
    carries its own {!Stats.t} (so per-query read accounting works
    unchanged on a view) and its own pinned checksum table (so media rot
    under a pinned page is still detected); {!release_snapshot} folds its
    stats back into the parent.

    The concurrency contract is {e single writer, many snapshot
    readers}: all mutating operations must come from one thread at a
    time (callers serialize writers — see [Db]'s writer lock), while any
    number of threads may concurrently read through distinct snapshots
    of the same pager.  A pager-internal mutex serializes every
    state-touching operation with snapshot fetches (they share the file
    descriptor and page array), so the writer may run {e concurrently}
    with snapshot readers.  Live (non-snapshot) reads belong to the
    writer side of the contract.  Introspection helpers ({!page_count},
    {!high_water}, {!free_pages}, {!meta}, {!stats}) read without the
    lock and belong to the owning thread.  A snapshot itself must only
    be used by one thread at a time (sessions give each reader its
    own). *)

type t

exception Fault of string
(** Raised by injected faults (see {!create_faulty}).  After a write
    fault fires, the pager behaves like a crashed process: every later
    physical write raises too, so no further state reaches disk. *)

(** Deterministic media damage, applied to {e committed} backend state
    (bypassing the write buffer and the checksum bookkeeping — the disk
    rotting underneath the pager).  All but [Stale_page] are applied the
    moment {!create_faulty} arms them. *)
type media_fault =
  | Flip_bit of { page : int; bit : int }
      (** flip one bit of logical page [page] ([bit] is reduced modulo
          the page's bit width) *)
  | Zero_page of { page : int }  (** overwrite a logical page with zeros *)
  | Truncate_file of { keep : int }
      (** truncate the backing file to [keep] {e physical} pages
          (header = page 0); reads past the end see zeros.  File
          backends only. *)
  | Stale_page of { page : int }
      (** a lost write: snapshot the page's committed content now and
          silently restore it after the next {!sync} completes — the
          commit succeeds, but this page's new image never reaches the
          platter *)

type fault_spec = {
  fail_write : int option;
      (** fail the [n]-th physical write (journal record, journal commit
          marker, or in-place page write), counted from the pager's
          creation — see {!physical_writes}; afterwards the pager is
          "crashed": every later physical write raises *)
  torn : bool;
      (** when the failing write fires, land the first half of it before
          raising — a torn page/record *)
  read_error_every : int option;
      (** raise a transient {!Fault} on every [k]-th {!read}; the read
          can simply be retried *)
  media : media_fault list;
      (** media damage to inflict (see {!media_fault}) *)
}

val no_faults : fault_spec
(** All fields off; override with [{ no_faults with fail_write = ... }]. *)

(** {1 Constructors} *)

val create : ?page_size:int -> ?checksums:bool -> unit -> t
(** In-memory pager. [page_size] defaults to 1024 bytes (the size used
    throughout the paper's second experiment) and must be at least 64.
    [checksums] defaults to [false] — the in-memory backend is the
    paper's accounting substrate and has no disk to rot. *)

val create_file : ?page_size:int -> ?checksums:bool -> string -> t
(** [create_file path] creates (or truncates) a file-backed pager.  The
    header is written immediately, so the file is a valid empty store
    even before the first {!sync}; a journal left beside [path] by an
    earlier database is removed first, so {!open_file} never replays it
    onto the new one.  [checksums] defaults to [true].  Raises
    [Invalid_argument] on a page size under 64, before the file is
    touched, and [Unix.Unix_error] on I/O failure. *)

val open_file : ?page_size:int -> string -> t
(** [open_file path] reopens a file written by {!create_file}, after
    first replaying any committed journal left by a crash (see
    {!recover}).  Restores the allocation high-water mark, the free
    list, the checksum table, and the {!meta} string; whether checksums
    are verified is read back from the header flags.  [page_size] is a
    cross-check: when given, it must match the size recorded in the
    header.  Raises [Invalid_argument] on a missing magic or page-size
    mismatch, {!Storage_error.Corruption} on a damaged header, checksum
    page, or free list. *)

type recover_status =
  | No_journal  (** nothing to do: the file is already consistent *)
  | Replayed  (** a committed journal was replayed into the file *)
  | Discarded_torn
      (** an uncommitted (torn) journal was discarded; the main file
          holds the consistent pre-transaction state, but the
          transaction that wrote the journal is lost *)

val recover_status : string -> recover_status
(** [recover_status path] replays the journal of an interrupted {!sync},
    if any, and reports what it found.  Idempotent; called by
    {!open_file}. *)

val recover : string -> bool
(** [recover path] = [recover_status path = Replayed].  [false] when
    there was no journal or only a torn one (which is deleted — the main
    file already holds the consistent pre-transaction state). *)

val create_faulty : fault_spec -> t -> t
(** [create_faulty spec t] arms deterministic faults on [t] (returned
    for convenience; [t] itself is modified and shares its stats).
    Write/read faults raise {!Fault} and are counted in [stats.faults];
    media faults damage committed pages silently — with checksums on,
    the damage is caught as {!Storage_error.Corruption} on the next
    read of the page instead. *)

(** {1 Page operations} *)

val alloc : t -> int
(** Allocate a zeroed page and return its id; reuses freed pages first.
    Counts as one alloc (not a read). *)

val read : t -> int -> Bytes.t
(** [read t id] returns a copy of the page contents and increments the
    read counter.  Raises [Invalid_argument] if [id] was never allocated
    or has been freed, {!Storage_error.Corruption} if checksums are
    enabled and the committed content fails verification. *)

val write : t -> int -> Bytes.t -> unit
(** [write t id b] replaces the page contents and increments the write
    counter.  [Bytes.length b] must equal the page size.  File-backed
    writes become durable at the next {!sync}. *)

val free : t -> int -> unit
(** Release a page for reuse.  Accessing a freed page raises. *)

val sync : t -> unit
(** Atomically commit all buffered writes, the free list, the checksum
    pages, and the {!meta} string (journal, then checkpoint; see the
    module header).  A no-op on in-memory pagers and when nothing
    changed. *)

val close : t -> unit
(** Runs {!sync}, then releases the backing file (memory pagers just
    close).  Further access raises [Invalid_argument].  On a snapshot,
    [close] is {!release_snapshot}.  Release all snapshots before
    closing their parent: a released snapshot is harmless, but an
    unreleased one would fail its next read once the parent's file
    descriptor is gone. *)

(** {1 Snapshots} *)

val snapshot : t -> t
(** [snapshot t] pins the last committed image of [t] as a read-only
    pager: {!read} and the introspection functions work (and account
    into the snapshot's own {!stats}), while {!write}, {!alloc},
    {!free}, {!sync} and {!set_meta} raise [Invalid_argument].  {!meta}
    returns the committed metadata string — for a synced file-backed
    index this names the committed B-tree root.  The snapshot is valid
    until {!release_snapshot}; the parent may keep writing and syncing
    concurrently, and the snapshot's contents never change.  Raises
    [Invalid_argument] on a closed pager or on a snapshot. *)

val release_snapshot : t -> unit
(** Release a snapshot: its private read counters are merged into the
    parent's {!stats} and its stashed pages are dropped.  Idempotent.
    Reading a released snapshot raises [Invalid_argument]. *)

val is_snapshot : t -> bool

val durable : t -> bool
(** Whether the underlying storage is file-backed ([true] for a
    file-backed pager and for any snapshot of one).  Sessions use this
    to decide where the committed B-tree root lives: in the committed
    {!meta} for durable pagers, in the live tree for in-memory ones. *)

val live_snapshots : t -> int
(** Number of currently pinned, unreleased snapshots — for asserting
    that sessions drain. *)

(** {1 Metadata and introspection} *)

val meta : t -> string
(** Small client metadata string stored in the header page — e.g. the
    root id of the B-tree living in this store.  [""] initially. *)

val set_meta : t -> string -> unit
(** Replace the metadata string; committed by the next {!sync}.  Raises
    [Invalid_argument] if it does not fit in the header page (capacity
    is [page_size - 32] bytes). *)

val page_size : t -> int

val checksums_enabled : t -> bool
(** Whether this pager verifies per-page checksums on read. *)

val page_count : t -> int
(** Number of live (allocated, not freed) pages: the structure's storage
    footprint in pages. *)

val high_water : t -> int
(** The allocation high-water mark: every page id ever allocated is in
    [0 .. high_water - 1].  Used by the verifier to enumerate the page
    universe. *)

val is_live : t -> int -> bool
(** Whether [id] is currently allocated (in range, not freed). *)

val free_pages : t -> int list
(** The current free list (allocation order; head is reused first). *)

val stats : t -> Stats.t
(** The live counters of this pager (shared, mutable; see the
    thread-safety contract in the module header — a snapshot's stats are
    its own until released). *)

val record_pool_event : t -> [ `Hit | `Miss | `Eviction ] -> unit
(** Mirror one buffer-pool event into this pager's {!stats} under the
    pager's lock (used by {!Buffer_pool} so pool counters cannot race
    snapshot-release merges). *)

val physical_writes : t -> int
(** Total backend write operations since creation — the clock that
    [fail_write] counts against.  Run a workload once without faults to
    learn its write count, then replay with [fail_write] anywhere in
    that range. *)

val journal_path : string -> string
(** [journal_path path] is the journal file used by a pager backed by
    [path] (for tests that corrupt or inspect it). *)

(** A per-query page cache.  [Cache.read] fetches each page from the
    underlying source at most once, so the pager's read counter counts
    distinct pages — the paper's accounting for the parallel retrieval
    algorithm.  [of_read] layers the cache over any page source (e.g. a
    shared {!Buffer_pool}) instead of a raw pager. *)
module Cache : sig
  type pager := t
  type t

  val create : pager -> t

  val of_read : (int -> Bytes.t) -> t
  (** Memoize an arbitrary page-fetch function for one query. *)

  val read : t -> int -> Bytes.t
  val distinct_reads : t -> int
end
