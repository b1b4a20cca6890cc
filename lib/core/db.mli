(** A database façade: an object store plus a set of U-indexes kept in
    sync through every mutation (the update algorithms of Section 3.5).

    Mid-path updates — "a president switches companies" — are handled by
    computing the affected entries against the pre-update state, applying
    the store mutation, and recomputing: each affected entry is one plain
    B-tree insert/delete, and because entries of one path prefix are
    clustered the deletions arrive in key order (the paper's batch
    observation).

    {b Concurrency model.}  One writer, many snapshot readers.  Every
    mutating operation ({!insert}, {!delete}, {!set_attr}, {!sync},
    index (de)registration) serializes on an internal writer lock, so
    writers may come from any thread.  Readers open a {!session}, which
    pins — atomically with respect to writers — a snapshot of every
    registered index at one committed cut; queries through the session
    see exactly the committed state at pin time (snapshot isolation) no
    matter how the writer proceeds.  A pin costs a reference-count bump
    on the pager's epoch; an index is attached over its pin on first
    use ({!session_view}), so damage that fails one index's attach fails
    only the queries that use it.  {!query} (without a session) reads
    the {e live} index and belongs to the writer side: do not call it
    concurrently with mutations. *)

module Schema := Oodb_schema.Schema
module Store := Objstore.Store
module Value := Objstore.Value

type t

val create : Store.t -> t

val store : t -> Store.t

val add_index : t -> Index.t -> unit
(** Registers the index (building it over the current store content). *)

val attach_index : t -> Index.t -> unit
(** Like {!add_index} but without rebuilding — for an index that already
    holds its entries, e.g. one re-opened from a page file with
    {!Index.attach_class_hierarchy}. *)

val remove_index : t -> Index.t -> unit
(** Stops maintaining the index; its pages are not reclaimed (drop the
    pager to release them). *)

val indexes : t -> Index.t list

val insert : t -> cls:Schema.class_id -> (string * Value.t) list -> Value.oid
val delete : t -> Value.oid -> unit
val set_attr : t -> Value.oid -> string -> Value.t -> unit

val query :
  ?algo:[ `Forward | `Parallel ] -> t -> Index.t -> Query.t -> Exec.outcome
(** Runs the query through the given index ([`Parallel] by default). *)

(** {1 Commits, group commit, and the durability watermark}

    Mutations apply to the live indexes immediately; {!commit} makes
    them durable.  Every commit gets a monotonically increasing logical
    sequence number (LSN).  Concurrent synchronous committers are
    batched: one leader flushes all journal state with a single pair of
    fsyncs and acknowledges the whole group, so fsyncs-per-commit drops
    below 1 under write concurrency.

    [`Sync] (the default) returns only once the commit is durable.
    [`Async] returns as soon as the commit is {e acknowledged} — applied
    and sequenced, visible to new sessions, but possibly not yet on
    disk.  The watermark {!durable_lsn} says exactly which prefix of the
    commit history would survive a crash; an async committer that needs
    durability later calls {!wait_durable} with its LSN. *)

val commit : ?mode:[ `Sync | `Async ] -> t -> int
(** Commits everything applied so far and returns its LSN.  With
    [`Sync], on return [durable_lsn t >= lsn].  With [`Async], the
    commit becomes durable at the next group flush (any later [`Sync]
    commit, {!sync}, or {!wait_durable} call drives one). *)

val durable_lsn : t -> int
(** The durability watermark: every commit with an LSN [<=] this value
    is on stable storage.  Monotone non-decreasing; [0] before the first
    flush. *)

val acked_lsn : t -> int
(** The highest LSN handed to any committer so far (acknowledged to the
    application, though possibly not yet durable).  [acked_lsn t -
    durable_lsn t] is the durability lag the server's Health response
    reports: how many acknowledged commits a crash right now would
    replay from the journal. *)

val wait_durable : t -> int -> unit
(** [wait_durable t lsn] blocks until [durable_lsn t >= lsn], leading a
    group flush itself if none is in flight. *)

val set_group_window : t -> float -> unit
(** How long (seconds) a group-commit leader waits before flushing so
    trailing committers can join its group.  Default [0.]: flush
    immediately.  A millisecond or two trades a little latency for
    fewer fsyncs under concurrent writers. *)

val sync : t -> unit
(** [commit t] with the LSN discarded: commits all file-backed index
    state synchronously. *)

val check : t -> unit
(** Verifies every index: B-tree invariants hold and the entry set equals
    what a full rebuild from the store would produce.  For tests. *)

(** {1 Snapshot sessions} *)

type session
(** A reader's handle: a snapshot of every index, all pinned at the same
    committed cut, each attached as a view on first use.  One session
    belongs to one thread; any number of sessions may run concurrently
    with each other and with the writer. *)

val open_session : t -> session
(** Pins a session at the current committed state (taking the writer
    lock briefly, so the cut is never mid-mutation).  Reads no page and
    allocates the same few words whatever the indexes' sizes, once the
    pagers' current epochs are frozen ({!Storage.Pager.snapshot}).
    Release with {!close_session}. *)

val close_session : session -> unit
(** Releases every pin and view (idempotent).  Queries through a closed
    session raise [Invalid_argument]. *)

val with_session : t -> (session -> 'a) -> 'a
(** [with_session t f] opens a session, runs [f], and always closes it. *)

val active_sessions : unit -> int
(** Process-wide count of currently pinned sessions (also exported as
    the [db.active_sessions] gauge). *)

val session_query :
  ?algo:[ `Forward | `Parallel ] -> session -> Index.t -> Query.t -> Exec.outcome
(** [session_query s idx q] runs [q] against the session's pinned view
    of [idx] (pass the live index; the session maps it to its view).
    [outcome.page_reads] counts reads on the view's own snapshot. *)

val session_view : session -> Index.t -> Index.t
(** The session's pinned view of a live index (a view argument is
    returned unchanged), attached on the session's first call
    ({!Index.pin_view}: the first attach of an index in an epoch reads
    its leftmost path, into the view's stats).  Raises [Invalid_argument]
    if the index was not registered when the session opened, and
    {!Storage.Storage_error.Corruption} if the attach trips over damage
    (file-backed indexes must have been synced at least once). *)

val session_indexes : session -> Index.t list
(** Every pinned view, in registration order — attaching each that is
    not yet, so it raises like {!session_view}. *)
