(** Offline verification and repair of a persisted U-index.

    {!check} cross-examines every layer of an index below the query
    engine, without assuming any of them is intact:

    + {e page reachability}: every page of the pager must be exactly one
      of header, free, B-tree node, or overflow chunk — the tree is
      walked from its root, claiming pages, and leaked, doubly-claimed,
      or free-but-referenced pages are reported;
    + {e structural invariants}: {!Btree.check} (key order, separator
      bounds, uniform depth, the leaf chain);
    + {e entry validation}: every entry key must decode
      ({!Ukey.decode}), and its COD chain must match a registered path
      of the index;
    + {e store cross-reference} (when the object store is supplied):
      every component must name a live object of the recorded class,
      and the whole entry set must equal a fresh rebuild from the store
      — the U-index is a pure function of store and schema (Section 3),
      which is also what makes {!salvage} possible.

    Every detector failure — including {!Storage_error.Corruption}
    raised by the pager's per-page checksums — is caught and recorded as
    an {!issue}; [check] itself does not raise on damaged input. *)

module Store := Objstore.Store

type issue = { component : string; page : int option; detail : string }
(** One detected problem.  [component] names the detector or the
    subsystem that raised (["verify.reachability"], ["verify.entry"],
    ["verify.store"], ["pager.page"], ["btree.node"], ...). *)

type report = {
  ok : bool;  (** no issues found *)
  checksums : bool;  (** the pager verifies per-page checksums *)
  pages : int;  (** allocation high-water mark *)
  node_pages : int;
  overflow_pages : int;
  free_pages : int;
  entries : int;  (** entries seen while scanning (0 when unreadable) *)
  issues : issue list;  (** at most 1000 retained; [ok] reflects all *)
}

val check : ?throttle:(int -> unit) -> ?store:Store.t -> Index.t -> report
(** Run all verification passes.  [?store] enables the store
    cross-reference pass.  [?throttle] is called with each page id just
    before the reachability walk reads it — the online scrub sleeps
    inside it to spread verification IO out over time, and it doubles
    as a page-visit observer. *)

val salvage :
  ?config:Btree.config ->
  Index.t ->
  Store.t ->
  Storage.Pager.t ->
  Index.t
(** [salvage idx store pager] rebuilds the index from scratch on
    [pager] (fresh, typically a new file): an empty index with [idx]'s
    description ({!Index.recreate}) is {!Index.build}t from the
    surviving object store and synced.  The damaged index's pages are
    never read — only its in-memory description is used — so salvage
    succeeds regardless of how badly the old pages are corrupted. *)

val to_json : report -> Obs.Json.t
(** Machine-readable form of the report ([uindex-cli check --json]). *)

val pp : Format.formatter -> report -> unit
