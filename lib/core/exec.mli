(** Query execution: the two retrieval algorithms of the paper, run by one
    loop.

    Both algorithms walk the plan's key bracket [[Plan.lower, Plan.upper)]
    with one {!Btree.Scanner}, classifying every entry they land on.  They
    differ only in the page source and in whether they follow the plan's
    skip targets:

    {!forward} is the baseline of Section 3.3: one B-tree descent to the
    first possibly-relevant entry, then a sequential leaf scan to the last
    one, filtering as it goes.  Every page in between is read, and every
    page access is counted.

    {!parallel} is Algorithm 1 ("parallel scanning of the index"): it
    follows the plan's candidate positions, seeking across irrelevant runs
    instead of scanning them, and it serves repeated page visits from a
    per-query cache — the paper's "utilize any page which is already in
    memory".  Page reads therefore count {e distinct} pages only.

    {!explain} is a dry run of the same parallel walk. *)

module Schema := Oodb_schema.Schema

type binding = {
  value : Objstore.Value.t;
  comps : (Schema.class_id * Objstore.Value.oid) list;
      (** matched components in ascending code order (path target first);
          truncated to the query's arity for partial-path queries *)
}

type 'a result = {
  bindings : 'a list;
      (** one row per accepted binding, in key order: a {!binding} for
          {!run}, whatever the row function builds for {!run_rows} *)
  page_reads : int;
      (** the paper's "visited nodes" / "page reads": pager reads only.
          With a shared buffer pool attached to the index, hits are
          excluded here (they cost no page fetch) and reported in
          [pool_hits]; without a pool the two accountings coincide with
          the paper's exactly. *)
  pool_hits : int;  (** reads served by the shared buffer pool (0 if none) *)
  entries_scanned : int;
}

type outcome = binding result

type 'a row = Btree.Scanner.t -> int -> 'a list -> 'a list
(** [row sc arity acc] adds the rows of the accepted entry under the
    cursor ({!Btree.Scanner.key_bytes}, {!Btree.Scanner.value}) to
    [acc], newest first; [arity] is the classifier's accepted arity. *)

val scan :
  ?trace:Obs.Trace.span ->
  skip:bool -> Btree.t -> Btree.Scanner.t -> Plan.t -> 'a row -> 'a list * int
(** [scan ~skip tree sc plan row]: the one loop that walks a plan's
    interval set, with [sc] (a scanner over [tree]) as the page source.
    Every entry of [[Plan.lower, Plan.upper)] it lands on is classified
    in place and only accepted ones reach [row]; with [skip] it follows
    the plan's skip targets (Algorithm 1), without it advances over all
    of them (the forward scan).  Returns the rows, newest first, and the
    entries classified; [trace] gets the segment spans {!analyze}
    describes.  {!run} passes a row that decodes one {!binding}, the
    server one that prints a JSON row from the key bytes ({!Keyrow}),
    {!Grouped.query} one that expands an OID list. *)

val head_oids : outcome -> Objstore.Value.oid list
(** The distinct OIDs of the last (head-class) component of each binding —
    e.g. "the vehicles" for a path query rooted at Vehicle. *)

val forward : Index.t -> Query.t -> outcome
val parallel : Index.t -> Query.t -> outcome

val run : algo:[ `Forward | `Parallel ] -> Index.t -> Query.t -> outcome
(** All three entry points emit a span tree to the global tracing sink
    when one is installed (see {!Obs.Trace.with_collector}); with the
    default null sink they run untraced, at the cost of one option match
    per descent segment. *)

val run_rows :
  algo:[ `Forward | `Parallel ] ->
  row:(Index.t -> 'a row) ->
  Index.t ->
  Query.t ->
  'a result
(** {!run} with its row function: [row idx] is called once per query
    and builds that query's row for each accepted entry.  The same walk,
    spans, page-read accounting and [exec.*] instruments as {!run}; the
    forward scan drops a binding equal to the one before it (same key
    bytes up to the end of the accepted arity's last component) before
    the row function sees it. *)

val analyze :
  algo:[ `Forward | `Parallel ] -> Index.t -> Query.t -> outcome * Obs.Trace.span
(** EXPLAIN ANALYZE: runs the query and returns its outcome together
    with the span tree of what actually happened — a root span named
    after the algorithm with [bindings]/[entries_scanned] fields, and
    children [plan], one [descent]/[scan] span per B-tree descent
    segment (each carrying its own [page_reads], [entries] and
    [accepted] deltas), and a final [merge].  Only segment spans carry
    [page_reads], so [Obs.Trace.total span "page_reads"] equals
    [outcome.page_reads] exactly — with or without a buffer pool.
    Segments additionally carry [pool_hits] when a pool served reads
    (so [Obs.Trace.total span "pool_hits"] = [outcome.pool_hits]); the
    root records [pool_hits_total] and, when any index entry failed to
    decode during the run, [undecodable_entries].  Render with
    {!Obs.Trace.pp}. *)

type visit = {
  depth : int;  (** 0 at the root, [Btree.height - 1] at the leaves *)
  page : int;
  is_leaf : bool;
}

val explain : Index.t -> Query.t -> visit list
(** The search tree the parallel algorithm builds (the paper's Fig. 3):
    every B-tree page its walk touches, once each, in first-touch order,
    with its depth as the scanner reports it ({!Btree.Scanner.level}).  It is a dry run of the loop behind {!parallel}, for
    enumerable and range predicates alike, so the number of visits equals
    the query's uncached [page_reads].  Reads go through a throwaway cache
    straight to the pager — never the shared pool — and the pager's read
    counter is rolled back afterwards, so neither the statistics nor the
    pool's LRU state are disturbed. *)

val pp_explain : Format.formatter -> visit list -> unit
(** Renders the search tree with one line per page, indented by depth. *)
