(** Structured query tracing: cheap span trees with integer fields.

    A span is one phase of a query's execution (plan compilation, key
    expansion, one B+-tree descent segment, the merge) annotated with
    integer fields — page-read deltas taken from [Storage.Stats]
    snapshots, entries scanned, bindings produced.  Spans nest, so a
    whole query renders as a tree: the engine's [EXPLAIN ANALYZE].

    The global sink is {!null}, and instrumented code guards span
    construction behind {!scope}, which returns [None] when the sink
    discards everything; that disabled cost is one global read and an
    option match per query.  Library callers (tests, the CLI's
    [explain --analyze]) install a {!collector} sink, usually via
    {!with_collector}, to capture finished span trees.  The query server
    traces every request by default ([Service.default_telemetry]), so the
    enabled path is the one that must stay cheap.

    Cost contract: building a span allocates O(1) words (the record and
    its few fields), and a producer attaches a run of children with one
    {!add_children} call, so a whole tree costs O(spans) — linear in a
    query's descent segments however many the parallel algorithm opens.
    Keeping a tree beyond its request goes through {!compact}, which
    bounds it to {!max_children} children per node: the server's
    slow-query log stores only compacted copies. *)

type span = {
  name : string;
  mutable fields : (string * int) list;  (** insertion order preserved *)
  mutable children : span list;  (** execution order *)
}

val span : ?fields:(string * int) list -> string -> span

val add_field : span -> string -> int -> unit
(** Appends (or replaces, by name) one field. *)

val add_child : span -> span -> unit
(** Appends a child span (kept in execution order).  Copies the existing
    child list: for many children use {!add_children}. *)

val add_children : span -> span list -> unit
(** [add_children sp spans] appends [spans], already in execution order,
    after [sp]'s existing children in one append. *)

val field : span -> string -> int option

val total : span -> string -> int
(** Sum of a field over the whole subtree — e.g.
    [total sp "page_reads"] is the query's total page reads when each
    descent segment carries its own delta. *)

(** {1 Bounded copies} *)

val max_children : int
(** 64: the widest node {!compact} leaves. *)

val compact : span -> span
(** A copy of the tree with at most {!max_children} children at every
    node.  A node with more keeps its first [max_children - 1] children,
    compacted in turn and in order, and replaces the rest with one span
    named ["elided"].  Its first field, ["spans"], counts the spans
    folded away (whole subtrees); each further field is the sum of that
    field over the folded subtrees.  So [total (compact sp) k = total sp
    k] for every field [k] except ["spans"], the elided span's own.
    Linear in the tree's size; nodes with nothing to fold are shared
    with the input, and a tree already within the bound comes back
    physically equal, so [compact] is idempotent. *)

(** {1 Sinks} *)

type sink

val null : sink
(** Discards everything; spans are never even allocated. *)

val collector : unit -> sink
val collected : sink -> span list
(** Finished root spans, in emission order; [[]] for {!null}. *)

val enabled : sink -> bool
val emit : sink -> span -> unit

(** {1 The global sink}

    The process-wide sink lives in an atomic slot, and every domain can
    shadow it with a domain-local override: {!with_collector} installs
    its collector only for the calling domain, so worker domains each
    trace into their own span list concurrently.  Collector emission
    itself is lock-free (CAS push), so even a deliberately shared
    collector never loses or corrupts spans. *)

val set_global : sink -> unit
(** Atomically replaces the process-wide sink (seen by every domain
    that has no domain-local override). *)

val global : unit -> sink

val scope : unit -> sink option
(** [Some sink] when the current domain's effective sink collects,
    [None] when tracing is off — the one-branch guard instrumented code
    uses.  The effective sink is the domain-local override when one is
    installed, the global sink otherwise. *)

val with_collector : (unit -> 'a) -> 'a * span list
(** Runs the thunk with a fresh collector installed as the calling
    domain's sink (restoring the previous override afterwards) and
    returns the spans it emitted.  Other domains are unaffected, so
    concurrent [with_collector] calls on different domains each see
    exactly their own spans. *)

(** {1 Rendering} *)

val pp : Format.formatter -> span -> unit
(** One line per span, indented by depth:
    [descent  page_reads=4 entries=12]. *)

val to_json : span -> Json.t
(** [{"name": ..., <field>: ..., "children": [...]}]. *)
