(** The paper's experiments (Section 5) and our ablations, as runnable
    drivers.

    Experiment 1 (Table 1): visited-node counts for the twenty queries on
    the 12,000-record vehicle database, under both retrieval algorithms.

    Experiment 2 (Figures 5–8): average page reads of the U-index
    (near / non-near query sets) and the CG-tree over 100 random
    repetitions, for exact-match and range queries.

    Ablations A1–A7: the claims of Sections 3.2.1, 4.2 and 4.4 about the
    entry layout, storage, update cost and path queries. *)

type t1_row = {
  id : string;
  descr : string;
  results : int;  (** bindings returned (sanity) *)
  parallel : int;  (** visited nodes, Algorithm 1 *)
  forward : int;  (** visited nodes, naive forward scanning *)
}

val table1 : Datagen.exp1 -> t1_row list
val render_table1 : t1_row list -> string

type query_kind = Exact | Range of float
(** [Range f]: the search range comprises fraction [f] of the key
    space. *)

type structure = [ `U | `Ch | `H | `Cg | `Nix | `Grouped ]
(** The U-index, CH-tree, H-tree, CG-tree, NIX, and the U-index under
    grouped [(value, class-code) -> OID-list] entries ({!Uindex.Grouped}). *)

type structures
(** An experiment-2 database under every {!structure}: the U-index and
    CG-tree of its {!Datagen.exp2}, and a CH-tree, H-tree, NIX and grouped
    U-index over the same entries, each built on its own pager the first
    time it is queried. *)

val structures : Datagen.exp2 -> structures

val database : structures -> Datagen.exp2

val page_reads :
  structures -> structure -> kind:query_kind -> sets:int list -> lo:int ->
  hi:int -> int
(** Page reads of one class-hierarchy query: key values [lo..hi] (one
    value for [Exact]) in the classes [sets].  The U-index runs it with
    {!Uindex.Exec.parallel}, the grouped one with {!Uindex.Grouped.query}. *)

val shootout :
  structures ->
  structure list ->
  queries:(string * query_kind) list ->
  set_counts:int list ->
  reps:int ->
  seed:int ->
  string
(** One table per [(title, kind)] query: x = number of near sets queried,
    one column per structure of its page reads averaged over [reps]
    queries.  A point's sets and key values are drawn from a stream of
    their own, seeded from [seed], the set count, the placement and the
    structure, so two databases under the same structure see the same
    queries. *)

val figure_series :
  Datagen.exp2 ->
  kind:query_kind ->
  set_counts:int list ->
  reps:int ->
  seed:int ->
  (string * (int * float) list) list
(** The three series of one figure panel, each point averaged as in
    {!shootout}: ["B-tree (near sets)"] and ["B-tree (non-near sets)"]
    (the U-index), and ["CG-tree"] (random sets). *)

(** {1 Figures 5–8} *)

type datasets
(** The experiment-2 databases of one size and seed, each generated on
    first use and kept with its {!structures}. *)

val datasets : n_objects:int -> seed:int -> datasets

val dataset : datasets -> n_classes:int -> distinct_keys:int -> structures

type panel
(** One panel of a figure: its heading, title and {!figure_series}. *)

val figures : datasets -> reps:int -> panel list
(** Every panel of Figures 5–8, in the paper's order: 40 and 8 classes,
    unique / 100 / 1,000 keys, exact match and 10 % / 2 % ranges, then
    Figure 8's 0.5 % and 0.2 % ranges and its near vs non-near panels.
    Queries are drawn from the datasets' seed. *)

val render_figures : panel list -> string
(** The panels as a report: a heading per figure, one table per panel. *)

val shape_failures : panel list -> string list
(** The paper's comparative claims, checked on {!figures}' panels; one
    message per claim that does not hold:
    - Figure 5, unique keys, 40 classes: the U-index is flat in the set
      count and the CG-tree grows;
    - Figure 6, unique keys, 40 classes: the CG-tree reads less than the
      U-index at 1 set and more at 40;
    - Figure 8, 0.2 % ranges, 40 classes: the U-index reads less from 10
      sets on;
    - Figure 6, 100 keys, 40 classes, 10 sets: near sets read at least
      10 % less than non-near ones (at 1 set, where the two draw the same
      kind of query, they differ by up to 10 % at 10 reps). *)

(** {1 Ablations A1–A7} *)

type ablations
(** The ablations on the 40-class datasets: A1 front coding on/off, A2
    the four-way shootout, A3 update cost (inserts, a mid-path president
    switch, end-of-path inserts vs NIX), A4 pages per structure, A5 path
    queries vs NIX and the Bertino–Kim indexes, A6 a shared LRU buffer
    pool, A7 single-value vs grouped entries at 100 and 1,000 keys. *)

val ablations : datasets -> reps:int -> ablations
(** Measured at the datasets' size, with queries drawn from their seed.
    [reps] sets the draws per average and the workload sizes: A3's
    [20 * reps] inserts and [10 * reps] end-of-path chains, A5's [reps]
    president ages and A6's [4 * reps] queries.  A3 and A5 run on
    12,000-vehicle path databases at any size. *)

val render_ablations : ablations -> string
(** One section per ablation. *)

type pool_row = {
  pool_pages : int;
  pager_reads : int;  (** the pool's misses *)
  pool_hits : int;
  exec_page_reads : int;  (** the queries' summed {!Uindex.Exec} page reads *)
}

val pool_rows : ablations -> pool_row list
(** A6, one row per pool size: 64, 256 and 1,024 pages. *)

val ablation_failures : ablations -> string list
(** The ablations' claims; one message per claim that does not hold:
    - A1: front coding uses fewer pages and fewer 2 % range reads;
    - A3: a U-index insert writes at most 1.1 pages on average;
    - A3: end-of-path inserts write fewer pages for the U-index than NIX;
    - A4: the front-coded U-index uses fewer pages than the uncompressed;
    - A6: pager reads do not rise as the pool grows, and the queries'
      summed page reads equal the pool's misses;
    - A7: grouped entries use fewer pages than single-value ones at both
      key counts. *)
