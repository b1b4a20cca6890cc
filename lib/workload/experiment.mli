(** The paper's experiments (Section 5), as runnable drivers.

    Experiment 1 (Table 1): visited-node counts for the twenty queries on
    the 12,000-record vehicle database, under both retrieval algorithms.

    Experiment 2 (Figures 5–8): average page reads of the U-index
    (near / non-near query sets) and the CG-tree over 100 random
    repetitions, for exact-match and range queries. *)

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

type structure = [ `U | `Ch | `H | `Cg | `Nix ]
(** The U-index, CH-tree, H-tree, CG-tree and NIX. *)

type structures
(** An experiment-2 database under every {!structure}: the U-index and
    CG-tree of its {!Datagen.exp2}, and a CH-tree, H-tree and NIX over the
    same entries, each built on its own pager the first time it is
    queried. *)

val structures : Datagen.exp2 -> structures

val page_reads :
  structures -> structure -> kind:query_kind -> sets:int list -> lo:int ->
  hi:int -> int
(** Page reads of one class-hierarchy query: key values [lo..hi] (one
    value for [Exact]) in the classes [sets].  The U-index runs it with
    {!Uindex.Exec.parallel}. *)

val average :
  structures ->
  structure ->
  Querygen.placement ->
  kind:query_kind ->
  k:int ->
  reps:int ->
  seed:int ->
  float
(** Page reads averaged over [reps] queries on [k] sets.  The sets and key
    values are drawn from a stream of their own, seeded from [seed], [k],
    the placement and the structure, so two databases under the same
    structure see the same queries. *)

val shootout :
  structures ->
  structure list ->
  queries:(string * query_kind) list ->
  set_counts:int list ->
  reps:int ->
  seed:int ->
  string
(** One table per [(title, kind)] query: x = number of near sets queried,
    one column per structure of its {!average} page reads. *)

val figure_series :
  Datagen.exp2 ->
  kind:query_kind ->
  set_counts:int list ->
  reps:int ->
  seed:int ->
  (string * (int * float) list) list
(** The three series of one figure panel, each point an {!average}:
    ["B-tree (near sets)"] and ["B-tree (non-near sets)"] (the U-index),
    and ["CG-tree"] (random sets). *)

(** {1 Figures 5–8} *)

type datasets
(** The experiment-2 databases of one size and seed, each generated on
    first use and kept. *)

val datasets : n_objects:int -> seed:int -> datasets

val dataset : datasets -> n_classes:int -> distinct_keys:int -> Datagen.exp2

type panel = {
  figure : int;  (** 5–8 *)
  heading : string;  (** the figure's heading, reps included *)
  part : string option;  (** the sub-heading within Figure 8 *)
  title : string;  (** e.g. ["40 sets, unique keys"] *)
  name : string;  (** a file-name stem, e.g. ["fig6_40sets_1000keys"] *)
  series : (string * (int * float) list) list;  (** {!figure_series} *)
}

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
