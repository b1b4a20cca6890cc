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

val figure_series :
  Datagen.exp2 ->
  kind:query_kind ->
  set_counts:int list ->
  reps:int ->
  seed:int ->
  (string * (int * float) list) list
(** The three series of one figure panel: ["B-tree (near sets)"],
    ["B-tree (non-near sets)"], ["CG-tree"]; x = number of sets queried,
    y = average page reads.  Set choices and key values are drawn per
    repetition from [seed]. *)

val cg_page_reads :
  Datagen.exp2 -> kind:query_kind -> lo:int -> hi:int -> sets:int list ->
  int * int
(** [(page_reads, results)] of one CG-tree query. *)
