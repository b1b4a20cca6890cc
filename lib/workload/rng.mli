(** Deterministic pseudo-random numbers (splitmix64).

    All experiment randomness flows through explicit [Rng.t] values so
    every run is reproducible from its seed; the paper averages 100
    random repetitions per configuration. *)

type t

val create : int -> t
val split : t -> t
(** An independent stream derived from this one. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k bound]: [k] distinct ints in [0, bound), sorted.
    Raises [Invalid_argument] if [k > bound]. *)
