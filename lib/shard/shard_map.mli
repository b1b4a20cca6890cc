(** The shard map: a total, non-overlapping cover of the serialized-code
    space by COD ranges, one range per shard.

    The U-index sorts entries by attribute value first and by the first
    component's serialized class code second, so a COD range does {e not}
    correspond to one contiguous key range — it is the union, over all
    value groups, of that group's code sub-interval.  What a COD range
    {e does} give is exact routing: an entry belongs to exactly one shard
    (the one whose [[lo, hi)] range contains its first component's
    serialized code), and a query touches exactly the shards whose
    ranges intersect its class patterns' code intervals (see
    {!Planner}).  Both facts follow from the paper's containment
    argument: every class subtree is one contiguous serialized-code
    interval.

    Ranges are half-open byte-string intervals under [String.compare].
    Shard 0 starts at [""] (below every code) and the last shard is
    unbounded above, so the cover is total by construction and the
    validator only has to check contiguity.

    A shard's [endpoint] is parsed when the map is read, so a map that
    loads names only servers a client can address. *)

type shard = {
  lo : string;  (** inclusive serialized-code lower bound; [""] on shard 0 *)
  hi : string option;  (** exclusive upper bound; [None] = unbounded (last) *)
  file : string option;  (** page file holding this shard's entries *)
  endpoint : Uindex_server.Endpoint.t option;
      (** where the router reaches this shard; stored as its
          {!Uindex_server.Endpoint.to_string} spec *)
}

type t

val make : shard list -> t
(** Validates the cover: at least one shard, [lo] of the first is [""],
    each [hi] equals the next shard's [lo], every bounded range is
    non-empty ([lo < hi]), and only the last shard is unbounded.  Raises
    [Invalid_argument] with a diagnostic otherwise. *)

val shards : t -> shard array
val count : t -> int
val get : t -> int -> shard

val locate : t -> string -> int
(** The unique shard whose range contains the given serialized code. *)

val intersecting : t -> (string * string) list -> int list
(** Shard ids (ascending) whose range intersects at least one of the
    half-open code intervals.  Empty intervals ([lo >= hi]) and an empty
    list intersect nothing. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> t
(** Raises [Invalid_argument] on a document that does not describe a
    valid cover, or whose [endpoint] value does not parse
    ({!Uindex_server.Endpoint.of_string}; the message names the shard) —
    a bad endpoint fails the load, not every query routed to it.  Range
    bounds are raw byte strings; {!Obs.Json} escapes the [0x02] unit
    terminators, so maps round-trip byte-exactly. *)

val save : t -> string -> unit
val load : string -> t
(** File I/O over {!to_json}/{!of_json}; [load] raises [Sys_error] or
    [Invalid_argument]. *)

val topology_json : t -> Obs.Json.t
(** The shard list as displayed by [health]: per shard the range (with
    the [0x02] terminators rendered as ["."] for readability), file and
    endpoint. *)
