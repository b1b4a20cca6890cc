(** Query compilation: from {!Query.t} to key-space navigation.

    A compiled plan drives both retrieval algorithms of the paper:

    - {e forward scanning} walks [[lower, upper)]: one contiguous key
      interval from the first to the last possibly-relevant entry;
    - the {e parallel algorithm} (Algorithm 1) asks the classifier for
      an accept/skip decision on every key it lands on, and follows its
      skip targets — the smallest admissible position past the key
      ({!next_candidate}) — so the executor only ever touches B-tree
      nodes that can hold relevant entries: the paper's dynamically-built
      search tree over partial keys, with the partial-key set expressed
      as (value spec × code intervals) plus per-component skip targets.

    A plan carries the scratch its in-place classifier writes targets
    into, so it serves one walk at a time (one query, one domain). *)

module Schema := Oodb_schema.Schema
module Encoding := Oodb_schema.Encoding

type t

val compile :
  ?grouped:bool -> enc:Encoding.t -> ty:Schema.attr_type -> Query.t -> t
(** Raises [Invalid_argument] if the query has no components or uses a
    non-indexable value.

    With [grouped] (default [false]) the plan is for the grouped entry
    layout of Section 3.2.1, whose keys are [value 0x01 code 0x01] with
    no oid (see {!Grouped}): its intervals and classifier test the value
    and the class codes only, and the query's slots are left to the
    reader of each accepted entry's OID list. *)

val lower : t -> string option
(** First admissible position; [None] when the plan is empty (e.g. an
    empty range). *)

val upper : t -> string option
(** Exclusive upper bound of all admissible keys; [None] = unbounded. *)

val intervals : t -> (string * string) list option
(** The finite set of admissible key intervals — one per (value, code
    interval) pair — when the value spec is enumerable ([V_eq]/[V_in]);
    [None] for contiguous ranges, whose candidates are generated lazily
    during the scan.  Sorted and disjoint.  The executor reports their
    count in its [plan] span; its walk finds them through the
    classifier's skip targets. *)

val next_candidate : t -> string -> string option
(** Smallest admissible position [>=] the given byte string.  The result
    is a seek target, not necessarily an existing key.  Admissibility here
    covers the value spec and the first component's code/OID intervals;
    later components are checked by {!classify}.  Computed in place,
    like the classifier's targets; only the result is copied out. *)

type next =
  | Seek of string  (** jump to this position *)
  | Advance  (** just move to the next entry *)
  | Stop  (** no admissible position remains *)

type verdict =
  | Accept of { arity : int; next : next }
      (** [arity] is the number of query components that matched (the
          query may be a proper prefix of the entry — the paper's
          partial-path queries, in which case [next] jumps past the
          remaining entries of the same matched prefix so each binding is
          produced once).  The binding is the key's value and its first
          [arity] components: [Ukey.decode ~arity]. *)
  | Reject of next

val classify : t -> string -> verdict
(** Full match check of an entry key, producing a skip target on
    rejection: failing the value or first component jumps to the next
    admissible group; failing a later component's class skips that class's
    run; failing a slot skips that object's run (the paper's "skip by
    looking the uncompressed part of the key up in the parent",
    Section 3.4).  An entry whose key bytes do not decode at all (e.g. a
    truncated [Int] key, an unknown class code) is rejected with
    [Advance] and counted in the [exec.undecodable_entries] metric —
    corruption is tolerated but never silent.

    This is {!classify_in_place} on the string's bytes, with the target
    copied out. *)

val undecodable_entries : unit -> int
(** Current value of the process-wide [exec.undecodable_entries] counter
    (0 when no entry ever failed to decode). *)

(** {1 Compare-in-place classification}

    The executor's form of {!classify}.  {!compile} turns the query into
    byte-level tests, and an entry key is classified where it sits — in
    the scanner's key scratch ({!Btree.Scanner.key_bytes}) — with no copy
    and no decode:

    - the key's value bytes are compared with the encoded value spec
      (the encodings are order-preserving);
    - each component's [code 0x01] bytes are tested against the
      precomputed, merged code intervals of the query component's
      pattern ({!Oodb_schema.Encoding.exact_interval},
      {!Oodb_schema.Encoding.subtree_interval}) — a class subtree is one
      code interval, so this is the pattern test with no schema walk —
      and its rank found by binary search among the encoding's known
      codes ({!Oodb_schema.Encoding.serialized_codes}), where the row
      functions read it back ({!comp_rank});
    - oids are read as 4 raw bytes;
    - a skip target is written into the plan's reused buffer, and only
      when the walk will seek;
    - a value or code test the previous key already ran on the same
      leading bytes is not run again: a scan meets keys in runs that
      share them.

    {b Allocation contract:} once the plan's scratch has grown to the
    longest key, classifying a rejected entry allocates nothing, whether
    it advances or builds a seek target; only an [S_pred] slot's own
    function may allocate.  A plan owns this scratch, so it classifies
    for one walk at a time. *)

val classify_in_place : t -> skip:bool -> Bytes.t -> int -> int
(** [classify_in_place t ~skip key len] classifies [key.[0, len)] — the
    same verdict as {!classify}, packed into an immediate int: read it
    with {!arity} and {!move}.  A [`Seek] target is left in {!target}.
    With [skip = false] (the forward walk, which never seeks) no target
    is built and every verdict moves by [`Advance]. *)

val arity : int -> int
(** The accepted arity of a packed verdict; [0] for a rejection. *)

val move : int -> [ `Advance | `Seek | `Stop ]

val target : t -> Bytes.t
val target_length : t -> int
(** The last seek target: bytes [[0, target_length t)] of [target t],
    valid until the plan classifies again. *)

(** {1 The accepted key's findings}

    The classifier is the only code on the read path that parses a key.
    After {!classify_in_place} accepted a key at arity [a], these read
    what it found, for the value and components [j < a]; a row function
    ({!Exec.run_rows}) builds its row from them and the key's bytes.
    They are valid until the plan classifies again, and only for the
    bytes it classified.  Each is an array read. *)

val attr_ty : t -> Schema.attr_type
(** The indexed attribute's type the plan was compiled for. *)

val known : t -> string array
(** The {!Oodb_schema.Encoding.serialized_codes} array the plan was
    compiled with (physically the same): every code it accepts, sorted.
    A class added after compilation is none of them. *)

val value_end : t -> int
(** The offset of the value separator: the value is bytes [[0, value_end)]. *)

val comp_end : t -> int -> int
(** [comp_end t j]: the offset past component [j]'s code and its
    terminator, where its four oid bytes start (a grouped key has none). *)

val comp_rank : t -> int -> int
(** [comp_rank t j]: the rank of component [j]'s code in {!known}. *)

val comp_class : t -> int -> Schema.class_id
(** [comp_class t j]: the class of component [j]'s code
    ({!Oodb_schema.Encoding.serialized_classes} at its rank). *)

val prefix_length : t -> int -> int
(** [prefix_length t n], for [n <= a]: the length of the key's prefix
    that holds its value and first [n] components.  Two accepted keys
    bind the same value and components at arity [n] exactly when these
    prefixes are equal. *)
