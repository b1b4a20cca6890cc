(** On-page layout of B+-tree nodes.

    A node is serialized into one fixed-size page:

    {v
    byte 0        kind: 0 = internal, 1 = leaf
    bytes 1-2     number of keys (u16)
    bytes 3-6     leaf: next-leaf page id | internal: leftmost child id
    then, per key i (in key order):
      u16  prefix_len   bytes shared with the previous key in this node
      u16  suffix_len
      suffix bytes
      payload:
        internal  u32 child page id (child to the right of key i)
        leaf      u16 value length + value bytes, or the overflow marker
                  0xFFFF followed by u32 head page id + u32 total length
    v}

    The per-node front compression of keys (storing only the suffix that
    differs from the previous key) is the storage mechanism the paper's
    encoding scheme leans on: long composite keys that share value / class
    code / path prefixes cost only their distinguishing suffix
    (Section 3.2).  Compression can be disabled ([front_coding:false]) for
    the ablation benchmark. *)

type value =
  | Inline of string
  | Overflow of { head : int; length : int }
      (** Large values live in a chain of overflow pages starting at
          [head]; see {!Btree} for chain management. *)

type leaf = {
  lkeys : string array;
  lvals : value array;
  next : int;  (** page id of the next leaf in key order, [-1] if last *)
}

type internal = {
  ikeys : string array;  (** n separator keys *)
  children : int array;  (** n+1 children; child [i] holds keys [k] with
                             [ikeys.(i-1) <= k < ikeys.(i)] *)
}

type t = Leaf of leaf | Internal of internal

val header_size : int

val overflow_marker : int
(** The u16 inline-length value ([0xFFFF]) that instead announces an
    overflow payload; the largest representable inline value is therefore
    [overflow_marker - 1] bytes. *)

val size : front_coding:bool -> t -> int
(** Serialized size in bytes, including the header. *)

val encode : ?saved:int ref -> front_coding:bool -> page_size:int -> t -> Bytes.t
(** Raises [Invalid_argument] if the node does not fit.  When [saved] is
    given, the total number of key bytes the front compression elided
    (the sum of stored prefix lengths) is added to it — the live feed
    behind the [btree.fc_bytes_saved] metric. *)

val decode : Bytes.t -> t

val inline_size : value -> int
(** Size contribution of a leaf payload. *)

(** {1 Compare-in-place search}

    The fast read path operates on the encoded page without decoding it:
    searches walk the front-coded entries in the page buffer, deciding
    each comparison from the stored [(prefix_len, suffix)] pair alone, so
    a descent materializes no key and allocates nothing.  {!decode}
    remains the reference implementation; the two are proven equivalent
    by a differential property test.  On malformed pages these raise
    [Invalid_argument] exactly as {!decode} does. *)

val is_leaf_page : Bytes.t -> bool
(** Node kind from the header byte; raises [Invalid_argument] on any
    other kind byte (same failure as {!decode}). *)

val entry_count : Bytes.t -> int

val leaf_next : Bytes.t -> int
(** Next-leaf page id, [-1] when this is the last leaf. *)

val leaf_search : Bytes.t -> string -> int
(** Lower bound of the probe among a leaf page's entries, computed
    against the page buffer.  The result is a packed immediate int —
    unpack with {!search_index} (the lower-bound index),
    {!search_exact} (whether the entry at that index equals the probe)
    and {!search_off} (that entry's byte offset in the page; the
    end-of-entries offset when the index equals {!entry_count}). *)

val leaf_search_from :
  Bytes.t -> string -> len:int -> off:int -> idx:int -> ml:int -> int
(** {!leaf_search} for the probe's first [len] bytes, resumed mid-page
    (the rest of the string is ignored, so a reused buffer can be the
    probe): the search starts at entry [idx],
    at byte offset [off], given [ml], the length of the common prefix of
    the probe and entry [idx - 1].  Sound only when entry [idx - 1] is
    below the probe; the scanner uses it to search forward from its
    cursor. *)

val search_index : int -> int
val search_exact : int -> bool
val search_off : int -> int

val child_search : Bytes.t -> string -> len:int -> int
(** The child slot a descent for the probe key (its first [len] bytes)
    must follow from an internal page: upper bound over the separators,
    compared in place.
    Packed like {!leaf_search}: {!search_index} is the slot (the number
    of separators [<=] the probe, so {!entry_count} means the last
    child) and {!search_off} the byte offset of the separator right
    after that child. *)

val search_child : Bytes.t -> int -> int
(** The page id of the child a {!child_search} result names. *)

val next_child : Bytes.t -> int -> int
(** The {!child_search} result for the slot after the given one, or
    [-1] when that was the last child. *)

val child_in_place : Bytes.t -> string -> int
(** [search_child b (child_search b key)]: the child page id to
    follow. *)

val entry_prefix : Bytes.t -> int -> int
(** Stored prefix length of the entry at a byte offset. *)

val entry_suffix_len : Bytes.t -> int -> int
val entry_suffix_off : int -> int

val leaf_payload_off : Bytes.t -> int -> int
(** Byte offset of the leaf payload of the entry at [off]. *)

val leaf_entry_end : Bytes.t -> int -> int
(** Byte offset just past the leaf entry at [off] — i.e. the next
    entry's offset. *)

val leaf_value : Bytes.t -> int -> value
(** Decode the leaf payload at a payload offset (see
    {!leaf_payload_off}); the only allocating accessor, called when a
    scan actually needs the value. *)

val pp : Format.formatter -> t -> unit
