(** Order-preserving binary encodings and low-level byte helpers.

    All index keys in this project are byte strings compared with
    [String.compare] (i.e. unsigned byte-wise lexicographic order).  The
    encoders here guarantee that the byte order of the encodings matches the
    natural order of the encoded values, which is what lets a single B-tree
    serve as a composite-key index. *)

val put_u16 : Bytes.t -> int -> int -> unit
(** [put_u16 b off v] writes [v] (0..65535) big-endian at [off]. *)

val get_u16 : Bytes.t -> int -> int
(** [get_u16 b off] reads a big-endian unsigned 16-bit value. *)

val put_u32 : Bytes.t -> int -> int -> unit
(** [put_u32 b off v] writes [v] (0..2^32-1) big-endian at [off]. *)

val get_u32 : Bytes.t -> int -> int
(** [get_u32 b off] reads a big-endian unsigned 32-bit value. *)

val encode_int : int -> string
(** [encode_int x] is an 8-byte order-preserving encoding of [x]: for any
    [a], [b], [compare a b] equals [String.compare (encode_int a)
    (encode_int b)].  Works over the full OCaml [int] range, negative
    included. *)

val decode_int : string -> int -> int
(** [decode_int s off] inverts {!encode_int} at offset [off]. *)

val put_int : Bytes.t -> int -> int -> unit
val get_int : Bytes.t -> int -> int
(** {!encode_int}/{!decode_int} in place: [put_int b off x] writes the
    8-byte image of [x] at [off]. *)

val int_fits : Bytes.t -> int -> bool
(** [int_fits b off]: the 8-byte image at [off] is {!encode_int} of some
    OCaml [int] (its first byte is 0x40–0xBF).  Any other image, found
    only in a damaged key, would decode to a wrapped-around int. *)

val encode_u32 : int -> string
(** [encode_u32 x] is a 4-byte big-endian encoding of [x] (0..2^32-1);
    order-preserving over that range.  Used for OIDs and page references
    (both 4 bytes in the paper's experiments). *)

val decode_u32 : string -> int -> int
(** [decode_u32 s off] inverts {!encode_u32} at offset [off]. *)

val succ_prefix : string -> string
(** [succ_prefix p] is the smallest byte string greater than every string
    that starts with [p] (trailing [0xff] bytes dropped, last byte
    incremented).  Raises [Invalid_argument] when [p] is all [0xff]. *)

val common_prefix_len : string -> string -> int
(** [common_prefix_len a b] is the length of the longest common prefix of
    [a] and [b]. *)

val match_len : Bytes.t -> int -> string -> int -> int -> int
(** [match_len b boff s soff len] is the number of equal leading bytes of
    [b.[boff..]] and [s.[soff..]], at most [len].  The ranges must lie
    inside their buffers (unchecked); this is the allocation-free inner
    loop of the compare-in-place node search. *)

val compare_sub : Bytes.t -> int -> int -> string -> int
(** [compare_sub b off len s] has the sign of [String.compare
    (Bytes.sub_string b off len) s], without the copy.  The range must lie
    inside [b] (unchecked). *)

val fnv32 : ?init:int -> Bytes.t -> int -> int -> int
(** [fnv32 b off len] is the 32-bit FNV-1a hash of [len] bytes of [b]
    starting at [off]; pass a previous result as [init] to chain ranges.
    Used as the torn-write checksum of page-file headers and journals. *)

val check_text : string -> string
(** [check_text s] returns [s] if every byte of [s] is [>= 0x08], else
    raises [Invalid_argument].  Textual key components must stay above the
    control bytes the key encoders reserve as separators. *)
