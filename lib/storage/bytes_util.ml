let put_u16 = Bytes.set_uint16_be
let get_u16 = Bytes.get_uint16_be

let put_u32 b off v =
  Bytes.set_int32_be b off (Int32.of_int v)

let get_u32 b off =
  Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* Offset-binary: flipping the sign bit of the two's-complement 64-bit
   image makes unsigned byte order agree with signed integer order. *)
let put_int b off x =
  Bytes.set_int64_be b off (Int64.logxor (Int64.of_int x) Int64.min_int)

let get_int b off = Int64.to_int (Int64.logxor (Bytes.get_int64_be b off) Int64.min_int)

(* the top two bits of a 63-bit int's 64-bit image agree; offset-binary
   flips the first, so they differ in every [encode_int] result *)
let int_fits b off =
  let b0 = Char.code (Bytes.get b off) in
  b0 >= 0x40 && b0 < 0xc0

let encode_int x =
  let b = Bytes.create 8 in
  put_int b 0 x;
  Bytes.unsafe_to_string b

let decode_int s off = get_int (Bytes.unsafe_of_string s) off

let encode_u32 x =
  let b = Bytes.create 4 in
  put_u32 b 0 x;
  Bytes.unsafe_to_string b

let decode_u32 s off = get_u32 (Bytes.unsafe_of_string s) off

let succ_prefix p =
  (* drop trailing 0xff bytes, then increment the last remaining byte *)
  let rec go i =
    if i < 0 then invalid_arg "Bytes_util.succ_prefix: prefix is all 0xff"
    else if p.[i] = '\xff' then go (i - 1)
    else String.sub p 0 i ^ String.make 1 (Char.chr (Char.code p.[i] + 1))
  in
  go (String.length p - 1)

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let match_len b boff s soff len =
  let i = ref 0 in
  while
    !i < len
    && Bytes.unsafe_get b (boff + !i) = String.unsafe_get s (soff + !i)
  do
    incr i
  done;
  !i

(* [match_len]'s loop inlined: this runs several times per scanned key *)
let compare_sub b off len s =
  let slen = String.length s in
  let lim = if len < slen then len else slen in
  let i = ref 0 in
  while !i < lim && Bytes.unsafe_get b (off + !i) = String.unsafe_get s !i do
    incr i
  done;
  if !i < lim then
    Char.code (Bytes.unsafe_get b (off + !i)) - Char.code (String.unsafe_get s !i)
  else len - slen

(* FNV-1a, folded to 32 bits; used for page-file header and journal
   checksums.  Not cryptographic — it only needs to catch torn writes. *)
let fnv32 ?(init = 0x811C9DC5) b off len =
  let h = ref init in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let check_text s =
  String.iter
    (fun c ->
      if Char.code c < 0x08 then
        invalid_arg "Bytes_util.check_text: byte below 0x08 in text component")
    s;
  s
