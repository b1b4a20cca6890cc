module Bu = Storage.Bytes_util

type value = Inline of string | Overflow of { head : int; length : int }

type leaf = { lkeys : string array; lvals : value array; next : int }
type internal = { ikeys : string array; children : int array }
type t = Leaf of leaf | Internal of internal

let header_size = 7
let overflow_marker = 0xFFFF
let no_page = 0xFFFFFFFF

let inline_size = function
  | Inline s -> 2 + String.length s
  | Overflow _ -> 2 + 8

let prefix_len ~front_coding ~prev key =
  if front_coding then min (Bu.common_prefix_len prev key) 0xFFFF else 0

let size ~front_coding t =
  let entry prev key payload =
    let p = prefix_len ~front_coding ~prev key in
    4 + (String.length key - p) + payload
  in
  match t with
  | Leaf { lkeys; lvals; _ } ->
      let total = ref header_size in
      let prev = ref "" in
      Array.iteri
        (fun i k ->
          total := !total + entry !prev k (inline_size lvals.(i));
          prev := k)
        lkeys;
      !total
  | Internal { ikeys; _ } ->
      let total = ref header_size in
      let prev = ref "" in
      Array.iter
        (fun k ->
          total := !total + entry !prev k 4;
          prev := k)
        ikeys;
      !total

let encode ?saved ~front_coding ~page_size t =
  if size ~front_coding t > page_size then
    invalid_arg "Node.encode: node exceeds page size";
  let b = Bytes.make page_size '\000' in
  let pos = ref header_size in
  let put_entry prev key write_payload =
    let p = prefix_len ~front_coding ~prev key in
    (match saved with Some r -> r := !r + p | None -> ());
    let suffix_len = String.length key - p in
    (* put_u16 silently keeps the low 16 bits, so an oversized field
       would corrupt the page rather than fail — refuse it here *)
    if suffix_len > 0xFFFF then
      invalid_arg "Node.encode: key suffix exceeds 65535 bytes";
    Bu.put_u16 b !pos p;
    Bu.put_u16 b (!pos + 2) suffix_len;
    Bytes.blit_string key p b (!pos + 4) suffix_len;
    pos := !pos + 4 + suffix_len;
    write_payload ()
  in
  (match t with
  | Leaf { lkeys; lvals; next } ->
      Bytes.set b 0 '\001';
      Bu.put_u16 b 1 (Array.length lkeys);
      Bu.put_u32 b 3 (if next < 0 then no_page else next);
      let prev = ref "" in
      Array.iteri
        (fun i k ->
          put_entry !prev k (fun () ->
              (match lvals.(i) with
              | Inline s ->
                  (* 0xFFFF is the overflow marker, so the largest
                     representable inline length is 65534 *)
                  if String.length s >= overflow_marker then
                    invalid_arg "Node.encode: inline value exceeds 65534 bytes";
                  Bu.put_u16 b !pos (String.length s);
                  Bytes.blit_string s 0 b (!pos + 2) (String.length s);
                  pos := !pos + 2 + String.length s
              | Overflow { head; length } ->
                  Bu.put_u16 b !pos overflow_marker;
                  Bu.put_u32 b (!pos + 2) head;
                  Bu.put_u32 b (!pos + 6) length;
                  pos := !pos + 10));
          prev := k)
        lkeys
  | Internal { ikeys; children } ->
      if Array.length children <> Array.length ikeys + 1 then
        invalid_arg "Node.encode: children/keys arity mismatch";
      Bytes.set b 0 '\000';
      Bu.put_u16 b 1 (Array.length ikeys);
      Bu.put_u32 b 3 children.(0);
      let prev = ref "" in
      Array.iteri
        (fun i k ->
          put_entry !prev k (fun () ->
              Bu.put_u32 b !pos children.(i + 1);
              pos := !pos + 4);
          prev := k)
        ikeys);
  b

let decode b =
  let kind = Bytes.get b 0 in
  let nkeys = Bu.get_u16 b 1 in
  let word3 = Bu.get_u32 b 3 in
  let pos = ref header_size in
  let read_key prev =
    let p = Bu.get_u16 b !pos in
    let slen = Bu.get_u16 b (!pos + 2) in
    let key =
      String.sub prev 0 p ^ Bytes.sub_string b (!pos + 4) slen
    in
    pos := !pos + 4 + slen;
    key
  in
  match kind with
  | '\001' ->
      let lkeys = Array.make nkeys "" in
      let lvals = Array.make nkeys (Inline "") in
      let prev = ref "" in
      for i = 0 to nkeys - 1 do
        let k = read_key !prev in
        lkeys.(i) <- k;
        prev := k;
        let vlen = Bu.get_u16 b !pos in
        if vlen = overflow_marker then begin
          let head = Bu.get_u32 b (!pos + 2) in
          let length = Bu.get_u32 b (!pos + 6) in
          lvals.(i) <- Overflow { head; length };
          pos := !pos + 10
        end
        else begin
          lvals.(i) <- Inline (Bytes.sub_string b (!pos + 2) vlen);
          pos := !pos + 2 + vlen
        end
      done;
      let next = if word3 = no_page then -1 else word3 in
      Leaf { lkeys; lvals; next }
  | '\000' ->
      let ikeys = Array.make nkeys "" in
      let children = Array.make (nkeys + 1) word3 in
      let prev = ref "" in
      for i = 0 to nkeys - 1 do
        let k = read_key !prev in
        ikeys.(i) <- k;
        prev := k;
        children.(i + 1) <- Bu.get_u32 b !pos;
        pos := !pos + 4
      done;
      Internal { ikeys; children }
  | _ -> invalid_arg "Node.decode: bad node kind byte"

(* --- compare-in-place search -------------------------------------------- *)

(* The fast read path searches the encoded page directly instead of
   decoding it.  Front coding makes this possible without materializing
   any key: walking the entries in order while maintaining [ml] — the
   length of the common prefix of the probe key and the last entry
   passed — each entry's order relative to the probe is decided from its
   stored (prefix_len, suffix) alone:

     prefix_len > ml   the entry agrees with its predecessor beyond the
                       point where the predecessor fell below the probe,
                       so the entry is below it too (the predecessor
                       cannot have been a proper prefix of the probe
                       there, since prefix_len never exceeds its
                       length);
     prefix_len <= ml  the entry's first prefix_len bytes equal the
                       probe's (both match the predecessor that far), so
                       the suffix is compared byte-wise against the
                       probe's tail starting at prefix_len, updating
                       [ml].

   Note the second case must NOT shortcut on prefix_len < ml: stored
   prefixes are not necessarily maximal (front_coding:false stores 0 for
   every entry), so a shorter prefix than [ml] says nothing about where
   the entry diverges — only the suffix bytes do.

   Malformed pages fail the bounds checks of the safe byte accessors (or
   the explicit suffix check below) with [Invalid_argument], exactly as
   [decode] does, so the Btree layer converts both paths to typed
   corruption identically. *)

let is_leaf_page b =
  match Bytes.get b 0 with
  | '\001' -> true
  | '\000' -> false
  | _ -> invalid_arg "Node.decode: bad node kind byte"

let entry_count b = Bu.get_u16 b 1

let leaf_next b =
  let w = Bu.get_u32 b 3 in
  if w = no_page then -1 else w

let entry_prefix b off = Bu.get_u16 b off
let entry_suffix_len b off = Bu.get_u16 b (off + 2)
let entry_suffix_off off = off + 4

let leaf_payload_off b off = off + 4 + Bu.get_u16 b (off + 2)

let leaf_payload_len b pos =
  let vlen = Bu.get_u16 b pos in
  if vlen = overflow_marker then 10 else 2 + vlen

let leaf_entry_end b off =
  let pos = leaf_payload_off b off in
  pos + leaf_payload_len b pos

let leaf_value b pos =
  let vlen = Bu.get_u16 b pos in
  if vlen = overflow_marker then
    Overflow { head = Bu.get_u32 b (pos + 2); length = Bu.get_u32 b (pos + 6) }
  else Inline (Bytes.sub_string b (pos + 2) vlen)

let check_suffix b soff slen =
  if soff + slen > Bytes.length b then
    invalid_arg "Node.search: entry overruns page"

(* packed [leaf_search] result: bit 0 = exact, bits 1-20 = index, the
   rest = byte offset of that entry (end-of-entries offset at the end) *)
let search_off r = r lsr 21
let search_index r = (r lsr 1) land 0xFFFFF
let search_exact r = r land 1 = 1

let leaf_search_from b key ~len:klen ~off ~idx ~ml =
  let n = Bu.get_u16 b 1 in
  let pos = ref off in
  let idx = ref idx in
  let ml = ref ml in
  let exact = ref false in
  let stop = ref false in
  while (not !stop) && !idx < n do
    let p = Bu.get_u16 b !pos in
    let slen = Bu.get_u16 b (!pos + 2) in
    let soff = !pos + 4 in
    check_suffix b soff slen;
    if p > !ml then begin
      let vpos = soff + slen in
      pos := vpos + leaf_payload_len b vpos;
      incr idx
    end
    else begin
      let rem = klen - p in
      let lim = if slen < rem then slen else rem in
      let j = Bu.match_len b soff key p lim in
      if j < lim then
        if Char.code (Bytes.unsafe_get b (soff + j)) < Char.code key.[p + j]
        then begin
          ml := p + j;
          let vpos = soff + slen in
          pos := vpos + leaf_payload_len b vpos;
          incr idx
        end
        else stop := true
      else if slen < rem then begin
        (* the entry is a proper prefix of the probe: below it *)
        ml := p + slen;
        let vpos = soff + slen in
        pos := vpos + leaf_payload_len b vpos;
        incr idx
      end
      else if slen = rem then begin
        exact := true;
        stop := true
      end
      else stop := true (* the probe is a proper prefix of the entry *)
    end
  done;
  (!pos lsl 21) lor (!idx lsl 1) lor (if !exact then 1 else 0)

let leaf_search b key =
  leaf_search_from b key ~len:(String.length key) ~off:header_size ~idx:0 ~ml:0

(* Upper bound over an internal page's separators: the search advances
   past separators [<=] the probe.  The packed result names the child
   slot it stops at (the count of separators passed) and the offset of
   the separator right after that child; the child's page id is the u32
   just before that separator, or the header's leftmost child. *)
let child_search b key ~len:klen =
  let n = Bu.get_u16 b 1 in
  let pos = ref header_size in
  let idx = ref 0 in
  let ml = ref 0 in
  let stop = ref false in
  while (not !stop) && !idx < n do
    let p = Bu.get_u16 b !pos in
    let slen = Bu.get_u16 b (!pos + 2) in
    let soff = !pos + 4 in
    check_suffix b soff slen;
    if p > !ml then begin
      pos := soff + slen + 4;
      incr idx
    end
    else begin
      let rem = klen - p in
      let lim = if slen < rem then slen else rem in
      let j = Bu.match_len b soff key p lim in
      if j < lim then
        if Char.code (Bytes.unsafe_get b (soff + j)) < Char.code key.[p + j]
        then begin
          ml := p + j;
          pos := soff + slen + 4;
          incr idx
        end
        else stop := true
      else if slen <= rem then begin
        (* separator <= probe (equal when slen = rem): go right of it *)
        ml := p + slen;
        pos := soff + slen + 4;
        incr idx
      end
      else stop := true
    end
  done;
  (!pos lsl 21) lor (!idx lsl 1)

let search_child b r =
  if search_index r = 0 then Bu.get_u32 b 3 else Bu.get_u32 b (search_off r - 4)

let next_child b r =
  if search_index r >= Bu.get_u16 b 1 then -1
  else
    let off = search_off r in
    let next = off + 4 + Bu.get_u16 b (off + 2) + 4 in
    (next lsl 21) lor ((search_index r + 1) lsl 1)

let child_in_place b key =
  search_child b (child_search b key ~len:(String.length key))

let pp_key ppf k =
  String.iter
    (fun c ->
      if c >= ' ' && c < '\127' then Format.pp_print_char ppf c
      else Format.fprintf ppf "\\x%02x" (Char.code c))
    k

let pp ppf = function
  | Leaf { lkeys; next; _ } ->
      Format.fprintf ppf "@[<hv 2>Leaf(next=%d,@ keys=[%a])@]" next
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_key)
        (Array.to_list lkeys)
  | Internal { ikeys; children } ->
      Format.fprintf ppf "@[<hv 2>Internal(children=[%a],@ keys=[%a])@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           Format.pp_print_int)
        (Array.to_list children)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_key)
        (Array.to_list ikeys)
