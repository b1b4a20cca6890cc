module Node = Node
module Bu = Storage.Bytes_util
module Pager = Storage.Pager

(* Process-wide instruments (see Obs.Metrics).  [node_visits] counts the
   paper's "visited nodes" — every node a descent reads on its way down,
   whether or not the page read was absorbed by a cache: [height] per
   root descent, and for a finger seek only the nodes below the
   ancestor it climbs to. *)
let m_descents =
  Obs.Metrics.counter ~subsystem:"btree" ~help:"root-to-leaf descents"
    "descents"

let m_finger_seeks =
  Obs.Metrics.counter ~subsystem:"btree"
    ~help:"scanner seeks served from the held root-to-leaf path"
    "finger_seeks"

let m_node_visits =
  Obs.Metrics.counter ~subsystem:"btree"
    ~help:"nodes read by descents during lookups and seeks" "node_visits"

let m_fc_saved =
  Obs.Metrics.counter ~subsystem:"btree"
    ~help:"key bytes elided by front compression on encode" "fc_bytes_saved"

let m_splits =
  Obs.Metrics.counter ~subsystem:"btree"
    ~help:"node splits (each extra node produced)" "splits"

type config = {
  max_entries : int option;
  front_coding : bool;
  overflow_threshold : int;
}

let default_config ~page_size =
  {
    max_entries = None;
    front_coding = true;
    overflow_threshold = (page_size - Node.header_size) / 4;
  }

module Buffer_pool = Storage.Buffer_pool

type t = {
  pager : Pager.t;
  cfg : config;
  mutable root : int;
  mutable height : int;
  mutable pool : Buffer_pool.t option;
      (* shared page source: reads go through the pool, writes are
         written through, frees invalidate — see write_page/free_page *)
}

let pager t = t.pager
let config t = t.cfg
let height t = t.height
let pool t = t.pool

let set_pool t pool =
  (match pool with
  | Some p when Buffer_pool.pager p != t.pager ->
      invalid_arg "Btree.set_pool: pool is over a different pager"
  | Some _ | None -> ());
  t.pool <- pool

let page_size t = Pager.page_size t.pager

(* Every page write and free must keep the shared pool coherent: a write
   refreshes the resident copy (write-through), a free drops it before
   the pager can recycle the id for unrelated content. *)
let write_page t id page =
  Pager.write t.pager id page;
  match t.pool with Some p -> Buffer_pool.update p id page | None -> ()

let free_page t id =
  (match t.pool with Some p -> Buffer_pool.invalidate p id | None -> ());
  Pager.free t.pager id

let store t id node =
  let saved = ref 0 in
  write_page t id
    (Node.encode ~saved ~front_coding:t.cfg.front_coding
       ~page_size:(page_size t) node);
  Obs.Metrics.add m_fc_saved !saved

let create ?config ?pool pager =
  let cfg =
    match config with
    | Some c -> c
    | None -> default_config ~page_size:(Pager.page_size pager)
  in
  let t = { pager; cfg; root = -1; height = 1; pool = None } in
  set_pool t pool;
  let root = Pager.alloc pager in
  t.root <- root;
  store t root (Node.Leaf { lkeys = [||]; lvals = [||]; next = -1 });
  t

let root t = t.root

(* A page that reaches us but no longer parses as a node is damage the
   pager's checksums did not (or could not) catch — report it as typed
   corruption, never as a bare API error. *)
let load read id =
  let b = read id in
  try Node.decode b
  with Invalid_argument detail | Failure detail ->
    raise
      (Storage.Storage_error.Corruption
         { page = Some id; component = "btree.node"; detail })

let corrupt id detail =
  raise
    (Storage.Storage_error.Corruption
       { page = Some id; component = "btree.node"; detail })

let attach ?config ?pool ?height pager ~root =
  let cfg =
    match config with
    | Some c -> c
    | None -> default_config ~page_size:(Pager.page_size pager)
  in
  let t = { pager; cfg; root; height = 1; pool = None } in
  set_pool t pool;
  (* recover the height from the leftmost path; through [load] so a
     corrupt page surfaces as typed corruption, not a bare decode error *)
  let rec descend id h =
    match load (Pager.read pager) id with
    | Node.Leaf _ -> h
    | Node.Internal n -> descend n.children.(0) (h + 1)
  in
  t.height <- (match height with Some h -> h | None -> descend root 1);
  t

(* The root page id is the only state outside the pager; persist it in the
   pager's header metadata so a reopened file is self-describing. *)
let meta_tag = "BT1"

let sync t =
  Pager.set_meta t.pager (meta_tag ^ Bu.encode_u32 t.root);
  Pager.sync t.pager

let committed_root pager =
  let m = Pager.meta pager in
  if String.length m <> 7 || not (String.starts_with ~prefix:meta_tag m) then
    raise
      (Storage.Storage_error.Corruption
         {
           page = None;
           component = "btree.meta";
           detail = "Btree.reattach: pager metadata does not name a tree root";
         });
  Bu.decode_u32 m 3

let reattach ?config ?pool pager =
  attach ?config ?pool pager ~root:(committed_root pager)

(* Borrowed reads: the tree never mutates a page it has read (all
   updates re-encode into fresh buffers and go through [write_page]), so
   pool hits, and a snapshot's in-memory images, can be handed out
   without copying. *)
let raw_read t id =
  match t.pool with
  | Some p -> Buffer_pool.read_ro p id
  | None -> Pager.read_ro t.pager id

let cached_read t = Pager.Cache.of_read (raw_read t)

(* Quiet page access for introspection: reads pages without perturbing the
   experiment's counters. *)
let quiet_read t id =
  let s = t.pager |> Pager.stats in
  let before = Storage.Stats.snapshot s in
  let b = Pager.read t.pager id in
  s.reads <- before.reads;
  b

(* --- overflow value chains ------------------------------------------- *)

let chunk_capacity t = page_size t - 6

let write_overflow t data =
  let cap = chunk_capacity t in
  let len = String.length data in
  let nchunks = max 1 ((len + cap - 1) / cap) in
  let next = ref 0xFFFFFFFF in
  (* write chunks back to front so each knows its successor *)
  for i = nchunks - 1 downto 0 do
    let off = i * cap in
    let clen = min cap (len - off) in
    let page = Bytes.make (page_size t) '\000' in
    Bu.put_u32 page 0 !next;
    Bu.put_u16 page 4 clen;
    Bytes.blit_string data off page 6 clen;
    let id = Pager.alloc t.pager in
    write_page t id page;
    next := id
  done;
  !next

let read_overflow read head length =
  let buf = Buffer.create length in
  let rec go id =
    if id <> 0xFFFFFFFF && id >= 0 then begin
      let b = read id in
      let next = Bu.get_u32 b 0 in
      let clen = Bu.get_u16 b 4 in
      Buffer.add_subbytes buf b 6 clen;
      go next
    end
  in
  go head;
  Buffer.contents buf

let free_overflow t head =
  let rec go id =
    if id <> 0xFFFFFFFF && id >= 0 then begin
      let b = quiet_read t id in
      let next = Bu.get_u32 b 0 in
      free_page t id;
      go next
    end
  in
  go head

let make_value t v =
  (* values at or above [overflow_marker] cannot be inlined regardless of
     the configured threshold: the u16 length field would truncate (or
     collide with the marker itself) *)
  if
    String.length v > t.cfg.overflow_threshold
    || String.length v >= Node.overflow_marker
  then Node.Overflow { head = write_overflow t v; length = String.length v }
  else Node.Inline v

(* Entry-size guard: a key must be able to sit alone in a fresh leaf —
   otherwise a split cannot isolate it and the split loop stalls — and
   must stay within the u16 suffix-length field even uncompressed. *)
let check_entry_fits t key value =
  if String.length key > 0xFFFF then
    invalid_arg "Btree: key exceeds 65535 bytes";
  let payload =
    if
      String.length value > t.cfg.overflow_threshold
      || String.length value >= Node.overflow_marker
    then 10
    else 2 + String.length value
  in
  if Node.header_size + 4 + String.length key + payload > page_size t then
    invalid_arg "Btree: key too large for a leaf page"

let resolve_value read = function
  | Node.Inline s -> s
  | Node.Overflow { head; length } -> read_overflow read head length

let free_value t = function
  | Node.Inline _ -> ()
  | Node.Overflow { head; _ } -> free_overflow t head

(* --- array helpers ---------------------------------------------------- *)

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* first index with a.(i) >= key, or length *)
let lower_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare a.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* first index with a.(i) > key, or length *)
let upper_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare a.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* child to descend into for [key] *)
let child_index (n : Node.internal) key = upper_bound n.ikeys key

(* --- capacity --------------------------------------------------------- *)

let nkeys = function
  | Node.Leaf l -> Array.length l.lkeys
  | Node.Internal n -> Array.length n.ikeys

let fits t node =
  Node.size ~front_coding:t.cfg.front_coding node <= page_size t
  && match t.cfg.max_entries with None -> true | Some m -> nkeys node <= m

let min_entries t =
  match t.cfg.max_entries with Some m -> max 1 (m / 2) | None -> 1

let underfull t node =
  let size_low =
    Node.size ~front_coding:t.cfg.front_coding node < page_size t / 3
  in
  match t.cfg.max_entries with
  | Some _ -> nkeys node < min_entries t
  | None -> size_low

(* can give one entry away without itself underflowing *)
let can_spare t node =
  let n = nkeys node in
  n >= 2
  &&
  match t.cfg.max_entries with
  | Some _ -> n - 1 >= min_entries t
  | None ->
      (* approximate: dropping the largest entry keeps us above the floor *)
      Node.size ~front_coding:t.cfg.front_coding node * (n - 1) / n
      >= page_size t / 3

(* --- split ------------------------------------------------------------ *)

(* Entry sizes as serialized in the original node; splitting at [s]
   uncompresses entry [s] (it becomes the first of the right node). *)
let entry_sizes ~front_coding node =
  let sizes keys payload =
    let n = Array.length keys in
    let e = Array.make n 0 in
    let p = Array.make n 0 in
    let prev = ref "" in
    for i = 0 to n - 1 do
      let pl =
        if front_coding then min (Bu.common_prefix_len !prev keys.(i)) 0xFFFF
        else 0
      in
      p.(i) <- pl;
      e.(i) <- 4 + (String.length keys.(i) - pl) + payload i;
      prev := keys.(i)
    done;
    (e, p)
  in
  match node with
  | Node.Leaf { lkeys; lvals; _ } ->
      sizes lkeys (fun i -> Node.inline_size lvals.(i))
  | Node.Internal { ikeys; _ } -> sizes ikeys (fun _ -> 4)

let choose_split t node =
  let fc = t.cfg.front_coding in
  let e, p = entry_sizes ~front_coding:fc node in
  let n = Array.length e in
  assert (n >= 2);
  let total = Array.fold_left ( + ) 0 e in
  let best = ref 1 and best_cost = ref max_int in
  let left = ref e.(0) in
  for s = 1 to n - 1 do
    let l = Node.header_size + !left in
    let r = Node.header_size + (total - !left) + p.(s) in
    let cost = max l r in
    if cost < !best_cost then begin
      best_cost := cost;
      best := s
    end;
    left := !left + e.(s)
  done;
  !best

(* --- insert ------------------------------------------------------------ *)

(* Returns [Some (separator, new_right_page)] when the child split. *)
let rec insert_at t id key value =
  match load (raw_read t) id with
  | Node.Leaf l ->
      let i = lower_bound l.lkeys key in
      let l =
        if i < Array.length l.lkeys && l.lkeys.(i) = key then begin
          free_value t l.lvals.(i);
          let lvals = Array.copy l.lvals in
          lvals.(i) <- value;
          { l with lvals }
        end
        else
          {
            l with
            lkeys = array_insert l.lkeys i key;
            lvals = array_insert l.lvals i value;
          }
      in
      if fits t (Leaf l) then begin
        store t id (Leaf l);
        None
      end
      else begin
        Obs.Metrics.incr m_splits;
        let s = choose_split t (Leaf l) in
        let right_id = Pager.alloc t.pager in
        let left : Node.leaf =
          {
            lkeys = Array.sub l.lkeys 0 s;
            lvals = Array.sub l.lvals 0 s;
            next = right_id;
          }
        in
        let right : Node.leaf =
          {
            lkeys = Array.sub l.lkeys s (Array.length l.lkeys - s);
            lvals = Array.sub l.lvals s (Array.length l.lvals - s);
            next = l.next;
          }
        in
        store t id (Leaf left);
        store t right_id (Leaf right);
        Some (right.lkeys.(0), right_id)
      end
  | Node.Internal n -> (
      let ci = child_index n key in
      match insert_at t n.children.(ci) key value with
      | None -> None
      | Some (sep, new_child) ->
          let n : Node.internal =
            {
              ikeys = array_insert n.ikeys ci sep;
              children = array_insert n.children (ci + 1) new_child;
            }
          in
          if fits t (Internal n) then begin
            store t id (Internal n);
            None
          end
          else begin
            Obs.Metrics.incr m_splits;
            let s = choose_split t (Internal n) in
            let sep_up = n.ikeys.(s) in
            let right_id = Pager.alloc t.pager in
            let left : Node.internal =
              {
                ikeys = Array.sub n.ikeys 0 s;
                children = Array.sub n.children 0 (s + 1);
              }
            in
            let right : Node.internal =
              {
                ikeys = Array.sub n.ikeys (s + 1) (Array.length n.ikeys - s - 1);
                children =
                  Array.sub n.children (s + 1) (Array.length n.children - s - 1);
              }
            in
            store t id (Internal left);
            store t right_id (Internal right);
            Some (sep_up, right_id)
          end)

let insert t ~key ~value =
  check_entry_fits t key value;
  let value = make_value t value in
  match insert_at t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let new_root = Pager.alloc t.pager in
      store t new_root
        (Internal { ikeys = [| sep |]; children = [| t.root; right |] });
      t.root <- new_root;
      t.height <- t.height + 1

(* --- batched insert ------------------------------------------------------ *)

(* Split an over-full leaf into as many fitting leaves as needed; the
   first reuses [id], the rest are fresh pages chained in between.
   Returns the separators/pages to add to the parent. *)
let multiway_split_leaf t id (l : Node.leaf) =
  let n = Array.length l.lkeys in
  let fits_prefix start len =
    let node =
      Node.Leaf
        {
          lkeys = Array.sub l.lkeys start len;
          lvals = Array.sub l.lvals start len;
          next = -1;
        }
    in
    fits t node
  in
  (* greedy partition into maximal fitting runs *)
  let rec partition start acc =
    if start >= n then List.rev acc
    else begin
      let len = ref 1 in
      while start + !len < n && fits_prefix start (!len + 1) do incr len done;
      partition (start + !len) ((start, !len) :: acc)
    end
  in
  let parts = partition 0 [] in
  match parts with
  | [] | [ _ ] ->
      store t id (Node.Leaf l);
      []
  | first :: rest ->
      Obs.Metrics.add m_splits (List.length rest);
      let pages = List.map (fun _ -> Pager.alloc t.pager) rest in
      let page_of = Array.of_list (id :: pages) in
      let parts = Array.of_list (first :: rest) in
      let splits = ref [] in
      for i = Array.length parts - 1 downto 0 do
        let start, len = parts.(i) in
        let next =
          if i = Array.length parts - 1 then l.next else page_of.(i + 1)
        in
        store t page_of.(i)
          (Node.Leaf
             {
               lkeys = Array.sub l.lkeys start len;
               lvals = Array.sub l.lvals start len;
               next;
             });
        if i > 0 then splits := (l.lkeys.(start), page_of.(i)) :: !splits
      done;
      !splits

(* Likewise for an over-full internal node; separators between parts are
   promoted. *)
let multiway_split_internal t id (nd : Node.internal) =
  let nk = Array.length nd.ikeys in
  let fits_slice kstart klen =
    fits t
      (Node.Internal
         {
           ikeys = Array.sub nd.ikeys kstart klen;
           children = Array.sub nd.children kstart (klen + 1);
         })
  in
  (* partition the key range [0, nk) into runs, consuming one promoted
     key between consecutive runs; every promoted key must be followed by
     a non-empty run, so the tail is never dropped *)
  let rec partition kstart acc =
    let remaining = nk - kstart in
    let maxfit = ref 1 in
    while !maxfit < remaining && fits_slice kstart (!maxfit + 1) do
      incr maxfit
    done;
    if !maxfit >= remaining then List.rev ((kstart, remaining) :: acc)
    else begin
      (* keep at least one key for the next run after the promotion *)
      let len = max 1 (min !maxfit (remaining - 2)) in
      partition (kstart + len + 1) ((kstart, len) :: acc)
    end
  in
  let parts = partition 0 [] in
  match parts with
  | [] | [ _ ] ->
      store t id (Node.Internal nd);
      []
  | first :: rest ->
      Obs.Metrics.add m_splits (List.length rest);
      let pages = List.map (fun _ -> Pager.alloc t.pager) rest in
      let page_of = Array.of_list (id :: pages) in
      let parts = Array.of_list (first :: rest) in
      let splits = ref [] in
      for i = Array.length parts - 1 downto 0 do
        let kstart, klen = parts.(i) in
        store t page_of.(i)
          (Node.Internal
             {
               ikeys = Array.sub nd.ikeys kstart klen;
               children = Array.sub nd.children kstart (klen + 1);
             });
        if i > 0 then
          (* the promoted key precedes this part *)
          splits := (nd.ikeys.(kstart - 1), page_of.(i)) :: !splits
      done;
      !splits

let insert_batch t kvs =
  if kvs <> [] then begin
    List.iter (fun (k, v) -> check_entry_fits t k v) kvs;
    (* stable sort; later occurrences of a key win, as with sequential
       insertion *)
    let arr = Array.of_list kvs in
    let tagged = Array.mapi (fun i (k, v) -> (k, i, v)) arr in
    Array.sort compare tagged;
    let deduped = ref [] in
    Array.iteri
      (fun i (k, _, v) ->
        let last =
          i = Array.length tagged - 1
          || (match tagged.(i + 1) with k', _, _ -> k' <> k)
        in
        if last then deduped := (k, v) :: !deduped)
      tagged;
    let entries = List.rev !deduped in
    (* [go id entries] merges the sorted entries into the subtree rooted
       at [id]; returns the (separator, page) splits for the parent *)
    let rec go id entries =
      if entries = [] then []
      else
        match load (raw_read t) id with
        | Node.Leaf l ->
            let merged_k = ref [] and merged_v = ref [] in
            let push k v =
              merged_k := k :: !merged_k;
              merged_v := v :: !merged_v
            in
            let rec merge i entries =
              match entries with
              | [] ->
                  for j = i to Array.length l.lkeys - 1 do
                    push l.lkeys.(j) l.lvals.(j)
                  done
              | (k, v) :: rest ->
                  if i >= Array.length l.lkeys then begin
                    push k (make_value t v);
                    merge i rest
                  end
                  else
                    let c = String.compare l.lkeys.(i) k in
                    if c < 0 then begin
                      push l.lkeys.(i) l.lvals.(i);
                      merge (i + 1) entries
                    end
                    else if c = 0 then begin
                      free_value t l.lvals.(i);
                      push k (make_value t v);
                      merge (i + 1) rest
                    end
                    else begin
                      push k (make_value t v);
                      merge i rest
                    end
            in
            merge 0 entries;
            let l =
              {
                l with
                Node.lkeys = Array.of_list (List.rev !merged_k);
                lvals = Array.of_list (List.rev !merged_v);
              }
            in
            if fits t (Node.Leaf l) then begin
              store t id (Node.Leaf l);
              []
            end
            else multiway_split_leaf t id l
        | Node.Internal nd ->
            (* partition entries over the children and recurse *)
            let nk = Array.length nd.ikeys in
            let splits = ref [] in
            let rec by_child ci entries =
              if entries <> [] then
                if ci >= nk then
                  splits := (ci, go nd.children.(ci) entries) :: !splits
                else begin
                  let sep = nd.ikeys.(ci) in
                  let mine, rest =
                    List.partition (fun (k, _) -> String.compare k sep < 0) entries
                  in
                  if mine <> [] then
                    splits := (ci, go nd.children.(ci) mine) :: !splits;
                  by_child (ci + 1) rest
                end
            in
            by_child 0 entries;
            (* fold the children's splits into this node, rightmost first
               so indices stay valid *)
            let ikeys = ref nd.ikeys and children = ref nd.children in
            List.iter
              (fun (ci, child_splits) ->
                List.iteri
                  (fun j (sep, page) ->
                    ikeys := array_insert !ikeys (ci + j) sep;
                    children := array_insert !children (ci + j + 1) page)
                  child_splits)
              !splits;
            let nd = { Node.ikeys = !ikeys; children = !children } in
            if fits t (Node.Internal nd) then begin
              store t id (Node.Internal nd);
              []
            end
            else multiway_split_internal t id nd
    in
    match go t.root entries with
    | [] -> ()
    | splits ->
        (* the root split (possibly many ways): add levels until a single
           root fits *)
        let rec add_level child0 splits =
          let nd =
            {
              Node.ikeys = Array.of_list (List.map fst splits);
              children = Array.of_list (child0 :: List.map snd splits);
            }
          in
          let id = Pager.alloc t.pager in
          t.root <- id;
          t.height <- t.height + 1;
          if fits t (Node.Internal nd) then store t id (Node.Internal nd)
          else
            let up = multiway_split_internal t id nd in
            if up <> [] then add_level id up
        in
        add_level t.root splits
  end

(* --- delete ------------------------------------------------------------ *)

(* Rebalance child [ci] of internal node [n]; returns the updated parent. *)
let fix_child t (n : Node.internal) ci : Node.internal =
  let merge_into_left li ri sep_idx =
    let left_id = n.children.(li) and right_id = n.children.(ri) in
    let left = load (raw_read t) left_id
    and right = load (raw_read t) right_id in
    let merged =
      match (left, right) with
      | Node.Leaf a, Node.Leaf b ->
          Node.Leaf
            {
              lkeys = Array.append a.lkeys b.lkeys;
              lvals = Array.append a.lvals b.lvals;
              next = b.next;
            }
      | Node.Internal a, Node.Internal b ->
          Node.Internal
            {
              ikeys =
                Array.concat [ a.ikeys; [| n.ikeys.(sep_idx) |]; b.ikeys ];
              children = Array.append a.children b.children;
            }
      | _ ->
          raise
            (Storage.Storage_error.Corruption
               {
                 page = None;
                 component = "btree.node";
                 detail = "Btree: sibling kind mismatch";
               })
    in
    if fits t merged then begin
      store t left_id merged;
      free_page t right_id;
      Some
        {
          Node.ikeys = array_remove n.ikeys sep_idx;
          children = array_remove n.children ri;
        }
    end
    else None
  in
  let borrow_from_right () =
    let left_id = n.children.(ci) and right_id = n.children.(ci + 1) in
    let left = load (raw_read t) left_id
    and right = load (raw_read t) right_id in
    if not (can_spare t right) then None
    else
      let new_sep =
        match (left, right) with
        | Node.Leaf a, Node.Leaf b ->
            let k = b.lkeys.(0) and v = b.lvals.(0) in
            store t left_id
              (Leaf
                 {
                   a with
                   lkeys = Array.append a.lkeys [| k |];
                   lvals = Array.append a.lvals [| v |];
                 });
            store t right_id
              (Leaf
                 {
                   b with
                   lkeys = array_remove b.lkeys 0;
                   lvals = array_remove b.lvals 0;
                 });
            b.lkeys.(1)
        | Node.Internal a, Node.Internal b ->
            store t left_id
              (Internal
                 {
                   ikeys = Array.append a.ikeys [| n.ikeys.(ci) |];
                   children = Array.append a.children [| b.children.(0) |];
                 });
            store t right_id
              (Internal
                 {
                   ikeys = array_remove b.ikeys 0;
                   children = array_remove b.children 0;
                 });
            b.ikeys.(0)
        | _ ->
            raise
              (Storage.Storage_error.Corruption
                 {
                   page = None;
                   component = "btree.node";
                   detail = "Btree: sibling kind mismatch";
                 })
      in
      let ikeys = Array.copy n.ikeys in
      ikeys.(ci) <- new_sep;
      Some { n with ikeys }
  in
  let borrow_from_left () =
    let left_id = n.children.(ci - 1) and right_id = n.children.(ci) in
    let left = load (raw_read t) left_id
    and right = load (raw_read t) right_id in
    if not (can_spare t left) then None
    else
      let new_sep =
        match (left, right) with
        | Node.Leaf a, Node.Leaf b ->
            let last = Array.length a.lkeys - 1 in
            let k = a.lkeys.(last) and v = a.lvals.(last) in
            store t left_id
              (Leaf
                 {
                   a with
                   lkeys = Array.sub a.lkeys 0 last;
                   lvals = Array.sub a.lvals 0 last;
                 });
            store t right_id
              (Leaf
                 {
                   b with
                   lkeys = array_insert b.lkeys 0 k;
                   lvals = array_insert b.lvals 0 v;
                 });
            k
        | Node.Internal a, Node.Internal b ->
            let last = Array.length a.ikeys - 1 in
            let up = a.ikeys.(last) in
            store t left_id
              (Internal
                 {
                   ikeys = Array.sub a.ikeys 0 last;
                   children = Array.sub a.children 0 (last + 1);
                 });
            store t right_id
              (Internal
                 {
                   ikeys = array_insert b.ikeys 0 n.ikeys.(ci - 1);
                   children = array_insert b.children 0 a.children.(last + 1);
                 });
            up
        | _ ->
            raise
              (Storage.Storage_error.Corruption
                 {
                   page = None;
                   component = "btree.node";
                   detail = "Btree: sibling kind mismatch";
                 })
      in
      let ikeys = Array.copy n.ikeys in
      ikeys.(ci - 1) <- new_sep;
      Some { n with ikeys }
  in
  let try_right () =
    if ci + 1 > Array.length n.ikeys then None
    else
      match borrow_from_right () with
      | Some n -> Some n
      | None -> merge_into_left ci (ci + 1) ci
  in
  let try_left () =
    if ci = 0 then None
    else
      match borrow_from_left () with
      | Some n -> Some n
      | None -> merge_into_left (ci - 1) ci (ci - 1)
  in
  match try_right () with
  | Some n -> n
  | None -> ( match try_left () with Some n -> n | None -> n)

let rec delete_at t id key =
  match load (raw_read t) id with
  | Node.Leaf l ->
      let i = lower_bound l.lkeys key in
      if i < Array.length l.lkeys && l.lkeys.(i) = key then begin
        free_value t l.lvals.(i);
        let l =
          {
            l with
            Node.lkeys = array_remove l.lkeys i;
            lvals = array_remove l.lvals i;
          }
        in
        store t id (Leaf l);
        (true, underfull t (Leaf l))
      end
      else (false, false)
  | Node.Internal n ->
      let ci = child_index n key in
      let present, child_underflow = delete_at t n.children.(ci) key in
      if not child_underflow then (present, false)
      else
        let n = fix_child t n ci in
        store t id (Internal n);
        (present, underfull t (Internal n))

let delete t key =
  let present, _ = delete_at t t.root key in
  (* collapse a root that lost all separators *)
  (match load (quiet_read t) t.root with
  | Node.Internal { ikeys = [||]; children } ->
      free_page t t.root;
      t.root <- children.(0);
      t.height <- t.height - 1
  | Node.Internal _ | Node.Leaf _ -> ());
  present

(* --- lookups ------------------------------------------------------------ *)

type entry = { key : string; value : unit -> string }

(* The one read path: descend to the leaf covering [key] by kind byte
   plus compare-in-place child selection on the raw page — no decode, no
   allocation — and hand the leaf page and its id to [at_leaf], so every
   corruption report names its page.  [read = None] reads the tree's own
   page source: a top-level recursion over an option, rather than a
   [raw_read t] closure, keeps a warm-pool point lookup allocation-free. *)
let rec descend t read key at_leaf id =
  Obs.Metrics.incr m_node_visits;
  let b = match read with None -> raw_read t id | Some r -> r id in
  match Node.is_leaf_page b with
  | true -> at_leaf t read key id b
  | false -> (
      match Node.child_in_place b key with
      | c -> descend t read key at_leaf c
      | exception (Invalid_argument d | Failure d) -> corrupt id d)
  | exception (Invalid_argument d | Failure d) -> corrupt id d

let find_at t read key id b =
  match Node.leaf_search b key with
  | r when Node.search_exact r -> (
      match Node.leaf_value b (Node.leaf_payload_off b (Node.search_off r)) with
      | Node.Inline s -> Some s
      | Node.Overflow { head; length } ->
          let read = match read with Some r -> r | None -> raw_read t in
          Some (read_overflow read head length)
      | exception (Invalid_argument d | Failure d) -> corrupt id d)
  | _ -> None
  | exception (Invalid_argument d | Failure d) -> corrupt id d

let mem_at _ _ key id b =
  match Node.leaf_search b key with
  | r -> Node.search_exact r
  | exception (Invalid_argument d | Failure d) -> corrupt id d

let find t ?read key =
  Obs.Metrics.incr m_descents;
  descend t read key find_at t.root

let mem t ?read key =
  Obs.Metrics.incr m_descents;
  descend t read key mem_at t.root

(* --- scanner ------------------------------------------------------------ *)

module Scanner = struct
  type tree = t

  (* The cursor walks the encoded leaf page directly, reconstructing
     only the key under the cursor into the reusable [keybuf] scratch —
     entries a scan skips past are never materialized, and values only
     on [entry.value ()].  Callers that classify keys in place read
     [keybuf] itself ([key_bytes]) and move with [seek_bytes]/[advance],
     which build no entry; [seek]/[next] are those plus [peek].  A probe
     is the first [klen] bytes of a string, so a reused buffer can be
     one.  Pages come from [read] alone.

     A seek forward of the cursor is a finger seek: the scanner holds
     the root-to-leaf path of its current leaf (each internal page, its
     id and the child slot taken) and climbs only as far as it must.
     The path is [valid] only while every page on it was fetched through
     [read] since the last [reset] and it is the path a root descent to
     the current leaf takes, so a finger seek reads exactly the pages
     below the ancestor it climbs to — the ones a root descent would
     read there — and no others.  All mutable state is recycled by
     [reset], so a session can reuse one scanner (and its scratch)
     across queries. *)
  type t = {
    mutable tree : tree;
    mutable read : int -> Bytes.t;
    mutable page : Bytes.t;  (* current leaf page; [Bytes.empty] = unpositioned *)
    mutable pid : int;  (* its page id, for corruption reports *)
    mutable n : int;  (* its entry count *)
    mutable next_leaf : int;
    mutable idx : int;  (* cursor entry index within the leaf *)
    mutable off : int;  (* cursor entry byte offset *)
    mutable keybuf : Bytes.t;  (* cursor key bytes live in [0, keylen) *)
    mutable keylen : int;
    mutable live : bool;  (* the cursor holds an entry *)
    (* the held path: level [l < depth] is the internal page on the
       current leaf's root path at that level, its id, and the
       [Node.child_search] result naming the child taken *)
    mutable path_pages : Bytes.t array;
    mutable path_ids : int array;
    mutable path_slots : int array;
    mutable depth : int;  (* the current leaf's level *)
    mutable valid : bool;
    mutable level : int;  (* level of the page last asked of [read] *)
  }

  let create tree ~read =
    {
      tree;
      read;
      page = Bytes.empty;
      pid = -1;
      n = 0;
      next_leaf = -1;
      idx = 0;
      off = 0;
      keybuf = Bytes.create 64;
      keylen = 0;
      live = false;
      path_pages = [||];
      path_ids = [||];
      path_slots = [||];
      depth = 0;
      valid = false;
      level = 0;
    }

  let level t = t.level

  (* Re-point a scanner at a (possibly different) tree, keeping its key
     scratch allocation.  Any mutation of the tree — or swapping the
     underlying view — invalidates a scanner's position; reset is the
     reuse contract's only entry point.  It drops the held path. *)
  let reset t tree ~read =
    t.tree <- tree;
    t.read <- read;
    t.page <- Bytes.empty;
    t.pid <- -1;
    t.live <- false;
    t.valid <- false;
    Array.fill t.path_pages 0 (Array.length t.path_pages) Bytes.empty

  let reserve t len =
    if Bytes.length t.keybuf < len then begin
      let b = Bytes.create (max len (2 * Bytes.length t.keybuf)) in
      Bytes.blit t.keybuf 0 b 0 t.keylen;
      t.keybuf <- b
    end

  (* Install the entry at [t.off] as the cursor key, taking its stored
     prefix from the key already in the scratch.  Mirrors [Node.decode]'s
     [String.sub prev 0 p]: a stored prefix longer than the previous key
     is the same corruption, reported identically. *)
  let set_cursor_advance t =
    let b = t.page in
    let off = t.off in
    let p = Node.entry_prefix b off in
    let slen = Node.entry_suffix_len b off in
    if p > t.keylen then
      invalid_arg "Node.search: prefix exceeds previous key";
    reserve t (p + slen);
    Bytes.blit b (Node.entry_suffix_off off) t.keybuf p slen;
    t.keylen <- p + slen;
    t.live <- true

  (* Same, but after a seek: the search only ever stops on an entry
     whose stored prefix is also a prefix of the probe key, so the
     probe supplies the prefix bytes. *)
  let set_cursor_from_probe t probe =
    let b = t.page in
    let off = t.off in
    let p = Node.entry_prefix b off in
    let slen = Node.entry_suffix_len b off in
    reserve t (p + slen);
    Bytes.blit_string probe 0 t.keybuf 0 p;
    Bytes.blit b (Node.entry_suffix_off off) t.keybuf p slen;
    t.keylen <- p + slen;
    t.live <- true

  let hold t level id b r =
    let len = Array.length t.path_ids in
    if level >= len then begin
      let len' = max 8 (max (level + 1) (2 * len)) in
      let grow a fill =
        let a' = Array.make len' fill in
        Array.blit a 0 a' 0 len;
        a'
      in
      t.path_pages <- grow t.path_pages Bytes.empty;
      t.path_ids <- grow t.path_ids (-1);
      t.path_slots <- grow t.path_slots 0
    end;
    t.path_pages.(level) <- b;
    t.path_ids.(level) <- id;
    t.path_slots.(level) <- r

  (* A leaf-chain step to page [id] keeps the path valid only when [id]
     is the next child of the current leaf's parent; the held slot then
     moves right by one. *)
  let follows_parent t id =
    t.valid && t.depth > 0
    &&
    let l = t.depth - 1 in
    let b = t.path_pages.(l) in
    match Node.next_child b t.path_slots.(l) with
    | r when r >= 0 && Node.search_child b r = id ->
        t.path_slots.(l) <- r;
        true
    | _ -> false
    | exception (Invalid_argument _ | Failure _) -> false

  (* position at the first entry of the leaf-chain page [id], skipping
     empty leaves *)
  let rec first_entry t id =
    if id < 0 then t.live <- false
    else begin
      let held = follows_parent t id in
      t.valid <- false;
      t.level <- t.depth;
      let b = t.read id in
      t.pid <- id;
      t.page <- b;
      t.keylen <- 0;
      match
        if not (Node.is_leaf_page b) then
          failwith "Btree: leaf chain hit internal node";
        t.n <- Node.entry_count b;
        t.next_leaf <- Node.leaf_next b;
        t.valid <- held;
        if t.n > 0 then begin
          t.idx <- 0;
          t.off <- Node.header_size;
          set_cursor_advance t;
          true
        end
        else false
      with
      | true -> ()
      | false -> first_entry t t.next_leaf
      | exception (Invalid_argument d | Failure d) -> corrupt id d
    end

  (* the end of a descent: put the cursor on the first entry [>= key]
     of leaf page [b] at [level], or of a later leaf *)
  let position t key klen id b level =
    t.pid <- id;
    t.page <- b;
    t.keylen <- 0;
    t.depth <- level;
    try
      let r =
        Node.leaf_search_from b key ~len:klen ~off:Node.header_size ~idx:0
          ~ml:0
      in
      t.n <- Node.entry_count b;
      t.next_leaf <- Node.leaf_next b;
      t.valid <- true;
      let i = Node.search_index r in
      if i < t.n then begin
        t.idx <- i;
        t.off <- Node.search_off r;
        set_cursor_from_probe t key
      end
      else first_entry t t.next_leaf
    with Invalid_argument d | Failure d -> corrupt id d

  (* Descend from page [id] at [level] to the leaf covering [key],
     holding every internal page on the way: [descend]'s compare-in-place
     steps, plus the child slot.  The path is invalid until the leaf is
     reached. *)
  let rec descend_from t key klen id level =
    Obs.Metrics.incr m_node_visits;
    t.valid <- false;
    t.level <- level;
    let b = t.read id in
    match Node.is_leaf_page b with
    | true -> position t key klen id b level
    | false -> (
        match
          let r = Node.child_search b key ~len:klen in
          hold t level id b r;
          Node.search_child b r
        with
        | c -> descend_from t key klen c (level + 1)
        | exception (Invalid_argument d | Failure d) -> corrupt id d)
    | exception (Invalid_argument d | Failure d) -> corrupt id d

  (* Climb the held path from level [l] to the lowest ancestor where
     [key] goes to a child other than the last (or to the root), and
     descend from that child.  [key] is above the cursor key, so it is
     at or above that ancestor's lower bound, and below the separator
     after the chosen child, so below its upper bound: a root descent
     would pass through the same ancestor and choose the same child. *)
  let rec climb t key klen l =
    let b = t.path_pages.(l) in
    match Node.child_search b key ~len:klen with
    | r when l = 0 || Node.search_index r < Node.entry_count b -> (
        t.path_slots.(l) <- r;
        match Node.search_child b r with
        | c -> descend_from t key klen c (l + 1)
        | exception (Invalid_argument d | Failure d) -> corrupt t.path_ids.(l) d)
    | _ -> climb t key klen (l - 1)
    | exception (Invalid_argument d | Failure d) -> corrupt t.path_ids.(l) d

  (* The finger seek; [false] leaves the scanner untouched for a root
     descent.  It serves only a key strictly above the cursor key: one
     on the current leaf is found by searching forward from the cursor
     (no page touched), any other by [climb] — unless the leaf is the
     root, which has nothing to climb to. *)
  let finger t key klen =
    let lim = if t.keylen < klen then t.keylen else klen in
    let ml = Bu.match_len t.keybuf 0 key 0 lim in
    let above =
      if ml < lim then
        Char.code (Bytes.unsafe_get t.keybuf ml)
        < Char.code (String.unsafe_get key ml)
      else t.keylen < klen
    in
    above
    &&
    match
      Node.leaf_search_from t.page key ~len:klen
        ~off:(Node.leaf_entry_end t.page t.off)
        ~idx:(t.idx + 1) ~ml
    with
    | r when Node.search_index r < t.n -> (
        Obs.Metrics.incr m_finger_seeks;
        t.idx <- Node.search_index r;
        t.off <- Node.search_off r;
        try
          set_cursor_from_probe t key;
          true
        with Invalid_argument d | Failure d -> corrupt t.pid d)
    | _ when t.depth = 0 -> false
    | _ ->
        Obs.Metrics.incr m_finger_seeks;
        climb t key klen (t.depth - 1);
        true
    | exception (Invalid_argument d | Failure d) -> corrupt t.pid d

  let peek t =
    if not t.live then None
    else begin
      let read = t.read in
      let page = t.page in
      let pid = t.pid in
      match Node.leaf_payload_off page t.off with
      | vpos ->
          Some
            {
              key = Bytes.sub_string t.keybuf 0 t.keylen;
              value =
                (fun () ->
                  match Node.leaf_value page vpos with
                  | v -> resolve_value read v
                  | exception (Invalid_argument d | Failure d) ->
                      corrupt pid d);
            }
      | exception (Invalid_argument d | Failure d) -> corrupt pid d
    end

  let seek_sub t key klen =
    if not (t.live && t.valid && finger t key klen) then begin
      Obs.Metrics.incr m_descents;
      descend_from t key klen t.tree.root 0
    end;
    t.live

  (* the probe is only read, and only during the call *)
  let seek_bytes t b len = seek_sub t (Bytes.unsafe_to_string b) len

  let advance t =
    if t.live then
      if t.idx + 1 < t.n then (
        try
          t.off <- Node.leaf_entry_end t.page t.off;
          t.idx <- t.idx + 1;
          set_cursor_advance t
        with Invalid_argument d | Failure d -> corrupt t.pid d)
      else first_entry t t.next_leaf;
    t.live

  let key_bytes t = t.keybuf
  let key_length t = t.keylen

  let value t =
    match Node.leaf_value t.page (Node.leaf_payload_off t.page t.off) with
    | v -> resolve_value t.read v
    | exception (Invalid_argument d | Failure d) -> corrupt t.pid d

  let seek t key =
    ignore (seek_sub t key (String.length key));
    peek t

  let next t =
    ignore (advance t);
    peek t
end

let iter t ?read f =
  let read = match read with Some r -> r | None -> raw_read t in
  let sc = Scanner.create t ~read in
  let rec go = function
    | None -> ()
    | Some e ->
        f e;
        go (Scanner.next sc)
  in
  go (Scanner.seek sc "")

let length t =
  let n = ref 0 in
  iter t ~read:(quiet_read t) (fun _ -> incr n);
  !n

let scan_range t ~read ~lo ~hi f =
  let sc = Scanner.create t ~read in
  let rec go = function
    | Some e when String.compare e.key hi < 0 ->
        f e;
        go (Scanner.next sc)
    | Some _ | None -> ()
  in
  go (Scanner.seek sc lo)

(* --- introspection ------------------------------------------------------- *)

type invariant_report = {
  height : int;
  nodes : int;
  leaves : int;
  entries : int;
  min_fill : float;
  avg_fill : float;
}

let pp_invariant_report ppf r =
  Format.fprintf ppf
    "height=%d nodes=%d leaves=%d entries=%d min_fill=%.2f avg_fill=%.2f"
    r.height r.nodes r.leaves r.entries r.min_fill r.avg_fill

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let leaves_in_order = ref [] in
  let nodes = ref 0 and leaves = ref 0 and entries = ref 0 in
  let min_fill = ref 1.0 and fill_sum = ref 0.0 in
  (* fill factor: fraction of the page used, or of the entry cap when the
     tree models the paper's fixed-arity nodes *)
  let account id node nkeys =
    incr nodes;
    let fill =
      match t.cfg.max_entries with
      | Some m -> float_of_int nkeys /. float_of_int m
      | None ->
          float_of_int (Node.size ~front_coding:t.cfg.front_coding node)
          /. float_of_int (page_size t)
    in
    fill_sum := !fill_sum +. fill;
    if id <> t.root && fill < !min_fill then min_fill := fill
  in
  let rec walk id depth lo hi =
    match load (quiet_read t) id with
    | Node.Leaf l ->
        if depth <> t.height then
          fail "leaf %d at depth %d, expected height %d" id depth t.height;
        let node = Node.Leaf l in
        account id node (Array.length l.lkeys);
        incr leaves;
        entries := !entries + Array.length l.lkeys;
        if id <> t.root && Array.length l.lkeys = 0 then
          fail "non-root leaf %d is empty" id;
        if Node.size ~front_coding:t.cfg.front_coding node > page_size t then
          fail "leaf %d exceeds page size" id;
        (match t.cfg.max_entries with
        | Some m when Array.length l.lkeys > m ->
            fail "leaf %d has %d entries > max %d" id (Array.length l.lkeys) m
        | Some _ | None -> ());
        Array.iteri
          (fun i k ->
            if i > 0 && String.compare l.lkeys.(i - 1) k >= 0 then
              fail "leaf %d keys not strictly sorted at %d" id i;
            (match lo with
            | Some b when String.compare k b < 0 ->
                fail "leaf %d key below separator" id
            | Some _ | None -> ());
            match hi with
            | Some b when String.compare k b >= 0 ->
                fail "leaf %d key above separator" id
            | Some _ | None -> ())
          l.lkeys;
        leaves_in_order := (id, l.next) :: !leaves_in_order
    | Node.Internal n ->
        let node = Node.Internal n in
        account id node (Array.length n.ikeys);
        if Node.size ~front_coding:t.cfg.front_coding node > page_size t then
          fail "internal %d exceeds page size" id;
        if Array.length n.children <> Array.length n.ikeys + 1 then
          fail "internal %d arity mismatch" id;
        Array.iteri
          (fun i k ->
            if i > 0 && String.compare n.ikeys.(i - 1) k >= 0 then
              fail "internal %d separators not sorted" id)
          n.ikeys;
        let nk = Array.length n.ikeys in
        for i = 0 to nk do
          let clo = if i = 0 then lo else Some n.ikeys.(i - 1) in
          let chi = if i = nk then hi else Some n.ikeys.(i) in
          walk n.children.(i) (depth + 1) clo chi
        done
  in
  walk t.root 1 None None;
  (* the leaf chain must link the leaves exactly in key order *)
  let leaves_chain = List.rev !leaves_in_order in
  let rec check_chain = function
    | (_, next) :: ((id', _) :: _ as rest) ->
        if next <> id' then fail "leaf chain broken: %d -> %d" next id';
        check_chain rest
    | [ (_, next) ] -> if next <> -1 then fail "last leaf has next=%d" next
    | [] -> ()
  in
  check_chain leaves_chain;
  {
    height = t.height;
    nodes = !nodes;
    leaves = !leaves;
    entries = !entries;
    min_fill = (if !nodes <= 1 then 1.0 else !min_fill);
    avg_fill = (if !nodes = 0 then 0. else !fill_sum /. float_of_int !nodes);
  }

let check t = ignore (check_invariants t)

let fold_nodes t f init =
  let acc = ref init in
  let rec walk id =
    let node = load (quiet_read t) id in
    acc := f !acc node;
    match node with
    | Node.Leaf _ -> ()
    | Node.Internal n -> Array.iter walk n.children
  in
  walk t.root;
  !acc

let leaf_count t =
  fold_nodes t
    (fun acc -> function Node.Leaf _ -> acc + 1 | Node.Internal _ -> acc)
    0

let node_count t = fold_nodes t (fun acc _ -> acc + 1) 0

type compression_stats = {
  entries : int;
  raw_key_bytes : int;
  stored_key_bytes : int;
  avg_prefix_len : float;
}

let compression_stats t =
  let entries = ref 0 and raw = ref 0 and stored = ref 0 in
  let account keys =
    let prev = ref "" in
    Array.iter
      (fun k ->
        let p =
          if t.cfg.front_coding then Bu.common_prefix_len !prev k else 0
        in
        incr entries;
        raw := !raw + String.length k;
        stored := !stored + String.length k - p;
        prev := k)
      keys
  in
  let rec walk id =
    match load (quiet_read t) id with
    | Node.Leaf l -> account l.lkeys
    | Node.Internal n ->
        account n.ikeys;
        Array.iter walk n.children
  in
  walk t.root;
  {
    entries = !entries;
    raw_key_bytes = !raw;
    stored_key_bytes = !stored;
    avg_prefix_len =
      (if !entries = 0 then 0.
       else float_of_int (!raw - !stored) /. float_of_int !entries);
  }

let pp_stats ppf t =
  Format.fprintf ppf "height=%d nodes=%d leaves=%d entries=%d pages=%d"
    (height t) (node_count t) (leaf_count t) (length t)
    (Pager.page_count t.pager)

(* --- sorted bulk load ---------------------------------------------------- *)

let is_empty (t : t) =
  t.height = 1
  &&
  match load (quiet_read t) t.root with
  | Node.Leaf l -> Array.length l.lkeys = 0
  | Node.Internal _ -> false

(* Build the tree bottom-up from a sorted entry stream: pack leaves left
   to right up to [fill] of the page budget, collect each one's first
   key, then synthesize every internal level the same way from the
   (first key, page id) list of the level below.  Every page is written
   exactly once; the entry-at-a-time path would instead split its way
   through O(n) node rewrites and leave pages half full. *)
let bulk_load ?(fill = 0.9) t entries =
  if fill <= 0. || fill > 1. then
    invalid_arg "Btree.bulk_load: fill factor must be in (0, 1]";
  if not (is_empty t) then invalid_arg "Btree.bulk_load: tree is not empty";
  let fc = t.cfg.front_coding in
  let budget =
    max (Node.header_size + 1) (int_of_float (fill *. float_of_int (page_size t)))
  in
  let cap =
    match t.cfg.max_entries with
    | None -> max_int
    | Some m -> max 1 (int_of_float (ceil (fill *. float_of_int m)))
  in
  let pfx prev k = if fc then min (Bu.common_prefix_len prev k) 0xFFFF else 0 in
  (* leaf level; the first leaf reuses the root page, so an empty or
     single-leaf load leaves the tree metadata untouched *)
  let leaves = ref [] in
  let cur = ref t.root in
  let keys = ref [] and vals = ref [] and n = ref 0 in
  let size = ref Node.header_size and prev = ref "" and first = ref "" in
  let flush_leaf ~next =
    store t !cur
      (Node.Leaf
         {
           lkeys = Array.of_list (List.rev !keys);
           lvals = Array.of_list (List.rev !vals);
           next;
         });
    leaves := (!first, !cur) :: !leaves
  in
  let add k value =
    if
      String.length k > 0xFFFF
      || Node.header_size + 4 + String.length k + Node.inline_size value
         > page_size t
    then invalid_arg "Btree.bulk_load: key too large for a leaf page";
    let esz = 4 + (String.length k - pfx !prev k) + Node.inline_size value in
    if !n > 0 && (!size + esz > budget || !n >= cap) then begin
      (* the next leaf's id is needed now for the chain link, so every
         leaf is still written exactly once *)
      let next = Pager.alloc t.pager in
      flush_leaf ~next;
      cur := next;
      keys := [];
      vals := [];
      n := 0;
      size := Node.header_size;
      prev := ""
    end;
    if !n = 0 then first := k;
    size := !size + 4 + (String.length k - pfx !prev k) + Node.inline_size value;
    keys := k :: !keys;
    vals := value :: !vals;
    incr n;
    prev := k
  in
  (* dedup adjacent equal keys (later wins, as sequential insertion
     would) before materializing values, so a replaced overflow value is
     never even written *)
  let pending = ref None in
  Seq.iter
    (fun (k, v) ->
      match !pending with
      | None -> pending := Some (k, v)
      | Some (pk, _) when String.compare pk k > 0 ->
          invalid_arg "Btree.bulk_load: entries not sorted"
      | Some (pk, _) when String.equal pk k -> pending := Some (k, v)
      | Some (pk, pv) ->
          add pk (make_value t pv);
          pending := Some (k, v))
    entries;
  (match !pending with None -> () | Some (k, v) -> add k (make_value t v));
  if !n > 0 then begin
    flush_leaf ~next:(-1);
    (* internal levels, bottom-up.  Greedy packing, with two escape
       hatches at the boundaries: a group only closes once it has two
       children, and a final straggler steals its left neighbour from
       the previous group rather than becoming a one-child node. *)
    let pack_level children =
      let m = List.length children in
      let out = ref [] in
      let gkeys = ref [] and gkids = ref [] and gn = ref 0 in
      let gsize = ref Node.header_size and gprev = ref "" and gfirst = ref "" in
      let close () =
        let id = Pager.alloc t.pager in
        store t id
          (Node.Internal
             {
               ikeys = Array.of_list (List.rev !gkeys);
               children = Array.of_list (List.rev !gkids);
             });
        out := (!gfirst, id) :: !out
      in
      let start fk cid =
        gkeys := [];
        gkids := [ cid ];
        gn := 1;
        gsize := Node.header_size;
        gprev := "";
        gfirst := fk
      in
      let append fk cid =
        gsize := !gsize + 4 + (String.length fk - pfx !gprev fk) + 4;
        gkeys := fk :: !gkeys;
        gkids := cid :: !gkids;
        incr gn;
        gprev := fk
      in
      List.iteri
        (fun i (fk, cid) ->
          if i = 0 then start fk cid
          else begin
            let cost = 4 + (String.length fk - pfx !gprev fk) + 4 in
            let full = !gsize + cost > budget || !gn > cap in
            let last = i = m - 1 in
            if full && !gn >= 2 && not last then begin
              close ();
              start fk cid
            end
            else if full && !gn >= 3 && last then begin
              let pk = List.hd !gkeys and pc = List.hd !gkids in
              gkeys := List.tl !gkeys;
              gkids := List.tl !gkids;
              decr gn;
              close ();
              start pk pc;
              append fk cid
            end
            else append fk cid
          end)
        children;
      close ();
      List.rev !out
    in
    let rec build level h =
      match level with
      | [ (_, id) ] ->
          t.root <- id;
          t.height <- h
      | children -> build (pack_level children) (h + 1)
    in
    build (List.rev !leaves) 1
  end
