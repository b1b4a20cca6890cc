(* The compare-in-place read path (DESIGN.md §13) against a decoding
   oracle:

   - node-level property tests proving [Node.leaf_search] and
     [Node.child_in_place] agree with plain binary-search semantics over
     the decoded node, across adversarial key shapes (dup-heavy shared
     prefixes, prefix-of-each-other chains, long keys, front coding on
     and off);
   - a tree-level differential test proving [find], [mem] and the
     scanner return byte-identical answers to an in-test reader built on
     [Node.decode] that always descends from the root, AND fetch the
     same distinct pages under a per-run [Pager.Cache] (no more pages
     with no cache), plus absolute descent accounting;
   - a property test over random trees: a scanner that finger-seeks
     answers and reads like a fresh scanner per seek;
   - an allocation assertion: a warm-pool point lookup allocates
     (almost) nothing on the minor heap;
   - scanner-reuse regressions. *)

module Bu = Storage.Bytes_util

let mk ?(page_size = 256) ?max_entries ?(front_coding = true) () =
  let pager = Storage.Pager.create ~page_size () in
  let config =
    { (Btree.default_config ~page_size) with max_entries; front_coding }
  in
  Btree.create ~config pager

(* --- node-level: in-place search vs decoded reference --------------------- *)

(* independent re-statement of the search semantics, over decoded keys *)
let ref_lower_bound (keys : string array) probe =
  let n = Array.length keys in
  let i = ref 0 in
  while !i < n && String.compare keys.(!i) probe < 0 do
    incr i
  done;
  (!i, !i < n && keys.(!i) = probe)

(* child [i] holds keys [k] with [ikeys.(i-1) <= k < ikeys.(i)]: an equal
   separator sends the descent right *)
let ref_child (n : Btree.Node.internal) probe =
  let m = Array.length n.ikeys in
  let i = ref 0 in
  while !i < m && String.compare n.ikeys.(!i) probe <= 0 do
    incr i
  done;
  n.children.(!i)

(* adversarial key shapes: tiny alphabet (heavy shared prefixes), runs
   padded to hundreds of bytes (long keys, large suffix_len), and mixed
   printable tails *)
let key_gen =
  let open QCheck.Gen in
  let small_char = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 2) in
  frequency
    [
      (5, string_size ~gen:small_char (int_range 1 8));
      ( 2,
        map2
          (fun a b -> a ^ b)
          (string_size ~gen:small_char (int_range 1 5))
          (string_size ~gen:printable (int_range 0 6)) );
      ( 1,
        map2
          (fun s n -> s ^ String.make n 'q')
          (string_size ~gen:small_char (int_range 1 4))
          (int_range 1 300) );
    ]

(* sorted unique keys, with the first key's whole prefix chain mixed in so
   front coding produces maximal-prefix entries *)
let keys_gen =
  let open QCheck.Gen in
  map
    (fun ks ->
      let ks = match ks with [] -> [ "k" ] | ks -> ks in
      let chain =
        match ks with
        | k :: _ -> List.init (String.length k) (fun i -> String.sub k 0 (i + 1))
        | [] -> []
      in
      Array.of_list (List.sort_uniq compare (chain @ ks)))
    (list_size (int_range 1 40) key_gen)

(* probes that land on, just before, just after, and inside every key *)
let probes_of keys =
  let mutate_last k delta =
    let n = String.length k in
    if n = 0 then k
    else
      String.mapi
        (fun i c -> if i = n - 1 then Char.chr ((Char.code c + delta) land 0xFF) else c)
        k
  in
  let per k =
    [
      k;
      k ^ "\x00";
      k ^ "zz";
      (if String.length k > 1 then String.sub k 0 (String.length k - 1) else "");
      mutate_last k 1;
      mutate_last k (-1);
    ]
  in
  "" :: String.make 310 'z' :: List.concat_map per (Array.to_list keys)

let leaf_of keys =
  let vals =
    Array.mapi
      (fun i k ->
        if i mod 7 = 3 then
          Btree.Node.Overflow { head = i + 2; length = 100_000 + i }
        else Btree.Node.Inline (Printf.sprintf "v%d:%s" i k))
      keys
  in
  Btree.Node.Leaf { lkeys = keys; lvals = vals; next = 42 }

let prop_leaf_search_matches_decode =
  QCheck.Test.make ~count:1000 ~name:"leaf_search = lower bound over decode"
    QCheck.(make (Gen.pair keys_gen Gen.bool))
    (fun (keys, front_coding) ->
      let node = leaf_of keys in
      let page_size = max 64 (Btree.Node.size ~front_coding node) in
      let b = Btree.Node.encode ~front_coding ~page_size node in
      let lvals =
        match node with Btree.Node.Leaf l -> l.lvals | _ -> assert false
      in
      List.for_all
        (fun probe ->
          let r = Btree.Node.leaf_search b probe in
          let i = Btree.Node.search_index r
          and exact = Btree.Node.search_exact r in
          let want_i, want_exact = ref_lower_bound keys probe in
          if i <> want_i || exact <> want_exact then
            QCheck.Test.fail_reportf
              "probe %S over %d keys (fc=%b): got (%d,%b), want (%d,%b)" probe
              (Array.length keys) front_coding i exact want_i want_exact;
          (* the packed offset must point at the entry's payload *)
          (if exact then
             let v =
               Btree.Node.leaf_value b
                 (Btree.Node.leaf_payload_off b (Btree.Node.search_off r))
             in
             if v <> lvals.(i) then
               QCheck.Test.fail_reportf "probe %S: payload at offset diverged"
                 probe);
          true)
        (probes_of keys))

let prop_child_matches_decode =
  QCheck.Test.make ~count:1000 ~name:"child_in_place = child index over decode"
    QCheck.(make (Gen.pair keys_gen Gen.bool))
    (fun (keys, front_coding) ->
      let children = Array.init (Array.length keys + 1) (fun i -> 100 + i) in
      let node = Btree.Node.Internal { ikeys = keys; children } in
      let page_size = max 64 (Btree.Node.size ~front_coding node) in
      let b = Btree.Node.encode ~front_coding ~page_size node in
      let dec =
        match Btree.Node.decode b with
        | Btree.Node.Internal n -> n
        | Btree.Node.Leaf _ -> assert false
      in
      List.for_all
        (fun probe ->
          let got = Btree.Node.child_in_place b probe in
          let want = ref_child dec probe in
          if got <> want then
            QCheck.Test.fail_reportf
              "probe %S over %d separators (fc=%b): child %d, want %d" probe
              (Array.length keys) front_coding got want;
          true)
        (probes_of keys))

(* --- the decode oracle ------------------------------------------------------ *)

(* The decode-every-node reader, kept only as a test oracle: it parses
   each page it touches with [Node.decode] and searches the decoded keys
   with [ref_lower_bound] / [ref_child].  It fetches the same pages in
   the same order as the compare-in-place path, so on an uncached tree
   both answers and page reads must agree exactly. *)
module Oracle = struct
  let rec leaf read id key =
    match Btree.Node.decode (read id) with
    | Btree.Node.Leaf l -> l
    | Btree.Node.Internal n -> leaf read (ref_child n key) key

  (* overflow chain: u32 next page, u16 chunk length, chunk bytes *)
  let value read = function
    | Btree.Node.Inline s -> s
    | Btree.Node.Overflow { head; length } ->
        let buf = Buffer.create length in
        let rec go id =
          if id <> 0xFFFFFFFF then begin
            let b = read id in
            Buffer.add_subbytes buf b 6 (Bu.get_u16 b 4);
            go (Bu.get_u32 b 0)
          end
        in
        go head;
        Buffer.contents buf

  let find t read key =
    let l = leaf read (Btree.root t) key in
    match ref_lower_bound l.lkeys key with
    | i, true -> Some (value read l.lvals.(i))
    | _, false -> None

  let mem t read key =
    snd (ref_lower_bound (leaf read (Btree.root t) key).lkeys key)

  (* a cursor: the decoded leaf under it and an entry index *)
  type cursor = {
    read : int -> Bytes.t;
    mutable cur : Btree.Node.leaf option;
    mutable idx : int;
  }

  let cursor read = { read; cur = None; idx = 0 }

  (* skip exhausted and empty leaves along the chain *)
  let rec settle c =
    match c.cur with
    | Some l when c.idx >= Array.length l.lkeys ->
        c.cur <-
          (if l.next < 0 then None
           else
             match Btree.Node.decode (c.read l.next) with
             | Btree.Node.Leaf l' -> Some l'
             | Btree.Node.Internal _ -> failwith "leaf chain hit internal");
        c.idx <- 0;
        settle c
    | Some _ | None -> ()

  let peek c =
    Option.map
      (fun (l : Btree.Node.leaf) ->
        (l.lkeys.(c.idx), value c.read l.lvals.(c.idx)))
      c.cur

  let seek t c key =
    let l = leaf c.read (Btree.root t) key in
    c.cur <- Some l;
    c.idx <- fst (ref_lower_bound l.lkeys key);
    settle c;
    peek c

  let next c =
    if Option.is_some c.cur then begin
      c.idx <- c.idx + 1;
      settle c
    end;
    peek c
end

(* --- tree-level differential: answers and page reads ---------------------- *)

(* keys with shared prefixes, a few hundred entries over many small pages,
   a couple of overflow values *)
let build_tree () =
  let t = mk ~page_size:256 ~max_entries:4 () in
  for i = 0 to 399 do
    let key = Printf.sprintf "grp%d/item%04d" (i mod 5) i in
    let value =
      if i mod 97 = 0 then String.make 3000 (Char.chr (65 + (i mod 26)))
      else Printf.sprintf "value-%d" i
    in
    Btree.insert t ~key ~value
  done;
  t

let tree_probes =
  List.init 450 (fun i -> Printf.sprintf "grp%d/item%04d" (i mod 7) i)

(* one reader under test: point lookups plus a positioned cursor whose
   entries come back with their values resolved *)
type reader = {
  find : string -> string option;
  mem : string -> bool;
  seek : string -> (string * string) option;
  next : unit -> (string * string) option;
}

let kv = Option.map (fun (e : Btree.entry) -> (e.key, e.value ()))

(* the compare-in-place path: one scanner for the whole run, so every
   seek forward of its cursor is a finger seek *)
let in_place t read =
  let sc = Btree.Scanner.create t ~read in
  {
    find = (fun k -> Btree.find t ~read k);
    mem = (fun k -> Btree.mem t ~read k);
    seek = (fun k -> kv (Btree.Scanner.seek sc k));
    next = (fun () -> kv (Btree.Scanner.next sc));
  }

let oracle t read =
  let c = Oracle.cursor read in
  {
    find = Oracle.find t read;
    mem = Oracle.mem t read;
    seek = Oracle.seek t c;
    next = (fun () -> Oracle.next c);
  }

(* A page source for one run: the tree's own reads, recording every page
   fetched, optionally under one per-run [Pager.Cache].  Returns the
   reader and the sorted set of distinct pages fetched so far. *)
let source t ~cached =
  let pages = Hashtbl.create 64 in
  let raw id =
    Hashtbl.replace pages id ();
    Btree.raw_read t id
  in
  let read =
    if cached then Storage.Pager.Cache.read (Storage.Pager.Cache.of_read raw)
    else raw
  in
  (read, fun () -> List.sort compare (Hashtbl.fold (fun id () l -> id :: l) pages []))

type answers = {
  finds : string option list;
  mems : bool list;
  scanned : (string * string) list;
  lookup_reads : int;  (* pager reads issued by the finds and mems *)
  reads : int;  (* pager reads of the whole run *)
  seeks : int;
}

(* every probe through find and mem, short seek+next bursts, then one
   full sweep of the leaf chain *)
let run t r =
  let stats = Storage.Pager.stats (Btree.pager t) in
  Storage.Stats.reset stats;
  let finds = List.map r.find tree_probes in
  let mems = List.map r.mem tree_probes in
  let lookup_reads = stats.Storage.Stats.reads in
  let seeks = ref 0 in
  let scanned = ref [] in
  let note = Option.iter (fun kv -> scanned := kv :: !scanned) in
  let seek k =
    incr seeks;
    note (r.seek k)
  in
  List.iteri
    (fun i k ->
      if i mod 3 = 0 then begin
        seek k;
        for _ = 1 to 6 do
          note (r.next ())
        done
      end)
    tree_probes;
  seek "";
  let rec sweep () =
    match r.next () with
    | Some kv ->
        scanned := kv :: !scanned;
        sweep ()
    | None -> ()
  in
  sweep ();
  {
    finds;
    mems;
    scanned = List.rev !scanned;
    lookup_reads;
    reads = stats.Storage.Stats.reads;
    seeks = !seeks;
  }

let check_answers (o : answers) (f : answers) =
  Alcotest.(check (list (option string))) "find answers" o.finds f.finds;
  Alcotest.(check (list bool)) "mem answers" o.mems f.mems;
  Alcotest.(check (list (pair string string))) "scanned entries" o.scanned
    f.scanned

(* Under one per-run [Pager.Cache] each — Algorithm 1's page source —
   the finger-seeking scanner fetches exactly the distinct pages of the
   oracle, which always descends from the root. *)
let test_differential_cached () =
  let t = build_tree () in
  let read, pages = source t ~cached:true in
  let f = run t (in_place t read) in
  let o_read, o_pages = source t ~cached:true in
  let o = run t (oracle t o_read) in
  check_answers o f;
  Alcotest.(check (list int)) "distinct pages identical" (o_pages ()) (pages ());
  Alcotest.(check int) "page reads identical" o.reads f.reads

(* With no cache anywhere, find and mem fetch exactly the oracle's pages,
   and a finger seek never fetches more than a root descent. *)
let test_differential_uncached () =
  let t = build_tree () in
  let f = run t (in_place t (Btree.raw_read t)) in
  let o = run t (oracle t (Btree.raw_read t)) in
  check_answers o f;
  Alcotest.(check int) "find/mem page reads identical" o.lookup_reads
    f.lookup_reads;
  if f.lookup_reads = 0 then Alcotest.fail "differential run issued no reads";
  if f.reads >= o.reads then
    Alcotest.failf "finger seeks read %d pages, root descents %d" f.reads
      o.reads

let counter name =
  Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)

(* The descent metrics in absolute terms.  Every find, mem and seek is
   either a root descent or a finger seek; a root descent visits one node
   per level, a finger seek only the nodes it reads below the ancestor it
   climbs to. *)
let test_differential_metrics () =
  let t = build_tree () in
  let d0 = counter "btree.descents" and f0 = counter "btree.finger_seeks" in
  let r = run t (in_place t (Btree.raw_read t)) in
  let descents = counter "btree.descents" - d0 in
  let fingers = counter "btree.finger_seeks" - f0 in
  Alcotest.(check int) "descents + finger seeks = finds + mems + seeks"
    ((2 * List.length tree_probes) + r.seeks)
    (descents + fingers);
  if fingers = 0 then Alcotest.fail "no seek was served from the held path";
  (* node visits: seeks to present keys, forward with a few steps back,
     never step along the leaf chain and read no value, so every page
     read is a node visit of a root descent or of a finger seek *)
  let keys = ref [] in
  Btree.iter t (fun e -> keys := e.key :: !keys);
  let keys = Array.of_list (List.rev !keys) in
  let reads = ref 0 in
  let read id =
    incr reads;
    Btree.raw_read t id
  in
  let sc = Btree.Scanner.create t ~read in
  let d0 = counter "btree.descents" and v0 = counter "btree.node_visits" in
  let finger_reads = ref 0 in
  Array.iteri
    (fun i _ ->
      let k = keys.((i * 7) mod Array.length keys) in
      let f0 = counter "btree.finger_seeks" and r0 = !reads in
      ignore (Btree.Scanner.seek sc k);
      if counter "btree.finger_seeks" > f0 then
        finger_reads := !finger_reads + (!reads - r0))
    keys;
  let descents = counter "btree.descents" - d0 in
  let visits = counter "btree.node_visits" - v0 in
  Alcotest.(check int) "node visits = pages read" !reads visits;
  Alcotest.(check int) "node visits = descents * height + finger reads"
    ((descents * Btree.height t) + !finger_reads)
    visits

(* --- finger seeks: property over random trees ------------------------------ *)

(* A seek target, resolved against the cursor when the script runs:
   [Fwd (j, tweak)] is the key [j] entries past the cursor, itself or a
   neighbour of it; [Same] re-seeks the cursor key; [Back j] goes [j]
   entries back; [Past] is beyond every key. *)
type target = Fwd of int * int | Same | Back of int | Past | First
type op = Seek of target | Next

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun j tw -> Seek (Fwd (j, tw))) (int_range 1 4) (int_bound 3));
      (2, map2 (fun j tw -> Seek (Fwd (j, tw))) (int_range 5 200) (int_bound 3));
      (1, return (Seek Same));
      (1, map (fun j -> Seek (Back j)) (int_range 1 40));
      (1, return (Seek Past));
      (1, return (Seek First));
      (5, return Next);
    ]

type tree_spec = {
  fc : bool;
  max_entries : int;
  height : int;  (* insert until the tree is this tall (or 3,000 keys) *)
  deletes : int;  (* percentage of keys deleted afterwards *)
  seed : int;
  ops : op list;
}

let spec_gen =
  let open QCheck.Gen in
  map
    (fun ((fc, max_entries, height), (deletes, seed, ops)) ->
      { fc; max_entries; height; deletes; seed; ops })
    (pair
       (triple bool (int_range 3 10) (int_range 1 5))
       (triple
          (frequency [ (2, return 0); (1, int_range 10 70) ])
          int
          (list_size (int_range 1 120) op_gen)))

let print_spec s =
  Printf.sprintf "fc=%b max_entries=%d height=%d deletes=%d%% seed=%d ops=%d"
    s.fc s.max_entries s.height s.deletes s.seed (List.length s.ops)

(* keys with heavy shared prefixes, prefix chains and a few long ones;
   every 20th value spills to an overflow page.  At 4 KiB pages no node
   reaches the byte limit, so [max_entries] alone shapes the tree.  The
   trees are not run through [Btree.check]: after deletes among long
   prefix-chain keys the delete path can leave an empty non-root leaf
   (a known rebalancing defect, listed in ROADMAP.md), and a finger seek
   must agree with a root descent on such a tree too. *)
let build_random_tree s =
  let rs = Random.State.make [| s.seed |] in
  let t = mk ~page_size:4096 ~max_entries:s.max_entries ~front_coding:s.fc () in
  let key () =
    let small n = String.init n (fun _ -> Char.chr (97 + Random.State.int rs 3)) in
    match Random.State.int rs 8 with
    | 0 -> small (1 + Random.State.int rs 3) ^ String.make (1 + Random.State.int rs 200) 'q'
    | 1 -> small (1 + Random.State.int rs 4) ^ string_of_int (Random.State.int rs 1000)
    | _ -> small (1 + Random.State.int rs 10)
  in
  let inserted = ref [] in
  let n = ref 0 in
  while Btree.height t < s.height && !n < 3000 do
    let k = key () in
    let v =
      if !n mod 20 = 19 then String.make 1500 'o' else Printf.sprintf "v%d" !n
    in
    Btree.insert t ~key:k ~value:v;
    inserted := k :: !inserted;
    incr n
  done;
  List.iter
    (fun k -> if Random.State.int rs 100 < s.deletes then ignore (Btree.delete t k))
    !inserted;
  t

(* Run the script twice over the tree: with one scanner (finger seeks)
   and with a fresh scanner per seek (always a root descent), each over
   its own per-run [Pager.Cache].  The answers and the distinct pages
   fetched must agree. *)
let prop_finger_seeks =
  QCheck.Test.make ~count:200 ~name:"finger seek = fresh scanner per seek"
    (QCheck.make ~print:print_spec spec_gen)
    (fun s ->
      let t = build_random_tree s in
      let keys = ref [] in
      Btree.iter t (fun e -> keys := e.key :: !keys);
      let keys = Array.of_list (List.rev !keys) in
      let nkeys = Array.length keys in
      (* index of the first key >= k *)
      let rank k =
        let i = ref 0 in
        while !i < nkeys && String.compare keys.(!i) k < 0 do incr i done;
        !i
      in
      let resolve cur = function
        | Fwd (j, tweak) -> (
            let i = match cur with Some k -> rank k + j | None -> nkeys in
            if i >= nkeys then "\xff\xff"
            else
              let k = keys.(i) in
              match tweak with
              | 0 -> k
              | 1 -> k ^ "\x00"
              | 2 -> String.sub k 0 (String.length k - 1)
              | _ -> k ^ "zz")
        | Same -> ( match cur with Some k -> k | None -> "")
        | Back j -> (
            match cur with
            | Some k -> keys.(max 0 (rank k - j))
            | None -> if nkeys = 0 then "" else keys.(max 0 (nkeys - j)))
        | Past -> "\xff\xff"
        | First -> ""
      in
      let play ~fresh =
        let read, pages = source t ~cached:true in
        let sc = ref (Btree.Scanner.create t ~read) in
        let cur = ref None in
        let out =
          List.map
            (fun op ->
              let r =
                match op with
                | Next -> Btree.Scanner.next !sc
                | Seek tg ->
                    let k = resolve !cur tg in
                    if fresh then sc := Btree.Scanner.create t ~read;
                    Btree.Scanner.seek !sc k
              in
              cur := Option.map (fun (e : Btree.entry) -> e.key) r;
              kv r)
            s.ops
        in
        (out, pages ())
      in
      let f_out, f_pages = play ~fresh:false in
      let o_out, o_pages = play ~fresh:true in
      if f_out <> o_out then
        QCheck.Test.fail_reportf "answers differ (height %d, %d keys)"
          (Btree.height t) nkeys;
      if f_pages <> o_pages then
        QCheck.Test.fail_reportf "distinct pages differ: %d vs %d"
          (List.length f_pages) (List.length o_pages);
      true)

(* --- allocation: warm-pool point lookups -------------------------------- *)

let test_warm_lookup_alloc () =
  let page_size = 1024 in
  let pager = Storage.Pager.create ~page_size () in
  let pool = Storage.Buffer_pool.create ~capacity:512 pager in
  let config = { (Btree.default_config ~page_size) with max_entries = Some 16 } in
  let t = Btree.create ~config ~pool pager in
  let n = 2000 in
  let keys = Array.init n (fun i -> Printf.sprintf "warm/key%06d" (i * 3)) in
  Array.iter (fun k -> Btree.insert t ~key:k ~value:"v") keys;
  (* everything resident and MRU state settled *)
  Array.iter (fun k -> ignore (Btree.mem t k)) keys;
  let lookups = 1000 in
  let w0 = Gc.minor_words () in
  for i = 0 to lookups - 1 do
    ignore (Btree.mem t (Array.unsafe_get keys (i * 7 mod n)))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int lookups in
  if per > 8. then
    Alcotest.failf "warm point lookup allocates %.1f minor words (want ~0)" per

(* --- scanner: reuse ------------------------------------------------------- *)

(* reset re-points an existing scanner at another tree (the Exec per-domain
   cursor), and at the same tree after mutation *)
let test_scanner_reset_reuse () =
  let ta = mk ~max_entries:4 () in
  let tb = mk ~max_entries:4 () in
  for i = 0 to 49 do
    Btree.insert ta ~key:(Printf.sprintf "a%03d" i) ~value:"A";
    Btree.insert tb ~key:(Printf.sprintf "b%03d" i) ~value:"B"
  done;
  let sc = Btree.Scanner.create ta ~read:(Btree.raw_read ta) in
  (match Btree.Scanner.seek sc "a" with
  | Some e -> Alcotest.(check string) "tree A" "a000" e.Btree.key
  | None -> Alcotest.fail "expected entry in tree A");
  Btree.Scanner.reset sc tb ~read:(Btree.raw_read tb);
  (match Btree.Scanner.seek sc "" with
  | Some e -> Alcotest.(check string) "tree B" "b000" e.Btree.key
  | None -> Alcotest.fail "expected entry in tree B");
  (* mutation + reset: the cursor must observe the new entry *)
  Btree.insert tb ~key:"b000a" ~value:"new";
  Btree.Scanner.reset sc tb ~read:(Btree.raw_read tb);
  (match Btree.Scanner.seek sc "b000a" with
  | Some e ->
      Alcotest.(check string) "new key" "b000a" e.Btree.key;
      Alcotest.(check string) "new value" "new" (e.Btree.value ())
  | None -> Alcotest.fail "reset scanner missed the new entry")

(* a scanner that reset swaps between trees mid-life agrees with a fresh
   oracle cursor per burst *)
let test_scanner_reset_differential () =
  let ta = mk ~max_entries:4 () in
  let tb = mk ~max_entries:5 () in
  for i = 0 to 99 do
    Btree.insert ta ~key:(Printf.sprintf "k%04d" (2 * i)) ~value:"a";
    Btree.insert tb ~key:(Printf.sprintf "k%04d" ((2 * i) + 1)) ~value:"b"
  done;
  let sc = Btree.Scanner.create ta ~read:(Btree.raw_read ta) in
  let bursts = [ (ta, "k0050"); (tb, "k0050"); (ta, "k0199"); (tb, "zzz") ] in
  let collect seek next =
    let first = Option.to_list (seek ()) in
    first @ List.filter_map (fun _ -> next ()) [ 1; 2; 3; 4 ]
  in
  let reused =
    List.concat_map
      (fun (t, key) ->
        Btree.Scanner.reset sc t ~read:(Btree.raw_read t);
        let key_of = Option.map (fun (e : Btree.entry) -> e.key) in
        collect
          (fun () -> key_of (Btree.Scanner.seek sc key))
          (fun () -> key_of (Btree.Scanner.next sc)))
      bursts
  in
  let oracle =
    List.concat_map
      (fun (t, key) ->
        let c = Oracle.cursor (Btree.raw_read t) in
        collect
          (fun () -> Option.map fst (Oracle.seek t c key))
          (fun () -> Option.map fst (Oracle.next c)))
      bursts
  in
  Alcotest.(check (list string)) "reset bursts agree" oracle reused

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_leaf_search_matches_decode; prop_child_matches_decode ]

let finger_suite = [ QCheck_alcotest.to_alcotest prop_finger_seeks ]

let () =
  Alcotest.run "descent"
    [
      ("in-place search", qsuite);
      ( "differential",
        [
          Alcotest.test_case "answers and page reads" `Quick
            test_differential_cached;
          Alcotest.test_case "descent metrics" `Quick test_differential_metrics;
          Alcotest.test_case "uncached finger reads" `Quick
            test_differential_uncached;
        ] );
      ("finger seeks", finger_suite);
      ( "allocation",
        [ Alcotest.test_case "warm point lookup" `Quick test_warm_lookup_alloc ] );
      ( "scanner",
        [
          Alcotest.test_case "reset and reuse" `Quick test_scanner_reset_reuse;
          Alcotest.test_case "reset differential" `Quick
            test_scanner_reset_differential;
        ] );
    ]
