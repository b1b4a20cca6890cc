(* Tests for the storage substrate: order-preserving encodings, the pager
   and its accounting, the per-query page cache. *)

module Bu = Storage.Bytes_util
module Pager = Storage.Pager
module Stats = Storage.Stats

let test_u16_u32 () =
  let b = Bytes.create 8 in
  List.iter
    (fun v ->
      Bu.put_u16 b 0 v;
      Alcotest.(check int) "u16 roundtrip" v (Bu.get_u16 b 0))
    [ 0; 1; 255; 256; 65535 ];
  List.iter
    (fun v ->
      Bu.put_u32 b 2 v;
      Alcotest.(check int) "u32 roundtrip" v (Bu.get_u32 b 2))
    [ 0; 1; 65536; 0x7FFFFFFF; 0xFFFFFFFF ]

let test_encode_int_order () =
  let vals = [ min_int; -1_000_000; -1; 0; 1; 42; 1_000_000; max_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ea = Bu.encode_int a and eb = Bu.encode_int b in
          Alcotest.(check bool)
            (Printf.sprintf "order %d vs %d" a b)
            (compare a b < 0)
            (String.compare ea eb < 0);
          Alcotest.(check int) "roundtrip" a (Bu.decode_int ea 0))
        vals)
    vals

let prop_encode_int_order =
  QCheck.Test.make ~count:1000 ~name:"encode_int preserves order"
    QCheck.(pair int int)
    (fun (a, b) ->
      let c1 = compare a b
      and c2 = String.compare (Bu.encode_int a) (Bu.encode_int b) in
      (c1 < 0) = (c2 < 0) && (c1 = 0) = (c2 = 0))

let prop_encode_u32_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"encode_u32 roundtrip"
    QCheck.(int_bound 0xFFFFFF)
    (fun x -> Bu.decode_u32 (Bu.encode_u32 x) 0 = x)

let test_succ_prefix () =
  Alcotest.(check string) "simple" "ac" (Bu.succ_prefix "ab");
  Alcotest.(check string) "carry" "b" (Bu.succ_prefix "a\xff");
  Alcotest.(check string) "double carry" "b" (Bu.succ_prefix "a\xff\xff");
  Alcotest.check_raises "all ff"
    (Invalid_argument "Bytes_util.succ_prefix: prefix is all 0xff") (fun () ->
      ignore (Bu.succ_prefix "\xff\xff"))

let prop_succ_prefix =
  QCheck.Test.make ~count:1000 ~name:"succ_prefix bounds all extensions"
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 8)) small_string)
    (fun (p, ext) ->
      QCheck.assume (String.exists (fun c -> c <> '\xff') p);
      let s = Bu.succ_prefix p in
      String.compare (p ^ ext) s < 0 && String.compare p s < 0)

let test_common_prefix () =
  Alcotest.(check int) "none" 0 (Bu.common_prefix_len "abc" "xyz");
  Alcotest.(check int) "partial" 2 (Bu.common_prefix_len "abc" "abd");
  Alcotest.(check int) "full shorter" 2 (Bu.common_prefix_len "ab" "abc")

let test_pager_basics () =
  let p = Pager.create ~page_size:128 () in
  let a = Pager.alloc p and b = Pager.alloc p in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "live pages" 2 (Pager.page_count p);
  let buf = Bytes.make 128 'x' in
  Pager.write p a buf;
  Alcotest.(check string) "read back" (Bytes.to_string buf)
    (Bytes.to_string (Pager.read p a));
  let s = Pager.stats p in
  Alcotest.(check int) "one read counted" 1 s.Stats.reads;
  Alcotest.(check int) "one write counted" 1 s.Stats.writes;
  Pager.free p a;
  Alcotest.(check int) "freed" 1 (Pager.page_count p);
  Alcotest.check_raises "read after free"
    (Invalid_argument "Pager: page not allocated") (fun () ->
      ignore (Pager.read p a));
  (* freed ids are recycled *)
  let c = Pager.alloc p in
  Alcotest.(check int) "recycled id" a c

let test_pager_wrong_size () =
  let p = Pager.create ~page_size:128 () in
  let a = Pager.alloc p in
  Alcotest.check_raises "wrong size write"
    (Invalid_argument "Pager.write: wrong page size") (fun () ->
      Pager.write p a (Bytes.create 64))

let test_pager_isolation () =
  (* mutating a returned buffer must not corrupt the stored page *)
  let p = Pager.create ~page_size:64 () in
  let a = Pager.alloc p in
  Pager.write p a (Bytes.make 64 'a');
  let buf = Pager.read p a in
  Bytes.fill buf 0 64 'z';
  Alcotest.(check char) "store unchanged" 'a' (Bytes.get (Pager.read p a) 0)

let test_cache_counts_distinct () =
  let p = Pager.create ~page_size:64 () in
  let a = Pager.alloc p and b = Pager.alloc p in
  let s = Pager.stats p in
  Stats.reset s;
  let cache = Pager.Cache.create p in
  ignore (Pager.Cache.read cache a);
  ignore (Pager.Cache.read cache a);
  ignore (Pager.Cache.read cache b);
  ignore (Pager.Cache.read cache a);
  Alcotest.(check int) "two distinct reads" 2 s.Stats.reads;
  Alcotest.(check int) "cache agrees" 2 (Pager.Cache.distinct_reads cache)

let with_temp_pages name f =
  let path = Filename.temp_file name ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Pager.journal_path path ])
    (fun () -> f path)

let test_file_pager () =
  (* checksums off: this test pins the raw physical layout (logical page
     [i] at physical [i + 1]); the checksummed layout has its own tests
     in test_corruption.ml *)
  with_temp_pages "uindex_pager" (fun path ->
      let p = Pager.create_file ~page_size:128 ~checksums:false path in
      let a = Pager.alloc p and b = Pager.alloc p in
      Pager.write p a (Bytes.make 128 'a');
      Pager.write p b (Bytes.make 128 'b');
      Alcotest.(check char) "a back" 'a' (Bytes.get (Pager.read p a) 0);
      Alcotest.(check char) "b back" 'b' (Bytes.get (Pager.read p b) 0);
      (* before the first sync only the header is on disk *)
      let file_len () =
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        close_in ic;
        len
      in
      Alcotest.(check int) "header only before sync" 128 (file_len ());
      Pager.sync p;
      (* after sync: header + two pages, page b at physical slot 2 *)
      Alcotest.(check int) "file holds two pages" 384 (file_len ());
      let ic = open_in_bin path in
      seek_in ic ((b + 1) * 128);
      Alcotest.(check char) "page b on disk" 'b' (input_char ic);
      close_in ic;
      Alcotest.(check bool) "journal gone after sync" false
        (Sys.file_exists (Pager.journal_path path));
      Pager.free p a;
      Alcotest.check_raises "read after free"
        (Invalid_argument "Pager: page not allocated") (fun () ->
          ignore (Pager.read p a));
      let c = Pager.alloc p in
      Alcotest.(check int) "recycled" a c;
      Alcotest.(check char) "recycled page zeroed" '\000'
        (Bytes.get (Pager.read p c) 0);
      Pager.close p;
      Alcotest.check_raises "closed" (Invalid_argument "Pager: store is closed")
        (fun () -> ignore (Pager.read p b)))

(* An invalid page size is rejected before the file is touched: an
   existing page file keeps its bytes and no descriptor is left open. *)
let test_create_file_bad_size () =
  with_temp_pages "uindex_badsize" (fun path ->
      let p = Pager.create_file ~page_size:128 path in
      Pager.write p (Pager.alloc p) (Bytes.make 128 'x');
      Pager.sync p;
      Pager.close p;
      let contents () = In_channel.with_open_bin path In_channel.input_all in
      let before = contents () in
      let fds () = Array.length (Sys.readdir "/proc/self/fd") in
      let fds0 = fds () in
      Alcotest.check_raises "page size 16"
        (Invalid_argument "Pager.create: page_size < 64") (fun () ->
          ignore (Pager.create_file ~page_size:16 path));
      Alcotest.(check int) "no descriptor leaked" fds0 (fds ());
      Alcotest.(check bool) "file keeps its bytes" true
        (String.length before > 0 && contents () = before))

let test_free_list_reopen () =
  (* regression: pages freed in one session must be reused in the next *)
  with_temp_pages "uindex_freelist" (fun path ->
      let p = Pager.create_file ~page_size:128 path in
      let a = Pager.alloc p and b = Pager.alloc p and c = Pager.alloc p in
      Pager.write p a (Bytes.make 128 'a');
      Pager.write p c (Bytes.make 128 'c');
      Pager.free p b;
      Pager.close p;
      let p = Pager.open_file path in
      Alcotest.(check int) "page size restored" 128 (Pager.page_size p);
      Alcotest.(check int) "two live pages" 2 (Pager.page_count p);
      Alcotest.(check char) "a survives" 'a' (Bytes.get (Pager.read p a) 0);
      Alcotest.(check char) "c survives" 'c' (Bytes.get (Pager.read p c) 0);
      Alcotest.check_raises "b still freed"
        (Invalid_argument "Pager: page not allocated") (fun () ->
          ignore (Pager.read p b));
      let d = Pager.alloc p in
      Alcotest.(check int) "freed page reused after reopen" b d;
      let e = Pager.alloc p in
      Alcotest.(check int) "then fresh pages" 3 e;
      Pager.close p;
      (* free-list order itself survives: free two, reopen, reuse LIFO *)
      let p = Pager.open_file path in
      Pager.free p a;
      Pager.free p c;
      Pager.close p;
      let p = Pager.open_file path in
      Alcotest.(check int) "LIFO order preserved" c (Pager.alloc p);
      Alcotest.(check int) "LIFO order preserved 2" a (Pager.alloc p);
      Pager.close p)

let test_meta_roundtrip () =
  with_temp_pages "uindex_meta" (fun path ->
      let p = Pager.create_file ~page_size:128 path in
      Alcotest.(check string) "empty initially" "" (Pager.meta p);
      Pager.set_meta p "root=42";
      Pager.close p;
      let p = Pager.open_file ~page_size:128 path in
      Alcotest.(check string) "meta survives reopen" "root=42" (Pager.meta p);
      Alcotest.check_raises "oversized meta rejected"
        (Invalid_argument "Pager.set_meta: metadata does not fit in the header page")
        (fun () -> Pager.set_meta p (String.make 128 'x'));
      Pager.close p;
      (* page-size cross-check *)
      Alcotest.check_raises "size mismatch"
        (Invalid_argument
           "Pager.open_file: page size mismatch (file has 128, expected 256)")
        (fun () -> ignore (Pager.open_file ~page_size:256 path)))

let test_recover_torn_journal () =
  with_temp_pages "uindex_torn" (fun path ->
      let p = Pager.create_file ~page_size:128 path in
      let a = Pager.alloc p in
      Pager.write p a (Bytes.make 128 'a');
      Pager.close p;
      (* a crash mid-journal leaves garbage with no commit marker *)
      let oc = open_out_bin (Pager.journal_path path) in
      output_string oc "UJRNL1\n\000half-written garbage";
      close_out oc;
      Alcotest.(check bool) "torn journal discarded" false (Pager.recover path);
      Alcotest.(check bool) "journal deleted" false
        (Sys.file_exists (Pager.journal_path path));
      let p = Pager.open_file path in
      Alcotest.(check char) "committed state intact" 'a'
        (Bytes.get (Pager.read p a) 0);
      Pager.close p)

let test_recover_committed_journal () =
  (* checksums off so the transaction is exactly one dirty page + header
     (no checksum-page records) and the write counts below stay exact *)
  with_temp_pages "uindex_commit" (fun path ->
      let p = Pager.create_file ~page_size:128 ~checksums:false path in
      let a = Pager.alloc p in
      Pager.write p a (Bytes.make 128 'a');
      Pager.sync p;
      (* one dirty page -> 2 journal records + trailer = 3 journal writes,
         then 2 checkpoint writes.  Fail the first checkpoint write: the
         journal is committed but the main file is stale. *)
      Pager.write p a (Bytes.make 128 'b');
      let w0 = Pager.physical_writes p in
      let p =
        Pager.create_faulty { Pager.no_faults with fail_write = Some (w0 + 4) } p
      in
      (match Pager.sync p with
      | () -> Alcotest.fail "expected injected fault"
      | exception Pager.Fault _ -> ());
      Alcotest.(check int) "fault counted" 1 (Pager.stats p).Stats.faults;
      (try Pager.close p with Pager.Fault _ -> ());
      Alcotest.(check bool) "journal left behind" true
        (Sys.file_exists (Pager.journal_path path));
      (* open_file replays it automatically *)
      let p = Pager.open_file path in
      Alcotest.(check char) "journal replayed" 'b'
        (Bytes.get (Pager.read p a) 0);
      Alcotest.(check bool) "journal gone" false
        (Sys.file_exists (Pager.journal_path path));
      Pager.close p)

let test_faulty_reads () =
  let p = Pager.create ~page_size:64 () in
  let a = Pager.alloc p in
  Pager.write p a (Bytes.make 64 'a');
  let p =
    Pager.create_faulty { Pager.no_faults with read_error_every = Some 3 } p
  in
  let attempts = ref 0 and faults = ref 0 in
  for _ = 1 to 9 do
    incr attempts;
    match Pager.read p a with
    | _ -> ()
    | exception Pager.Fault _ -> incr faults
  done;
  Alcotest.(check int) "every third read faults" 3 !faults;
  Alcotest.(check int) "faults counted in stats" 3 (Pager.stats p).Stats.faults;
  (* transient: a retry succeeds *)
  Alcotest.(check char) "retry works" 'a' (Bytes.get (Pager.read p a) 0)

let test_torn_memory_write () =
  let p = Pager.create ~page_size:64 () in
  let a = Pager.alloc p in
  Pager.write p a (Bytes.make 64 'o');
  let w0 = Storage.Pager.physical_writes p in
  let p =
    Pager.create_faulty
      { Pager.no_faults with fail_write = Some (w0 + 1); torn = true }
      p
  in
  (match Pager.write p a (Bytes.make 64 'n') with
  | () -> Alcotest.fail "expected injected fault"
  | exception Pager.Fault _ -> ());
  let b = Pager.read p a in
  Alcotest.(check char) "first half new" 'n' (Bytes.get b 0);
  Alcotest.(check char) "second half old" 'o' (Bytes.get b 63);
  (* crashed: all later writes raise *)
  Alcotest.(check bool) "post-crash writes raise" true
    (match Pager.write p a (Bytes.make 64 'x') with
    | () -> false
    | exception Pager.Fault _ -> true)

let test_file_pager_btree () =
  (* the whole B-tree stack runs unchanged over the file backend *)
  let path = Filename.temp_file "uindex_btree" ".pages" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let pager = Pager.create_file ~page_size:256 path in
      let t = Btree.create pager in
      for i = 0 to 499 do
        Btree.insert t ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
      done;
      Btree.check t;
      Alcotest.(check (option string)) "find through file" (Some "321")
        (Btree.find t "key0321");
      for i = 0 to 249 do
        ignore (Btree.delete t (Printf.sprintf "key%04d" (2 * i)))
      done;
      Btree.check t;
      Alcotest.(check int) "half left" 250 (Btree.length t);
      Pager.close pager)

let test_file_pager_reopen () =
  let path = Filename.temp_file "uindex_reopen" ".pages" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* session 1: build a tree, remember its root *)
      let pager = Pager.create_file ~page_size:256 path in
      let t = Btree.create pager in
      for i = 0 to 299 do
        Btree.insert t ~key:(Printf.sprintf "k%04d" i) ~value:(string_of_int i)
      done;
      let root = Btree.root t in
      Pager.close pager;
      (* session 2: reopen and read it back *)
      let pager = Pager.open_file ~page_size:256 path in
      let t = Btree.attach pager ~root in
      Btree.check t;
      Alcotest.(check int) "entries preserved" 300 (Btree.length t);
      Alcotest.(check (option string)) "value preserved" (Some "42")
        (Btree.find t "k0042");
      (* and keep writing *)
      Btree.insert t ~key:"new" ~value:"entry";
      ignore (Btree.delete t "k0000");
      Btree.check t;
      Alcotest.(check int) "mutations applied" 300 (Btree.length t);
      Pager.close pager;
      (* corrupted length detected *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "stray";
      close_out oc;
      Alcotest.check_raises "bad length"
        (Storage.Storage_error.Corruption
           {
             page = None;
             component = "pager.header";
             detail = "Pager.open_file: file length is not a multiple of page_size";
           })
        (fun () -> ignore (Pager.open_file ~page_size:256 path)))

let test_buffer_pool () =
  let p = Pager.create ~page_size:64 () in
  let ids = List.init 6 (fun _ -> Pager.alloc p) in
  List.iteri (fun i id -> Pager.write p id (Bytes.make 64 (Char.chr (65 + i)))) ids;
  let pool = Storage.Buffer_pool.create ~capacity:3 p in
  let s = Pager.stats p in
  Stats.reset s;
  let a, b, c, d =
    match ids with
    | a :: b :: c :: d :: _ -> (a, b, c, d)
    | _ -> assert false
  in
  ignore (Storage.Buffer_pool.read pool a);
  ignore (Storage.Buffer_pool.read pool b);
  ignore (Storage.Buffer_pool.read pool a);
  Alcotest.(check int) "one hit" 1 (Storage.Buffer_pool.hits pool);
  Alcotest.(check int) "two pager reads" 2 s.Stats.reads;
  (* fill beyond capacity: LRU (b) evicted, a kept (recently used) *)
  ignore (Storage.Buffer_pool.read pool c);
  ignore (Storage.Buffer_pool.read pool d);
  Alcotest.(check int) "resident = capacity" 3 (Storage.Buffer_pool.resident pool);
  Stats.reset s;
  ignore (Storage.Buffer_pool.read pool a);
  Alcotest.(check int) "a still resident" 0 s.Stats.reads;
  ignore (Storage.Buffer_pool.read pool b);
  Alcotest.(check int) "b was evicted" 1 s.Stats.reads;
  (* invalidation forces a re-read *)
  Storage.Buffer_pool.invalidate pool a;
  Stats.reset s;
  ignore (Storage.Buffer_pool.read pool a);
  Alcotest.(check int) "invalidated -> miss" 1 s.Stats.reads;
  (* pool serves current content after re-read *)
  Alcotest.(check char) "content" 'A'
    (Bytes.get (Storage.Buffer_pool.read pool a) 0);
  Storage.Buffer_pool.flush pool;
  Alcotest.(check int) "flushed" 0 (Storage.Buffer_pool.resident pool);
  Alcotest.(check bool) "hit rate sane" true
    (Storage.Buffer_pool.hit_rate pool >= 0.
    && Storage.Buffer_pool.hit_rate pool <= 1.)

(* the LRU-order test that would have caught the original fast-path bug:
   [t.head != Some n] allocated a fresh [Some] so the comparison was
   always true and every hit paid the unlink+relink.  [relinks] counts
   exactly the hits that move a node, so repeated reads of the MRU page
   must leave it untouched, and the full MRU->LRU order must track the
   access sequence. *)
let test_lru_fast_path () =
  let p = Pager.create ~page_size:64 () in
  let ids = Array.init 4 (fun _ -> Pager.alloc p) in
  let pool = Storage.Buffer_pool.create ~capacity:4 p in
  let order () = Storage.Buffer_pool.lru_order pool in
  Array.iter (fun id -> ignore (Storage.Buffer_pool.read pool id)) ids;
  Alcotest.(check (list int)) "misses stack MRU-first"
    [ ids.(3); ids.(2); ids.(1); ids.(0) ]
    (order ());
  (* hammer the MRU head: hits, but never a relink *)
  for _ = 1 to 5 do
    ignore (Storage.Buffer_pool.read pool ids.(3))
  done;
  Alcotest.(check int) "five hits" 5 (Storage.Buffer_pool.hits pool);
  Alcotest.(check int) "MRU hits take the fast path" 0
    (Storage.Buffer_pool.relinks pool);
  Alcotest.(check (list int)) "order unchanged"
    [ ids.(3); ids.(2); ids.(1); ids.(0) ]
    (order ());
  (* a hit in the middle relinks and reorders *)
  ignore (Storage.Buffer_pool.read pool ids.(1));
  Alcotest.(check int) "middle hit relinks" 1
    (Storage.Buffer_pool.relinks pool);
  Alcotest.(check (list int)) "reordered"
    [ ids.(1); ids.(3); ids.(2); ids.(0) ]
    (order ());
  (* the tail: relinked to the front, old second-to-last becomes tail *)
  ignore (Storage.Buffer_pool.read pool ids.(0));
  Alcotest.(check (list int)) "tail to front"
    [ ids.(0); ids.(1); ids.(3); ids.(2) ]
    (order ())

(* write-through: update refreshes resident bytes in place (no recency
   change, no write-allocate) so a later hit can never be stale *)
let test_pool_update () =
  let p = Pager.create ~page_size:64 () in
  let a = Pager.alloc p and b = Pager.alloc p in
  Pager.write p a (Bytes.make 64 'a');
  Pager.write p b (Bytes.make 64 'b');
  let pool = Storage.Buffer_pool.create ~capacity:4 p in
  ignore (Storage.Buffer_pool.read pool a);
  let fresh = Bytes.make 64 'A' in
  Pager.write p a fresh;
  Storage.Buffer_pool.update pool a fresh;
  let s = Pager.stats p in
  Stats.reset s;
  Alcotest.(check char) "updated in place" 'A'
    (Bytes.get (Storage.Buffer_pool.read pool a) 0);
  Alcotest.(check int) "served from pool" 0 s.Stats.reads;
  (* mutating the caller's buffer afterwards must not reach the pool *)
  Bytes.fill fresh 0 64 'Z';
  Alcotest.(check char) "pool holds a copy" 'A'
    (Bytes.get (Storage.Buffer_pool.read pool a) 0);
  (* updating a non-resident page does not allocate it *)
  Storage.Buffer_pool.update pool b (Bytes.make 64 'B');
  Alcotest.(check (list int)) "no write-allocate" [ a ]
    (Storage.Buffer_pool.lru_order pool)

let test_stats_diff () =
  let s = Stats.create () in
  s.reads <- 5;
  let before = Stats.snapshot s in
  s.reads <- 9;
  s.writes <- 2;
  let d = Stats.diff ~before ~after:(Stats.snapshot s) in
  Alcotest.(check int) "read delta" 4 d.Stats.reads;
  Alcotest.(check int) "write delta" 2 d.Stats.writes

let test_check_text () =
  Alcotest.(check string) "plain ok" "hello" (Bu.check_text "hello");
  Alcotest.check_raises "low byte rejected"
    (Invalid_argument "Bytes_util.check_text: byte below 0x08 in text component")
    (fun () -> ignore (Bu.check_text "a\x01b"))

(* the pager against a simple model over random op sequences *)
let prop_pager_model =
  QCheck.Test.make ~count:100 ~name:"pager behaves like an id->bytes map"
    QCheck.(list (pair (int_bound 3) small_nat))
    (fun ops ->
      let p = Pager.create ~page_size:64 () in
      let model : (int, char) Hashtbl.t = Hashtbl.create 8 in
      let live = ref [] in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              let id = Pager.alloc p in
              Hashtbl.replace model id '\000';
              live := id :: !live
          | 1 -> (
              match !live with
              | id :: _ ->
                  let c = Char.chr (32 + (x mod 90)) in
                  Pager.write p id (Bytes.make 64 c);
                  Hashtbl.replace model id c
              | [] -> ())
          | 2 -> (
              match !live with
              | id :: rest ->
                  Pager.free p id;
                  Hashtbl.remove model id;
                  live := rest
              | [] -> ())
          | _ -> (
              match !live with
              | id :: _ ->
                  if Bytes.get (Pager.read p id) 0 <> Hashtbl.find model id then
                    QCheck.Test.fail_reportf "content mismatch on page %d" id
              | [] -> ()))
        ops;
      Pager.page_count p = Hashtbl.length model
      && Hashtbl.fold
           (fun id c ok -> ok && Bytes.get (Pager.read p id) 0 = c)
           model true)

(* the buffer pool keeps exactly the most recently used pages *)
let prop_lru_order =
  QCheck.Test.make ~count:100 ~name:"buffer pool evicts least recently used"
    QCheck.(list (int_bound 9))
    (fun accesses ->
      let p = Pager.create ~page_size:64 () in
      let ids = Array.init 10 (fun _ -> Pager.alloc p) in
      let capacity = 4 in
      let pool = Storage.Buffer_pool.create ~capacity p in
      let recency = ref [] in
      List.iter
        (fun i ->
          ignore (Storage.Buffer_pool.read pool ids.(i));
          recency := i :: List.filter (fun j -> j <> i) !recency)
        accesses;
      let expected_resident =
        List.filteri (fun rank _ -> rank < capacity) !recency
      in
      (* reading a resident page must not touch the pager *)
      let s = Pager.stats p in
      List.for_all
        (fun i ->
          Stats.reset s;
          ignore (Storage.Buffer_pool.read pool ids.(i));
          s.Stats.reads = 0)
        expected_resident)

(* the buffer pool against a model cache (MRU-first assoc list capped at
   capacity) over random read/write+update/invalidate/flush schedules:
   residency, hit/miss/eviction counters, the Stats.pool_* mirrors and
   content (write-through means a pool read always returns the pager's
   current bytes) must all agree with the model *)
let prop_pool_model =
  QCheck.Test.make ~count:200 ~name:"buffer pool behaves like a model cache"
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun ops ->
      let p = Pager.create ~page_size:64 () in
      let ids = Array.init 8 (fun _ -> Pager.alloc p) in
      Array.iter (fun id -> Pager.write p id (Bytes.make 64 '0')) ids;
      let capacity = 3 in
      let pool = Storage.Buffer_pool.create ~capacity p in
      let s = Pager.stats p in
      Stats.reset s;
      (* model: MRU-first list of resident page ids, plus expected counters *)
      let resident = ref [] in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let content = Hashtbl.create 8 in
      Array.iter (fun id -> Hashtbl.replace content id '0') ids;
      List.iter
        (fun (op, x) ->
          let id = ids.(x mod Array.length ids) in
          match op with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              (* read dominates the schedule, like real traffic *)
              let got = Storage.Buffer_pool.read pool id in
              if Bytes.get got 0 <> Hashtbl.find content id then
                QCheck.Test.fail_reportf "stale bytes for page %d" id;
              if List.mem id !resident then (
                incr hits;
                resident := id :: List.filter (fun j -> j <> id) !resident)
              else (
                incr misses;
                if List.length !resident >= capacity then (
                  incr evictions;
                  resident :=
                    List.filteri
                      (fun rank _ -> rank < capacity - 1)
                      !resident);
                resident := id :: !resident)
          | 6 | 7 ->
              (* write-through: pager write + pool update *)
              let c = Char.chr (Char.code 'a' + (x mod 26)) in
              let page = Bytes.make 64 c in
              Pager.write p id page;
              Storage.Buffer_pool.update pool id page;
              Hashtbl.replace content id c
          | 8 ->
              Storage.Buffer_pool.invalidate pool id;
              resident := List.filter (fun j -> j <> id) !resident
          | _ ->
              Storage.Buffer_pool.flush pool;
              resident := [])
        ops;
      if Storage.Buffer_pool.resident pool > capacity then
        QCheck.Test.fail_reportf "resident %d exceeds capacity %d"
          (Storage.Buffer_pool.resident pool)
          capacity;
      if Storage.Buffer_pool.lru_order pool <> !resident then
        QCheck.Test.fail_report "LRU order diverged from model";
      if
        Storage.Buffer_pool.hits pool <> !hits
        || Storage.Buffer_pool.misses pool <> !misses
        || Storage.Buffer_pool.evictions pool <> !evictions
      then
        QCheck.Test.fail_reportf "counters diverged: pool %d/%d/%d model %d/%d/%d"
          (Storage.Buffer_pool.hits pool)
          (Storage.Buffer_pool.misses pool)
          (Storage.Buffer_pool.evictions pool)
          !hits !misses !evictions;
      (* every miss reached the pager, every hit did not *)
      if s.Stats.reads <> !misses then
        QCheck.Test.fail_reportf "pager reads %d <> misses %d" s.Stats.reads
          !misses;
      (* the per-pager Stats mirrors carry the same story *)
      s.Stats.pool_hits = !hits
      && s.Stats.pool_misses = !misses
      && s.Stats.pool_evictions = !evictions)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_encode_int_order;
      prop_encode_u32_roundtrip;
      prop_succ_prefix;
      prop_pager_model;
      prop_lru_order;
      prop_pool_model;
    ]

let () =
  Alcotest.run "storage"
    [
      ( "encodings",
        [
          Alcotest.test_case "u16/u32" `Quick test_u16_u32;
          Alcotest.test_case "int order" `Quick test_encode_int_order;
          Alcotest.test_case "succ_prefix" `Quick test_succ_prefix;
          Alcotest.test_case "common prefix" `Quick test_common_prefix;
          Alcotest.test_case "check_text" `Quick test_check_text;
        ] );
      ( "pager",
        [
          Alcotest.test_case "alloc/read/write/free" `Quick test_pager_basics;
          Alcotest.test_case "wrong page size" `Quick test_pager_wrong_size;
          Alcotest.test_case "buffer isolation" `Quick test_pager_isolation;
          Alcotest.test_case "cache distinct counting" `Quick
            test_cache_counts_distinct;
          Alcotest.test_case "file backend" `Quick test_file_pager;
          Alcotest.test_case "create_file validates first" `Quick
            test_create_file_bad_size;
          Alcotest.test_case "file-backed btree" `Quick test_file_pager_btree;
          Alcotest.test_case "file reopen" `Quick test_file_pager_reopen;
          Alcotest.test_case "free list reopen" `Quick test_free_list_reopen;
          Alcotest.test_case "meta roundtrip" `Quick test_meta_roundtrip;
          Alcotest.test_case "torn journal discarded" `Quick
            test_recover_torn_journal;
          Alcotest.test_case "committed journal replayed" `Quick
            test_recover_committed_journal;
          Alcotest.test_case "transient read faults" `Quick test_faulty_reads;
          Alcotest.test_case "torn memory write" `Quick test_torn_memory_write;
          Alcotest.test_case "buffer pool LRU" `Quick test_buffer_pool;
          Alcotest.test_case "LRU fast path and order" `Quick
            test_lru_fast_path;
          Alcotest.test_case "pool write-through update" `Quick
            test_pool_update;
          Alcotest.test_case "stats diff" `Quick test_stats_diff;
        ] );
      ("properties", qsuite);
    ]
