module Bu = Bytes_util

exception Fault of string

(* Process-wide instruments (the default Obs registry).  Per-pager
   accounting stays in each pager's Stats.t; these aggregate across all
   pagers so `uindex-cli stats` and BENCH_results.json can report global
   I/O traffic, and so journal/recovery events — which happen outside any
   live pager instance — are observable at all. *)
let m_reads = Obs.Metrics.counter ~subsystem:"pager" "reads"
let m_writes = Obs.Metrics.counter ~subsystem:"pager" "writes"
let m_allocs = Obs.Metrics.counter ~subsystem:"pager" "allocs"
let m_frees = Obs.Metrics.counter ~subsystem:"pager" "frees"
let m_syncs = Obs.Metrics.counter ~subsystem:"pager" "syncs"

let m_j_commits = Obs.Metrics.counter ~subsystem:"journal" "commits"
let m_j_records = Obs.Metrics.counter ~subsystem:"journal" "records_written"
let m_j_replays = Obs.Metrics.counter ~subsystem:"journal" "replays"
let m_j_replayed = Obs.Metrics.counter ~subsystem:"journal" "records_replayed"
let m_j_torn = Obs.Metrics.counter ~subsystem:"journal" "torn_discarded"
let m_j_fsyncs = Obs.Metrics.counter ~subsystem:"journal" "fsyncs"

let nil = 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* On-disk formats                                                     *)
(* ------------------------------------------------------------------ *)

(* Physical layout of a page file: physical page 0 is the header.

   Without checksums, logical page [i] lives at physical page [i + 1].

   With checksums (the default for file pagers), data pages are
   interleaved with {e checksum pages} so that client pages keep their
   full [page_size] capacity — the B-tree's node layout, and therefore
   the paper's page-read counts, are identical either way.  Let
   [G = page_size / 4 - 1].  Logical pages are grouped [G] at a time;
   group [g] occupies physical pages [1 + g*(G+1) .. (g+1)*(G+1)], the
   first of which is the group's checksum page:

     checksum page of group g:
       0..        G x u32 FNV-1a checksum of logical page [g*G + i]
       ps-4       u32 FNV-1a self-checksum of bytes [0, ps-4)

     logical page i: physical [2 + (i/G)*(G+1) + i mod G]

   Checksum pages are journaled and checkpointed like any other
   physical record, so they commit atomically with the data they cover.

   Header page:
     0..7    magic "UPGHDR1\n"
     8       u32 page_size
     12      u32 used       (logical high-water mark)
     16      u32 live       (allocated and not freed)
     20      u32 free_head  (first free page, intrusive chain; 0xFFFFFFFF = none)
     24      u16 flags      (bit 0: checksums enabled)
     26      u16 meta_len
     28..    meta bytes (client metadata, e.g. a B-tree root)
     ps-4    u32 FNV-1a checksum of bytes [0, ps-4)

   A free page stores the id of the next free page in its first 4 bytes.

   Journal file (path ^ ".journal"), written on every {!sync}:
     0..7    magic "UJRNL1\n\000"
     8       u32 page_size
     12      u32 count
     16..    count x (u32 physical_index ++ page bytes)   -- the NEW images
     ..      u32 FNV-1a checksum of the records region
     ..      8-byte commit marker "COMMITTD" *)

let header_magic = "UPGHDR1\n"
let journal_magic = "UJRNL1\n\000"
let commit_marker = "COMMITTD"
let header_fixed = 28 (* bytes before the meta area *)
let flag_checksums = 1
let meta_capacity page_size = page_size - header_fixed - 4
let journal_path path = path ^ ".journal"
let group_size page_size = (page_size / 4) - 1

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type media_fault =
  | Flip_bit of { page : int; bit : int }
  | Zero_page of { page : int }
  | Truncate_file of { keep : int }
  | Stale_page of { page : int }

type fault_spec = {
  fail_write : int option;
  torn : bool;
  read_error_every : int option;
  media : media_fault list;
}

let no_faults =
  { fail_write = None; torn = false; read_error_every = None; media = [] }

type fault_plan = {
  spec : fault_spec;
  mutable reads_seen : int;
  mutable crashed : bool;
  mutable stale : (int * Bytes.t) list;
      (* committed images snapshotted at arm time, written back over the
         backend after the next sync completes — a lost write *)
}

type backend =
  | Memory of { mutable pages : Bytes.t option array }
  | File of {
      fd : Unix.file_descr;
      path : string;
      mutable live_map : bool array;
      dirty : (int, Bytes.t) Hashtbl.t;
          (* logical id -> content written since the last sync *)
    }
  | Snap of snap

(* An immutable read view of the parent's last committed image.  The
   snapshot starts empty and reads through to the parent's committed
   storage; when the writer is about to overwrite a committed page (a
   Memory write/free, or a File checkpoint), the old image is stashed
   into the overlay of every live snapshot that can still see it
   (copy-on-commit).  Overlay entries are immutable once added. *)
and snap = {
  parent : t;
  overlay : (int, Bytes.t) Hashtbl.t;  (* stashed committed images *)
  snap_live : bool array;  (* committed liveness at pin time *)
  mutable released : bool;
}

and t = {
  page_size : int;
  checksums : bool;
  mutable backend : backend;
  mutable used : int;  (* high-water mark *)
  mutable free_list : int list;
  mutable live : int;
  mutable closed : bool;
  mutable meta : string;
  mutable meta_dirty : bool;
  mutable free_dirty : bool;  (* free list changed since the last sync *)
  mutable phys_writes : int;  (* backend write operations, ever *)
  mutable sums : Bytes.t;  (* u32 FNV-1a per logical page (checksums on) *)
  mutable faults : fault_plan option;
  stats : Stats.t;
  lock : Mutex.t;
      (* serializes every state-touching operation on this pager with the
         reads of snapshots pinned on it (they share the fd / page array) *)
  mutable snaps : t list;  (* live snapshots pinned on this pager *)
  (* last committed allocation state (File backend; for Memory the live
     fields are the committed state, and for Snap these are frozen) *)
  mutable committed_meta : string;
  mutable committed_used : int;
  mutable committed_free : int list;
  mutable committed_live : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* physical index of logical page [id] *)
let data_phys t id =
  if not t.checksums then id + 1
  else
    let g = group_size t.page_size in
    2 + ((id / g) * (g + 1)) + (id mod g)

(* physical index of the checksum page covering group [g] *)
let sum_phys t g = 1 + (g * (group_size t.page_size + 1))

(* ------------------------------------------------------------------ *)
(* Low-level I/O                                                       *)
(* ------------------------------------------------------------------ *)

let pwrite_buf fd ~off b len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go o =
    if o < len then
      let n = Unix.write fd b o (len - o) in
      go (o + n)
  in
  go 0

let pread_buf fd ~off b len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go o =
    if o < len then begin
      let n = Unix.read fd b o (len - o) in
      if n = 0 then Bytes.fill b o (len - o) '\000' (* past EOF: zeros *)
      else go (o + n)
    end
  in
  go 0

(* Every backend write funnels through here: the fault plan fires on the
   Nth physical write, optionally landing only the first half (a torn
   write), and from then on the pager behaves as a crashed process —
   all further physical writes raise. *)
let inject_write t ~full ~half =
  t.phys_writes <- t.phys_writes + 1;
  match t.faults with
  | None -> full ()
  | Some p -> (
      if p.crashed then raise (Fault "Pager: crashed (write after fault)");
      match p.spec.fail_write with
      | Some n when t.phys_writes >= n ->
          p.crashed <- true;
          t.stats.faults <- t.stats.faults + 1;
          if p.spec.torn then half ();
          raise (Fault (Printf.sprintf "Pager: injected fault at write %d" n))
      | _ -> full ())

let inject_read t =
  match t.faults with
  | None -> ()
  | Some p -> (
      match p.spec.read_error_every with
      | Some k when k > 0 ->
          p.reads_seen <- p.reads_seen + 1;
          if p.reads_seen mod k = 0 then begin
            t.stats.faults <- t.stats.faults + 1;
            raise (Fault "Pager: injected transient read error")
          end
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Per-page checksums                                                  *)
(* ------------------------------------------------------------------ *)

let get_sum t id =
  if (id + 1) * 4 <= Bytes.length t.sums then Bu.get_u32 t.sums (id * 4) else 0

let set_sum t id v =
  let need = (id + 1) * 4 in
  if Bytes.length t.sums < need then begin
    let b = Bytes.make (max need (2 * Bytes.length t.sums)) '\000' in
    Bytes.blit t.sums 0 b 0 (Bytes.length t.sums);
    t.sums <- b
  end;
  Bu.put_u32 t.sums (id * 4) v

let verify_page t id b =
  if t.checksums && Bu.fnv32 b 0 t.page_size <> get_sum t id then begin
    Obs.Metrics.incr Storage_error.checksum_failures;
    t.stats.faults <- t.stats.faults + 1;
    Storage_error.corruptf ~page:id ~component:"pager.page"
      "Pager.read: checksum mismatch on page %d" id
  end

(* the on-disk image of the checksum page covering group [g] *)
let checksum_page t g =
  let ps = t.page_size in
  let gs = group_size ps in
  let b = Bytes.make ps '\000' in
  let lo = g * gs in
  for i = 0 to gs - 1 do
    if lo + i < t.used then Bu.put_u32 b (i * 4) (get_sum t (lo + i))
  done;
  Bu.put_u32 b (ps - 4) (Bu.fnv32 b 0 (ps - 4));
  b

(* ------------------------------------------------------------------ *)
(* Header encoding                                                     *)
(* ------------------------------------------------------------------ *)

let encode_header t =
  let b = Bytes.make t.page_size '\000' in
  Bytes.blit_string header_magic 0 b 0 8;
  Bu.put_u32 b 8 t.page_size;
  Bu.put_u32 b 12 t.used;
  Bu.put_u32 b 16 t.live;
  Bu.put_u32 b 20 (match t.free_list with id :: _ -> id | [] -> nil);
  Bu.put_u16 b 24 (if t.checksums then flag_checksums else 0);
  Bu.put_u16 b 26 (String.length t.meta);
  Bytes.blit_string t.meta 0 b header_fixed (String.length t.meta);
  Bu.put_u32 b (t.page_size - 4) (Bu.fnv32 b 0 (t.page_size - 4));
  b

let free_chain_page t ~next =
  let b = Bytes.make t.page_size '\000' in
  Bu.put_u32 b 0 next;
  b

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let check_page_size page_size =
  if page_size < 64 then invalid_arg "Pager.create: page_size < 64"

let make ~page_size ~checksums backend =
  check_page_size page_size;
  {
    page_size;
    checksums;
    backend;
    used = 0;
    free_list = [];
    live = 0;
    closed = false;
    meta = "";
    meta_dirty = false;
    free_dirty = false;
    phys_writes = 0;
    sums = Bytes.create 0;
    faults = None;
    stats = Stats.create ();
    lock = Mutex.create ();
    snaps = [];
    committed_meta = "";
    committed_used = 0;
    committed_free = [];
    committed_live = 0;
  }

let create ?(page_size = 1024) ?(checksums = false) () =
  make ~page_size ~checksums (Memory { pages = Array.make 64 None })

(* Nothing is touched before the arguments are known good.  A journal an
   earlier database left at this path would be replayed onto the new file
   by {!open_file}, so it goes first: removed before the old file is
   truncated, a crash in between leaves no journal to replay onto the
   empty file. *)
let create_file ?(page_size = 1024) ?(checksums = true) path =
  check_page_size page_size;
  let jpath = journal_path path in
  if Sys.file_exists jpath then Sys.remove jpath;
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match
    let t =
      make ~page_size ~checksums
        (File { fd; path; live_map = Array.make 64 false; dirty = Hashtbl.create 64 })
    in
    (* a freshly created file is immediately a valid (empty) page file *)
    pwrite_buf fd ~off:0 (encode_header t) page_size;
    Unix.fsync fd;
    t
  with
  | t -> t
  | exception e ->
      Unix.close fd;
      raise e

(* --- journal recovery ----------------------------------------------- *)

let read_whole_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create len in
      pread_buf fd ~off:0 b len;
      b)

let journal_valid j =
  let len = Bytes.length j in
  len >= 16 + 4 + 8
  && Bytes.sub_string j 0 8 = journal_magic
  &&
  let ps = Bu.get_u32 j 8 and count = Bu.get_u32 j 12 in
  ps >= 64
  && count >= 0
  && len = 16 + (count * (4 + ps)) + 4 + 8
  &&
  let records_len = count * (4 + ps) in
  Bu.get_u32 j (16 + records_len) = Bu.fnv32 j 16 records_len
  && Bytes.sub_string j (16 + records_len + 4) 8 = commit_marker

type recover_status = No_journal | Replayed | Discarded_torn

let recover_status path =
  let jpath = journal_path path in
  if not (Sys.file_exists jpath) then No_journal
  else
    let j = read_whole_file jpath in
    if not (journal_valid j) then begin
      (* torn or unfinished journal: the main file was never touched in
         this transaction, so the pre-transaction state is intact *)
      Obs.Metrics.incr m_j_torn;
      Sys.remove jpath;
      Discarded_torn
    end
    else begin
      let ps = Bu.get_u32 j 8 and count = Bu.get_u32 j 12 in
      Obs.Metrics.incr m_j_replays;
      Obs.Metrics.add m_j_replayed count;
      let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          for r = 0 to count - 1 do
            let off = 16 + (r * (4 + ps)) in
            let idx = Bu.get_u32 j off in
            pwrite_buf fd ~off:(idx * ps) (Bytes.sub j (off + 4) ps) ps
          done;
          Unix.fsync fd);
      Sys.remove jpath;
      Replayed
    end

let recover path =
  match recover_status path with
  | Replayed -> true
  | No_journal | Discarded_torn -> false

let open_file ?page_size path =
  ignore (recover path);
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let fail_inv fmt =
    Format.kasprintf (fun m -> Unix.close fd; invalid_arg m) fmt
  in
  let fail ?page ~component fmt =
    Format.kasprintf
      (fun detail ->
        Unix.close fd;
        raise (Storage_error.Corruption { page; component; detail }))
      fmt
  in
  let len = (Unix.fstat fd).Unix.st_size in
  if len < 12 then
    fail ~component:"pager.header" "Pager.open_file: not a page file (too short)";
  let probe = Bytes.create 12 in
  pread_buf fd ~off:0 probe 12;
  if Bytes.sub_string probe 0 8 <> header_magic then
    fail_inv "Pager.open_file: not a page file (bad magic)";
  let ps = Bu.get_u32 probe 8 in
  if ps < 64 then
    fail ~component:"pager.header" "Pager.open_file: corrupt header (page size)";
  (match page_size with
  | Some p when p <> ps ->
      fail_inv "Pager.open_file: page size mismatch (file has %d, expected %d)"
        ps p
  | Some _ | None -> ());
  if len mod ps <> 0 then
    fail ~component:"pager.header"
      "Pager.open_file: file length is not a multiple of page_size";
  let hdr = Bytes.create ps in
  pread_buf fd ~off:0 hdr ps;
  if Bu.get_u32 hdr (ps - 4) <> Bu.fnv32 hdr 0 (ps - 4) then
    fail ~component:"pager.header"
      "Pager.open_file: corrupt header (bad checksum)";
  let used = Bu.get_u32 hdr 12
  and live = Bu.get_u32 hdr 16
  and free_head = Bu.get_u32 hdr 20
  and flags = Bu.get_u16 hdr 24
  and meta_len = Bu.get_u16 hdr 26 in
  if meta_len > meta_capacity ps then
    fail ~component:"pager.header"
      "Pager.open_file: corrupt header (metadata length)";
  let checksums = flags land flag_checksums <> 0 in
  let meta = Bytes.sub_string hdr header_fixed meta_len in
  let gs = group_size ps in
  let dphys id =
    if checksums then 2 + ((id / gs) * (gs + 1)) + (id mod gs) else id + 1
  in
  (* load the checksum pages, each of which is self-checksummed *)
  let sums = Bytes.make (used * 4) '\000' in
  if checksums && used > 0 then begin
    let page = Bytes.create ps in
    for g = 0 to (used - 1) / gs do
      pread_buf fd ~off:((1 + (g * (gs + 1))) * ps) page ps;
      if Bu.get_u32 page (ps - 4) <> Bu.fnv32 page 0 (ps - 4) then begin
        Obs.Metrics.incr Storage_error.checksum_failures;
        fail ~component:"pager.checksum_page"
          "Pager.open_file: corrupt checksum page (group %d)" g
      end;
      let lo = g * gs in
      for i = 0 to gs - 1 do
        if lo + i < used then Bytes.blit page (i * 4) sums ((lo + i) * 4) 4
      done
    done
  end;
  let live_map = Array.make (max 64 used) false in
  for i = 0 to used - 1 do
    live_map.(i) <- true
  done;
  (* rebuild the free list from the intrusive on-disk chain *)
  let free_list = ref [] and n_free = ref 0 in
  let fpage = Bytes.create ps in
  let cur = ref free_head in
  while !cur <> nil do
    let id = !cur in
    if id < 0 || id >= used || not live_map.(id) then
      fail ?page:(if id >= 0 && id < used then Some id else None)
        ~component:"pager.free_list" "Pager.open_file: corrupt free list (page %d)"
        id;
    live_map.(id) <- false;
    free_list := id :: !free_list;
    incr n_free;
    pread_buf fd ~off:(dphys id * ps) fpage ps;
    if checksums && Bu.fnv32 fpage 0 ps <> Bu.get_u32 sums (id * 4) then begin
      Obs.Metrics.incr Storage_error.checksum_failures;
      fail ~page:id ~component:"pager.free_list"
        "Pager.open_file: corrupt free list (checksum mismatch on page %d)" id
    end;
    cur := Bu.get_u32 fpage 0
  done;
  if used - !n_free <> live then
    fail ~component:"pager.header"
      "Pager.open_file: corrupt header (live count %d, found %d)" live
      (used - !n_free);
  let t =
    make ~page_size:ps ~checksums
      (File { fd; path; live_map; dirty = Hashtbl.create 64 })
  in
  t.used <- used;
  t.live <- live;
  t.free_list <- List.rev !free_list;
  t.meta <- meta;
  t.sums <- sums;
  t.committed_meta <- t.meta;
  t.committed_used <- t.used;
  t.committed_free <- t.free_list;
  t.committed_live <- t.live;
  t

(* ------------------------------------------------------------------ *)
(* Sync: journal, checkpoint, clear                                    *)
(* ------------------------------------------------------------------ *)

let check_open t = if t.closed then invalid_arg "Pager: store is closed"

(* write a committed image straight to the backend, bypassing the dirty
   table, the fault plan, and the checksum bookkeeping — this is the
   hardware losing a write, not the pager writing one *)
let clobber_page t id b =
  match t.backend with
  | Memory m ->
      if id < Array.length m.pages && m.pages.(id) <> None then
        m.pages.(id) <- Some (Bytes.copy b)
  | File f -> pwrite_buf f.fd ~off:(data_phys t id * t.page_size) b t.page_size
  | Snap _ -> invalid_arg "Pager: cannot clobber a snapshot"

(* lost writes armed by [Stale_page] land once the next sync completes *)
let apply_stale t =
  match t.faults with
  | Some ({ stale = (_ :: _) as snaps; _ } as p) ->
      List.iter (fun (id, b) -> clobber_page t id b) snaps;
      p.stale <- []
  | _ -> ()

(* Called with [t.lock] held, just before page [id]'s committed image is
   overwritten: preserve that image in the overlay of every live snapshot
   that pinned it and has not stashed it yet.  [fetch] reads the current
   committed image lazily (at most once per call); overlays may share the
   fetched buffer because committed images are replaced, never mutated in
   place, and overlay reads hand out copies. *)
let stash_committed t id fetch =
  match t.snaps with
  | [] -> ()
  | snaps ->
      let cached = ref None in
      let get () =
        match !cached with
        | Some b -> b
        | None ->
            let b = fetch () in
            cached := Some b;
            b
      in
      List.iter
        (fun s ->
          match s.backend with
          | Snap sn
            when (not sn.released)
                 && id < s.used
                 && sn.snap_live.(id)
                 && not (Hashtbl.mem sn.overlay id) ->
              Hashtbl.add sn.overlay id (get ())
          | _ -> ())
        snaps

let sync_locked t =
  check_open t;
  Obs.Metrics.incr m_syncs;
  (match t.faults with
  | Some p when p.crashed ->
      (* a crashed process must not touch the files again — in particular
         it must not truncate a journal that already committed *)
      raise (Fault "Pager: crashed (sync after fault)")
  | _ -> ());
  (match t.backend with
  | Snap _ -> invalid_arg "Pager.sync: snapshot is read-only"
  | Memory _ -> () (* memory writes are applied immediately *)
  | File f ->
      if
        Hashtbl.length f.dirty > 0 || t.free_dirty || t.meta_dirty
      then begin
        (* the transaction: dirty pages, the (re-linked) free chain, and
           always the header — first as logical (id, bytes) pairs *)
        let logical = ref [] in
        Hashtbl.iter (fun id b -> logical := (id, b) :: !logical) f.dirty;
        if t.free_dirty then begin
          let rec chain = function
            | [] -> ()
            | id :: rest ->
                let next = match rest with n :: _ -> n | [] -> nil in
                logical := (id, free_chain_page t ~next) :: !logical;
                chain rest
          in
          chain t.free_list
        end;
        let logical = !logical in
        (* copy-on-commit: the checkpoint below overwrites these pages'
           committed images in place, so stash the old images for any
           snapshot still reading them *)
        List.iter
          (fun (id, _) ->
            stash_committed t id (fun () ->
                let b = Bytes.create t.page_size in
                pread_buf f.fd ~off:(data_phys t id * t.page_size) b
                  t.page_size;
                b))
          logical;
        (* with checksums on, refresh the sums of every page in the
           transaction and add the covering checksum pages as ordinary
           physical records — they commit atomically with the data *)
        let sum_records =
          if not t.checksums then []
          else begin
            let gs = group_size t.page_size in
            List.iter
              (fun (id, b) -> set_sum t id (Bu.fnv32 b 0 t.page_size))
              logical;
            List.map
              (fun g -> (sum_phys t g, checksum_page t g))
              (List.sort_uniq compare
                 (List.map (fun (id, _) -> id / gs) logical))
          end
        in
        let records =
          (0, encode_header t)
          :: List.map (fun (id, b) -> (data_phys t id, b)) logical
          @ sum_records
        in
        let records =
          List.sort (fun (a, _) (b, _) -> compare a b) records
        in
        let count = List.length records in
        Obs.Metrics.incr m_j_commits;
        Obs.Metrics.add m_j_records count;
        (* 1. write the journal (new images), fsync it *)
        let jfd =
          Unix.openfile (journal_path f.path)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> Unix.close jfd)
          (fun () ->
            let head = Bytes.create 16 in
            Bytes.blit_string journal_magic 0 head 0 8;
            Bu.put_u32 head 8 t.page_size;
            Bu.put_u32 head 12 count;
            pwrite_buf jfd ~off:0 head 16;
            let sum = ref 0x811C9DC5 in
            List.iteri
              (fun r (idx, page) ->
                let rec_len = 4 + t.page_size in
                let buf = Bytes.create rec_len in
                Bu.put_u32 buf 0 idx;
                Bytes.blit page 0 buf 4 t.page_size;
                sum := Bu.fnv32 ~init:!sum buf 0 rec_len;
                let off = 16 + (r * rec_len) in
                inject_write t
                  ~full:(fun () -> pwrite_buf jfd ~off buf rec_len)
                  ~half:(fun () -> pwrite_buf jfd ~off buf (rec_len / 2)))
              records;
            let tail = Bytes.create 12 in
            Bu.put_u32 tail 0 !sum;
            Bytes.blit_string commit_marker 0 tail 4 8;
            let off = 16 + (count * (4 + t.page_size)) in
            inject_write t
              ~full:(fun () -> pwrite_buf jfd ~off tail 12)
              ~half:(fun () -> pwrite_buf jfd ~off tail 6);
            Unix.fsync jfd;
            Obs.Metrics.incr m_j_fsyncs);
        (* 2. checkpoint the same images into the main file, fsync *)
        List.iter
          (fun (idx, page) ->
            let off = idx * t.page_size in
            inject_write t
              ~full:(fun () -> pwrite_buf f.fd ~off page t.page_size)
              ~half:(fun () -> pwrite_buf f.fd ~off page (t.page_size / 2)))
          records;
        Unix.fsync f.fd;
        Obs.Metrics.incr m_j_fsyncs;
        (* 3. the transaction is durable; drop the journal *)
        Sys.remove (journal_path f.path);
        Hashtbl.reset f.dirty;
        t.free_dirty <- false;
        t.meta_dirty <- false;
        (* the checkpoint is durable: this allocation state is what the
           next snapshot pins *)
        t.committed_meta <- t.meta;
        t.committed_used <- t.used;
        t.committed_free <- t.free_list;
        t.committed_live <- t.live
      end);
  apply_stale t

let sync t =
  match t.backend with
  | Snap _ -> invalid_arg "Pager.sync: snapshot is read-only"
  | Memory _ | File _ -> with_lock t (fun () -> sync_locked t)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let is_snapshot t = match t.backend with Snap _ -> true | _ -> false

let durable t =
  match t.backend with
  | File _ -> true
  | Memory _ -> false
  | Snap sn -> ( match sn.parent.backend with File _ -> true | _ -> false)

let live_snapshots t = with_lock t (fun () -> List.length t.snaps)

let snapshot t =
  with_lock t @@ fun () ->
  check_open t;
  let used, live, free_list, meta, snap_live =
    match t.backend with
    | Snap _ -> invalid_arg "Pager.snapshot: cannot snapshot a snapshot"
    | Memory m ->
        (* memory writes apply immediately, so committed = current *)
        let sl = Array.init t.used (fun i -> m.pages.(i) <> None) in
        (t.used, t.live, t.free_list, t.meta, sl)
    | File _ ->
        let sl = Array.make t.committed_used true in
        List.iter
          (fun id -> if id < t.committed_used then sl.(id) <- false)
          t.committed_free;
        ( t.committed_used,
          t.committed_live,
          t.committed_free,
          t.committed_meta,
          sl )
  in
  let s =
    {
      page_size = t.page_size;
      checksums = t.checksums;
      backend =
        Snap
          {
            parent = t;
            overlay = Hashtbl.create 16;
            snap_live;
            released = false;
          };
      used;
      free_list;
      live;
      closed = false;
      meta;
      meta_dirty = false;
      free_dirty = false;
      phys_writes = 0;
      (* the pinned checksums: a media fault that rots a committed page
         under a snapshot is still detected on that snapshot's reads *)
      sums = Bytes.copy t.sums;
      faults = None;
      stats = Stats.create ();
      lock = Mutex.create ();  (* unused: snapshot ops take the parent's *)
      snaps = [];
      committed_meta = meta;
      committed_used = used;
      committed_free = free_list;
      committed_live = live;
    }
  in
  t.snaps <- s :: t.snaps;
  s

let release_snapshot s =
  match s.backend with
  | Snap sn ->
      with_lock sn.parent @@ fun () ->
      if not sn.released then begin
        sn.released <- true;
        s.closed <- true;
        sn.parent.snaps <- List.filter (fun x -> x != s) sn.parent.snaps;
        Stats.merge_into ~into:sn.parent.stats s.stats
      end
  | Memory _ | File _ -> invalid_arg "Pager.release_snapshot: not a snapshot"

let close t =
  match t.backend with
  | Snap _ -> release_snapshot t
  | Memory _ -> with_lock t (fun () -> t.closed <- true)
  | File f ->
      with_lock t @@ fun () ->
      if not t.closed then begin
        let fin () =
          t.closed <- true;
          Unix.close f.fd
        in
        (match sync_locked t with
        | () -> fin ()
        | exception e ->
            fin ();
            raise e)
      end

let page_size t = t.page_size
let checksums_enabled t = t.checksums
let stats t = t.stats
let physical_writes t = t.phys_writes

(* Buffer pools mirror their events here rather than poking the record
   directly, so every mutation of a pager's stats — page ops, pool
   events, snapshot merges — serializes on the same lock. *)
(* Hand-rolled lock scope (no [with_lock] closure): this rides the
   pool-hit hot path, which must stay allocation-free, and the guarded
   field bumps cannot raise. *)
let record_pool_event t ev =
  Mutex.lock t.lock;
  (match ev with
  | `Hit -> t.stats.Stats.pool_hits <- t.stats.Stats.pool_hits + 1
  | `Miss -> t.stats.Stats.pool_misses <- t.stats.Stats.pool_misses + 1
  | `Eviction ->
      t.stats.Stats.pool_evictions <- t.stats.Stats.pool_evictions + 1);
  Mutex.unlock t.lock

let meta t = t.meta

let set_meta t m =
  (match t.backend with
  | Snap _ -> invalid_arg "Pager.set_meta: snapshot is read-only"
  | Memory _ | File _ -> ());
  with_lock t @@ fun () ->
  check_open t;
  if String.length m > meta_capacity t.page_size then
    invalid_arg "Pager.set_meta: metadata does not fit in the header page";
  if m <> t.meta then begin
    t.meta <- m;
    t.meta_dirty <- true
  end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Media faults damage the {e committed} backend state directly — they
   model the disk rotting underneath the pager, so they bypass the dirty
   table and the checksum bookkeeping. *)
let apply_media t plan =
  let ps = t.page_size in
  let check_page what page =
    if page < 0 || page >= t.used then
      invalid_arg
        (Printf.sprintf "Pager.create_faulty: %s targets page %d (out of range)"
           what page)
  in
  let committed t id =
    match t.backend with
    | Memory m -> (
        match m.pages.(id) with Some b -> Bytes.copy b | None -> Bytes.make ps '\000')
    | File f ->
        let b = Bytes.create ps in
        pread_buf f.fd ~off:(data_phys t id * ps) b ps;
        b
    | Snap _ -> invalid_arg "Pager.create_faulty: snapshots cannot arm faults"
  in
  List.iter
    (fun mf ->
      match mf with
      | Flip_bit { page; bit } ->
          check_page "flip_bit" page;
          let bit = ((bit mod (ps * 8)) + (ps * 8)) mod (ps * 8) in
          let b = committed t page in
          let byte = bit / 8 in
          Bytes.set b byte
            (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
          clobber_page t page b
      | Zero_page { page } ->
          check_page "zero_page" page;
          clobber_page t page (Bytes.make ps '\000')
      | Truncate_file { keep } -> (
          match t.backend with
          | Memory _ | Snap _ ->
              invalid_arg "Pager.create_faulty: truncate_file needs a file backend"
          | File f ->
              if keep < 0 then
                invalid_arg "Pager.create_faulty: truncate_file keep < 0";
              Unix.ftruncate f.fd (keep * ps))
      | Stale_page { page } ->
          check_page "stale_page" page;
          plan.stale <- (page, committed t page) :: plan.stale)
    plan.spec.media

let create_faulty spec t =
  (match t.backend with
  | Snap _ -> invalid_arg "Pager.create_faulty: snapshots cannot arm faults"
  | Memory _ | File _ -> ());
  with_lock t @@ fun () ->
  let plan = { spec; reads_seen = 0; crashed = false; stale = [] } in
  t.faults <- Some plan;
  apply_media t plan;
  t

(* ------------------------------------------------------------------ *)
(* Page operations                                                     *)
(* ------------------------------------------------------------------ *)

let grow_array a default =
  let n = Array.length a in
  let b = Array.make (2 * n) default in
  Array.blit a 0 b 0 n;
  b

let is_live t id =
  id >= 0 && id < t.used
  &&
  match t.backend with
  | Memory m -> m.pages.(id) <> None
  | File f -> f.live_map.(id)
  | Snap sn -> sn.snap_live.(id)

let high_water t = t.used
let free_pages t = t.free_list

let alloc t =
  (match t.backend with
  | Snap _ -> invalid_arg "Pager.alloc: snapshot is read-only"
  | Memory _ | File _ -> ());
  with_lock t @@ fun () ->
  check_open t;
  Obs.Metrics.incr m_allocs;
  t.stats.allocs <- t.stats.allocs + 1;
  t.live <- t.live + 1;
  let id =
    match t.free_list with
    | id :: rest ->
        t.free_list <- rest;
        t.free_dirty <- true;
        id
    | [] ->
        let id = t.used in
        t.used <- t.used + 1;
        id
  in
  (match t.backend with
  | Memory m ->
      if id >= Array.length m.pages then m.pages <- grow_array m.pages None;
      m.pages.(id) <- Some (Bytes.make t.page_size '\000');
      if t.checksums then
        set_sum t id (Bu.fnv32 (Bytes.make t.page_size '\000') 0 t.page_size)
  | File f ->
      if id >= Array.length f.live_map then
        f.live_map <- grow_array f.live_map false;
      f.live_map.(id) <- true;
      Hashtbl.replace f.dirty id (Bytes.make t.page_size '\000')
  | Snap _ -> assert false);
  id

let check_live t id =
  check_open t;
  if id < 0 || id >= t.used then invalid_arg "Pager: page id out of range";
  if not (is_live t id) then invalid_arg "Pager: page not allocated"

let read t id =
  match t.backend with
  | Snap sn ->
      (* the snapshot's own bounds/liveness/sums are frozen, so only the
         fetch from the parent's shared storage needs the parent's lock *)
      check_live t id;
      Obs.Metrics.incr m_reads;
      t.stats.reads <- t.stats.reads + 1;
      let b =
        with_lock sn.parent @@ fun () ->
        if sn.released then invalid_arg "Pager.read: snapshot was released";
        match Hashtbl.find_opt sn.overlay id with
        | Some b -> Bytes.copy b
        | None -> (
            if sn.parent.closed then
              invalid_arg "Pager.read: parent pager is closed";
            match sn.parent.backend with
            | Memory m -> (
                match m.pages.(id) with
                | Some b -> Bytes.copy b
                | None -> assert false (* stashed before the free *))
            | File f ->
                (* committed image: bypass the writer's dirty table *)
                let b = Bytes.create t.page_size in
                pread_buf f.fd ~off:(data_phys t id * t.page_size) b
                  t.page_size;
                b
            | Snap _ -> assert false)
      in
      verify_page t id b;
      b
  | Memory _ | File _ -> (
      with_lock t @@ fun () ->
      check_live t id;
      inject_read t;
      Obs.Metrics.incr m_reads;
      t.stats.reads <- t.stats.reads + 1;
      match t.backend with
      | Memory m -> (
          match m.pages.(id) with
          | Some b ->
              verify_page t id b;
              Bytes.copy b
          | None -> assert false)
      | File f -> (
          match Hashtbl.find_opt f.dirty id with
          | Some b -> Bytes.copy b (* not yet committed: nothing to verify *)
          | None ->
              let b = Bytes.create t.page_size in
              pread_buf f.fd ~off:(data_phys t id * t.page_size) b t.page_size;
              verify_page t id b;
              b)
      | Snap _ -> assert false)

let write t id b =
  (match t.backend with
  | Snap _ -> invalid_arg "Pager.write: snapshot is read-only"
  | Memory _ | File _ -> ());
  if Bytes.length b <> t.page_size then
    invalid_arg "Pager.write: wrong page size";
  with_lock t @@ fun () ->
  check_live t id;
  Obs.Metrics.incr m_writes;
  t.stats.writes <- t.stats.writes + 1;
  match t.backend with
  | Memory m ->
      (* memory writes commit immediately: preserve the old image for
         pinned snapshots before it is replaced *)
      stash_committed t id (fun () ->
          match m.pages.(id) with Some o -> o | None -> assert false);
      inject_write t
        ~full:(fun () ->
          m.pages.(id) <- Some (Bytes.copy b);
          if t.checksums then set_sum t id (Bu.fnv32 b 0 t.page_size))
        ~half:(fun () ->
          (* a torn write: the first half lands, the rest keeps its old
             content — the recorded sum is intentionally NOT updated, so
             a checksumming pager detects the tear on the next read *)
          let old =
            match m.pages.(id) with Some o -> o | None -> assert false
          in
          let torn = Bytes.copy old in
          Bytes.blit b 0 torn 0 (t.page_size / 2);
          m.pages.(id) <- Some torn)
  | File f -> Hashtbl.replace f.dirty id (Bytes.copy b)
  | Snap _ -> assert false

let free t id =
  (match t.backend with
  | Snap _ -> invalid_arg "Pager.free: snapshot is read-only"
  | Memory _ | File _ -> ());
  with_lock t @@ fun () ->
  check_live t id;
  Obs.Metrics.incr m_frees;
  (match t.backend with
  | Memory m ->
      stash_committed t id (fun () ->
          match m.pages.(id) with Some o -> o | None -> assert false);
      m.pages.(id) <- None
  | File f ->
      f.live_map.(id) <- false;
      Hashtbl.remove f.dirty id
  | Snap _ -> assert false);
  t.live <- t.live - 1;
  t.free_list <- id :: t.free_list;
  t.free_dirty <- true

let page_count t = t.live

module Cache = struct
  type nonrec t = { fetch : int -> Bytes.t; seen : (int, Bytes.t) Hashtbl.t }

  let of_read fetch = { fetch; seen = Hashtbl.create 64 }
  let create pager = of_read (read pager)

  let read t id =
    match Hashtbl.find_opt t.seen id with
    | Some b -> b
    | None ->
        let b = t.fetch id in
        Hashtbl.add t.seen id b;
        b

  let distinct_reads t = Hashtbl.length t.seen
end
