module Store = Objstore.Store
module Value = Objstore.Value

let src = Logs.Src.create "uindex.db" ~doc:"U-index database façade"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  store : Store.t;
  mutable indexes : Index.t list;
  writer : Mutex.t;
      (* serializes every mutation (and session pinning, so a session
         never pins a half-applied commit) *)
  gc : Storage.Group_commit.t;
      (* batches concurrent commit requests into shared flushes; lock
         order is writer -> gc's internal mutex, never the reverse *)
}

let with_writer t f =
  Mutex.lock t.writer;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) f

let create store =
  (* the coordinator's flush function closes over the db record we are
     about to build; break the cycle with a forward cell *)
  let cell = ref None in
  let flush () =
    match !cell with
    | None -> assert false
    | Some t ->
        with_writer t @@ fun () ->
        (* sample the target after taking the writer lock: every
           transaction submitted by then is fully applied, so the
           flushed image is always a whole-transaction prefix *)
        let target = Storage.Group_commit.submitted t.gc in
        List.iter Index.sync t.indexes;
        target
  in
  let t =
    {
      store;
      indexes = [];
      writer = Mutex.create ();
      gc = Storage.Group_commit.create ~flush ();
    }
  in
  cell := Some t;
  t

let store t = t.store
let indexes t = t.indexes
let register ?(build = true) t idx =
  if build then Index.build idx t.store;
  Log.debug (fun m ->
      m "registered index (%d entries)" (Index.entry_count idx));
  t.indexes <- t.indexes @ [ idx ]

let add_index t idx = with_writer t (fun () -> register t idx)

let attach_index t idx =
  (* the index already holds its entries (e.g. it was re-opened from a
     page file): register it without rebuilding *)
  with_writer t (fun () -> register ~build:false t idx)

let remove_index t idx =
  with_writer t @@ fun () ->
  t.indexes <- List.filter (fun i -> i != idx) t.indexes

(* [(old - now, now - old)] by one merge over the sorted key sets: a
   mid-path object can sit on thousands of chains, so the diff must not
   be quadratic *)
let key_diff old now =
  let rec go stale fresh old now =
    match (old, now) with
    | [], _ -> (List.rev stale, List.rev_append fresh now)
    | _, [] -> (List.rev_append stale old, List.rev fresh)
    | o :: old', n :: now' ->
        let c = String.compare o n in
        if c = 0 then go stale fresh old' now'
        else if c < 0 then go (o :: stale) fresh old' now
        else go stale (n :: fresh) old now'
  in
  go [] [] old now

(* Objects whose index entries can change when [oid]'s attributes change:
   [oid] itself is enough, because every entry involving [oid] contains it
   as a component and [Index.entry_keys] enumerates chains through every
   position. *)
let reindex_around t f oid =
  let keys idx = List.sort_uniq String.compare (Index.entry_keys idx t.store oid) in
  let old_keys = List.map keys t.indexes in
  f ();
  List.iter2
    (fun idx old ->
      let stale, fresh = key_diff old (keys idx) in
      Log.debug (fun m ->
          m "reindex oid %d: -%d +%d entries" oid (List.length stale)
            (List.length fresh));
      List.iter (fun k -> ignore (Btree.delete (Index.tree idx) k)) stale;
      (* clustered fresh entries merge in one batched pass (Section 3.5) *)
      Btree.insert_batch (Index.tree idx) (List.map (fun k -> (k, "")) fresh))
    t.indexes old_keys

let insert t ~cls attrs =
  with_writer t @@ fun () ->
  let oid = Store.insert t.store ~cls attrs in
  List.iter (fun idx -> Index.index_object idx t.store oid) t.indexes;
  oid

let delete t oid =
  with_writer t @@ fun () ->
  List.iter (fun idx -> Index.deindex_object idx t.store oid) t.indexes;
  Store.delete t.store oid

let set_attr t oid attr v =
  with_writer t @@ fun () ->
  reindex_around t (fun () -> Store.set_attr t.store oid attr v) oid

let query ?(algo = `Parallel) _t idx q = Exec.run ~algo idx q

(* --- commits and the durability watermark -------------------------------- *)

let commit ?(mode = `Sync) t =
  (* the LSN is taken under the writer lock so "submitted" always means
     "fully applied": any flush sampling the watermark afterwards
     includes this transaction as a whole or not at all *)
  let lsn = with_writer t (fun () -> Storage.Group_commit.submit t.gc) in
  (match mode with
  | `Sync -> Storage.Group_commit.wait_durable t.gc lsn
  | `Async -> ());
  lsn

let durable_lsn t = Storage.Group_commit.durable_lsn t.gc
let acked_lsn t = Storage.Group_commit.submitted t.gc
let wait_durable t lsn = Storage.Group_commit.wait_durable t.gc lsn
let set_group_window t w = Storage.Group_commit.set_window t.gc w
let sync t = ignore (commit t)

(* --- snapshot sessions ---------------------------------------------------- *)

type session = {
  views : (Index.t * Index.t) list;  (* (live index, pinned view) *)
  mutable open_ : bool;
}

(* Process-wide count of pinned sessions, mirrored into a gauge so the
   server's Health response can report it without holding a Db handle
   per registry entry. *)
let session_count = Atomic.make 0

let g_sessions =
  Obs.Metrics.gauge ~subsystem:"db"
    ~help:"snapshot sessions currently pinned" "active_sessions"

let active_sessions () = Atomic.get session_count

let open_session t =
  (* pin under the writer lock: all views see the same committed cut,
     never a half-applied mutation *)
  with_writer t @@ fun () ->
  let views = ref [] in
  (try
     List.iter
       (fun idx -> views := (idx, Index.snapshot_view idx) :: !views)
       t.indexes
   with e ->
     List.iter (fun (_, v) -> Index.release_view v) !views;
     raise e);
  Obs.Metrics.set g_sessions (Atomic.fetch_and_add session_count 1 + 1);
  { views = List.rev !views; open_ = true }

let close_session s =
  if s.open_ then begin
    s.open_ <- false;
    Obs.Metrics.set g_sessions (Atomic.fetch_and_add session_count (-1) - 1);
    List.iter (fun (_, v) -> Index.release_view v) s.views
  end

let with_session t f =
  let s = open_session t in
  Fun.protect ~finally:(fun () -> close_session s) (fun () -> f s)

let session_view s idx =
  if not s.open_ then invalid_arg "Db.session_view: session is closed";
  match List.assq_opt idx s.views with
  | Some v -> v
  | None ->
      if List.exists (fun (_, v) -> v == idx) s.views then idx
      else
        invalid_arg
          "Db.session_view: index was not registered when the session opened"

let session_indexes s = List.map snd s.views

let session_query ?(algo = `Parallel) s idx q =
  Exec.run ~algo (session_view s idx) q

let check t =
  List.iter
    (fun idx ->
      Btree.check (Index.tree idx);
      (* the live entry set must equal a fresh rebuild *)
      let live = ref [] in
      Btree.iter (Index.tree idx) (fun e -> live := e.key :: !live);
      let expected = ref [] in
      Store.iter t.store (fun o ->
          expected := Index.entry_keys idx t.store o.oid @ !expected);
      let live = List.sort_uniq String.compare !live
      and expected = List.sort_uniq String.compare !expected in
      if live <> expected then
        failwith
          (Printf.sprintf
             "Db.check: index out of sync (%d live entries, %d expected)"
             (List.length live) (List.length expected)))
    t.indexes
