(* Crash-recovery property tests.

   Each case derives a workload (random inserts/deletes with periodic
   commits) and a fault schedule from one seed, runs it twice — once clean
   to learn how many physical writes the workload performs, once with a
   write fault injected somewhere in that range — then reopens the file
   and checks the recovered tree.

   Because file-backed writes are buffered until {!Storage.Pager.sync},
   the injected fault always fires inside a sync, and a sync is atomic:
   either the journal committed (the crash hit the checkpoint phase, and
   recovery replays it) or it did not (the torn journal is discarded and
   the file still holds the previous commit).  The recovered contents must
   therefore equal EXACTLY one of two model snapshots: the last
   acknowledged commit, or the commit that was in flight when the fault
   hit.  Nothing in between, nothing lost, nothing invented. *)

module Pager = Storage.Pager
module Rng = Workload.Rng
module Smap = Map.Make (String)

type op = Insert of string * string | Delete of string

let gen_workload rng =
  let n_ops = 40 + Rng.int rng 80 in
  let key () = Printf.sprintf "k%04d" (Rng.int rng 300) in
  List.init n_ops (fun i ->
      if Rng.int rng 5 = 0 then Delete (key ())
      else Insert (key (), Printf.sprintf "v%d_%d" i (Rng.int rng 1000)))

(* Runs the workload; commits every [sync_every] ops and once at the end.
   Returns the crash outcome, the model at the last acknowledged commit,
   and the model of the commit that was being attempted when the fault
   fired (equal to the former when no sync was in flight). *)
let run_workload ~path ~ops ~sync_every ~fault =
  let pager = Pager.create_file ~page_size:256 path in
  let t = Btree.create pager in
  (* commit the empty tree first so the header metadata always names a
     valid root, whatever happens later; faults arm only after it, so a
     schedule can never hit this setup commit *)
  Btree.sync t;
  let setup_writes = Pager.physical_writes pager in
  (match fault with Some spec -> ignore (Pager.create_faulty spec pager) | None -> ());
  let model = ref Smap.empty in
  let last_synced = ref Smap.empty in
  let attempted = ref Smap.empty in
  let commit () =
    attempted := !model;
    Btree.sync t;
    last_synced := !model
  in
  let outcome =
    match
      List.iteri
        (fun i op ->
          (match op with
          | Insert (k, v) ->
              Btree.insert t ~key:k ~value:v;
              model := Smap.add k v !model
          | Delete k ->
              ignore (Btree.delete t k);
              model := Smap.remove k !model);
          if (i + 1) mod sync_every = 0 then commit ())
        ops;
      commit ();
      Pager.close pager
    with
    | () -> `Completed
    | exception Pager.Fault _ ->
        (* a crashed process just dies; close only releases the fd *)
        (try Pager.close pager with Pager.Fault _ -> ());
        `Crashed
  in
  (outcome, !last_synced, !attempted, setup_writes, Pager.physical_writes pager)

let tree_contents t =
  let out = ref Smap.empty in
  Btree.iter t (fun e -> out := Smap.add e.Btree.key (e.value ()) !out);
  !out

let with_temp_pages f =
  let path = Filename.temp_file "uindex_recovery" ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Pager.journal_path path ])
    (fun () -> f path)

let prop_crash_recovery =
  QCheck.Test.make ~count:500 ~name:"crash mid-commit loses nothing acknowledged"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let ops = gen_workload rng in
      let sync_every = 8 + Rng.int rng 16 in
      let torn = Rng.int rng 2 = 0 in
      (* clean run: learn the workload's physical write count *)
      let setup_writes, total_writes =
        with_temp_pages (fun path ->
            match run_workload ~path ~ops ~sync_every ~fault:None with
            | `Completed, _, _, w0, w -> (w0, w)
            | `Crashed, _, _, _, _ -> QCheck.Test.fail_report "clean run crashed")
      in
      if total_writes <= setup_writes then
        QCheck.Test.fail_report "workload wrote nothing";
      let fail_at =
        setup_writes + 1 + Rng.int rng (total_writes - setup_writes)
      in
      let fault =
        { Pager.no_faults with fail_write = Some fail_at; torn }
      in
      with_temp_pages (fun path ->
          let outcome, last_synced, attempted, _, _ =
            run_workload ~path ~ops ~sync_every ~fault:(Some fault)
          in
          if outcome <> `Crashed then
            QCheck.Test.fail_reportf "fault at write %d/%d never fired"
              fail_at total_writes;
          (* recovery: open_file replays or discards the journal *)
          let pager = Pager.open_file path in
          let t = Btree.reattach pager in
          let report = Btree.check_invariants t in
          let got = tree_contents t in
          Pager.close pager;
          if Sys.file_exists (Pager.journal_path path) then
            QCheck.Test.fail_report "journal survived recovery";
          if report.Btree.entries <> Smap.cardinal got then
            QCheck.Test.fail_report "invariant report disagrees with contents";
          if not (Smap.equal String.equal got last_synced) then
            if not (Smap.equal String.equal got attempted) then
              QCheck.Test.fail_reportf
                "recovered %d entries: neither the last commit (%d) nor the \
                 one in flight (%d)"
                (Smap.cardinal got)
                (Smap.cardinal last_synced)
                (Smap.cardinal attempted);
          true))

(* [create_file] over a crashed database's debris — its page file and
   whatever journal the crash left — makes a new database: reopened
   before its first sync it is the new empty file, after it the new
   contents, never the old database's last transaction. *)
let prop_create_over_debris =
  QCheck.Test.make ~count:100 ~name:"create_file over a crash starts afresh"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let ops = gen_workload rng in
      let sync_every = 8 + Rng.int rng 16 in
      let torn = Rng.int rng 2 = 0 in
      let setup_writes, total_writes =
        with_temp_pages (fun path ->
            match run_workload ~path ~ops ~sync_every ~fault:None with
            | `Completed, _, _, w0, w -> (w0, w)
            | `Crashed, _, _, _, _ -> QCheck.Test.fail_report "clean run crashed")
      in
      let fault =
        {
          Pager.no_faults with
          fail_write =
            Some (setup_writes + 1 + Rng.int rng (total_writes - setup_writes));
          torn;
        }
      in
      let fresh = Smap.of_list [ ("fresh-a", "1"); ("fresh-b", "2") ] in
      with_temp_pages (fun path ->
          let crash_then_create ~synced =
            (match run_workload ~path ~ops ~sync_every ~fault:(Some fault) with
            | `Crashed, _, _, _, _ -> ()
            | `Completed, _, _, _, _ ->
                QCheck.Test.fail_report "fault never fired");
            let pager = Pager.create_file ~page_size:256 path in
            let t = Btree.create pager in
            Smap.iter (fun key value -> Btree.insert t ~key ~value) fresh;
            if synced then Btree.sync t;
            (* the process dies here: the files keep what they hold now,
               whatever [close]'s own sync writes after *)
            let image =
              List.map
                (fun p ->
                  ( p,
                    if Sys.file_exists p then
                      Some (In_channel.with_open_bin p In_channel.input_all)
                    else None ))
                [ path; Pager.journal_path path ]
            in
            Pager.close pager;
            List.iter
              (fun (p, bytes) ->
                match bytes with
                | Some b -> Out_channel.with_open_bin p (fun oc -> output_string oc b)
                | None -> if Sys.file_exists p then Sys.remove p)
              image
          in
          crash_then_create ~synced:false;
          let pager = Pager.open_file path in
          let empty = Pager.meta pager = "" && Pager.page_count pager = 0 in
          Pager.close pager;
          if not empty then
            QCheck.Test.fail_report "before the first sync: not the empty file";
          crash_then_create ~synced:true;
          let pager = Pager.open_file path in
          let got = tree_contents (Btree.reattach pager) in
          Pager.close pager;
          if not (Smap.equal String.equal got fresh) then
            QCheck.Test.fail_reportf
              "after the first sync: %d entries, not the new file's %d"
              (Smap.cardinal got) (Smap.cardinal fresh);
          true))

(* A pager crash must also never corrupt free-list state: crash during a
   commit that frees pages, recover, and allocation still works with no
   page handed out twice. *)
let prop_crash_free_list =
  QCheck.Test.make ~count:100 ~name:"free list survives a crash"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      with_temp_pages (fun path ->
          let run fault =
            let p = Pager.create_file ~page_size:128 path in
            let ids = Array.init 12 (fun _ -> Pager.alloc p) in
            Array.iteri
              (fun i id -> Pager.write p id (Bytes.make 128 (Char.chr (65 + i))))
              ids;
            Pager.sync p;
            (match fault with
            | Some spec -> ignore (Pager.create_faulty spec p)
            | None -> ());
            (try
               for i = 0 to 11 do
                 if i mod 3 = seed mod 3 then Pager.free p ids.(i)
               done;
               Pager.sync p
             with Pager.Fault _ -> ());
            (try Pager.close p with Pager.Fault _ -> ());
            Pager.physical_writes p
          in
          let w = run None in
          Sys.remove path;
          let fail_at = 1 + Rng.int rng w in
          ignore (run (Some { Pager.no_faults with fail_write = Some fail_at;
                              torn = Rng.int rng 2 = 0 }));
          let p = Pager.open_file path in
          (* every live page is readable and every alloc yields a fresh id *)
          let live = ref [] in
          for id = 0 to 11 do
            match Pager.read p id with
            | _ -> live := id :: !live
            | exception Invalid_argument _ -> ()
          done;
          let fresh = List.init 6 (fun _ -> Pager.alloc p) in
          let all = fresh @ !live in
          let ok =
            List.length (List.sort_uniq compare all) = List.length all
          in
          Pager.close p;
          ok))

(* --- group-commit crash schedules -------------------------------------- *)

module Dg = Workload.Datagen
module Index = Uindex.Index
module Db = Uindex.Db
module Value = Objstore.Value

(* A schedule is a list of steps; each step applies a few mutations and
   commits them — mostly [`Async] (acknowledged, not yet flushed), with
   occasional synchronous durability points.  Because async commits
   write nothing physical, every buffered group reaches disk in ONE
   atomic pager sync, so a crash anywhere in the write sequence must
   recover to a whole-group boundary: everything up to the last
   acknowledged durability point, or everything the in-flight flush
   covered.  The states of individual async commits inside a group are
   NOT legal recovery outcomes — that is the boundary property this
   checks, at every physical write offset the workload has. *)

type gc_step = { g_ops : int; g_sync : bool }

let gen_schedule rng =
  let n = 6 + Rng.int rng 10 in
  List.init n (fun _ ->
      { g_ops = 1 + Rng.int rng 4; g_sync = Rng.int rng 3 = 0 })

let index_contents idx =
  let out = ref Smap.empty in
  Btree.iter (Index.tree idx) (fun e ->
      out := Smap.add e.Btree.key (e.value ()) !out);
  !out

let run_gc_workload ~path ~seed ~plan ~fault =
  let e = Dg.exp1 ~n_vehicles:40 ~n_companies:10 ~n_employees:5 ~seed () in
  let b = e.ext.b in
  let pager = Pager.create_file ~page_size:512 path in
  let idx =
    Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
  in
  let db = Db.create e.store in
  Db.add_index db idx;
  Db.sync db;
  let setup_writes = Pager.physical_writes pager in
  (match fault with
  | Some spec -> ignore (Pager.create_faulty spec pager)
  | None -> ());
  let durable_model = ref (index_contents idx) in
  let attempted = ref !durable_model in
  let rng = Rng.create (seed + 7919) in
  let oids = ref [] in
  let counter = ref 0 in
  let apply_op () =
    incr counter;
    match !oids with
    | o :: rest when Rng.int rng 6 = 0 ->
        oids := rest;
        Db.delete db o
    | _ ->
        let oid =
          Db.insert db ~cls:b.vehicle
            [ ("color", Value.Str (Printf.sprintf "gc-%04d" !counter)) ]
        in
        oids := oid :: !oids
  in
  let outcome =
    match
      List.iter
        (fun step ->
          for _ = 1 to step.g_ops do
            apply_op ()
          done;
          if step.g_sync then begin
            (* the flush this commit leads covers every async commit
               submitted since the previous durability point *)
            attempted := index_contents idx;
            let lsn = Db.commit db in
            if Db.durable_lsn db < lsn then
              failwith "sync commit returned before its LSN was durable";
            durable_model := !attempted
          end
          else begin
            let lsn = Db.commit ~mode:`Async db in
            ignore (lsn : int)
          end)
        plan;
      attempted := index_contents idx;
      Db.sync db;
      durable_model := !attempted;
      Pager.close pager
    with
    | () -> `Completed
    | exception Pager.Fault _ ->
        (try Pager.close pager with Pager.Fault _ -> ());
        `Crashed
  in
  ( outcome,
    !durable_model,
    !attempted,
    setup_writes,
    Pager.physical_writes pager )

let prop_group_commit_crash =
  QCheck.Test.make ~count:500
    ~name:"group commit crash recovers a whole-group boundary"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let plan = gen_schedule rng in
      let torn = Rng.int rng 2 = 0 in
      let setup_writes, total_writes =
        with_temp_pages (fun path ->
            match run_gc_workload ~path ~seed ~plan ~fault:None with
            | `Completed, _, _, w0, w -> (w0, w)
            | `Crashed, _, _, _, _ ->
                QCheck.Test.fail_report "clean run crashed")
      in
      if total_writes <= setup_writes then
        QCheck.Test.fail_report "schedule flushed nothing";
      let fail_at =
        setup_writes + 1 + Rng.int rng (total_writes - setup_writes)
      in
      let fault = { Pager.no_faults with fail_write = Some fail_at; torn } in
      with_temp_pages (fun path ->
          let outcome, durable_model, attempted, _, _ =
            run_gc_workload ~path ~seed ~plan ~fault:(Some fault)
          in
          if outcome <> `Crashed then
            QCheck.Test.fail_reportf "fault at write %d/%d never fired"
              fail_at total_writes;
          let pager = Pager.open_file path in
          let t = Btree.reattach pager in
          let report = Btree.check_invariants t in
          let got = tree_contents t in
          Pager.close pager;
          if report.Btree.entries <> Smap.cardinal got then
            QCheck.Test.fail_report "invariant report disagrees with contents";
          (* the recovered state must be exactly a group boundary — the
             acknowledged watermark state, or the whole in-flight group
             (which supersedes it, including its deletes).  Anything
             else either lost an acknowledged commit or leaked a partial
             group. *)
          if not (Smap.equal String.equal got durable_model) then
            if not (Smap.equal String.equal got attempted) then
              QCheck.Test.fail_reportf
                "recovered %d entries: neither the watermark state (%d) \
                 nor the in-flight group (%d) — a partial group leaked"
                (Smap.cardinal got)
                (Smap.cardinal durable_model)
                (Smap.cardinal attempted);
          true))

(* recover_status distinguishes the three outcomes the CLI's exit codes
   report: no journal, a committed journal replayed, a torn journal
   discarded. *)

let status_t =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | Pager.No_journal -> "No_journal"
        | Pager.Replayed -> "Replayed"
        | Pager.Discarded_torn -> "Discarded_torn"))
    ( = )

let test_status_no_journal () =
  with_temp_pages (fun path ->
      let p = Pager.create_file ~page_size:256 path in
      let id = Pager.alloc p in
      Pager.write p id (Bytes.make 256 'a');
      Pager.sync p;
      Pager.close p;
      Alcotest.check status_t "clean file" Pager.No_journal
        (Pager.recover_status path))

let test_status_discarded_torn () =
  with_temp_pages (fun path ->
      let p = Pager.create_file ~page_size:256 path in
      let id = Pager.alloc p in
      Pager.write p id (Bytes.make 256 'a');
      Pager.sync p;
      Pager.close p;
      (* a torn journal: right magic, never reached the commit marker *)
      let oc = open_out_bin (Pager.journal_path path) in
      output_string oc "UJRNL1\n\000half-written garbage";
      close_out oc;
      Alcotest.check status_t "torn journal" Pager.Discarded_torn
        (Pager.recover_status path);
      Alcotest.(check bool) "journal removed" false
        (Sys.file_exists (Pager.journal_path path));
      (* the pre-transaction state is intact *)
      let p = Pager.open_file path in
      Alcotest.(check char) "old content" 'a' (Bytes.get (Pager.read p id) 0);
      Pager.close p)

let test_status_replayed () =
  with_temp_pages (fun path ->
      (* crash on the very last physical write of a commit: the journal
         is fully durable, only the checkpoint is incomplete *)
      let build fault =
        let p = Pager.create_file ~page_size:256 path in
        let id = Pager.alloc p in
        Pager.write p id (Bytes.make 256 'a');
        Pager.sync p;
        (match fault with
        | Some s -> ignore (Pager.create_faulty s p)
        | None -> ());
        (try
           Pager.write p id (Bytes.make 256 'b');
           Pager.sync p
         with Pager.Fault _ -> ());
        (try Pager.close p with Pager.Fault _ -> ());
        Pager.physical_writes p
      in
      let w = build None in
      Sys.remove path;
      ignore (build (Some { Pager.no_faults with fail_write = Some w }));
      Alcotest.check status_t "committed journal" Pager.Replayed
        (Pager.recover_status path);
      (* replay restored the in-flight commit *)
      let p = Pager.open_file path in
      Alcotest.(check char) "new content" 'b' (Bytes.get (Pager.read p 0) 0);
      Pager.close p)

let status_suite =
  [
    Alcotest.test_case "no journal" `Quick test_status_no_journal;
    Alcotest.test_case "torn journal discarded" `Quick
      test_status_discarded_torn;
    Alcotest.test_case "committed journal replayed" `Quick
      test_status_replayed;
  ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_crash_recovery;
      prop_create_over_debris;
      prop_crash_free_list;
      prop_group_commit_crash;
    ]

let () =
  Alcotest.run "recovery"
    [ ("crash", qsuite); ("recover_status", status_suite) ]
