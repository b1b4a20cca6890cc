(* Fault-tolerant serving: the chaos injector, the retrying client, the
   corruption quarantine, the online scrub and domain supervision.

   The headline property mirrors test_corruption's: under a seeded storm
   of connection resets, truncated replies, injected delays, slow-loris
   reads and worker crashes, a retrying client observes only
   byte-identical answers (vs. a fault-free baseline) or typed errors —
   never a hang past its deadline, never a silent wrong answer.  And the
   live quarantine never accuses a page the offline verifier would not. *)

module Dg = Workload.Datagen
module Ps = Workload.Paper_schema
module Db = Uindex.Db
module Index = Uindex.Index
module Verify = Uindex.Verify
module Pager = Storage.Pager
module Json = Obs.Json
module Metrics = Obs.Metrics
module Protocol = Uindex_server.Protocol
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client
module Chaos = Uindex_server.Chaos
module Scrub = Uindex_server.Scrub
module Quarantine = Uindex_server.Quarantine

let metric name =
  Option.value ~default:0 (Metrics.find Metrics.default name)

(* --- chaos spec grammar --------------------------------------------------- *)

let test_spec_parse () =
  (match Chaos.parse "seed=7,reset=0.05,partial=0.1,delay=0.2,delay-ms=3" with
  | Ok s ->
      Alcotest.(check int) "seed" 7 s.Chaos.seed;
      Alcotest.(check (float 1e-9)) "reset" 0.05 s.Chaos.reset;
      Alcotest.(check (float 1e-9)) "partial" 0.1 s.Chaos.partial;
      Alcotest.(check (float 1e-9)) "truncate" 0. s.Chaos.truncate;
      Alcotest.(check (float 1e-9)) "delay" 0.2 s.Chaos.delay;
      Alcotest.(check (float 1e-9)) "delay_ms" 3. s.Chaos.delay_ms;
      (* canonical spelling round-trips *)
      (match Chaos.parse (Chaos.spec_to_string s) with
      | Ok s' -> Alcotest.(check bool) "round trip" true (s = s')
      | Error e -> Alcotest.failf "round trip failed: %s" e)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Chaos.parse "" with
  | Ok s -> Alcotest.(check bool) "empty spec is none" true (s = Chaos.none)
  | Error e -> Alcotest.failf "empty spec: %s" e);
  List.iter
    (fun bad ->
      match Chaos.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "reset"; "reset=1.5"; "reset=-0.1"; "bogus=1"; "seed=abc"; "delay-ms=-1" ]

(* --- server harness -------------------------------------------------------- *)

let with_chaos_server ?(workers = 2) ?(request_timeout = 2.) ?(restart_budget = 1000)
    ?chaos f =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers;
      request_timeout;
      chaos = Option.map Chaos.arm chaos;
      restart_budget;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f ~svc ~server ~addr:(Server.Unix_sock path))

let mix =
  [
    "ping";
    "query (Red, Bus*)";
    "query (White, Vehicle*)";
    "query-forward (Red, Bus*)";
    "query ([50-60], Employee*, Company*, Vehicle*)";
  ]

(* fault-free reply bytes, straight from the service (exactly what an
   honest server writes on the wire) *)
let baseline svc = List.map (fun l -> (l, Service.serve_line svc l)) mix

(* --- the headline differential property ------------------------------------ *)

(* 25 generated chaos specs x 20 requests each = 500 request cases *)
let diff_ok = ref 0
let diff_typed = ref 0
let diff_exhausted = ref 0
let diff_total = ref 0

let typed_error_kinds =
  [
    "bad_request"; "parse_error"; "unroutable"; "frame_too_large";
    "timeout"; "overloaded"; "data_corruption"; "internal";
  ]

let prop_chaos_differential =
  QCheck.Test.make ~count:25
    ~name:"chaos: byte-identical answers or typed errors, never silence"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Chaos.Rng.create (seed + 1) in
      (* independent raw probabilities, then scale the fatal ones
         (reset/partial/truncate/crash) so their sum stays <= 0.35:
         12 attempts make surviving the storm near-certain *)
      let reset = Chaos.Rng.float rng *. 0.5
      and partial = Chaos.Rng.float rng *. 0.5
      and truncate = Chaos.Rng.float rng *. 0.5
      and crash = Chaos.Rng.float rng *. 0.5 in
      let fatal = reset +. partial +. truncate +. crash in
      let scale = if fatal > 0.35 then 0.35 /. fatal else 1. in
      let spec =
        {
          Chaos.seed;
          reset = reset *. scale;
          partial = partial *. scale;
          truncate = truncate *. scale;
          crash = crash *. scale;
          delay = Chaos.Rng.float rng *. 0.3;
          slow_read = Chaos.Rng.float rng *. 0.3;
          delay_ms = 1. +. float_of_int (Chaos.Rng.int rng 3);
        }
      in
      with_chaos_server ~chaos:spec @@ fun ~svc ~server:_ ~addr ->
      let base = baseline svc in
      let policy =
        {
          Client.attempts = 12;
          base_delay = 0.002;
          max_delay = 0.02;
          jitter = 0.5;
          retry_seed = seed;
        }
      in
      let r = Client.retrying ~timeout:2. ~policy addr in
      Fun.protect ~finally:(fun () -> Client.retry_close r) @@ fun () ->
      for i = 0 to 19 do
        let line = List.nth mix (i mod List.length mix) in
        incr diff_total;
        match Client.retry_request_raw r line with
        | raw ->
            if raw = List.assoc line base then incr diff_ok
            else (
              (* not the true answer: it must be a typed error reply *)
              match Json.of_string raw with
              | exception _ ->
                  QCheck.Test.fail_reportf "malformed reply for %S: %s" line
                    raw
              | j ->
                  if Protocol.response_is_ok j then
                    QCheck.Test.fail_reportf
                      "silent wrong answer for %S: %s" line raw
                  else (
                    match Protocol.response_error_kind j with
                    | Some k when List.mem k typed_error_kinds ->
                        incr diff_typed
                    | k ->
                        QCheck.Test.fail_reportf
                          "untyped error for %S: kind %s" line
                          (Option.value ~default:"<none>" k)))
        | exception Client.Error (Client.Exhausted _) -> incr diff_exhausted
        | exception Client.Error f ->
            QCheck.Test.fail_reportf "request %S failed untyped: %s" line
              (Client.failure_to_string f)
      done;
      true)

let test_differential_aggregate () =
  (* the property above must have actually exercised the storm, and
     retries must have carried the overwhelming majority of requests
     through to the true answer *)
  Alcotest.(check int) "all request cases ran" 500 !diff_total;
  let min_ok = !diff_total * 9 / 10 in
  Alcotest.(check bool)
    (Printf.sprintf "availability: %d/%d byte-identical (>= %d), %d typed, %d exhausted"
       !diff_ok !diff_total min_ok !diff_typed !diff_exhausted)
    true
    (!diff_ok >= min_ok);
  Alcotest.(check bool) "the storm happened (chaos.faults > 0)" true
    (metric "chaos.faults" > 0);
  Alcotest.(check bool) "retries happened (client.retries > 0)" true
    (metric "client.retries" > 0)

(* --- client deadlines and retry exhaustion ---------------------------------- *)

let test_client_deadline () =
  (* a listener that accepts nothing: without SO_RCVTIMEO the client
     would hang forever on the reply read (the old bug) *)
  let dir = Filename.temp_file "uindex_dead" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "mute.sock" in
  let lst = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lst (Unix.ADDR_UNIX path);
  Unix.listen lst 4;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lst with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let c = Client.connect_unix ~timeout:0.2 path in
      let t0 = Unix.gettimeofday () in
      (match Client.request_raw c "ping" with
      | _ -> Alcotest.fail "a mute server must not produce a reply"
      | exception Client.Error Client.Timed_out -> ()
      | exception Client.Error f ->
          Alcotest.failf "expected Timed_out, got %s"
            (Client.failure_to_string f));
      let dt = Unix.gettimeofday () -. t0 in
      Client.close c;
      Alcotest.(check bool)
        (Printf.sprintf "bounded by the deadline (%.2fs)" dt)
        true (dt < 2.))

let test_retry_exhaustion () =
  let policy =
    { Client.default_retry_policy with attempts = 3; base_delay = 0.001 }
  in
  let r =
    Client.retrying ~timeout:0.2 ~policy
      (Server.Unix_sock "/nonexistent/uindex.sock")
  in
  (match Client.retry_request_raw r "ping" with
  | _ -> Alcotest.fail "no server, no reply"
  | exception Client.Error (Client.Exhausted { attempts; last }) ->
      Alcotest.(check int) "every attempt consumed" 3 attempts;
      Alcotest.(check bool) "last failure described" true
        (String.length last > 0)
  | exception Client.Error f ->
      Alcotest.failf "expected Exhausted, got %s" (Client.failure_to_string f));
  Alcotest.(check int) "two retries for three attempts" 2
    (Client.retry_count r);
  Client.retry_close r

(* --- corruption containment: typed replies + quarantine --------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let write_file path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc b)

(* one pristine class-hierarchy index file over the exp1 store, plus its
   reachable pages (collected via the verifier's throttle hook) *)
let build_pristine_file e path =
  let b = e.Dg.ext.Ps.b in
  let pager = Pager.create_file ~page_size:256 path in
  let idx =
    Index.create_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
      ~attr:"color"
  in
  Index.build idx e.Dg.store;
  Index.sync idx;
  Pager.close pager;
  let pager = Pager.open_file path in
  let idx =
    Index.attach_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
      ~attr:"color"
  in
  let reachable = ref [] in
  let report = Verify.check ~throttle:(fun id -> reachable := id :: !reachable) idx in
  if not report.Verify.ok then Alcotest.fail "pristine file does not verify";
  Pager.close pager;
  List.sort_uniq compare !reachable

let color_queries () =
  Array.to_list (Array.map (fun c -> Printf.sprintf "query (%s, Vehicle*)" c) Ps.colors)

let test_corruption_containment () =
  Quarantine.reset ();
  let e = Dg.exp1 ~n_vehicles:400 ~seed:7 () in
  let b = e.Dg.ext.Ps.b in
  let path = Filename.temp_file "uindex_quar" ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Pager.journal_path path ])
  @@ fun () ->
  let reachable = build_pristine_file e path in
  let image = read_file path in
  (* fault-free baseline over a pristine copy *)
  let base =
    write_file path image;
    let pager = Pager.open_file path in
    let idx =
      Index.attach_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
        ~attr:"color"
    in
    let db = Db.create e.Dg.store in
    Db.attach_index db idx;
    let svc = Service.create ~schema:b.Ps.schema db in
    let r = List.map (fun l -> (l, Service.serve_line svc l)) (color_queries ()) in
    Pager.close pager;
    r
  in
  (* damage reachable pages highest-id first until one of them is past
     the attach walk (so the server comes up) and a query trips on it *)
  let candidates = List.rev reachable in
  let rec try_candidate = function
    | [] -> Alcotest.fail "no candidate page produced a data_corruption reply"
    | page :: rest -> (
        Quarantine.reset ();
        write_file path image;
        let pager = Pager.open_file path in
        ignore
          (Pager.create_faulty
             { Pager.no_faults with media = [ Pager.Flip_bit { page; bit = 9 } ] }
             pager);
        match
          Index.attach_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
            ~attr:"color"
        with
        | exception Storage.Storage_error.Corruption _ ->
            (* the damage fell on the attach path; pick another page *)
            Pager.close pager;
            try_candidate rest
        | idx -> (
            let db = Db.create e.Dg.store in
            Db.attach_index db idx;
            let svc = Service.create ~schema:b.Ps.schema db in
            let corrupt_replies = ref 0 and ok_replies = ref 0 in
            List.iter
              (fun line ->
                let raw = Service.serve_line svc line in
                let j = Json.of_string raw in
                if Protocol.response_is_ok j then begin
                  (* untouched pages keep answering, byte-identically *)
                  Alcotest.(check string)
                    (Printf.sprintf "clean reply for %S" line)
                    (List.assoc line base) raw;
                  incr ok_replies
                end
                else (
                  Alcotest.(check (option string))
                    (Printf.sprintf "typed kind for %S" line)
                    (Some "data_corruption")
                    (Protocol.response_error_kind j);
                  incr corrupt_replies))
              (color_queries ());
            if !corrupt_replies = 0 then begin
              Pager.close pager;
              try_candidate rest
            end
            else begin
              Alcotest.(check bool) "other pages kept serving" true
                (!ok_replies > 0);
              (* corruption replies must release their sessions: a leak
                 here would pin snapshot reclamation forever *)
              Alcotest.(check int) "sessions drained after corrupt replies"
                0
                (Uindex.Db.active_sessions ());
              (* the quarantine heard about it ... *)
              Alcotest.(check bool) "quarantine populated" true
                (Quarantine.length () > 0);
              List.iter
                (fun (en : Quarantine.entry) ->
                  Alcotest.(check string) "source" "request" en.source)
                (Quarantine.entries ());
              (* ... and the health report concurs *)
              let health = Json.of_string (Service.serve_line svc "health") in
              let qlen =
                Option.bind (Json.member "quarantine" health) (fun q ->
                    Option.bind (Json.member "length" q) Json.to_int)
              in
              Alcotest.(check bool) "health reports the quarantine" true
                (match qlen with Some n -> n > 0 | None -> false);
              (* the live quarantine never accuses a page the offline
                 verifier would not *)
              let report = Verify.check idx in
              let verifier_pages =
                List.filter_map (fun i -> i.Verify.page) report.Verify.issues
              in
              List.iter
                (fun p ->
                  if not (List.mem p verifier_pages) then
                    Alcotest.failf
                      "quarantined page %d unknown to the verifier" p)
                (Quarantine.pages ());
              Alcotest.(check bool) "corruption replies counted" true
                (metric "server.corruption_replies" > 0);
              Pager.close pager
            end))
  in
  try_candidate candidates;
  Quarantine.reset ()

(* --- the online scrub ------------------------------------------------------- *)

let wait_for ?(timeout = 10.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let test_scrub_clean () =
  Quarantine.reset ();
  let e = Dg.exp1 ~n_vehicles:200 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  let before = metric "scrub.passes" in
  let s =
    Scrub.start
      ~config:{ Scrub.every = 0.05; pause_every = 16; pause = 0.0002 }
      db
  in
  wait_for "two clean scrub passes" (fun () -> Scrub.passes s >= 2);
  Scrub.stop s;
  Scrub.stop s (* idempotent *);
  Alcotest.(check bool) "passes counted" true (metric "scrub.passes" >= before + 2);
  Alcotest.(check bool) "pages visited" true (metric "scrub.pages" > 0);
  Alcotest.(check int) "a clean index quarantines nothing" 0
    (Quarantine.length ())

let test_scrub_finds_damage () =
  Quarantine.reset ();
  let e = Dg.exp1 ~n_vehicles:400 ~seed:7 () in
  let b = e.Dg.ext.Ps.b in
  let path = Filename.temp_file "uindex_scrub" ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Pager.journal_path path ])
  @@ fun () ->
  let reachable = build_pristine_file e path in
  let image = read_file path in
  let rec try_candidate = function
    | [] -> Alcotest.fail "no candidate page survived attach"
    | page :: rest -> (
        write_file path image;
        let pager = Pager.open_file path in
        ignore
          (Pager.create_faulty
             { Pager.no_faults with media = [ Pager.Flip_bit { page; bit = 3 } ] }
             pager);
        match
          Index.attach_class_hierarchy pager b.Ps.enc ~root:b.Ps.vehicle
            ~attr:"color"
        with
        | exception Storage.Storage_error.Corruption _ ->
            Pager.close pager;
            try_candidate rest
        | idx ->
            let db = Db.create e.Dg.store in
            Db.attach_index db idx;
            let s =
              Scrub.start
                ~config:{ Scrub.every = 0.05; pause_every = 64; pause = 0. }
                db
            in
            wait_for "a scrub pass over damage" (fun () -> Scrub.passes s >= 1);
            Scrub.stop s;
            Alcotest.(check bool) "the scrub quarantined the damage" true
              (Quarantine.length () > 0);
            Alcotest.(check bool) "scrub issues counted" true
              (metric "scrub.issues" > 0);
            List.iter
              (fun (en : Quarantine.entry) ->
                Alcotest.(check string) "source" "scrub" en.source)
              (Quarantine.entries ());
            Pager.close pager)
  in
  try_candidate (List.rev reachable);
  Quarantine.reset ()

(* --- supervision ------------------------------------------------------------ *)

let test_supervised_respawn () =
  (* crash-only chaos at p=0.5: worker domains die constantly, the
     supervisor respawns them, and a retrying client still gets every
     true answer *)
  let spec = { Chaos.none with seed = 11; crash = 0.5 } in
  let restarts_before = metric "server.worker_restarts" in
  with_chaos_server ~workers:2 ~restart_budget:500 ~chaos:spec
  @@ fun ~svc ~server:_ ~addr ->
  let base = baseline svc in
  let policy =
    {
      Client.attempts = 25;
      base_delay = 0.002;
      max_delay = 0.02;
      jitter = 0.5;
      retry_seed = 11;
    }
  in
  let r = Client.retrying ~timeout:2. ~policy addr in
  Fun.protect ~finally:(fun () -> Client.retry_close r) @@ fun () ->
  for i = 0 to 29 do
    let line = List.nth mix (i mod List.length mix) in
    Alcotest.(check string)
      (Printf.sprintf "request %d (%s) answered true bytes" i line)
      (List.assoc line base)
      (Client.retry_request_raw r line)
  done;
  Alcotest.(check bool) "workers were respawned" true
    (metric "server.worker_restarts" > restarts_before);
  Alcotest.(check bool) "crashes were injected" true (metric "chaos.crashes" > 0)

let test_budget_exhaustion () =
  (* budget 0, one worker, certain crash: the first request kills the
     only worker forever — later requests must fail typed (exhausted
     retries), never hang *)
  let spec = { Chaos.none with seed = 5; crash = 1.0 } in
  with_chaos_server ~workers:1 ~restart_budget:0 ~request_timeout:0.5
    ~chaos:spec
  @@ fun ~svc:_ ~server:_ ~addr ->
  let policy =
    {
      Client.attempts = 2;
      base_delay = 0.001;
      max_delay = 0.005;
      jitter = 0.5;
      retry_seed = 5;
    }
  in
  let r = Client.retrying ~timeout:0.4 ~policy addr in
  Fun.protect ~finally:(fun () -> Client.retry_close r) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.retry_request_raw r "ping" with
  | raw -> Alcotest.failf "dead pool answered: %s" raw
  | exception Client.Error (Client.Exhausted { attempts; _ }) ->
      Alcotest.(check int) "both attempts consumed" 2 attempts
  | exception Client.Error f ->
      Alcotest.failf "expected Exhausted, got %s" (Client.failure_to_string f));
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "failed fast, bounded by deadlines (%.2fs)" dt)
    true (dt < 5.);
  Alcotest.(check int) "no respawn happened" 0 (metric "server.restart_budget_left")

let () =
  Alcotest.run "chaos"
    [
      ( "spec",
        [ Alcotest.test_case "parse and round-trip" `Quick test_spec_parse ] );
      ( "client",
        [
          Alcotest.test_case "read deadline, not a hang" `Quick
            test_client_deadline;
          Alcotest.test_case "typed retry exhaustion" `Quick
            test_retry_exhaustion;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_chaos_differential;
          Alcotest.test_case "aggregate availability" `Quick
            test_differential_aggregate;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "containment: typed replies + quarantine" `Quick
            test_corruption_containment;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean passes stay silent" `Quick test_scrub_clean;
          Alcotest.test_case "damage is found and quarantined" `Quick
            test_scrub_finds_damage;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crashed workers respawn under budget" `Quick
            test_supervised_respawn;
          Alcotest.test_case "exhausted budget fails typed, not hung" `Quick
            test_budget_exhaustion;
        ] );
    ]
