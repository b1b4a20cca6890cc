(* The socket server under friendly and hostile clients: an in-process
   server over a Unix-domain socket in a temp dir, exercised with good
   queries, malformed frames, oversized lengths, truncated requests,
   mid-request disconnects, overload and shutdown.  The invariant
   throughout: a typed error reply or a clean close — never a crash, and
   never a poisoned worker (proved by serving more good requests than
   there are workers after every abuse). *)

module Dg = Workload.Datagen
module Db = Uindex.Db
module Value = Objstore.Value
module Json = Obs.Json
module Protocol = Uindex_server.Protocol
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client
module Endpoint = Uindex_server.Endpoint

let with_server ?(workers = 2) ?(backlog = 16) ?(request_timeout = 5.) f =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers;
      backlog;
      request_timeout;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f path server)

let expect_ok path line =
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let r = Client.request c line in
      if not (Protocol.response_is_ok r) then
        Alcotest.failf "expected ok for %S, got %s" line (Json.to_string r);
      r)

let expect_error path line kind =
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let r = Client.request c line in
      Alcotest.(check (option string))
        (Printf.sprintf "error kind for %S" line)
        (Some kind)
        (Protocol.response_error_kind r))

(* more good requests than workers: if any worker died or is stuck on a
   leftover connection, this hangs or fails *)
let prove_workers_alive ?(n = 5) path =
  for i = 1 to n do
    ignore (expect_ok path (if i mod 2 = 0 then "ping" else "query (Red, Bus*)"))
  done

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_reply fd =
  match Protocol.read_frame fd with
  | Protocol.Frame s -> Some (Json.of_string s)
  | Protocol.Eof | Protocol.Truncated | Protocol.Too_large _ -> None

(* --- the tests ----------------------------------------------------------- *)

let test_good_queries () =
  with_server @@ fun path _server ->
  let r = expect_ok path "query (Red, Bus*)" in
  let count = Option.bind (Json.member "count" r) Json.to_int in
  Alcotest.(check bool) "rows answered" true (Option.get count > 0);
  let r' = expect_ok path "query ([50-60], Employee*, Company*, Vehicle*)" in
  Alcotest.(check bool) "path query answered" true
    (Option.get (Option.bind (Json.member "count" r') Json.to_int) > 0);
  (* determinism: same query, byte-identical replies across connections *)
  let c1 = Client.connect_unix path and c2 = Client.connect_unix path in
  let a = Client.request_raw c1 "query (Red, Bus*)" in
  let b = Client.request_raw c2 "query (Red, Bus*)" in
  Client.close c1;
  Client.close c2;
  Alcotest.(check string) "byte-identical replies" a b;
  (* one connection, many requests *)
  let c = Client.connect_unix path in
  for _ = 1 to 5 do
    assert (Protocol.response_is_ok (Client.request c "ping"))
  done;
  Client.close c

let test_bad_requests () =
  with_server @@ fun path _server ->
  expect_error path "" "bad_request";
  expect_error path "bogus" "bad_request";
  expect_error path "query" "bad_request";
  expect_error path "query (((" "parse_error";
  expect_error path "query (Red, NoSuchClass*)" "parse_error";
  expect_error path
    "query ([99999999999999999999-1], Employee*, Company*, Vehicle*)"
    "parse_error";
  (* parse errors keep the connection alive *)
  let c = Client.connect_unix path in
  ignore (Client.request c "nonsense");
  Alcotest.(check bool) "connection survives a bad request" true
    (Protocol.response_is_ok (Client.request c "ping"));
  Client.close c;
  prove_workers_alive path

let test_oversized_frame () =
  with_server @@ fun path _server ->
  let fd = raw_connect path in
  (* a hostile header announcing 256 MiB *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (256 * 1024 * 1024));
  ignore (Unix.write fd hdr 0 4);
  (match read_reply fd with
  | Some r ->
      Alcotest.(check (option string))
        "typed reply" (Some "frame_too_large")
        (Protocol.response_error_kind r)
  | None -> Alcotest.fail "expected a frame_too_large reply");
  (* ... and the server closed the stream afterwards *)
  Alcotest.(check bool) "closed after reply" true (read_reply fd = None);
  Unix.close fd;
  prove_workers_alive path

let test_truncated_frame () =
  with_server @@ fun path _server ->
  (* header promising 100 bytes, then silence and disconnect *)
  let fd = raw_connect path in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write fd hdr 0 4);
  ignore (Unix.write fd (Bytes.of_string "only twenty bytes...") 0 20);
  Unix.close fd;
  (* partial header then disconnect *)
  let fd = raw_connect path in
  ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
  Unix.close fd;
  prove_workers_alive path

let test_mid_request_disconnect () =
  with_server @@ fun path _server ->
  (* full request, but the client vanishes before reading the reply *)
  let fd = raw_connect path in
  Protocol.write_frame fd "query (Red, Vehicle*)";
  Unix.close fd;
  (* instant disconnect, no bytes at all *)
  let fd = raw_connect path in
  Unix.close fd;
  prove_workers_alive path

let test_quit_and_garbage_payload () =
  with_server @@ fun path _server ->
  let c = Client.connect_unix path in
  let r = Client.request c "quit" in
  Alcotest.(check bool) "quit acknowledged" true (Protocol.response_is_ok r);
  (match Client.request c "ping" with
  | exception Client.Error (Client.Closed_by_server | Client.Reset) -> ()
  | _ -> Alcotest.fail "connection should be closed after quit");
  Client.close c;
  (* binary garbage as a request payload is just a bad request *)
  let fd = raw_connect path in
  Protocol.write_frame fd "\x00\xff\x13\x37 binary nonsense \x01";
  (match read_reply fd with
  | Some r ->
      Alcotest.(check (option string))
        "typed reply" (Some "bad_request")
        (Protocol.response_error_kind r)
  | None -> Alcotest.fail "expected a bad_request reply");
  Unix.close fd;
  prove_workers_alive path

let test_overload_shedding () =
  (* one worker occupied by a slow client; the backlog holds one more;
     further connections must get typed overloaded replies *)
  with_server ~workers:1 ~backlog:1 ~request_timeout:5.
  @@ fun path _server ->
  let occupier = raw_connect path in
  (* a connection the single worker pops then blocks on (until its read
     times out or we close); give the worker a moment to pop it *)
  Unix.sleepf 0.3;
  let extras = List.init 6 (fun _ -> raw_connect path) in
  Unix.sleepf 0.3;
  let sheds =
    List.fold_left
      (fun acc fd ->
        match read_reply fd with
        | Some r when Protocol.response_error_kind r = Some "overloaded" ->
            acc + 1
        | Some _ | None -> acc)
      0 extras
  in
  Alcotest.(check bool)
    (Printf.sprintf "some of 6 extras shed as overloaded (%d)" sheds)
    true (sheds >= 1);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) extras;
  Unix.close occupier;
  prove_workers_alive path

let test_stale_queue_timeout () =
  (* a connection that waited in the queue longer than the request
     timeout gets a typed timeout reply, not silent service *)
  with_server ~workers:1 ~backlog:8 ~request_timeout:0.4
  @@ fun path _server ->
  (* two idle connections ahead of [stale]: the single worker blocks
     ~0.4 s on each before its read times out, so [stale] sits in the
     queue for ~0.8 s — past its own 0.4 s deadline *)
  let occ1 = raw_connect path in
  Unix.sleepf 0.05;
  let occ2 = raw_connect path in
  Unix.sleepf 0.05;
  let stale = raw_connect path in
  let got_timeout =
    match read_reply stale with
    | Some r -> Protocol.response_error_kind r = Some "timeout"
    | None -> false
  in
  Alcotest.(check bool) "stale queued connection got a timeout reply" true
    got_timeout;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ occ1; occ2 ];
  Unix.close stale;
  prove_workers_alive path

let test_stats_response () =
  with_server @@ fun path _server ->
  ignore (expect_ok path "query (Red, Bus*)");
  let r = expect_ok path "stats" in
  (match Json.member "request_latency" r with
  | Some (Json.Obj fields) ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "request_latency missing %s" k)
        [ "count"; "p50"; "p95"; "p99" ]
  | _ -> Alcotest.fail "stats carries request_latency percentiles");
  Alcotest.(check bool) "stats carries the registry" true
    (Json.member "metrics" r <> None)

(* --- telemetry and admin introspection ----------------------------------- *)

(* like [with_server], but with control over telemetry and which indexes
   are attached (the reconciliation test wants exactly one pager serving
   queries); hands back the datagen bundle and the db for direct writes *)
let with_custom_server ?(workers = 2) ?telemetry ?(attach_path = true) f =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  if attach_path then Db.attach_index db e.path_age;
  let svc = Service.create ?telemetry ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_tel" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers;
      backlog = 16;
      request_timeout = 5.;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f ~e ~db path)

let member_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s missing %S" what k

let test_health_response () =
  with_server @@ fun path _server ->
  ignore (expect_ok path "query (Red, Bus*)");
  let r = expect_ok path "health" in
  Alcotest.(check (option int)) "workers gauge" (Some 2)
    (Json.to_int (member_exn "health" "workers" r));
  List.iter
    (fun k -> ignore (member_exn "health" k r))
    [ "uptime_s"; "queue_depth"; "active_sessions"; "tracing" ];
  let acked = Option.get (Json.to_int (member_exn "health" "acked_lsn" r)) in
  let durable =
    Option.get (Json.to_int (member_exn "health" "durable_lsn" r))
  in
  let lag = Option.get (Json.to_int (member_exn "health" "lsn_lag" r)) in
  Alcotest.(check int) "lsn_lag = acked - durable" (acked - durable) lag;
  Alcotest.(check bool) "durability never runs ahead of acks" true (lag >= 0);
  let slow = member_exn "health" "slow_log" r in
  Alcotest.(check (option int)) "default slow capacity" (Some 128)
    (Json.to_int (member_exn "slow_log" "capacity" slow));
  let gc = member_exn "health" "gc" r in
  List.iter
    (fun k ->
      match Json.to_int (member_exn "gc" k gc) with
      | Some n when n >= 0 -> ()
      | _ -> Alcotest.failf "gc.%s not a non-negative int" k)
    [ "minor_collections"; "major_collections"; "heap_words" ]

let test_admin_malformed () =
  with_server @@ fun path _server ->
  List.iter
    (fun line -> expect_error path line "bad_request")
    [
      "stats extra";
      "health 1";
      "slow-queries abc";
      "slow-queries -1";
      "slow-queries 1 2";
      "@zz ping" (* non-hex trace id *);
      "@ ping" (* empty trace id *);
      "@12345678901234567 ping" (* 17 digits: id wider than 64 bits *);
      "@ab12" (* trace id with no request *);
    ];
  (* admin abuse keeps the connection alive, like any bad request *)
  let c = Client.connect_unix path in
  ignore (Client.request c "stats bogus");
  Alcotest.(check bool) "connection survives" true
    (Protocol.response_is_ok (Client.request c "stats"));
  Client.close c;
  prove_workers_alive path

let test_trace_id_echo () =
  with_server @@ fun path _server ->
  (* no client id: no echo — a server-assigned id must stay internal so
     replies stay byte-identical with tracing on or off *)
  let r = expect_ok path "ping" in
  Alcotest.(check bool) "no trace_id unless propagated" true
    (Json.member "trace_id" r = None);
  let r = expect_ok path "@ab12 ping" in
  Alcotest.(check (option string)) "ping echo" (Some "ab12")
    (Option.bind (Json.member "trace_id" r) Json.to_str);
  let r = expect_ok path "@ff query (Red, Bus*)" in
  Alcotest.(check (option string)) "query echo" (Some "ff")
    (Option.bind (Json.member "trace_id" r) Json.to_str);
  Alcotest.(check bool) "traced query still answers" true
    (Option.get (Option.bind (Json.member "count" r) Json.to_int) > 0);
  (* the id is the only difference: stripping it restores byte equality *)
  let c = Client.connect_unix path in
  let plain = Client.request_raw c "query (Red, Bus*)" in
  let traced = Client.request c "@ab12 query (Red, Bus*)" in
  Client.close c;
  let stripped =
    match traced with
    | Json.Obj kvs -> Json.Obj (List.remove_assoc "trace_id" kvs)
    | j -> j
  in
  Alcotest.(check string) "identical sans trace_id" plain
    (Json.to_string stripped)

let test_slow_ring_eviction () =
  (* service-level: threshold 0 admits everything into a 3-slot ring, so
     5 requests must leave exactly the newest 3, newest first *)
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  let telemetry =
    {
      Service.tracing = true;
      slow_threshold_ns = 0;
      slow_capacity = 3;
    }
  in
  let svc = Service.create ~telemetry ~schema:e.ext.b.schema db in
  let lines =
    [
      "query (Red, Bus*)";
      "query (White, Bus*)";
      "query (Red, Vehicle*)";
      "query (White, Vehicle*)";
      "ping";
    ]
  in
  List.iter (fun l -> ignore (Service.serve_line svc l)) lines;
  let j = Service.slow_log_json svc in
  Alcotest.(check (option int)) "count" (Some 3)
    (Json.to_int (member_exn "slow log" "count" j));
  let entries =
    match member_exn "slow log" "entries" j with
    | Json.List l -> l
    | _ -> Alcotest.fail "entries not a list"
  in
  Alcotest.(check (list string)) "newest first, oldest evicted"
    [ "ping"; "query (White, Vehicle*)"; "query (Red, Vehicle*)" ]
    (List.map
       (fun en ->
         Option.get (Json.to_str (member_exn "slow entry" "request" en)))
       entries);
  (* sequence numbers decrease newest-first; durations are measured *)
  let seqs =
    List.map
      (fun en -> Option.get (Json.to_int (member_exn "slow entry" "seq" en)))
      entries
  in
  Alcotest.(check (list int)) "seq strictly decreasing" [ 4; 3; 2 ] seqs;
  List.iter
    (fun en ->
      if Option.get (Json.to_int (member_exn "slow entry" "dur_ns" en)) < 0
      then Alcotest.fail "negative duration";
      ignore (member_exn "slow entry" "span" en)
      (* sampled 1-in-1, so every entry carries its span *))
    entries;
  (* the limit argument truncates from the newest end *)
  (match Json.member "entries" (Service.slow_log_json ~limit:1 svc) with
  | Some (Json.List [ en ]) ->
      Alcotest.(check (option string)) "limit keeps newest" (Some "ping")
        (Json.to_str (member_exn "slow entry" "request" en))
  | _ -> Alcotest.fail "limit 1 should keep exactly one entry");
  (* a capacity-0 ring disables the log entirely *)
  let dark =
    Service.create
      ~telemetry:{ telemetry with Service.slow_capacity = 0 }
      ~schema:e.ext.b.schema db
  in
  ignore (Service.serve_line dark "ping");
  Alcotest.(check (option int)) "capacity 0 admits nothing" (Some 0)
    (Json.to_int (member_exn "slow log" "count" (Service.slow_log_json dark)))

(* The bench's served mix through two services over one db: dark
   (tracing off, slow log disabled) and tracing every request into a
   threshold-0 slow log.  Telemetry only observes: every reply is
   byte-identical, and the traced service's slow ring saw the traffic. *)
let test_telemetry_reply_bytes () =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let service tracing slow_threshold_ns slow_capacity =
    Service.create
      ~telemetry:
        { Service.tracing; slow_threshold_ns; slow_capacity }
      ~schema:e.ext.b.schema db
  in
  let dark = service false max_int 0 and traced = service true 0 64 in
  let mix =
    [
      "query (Red, Bus*)";
      "query (White, Vehicle*)";
      "query-forward (Red, Bus*)";
      "query ([50-60], Employee*, Company*, Vehicle*)";
    ]
  in
  List.iter
    (fun l ->
      let d = Service.serve_line dark l in
      Alcotest.(check bool) ("ok: " ^ l) true
        (Protocol.response_is_ok (Json.of_string d));
      Alcotest.(check string) ("byte-identical: " ^ l) d
        (Service.serve_line traced l))
    (mix @ mix);
  let count svc =
    Json.to_int (member_exn "slow log" "count" (Service.slow_log_json svc))
  in
  Alcotest.(check (option int)) "dark slow log empty" (Some 0) (count dark);
  Alcotest.(check bool) "traced slow ring non-empty" true
    (Option.value ~default:0 (count traced) > 0)

(* A many-descent path query (168 parallel-algorithm segments on this
   store) through a threshold-0 slow log: the retained span tree is
   compacted to at most 64 children per node, yet still sums to every
   pager read the request issued (session pin plus descents), and the
   reply is byte-identical to a dark service's. *)
let test_slow_log_compacts_wide_trees () =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let service tracing slow_threshold_ns slow_capacity =
    Service.create
      ~telemetry:
        { Service.tracing; slow_threshold_ns; slow_capacity }
      ~schema:e.ext.b.schema db
  in
  let dark = service false max_int 0 and traced = service true 0 4 in
  let line = "query ([20-60], Employee*, AutoCompany*, Truck*)" in
  let reads () =
    Option.value ~default:0
      (Obs.Metrics.find Obs.Metrics.default "pager.reads")
  in
  let expected = Service.serve_line dark line in
  let r0 = reads () in
  let got = Service.serve_line traced line in
  let request_reads = reads () - r0 in
  Alcotest.(check string) "byte-identical reply" expected got;
  let entry =
    match member_exn "slow log" "entries" (Service.slow_log_json traced) with
    | Json.List [ en ] -> en
    | _ -> Alcotest.fail "expected one slow-log entry"
  in
  let span = member_exn "slow entry" "span" entry in
  let children j =
    match Json.member "children" j with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let rec fold f acc j = List.fold_left (fold f) (f acc j) (children j) in
  let int_field k j =
    Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)
  in
  let named name j = Json.member "name" j = Some (Json.Str name) in
  (* the folded spans are leaves: the tail of the segments and [merge] *)
  let descents =
    fold
      (fun n j ->
        if named "descent" j then n + 1
        else if named "elided" j then n + int_field "spans" j
        else n)
      0 span
  in
  Alcotest.(check bool) "query ran more than 64 descents" true (descents > 64);
  Alcotest.(check int) "at most 64 children per node" Obs.Trace.max_children
    (fold (fun m j -> max m (List.length (children j))) 0 span);
  Alcotest.(check bool) "tail elided" true
    (fold (fun b j -> b || named "elided" j) false span);
  Alcotest.(check bool) "request read pages" true (request_reads > 0);
  Alcotest.(check int) "compacted span total = request's pager reads"
    request_reads
    (fold (fun n j -> n + int_field "page_reads" j) 0 span);
  Alcotest.(check int) "entry page_reads = request's pager reads"
    request_reads (int_field "page_reads" entry)

let test_monotone_counters_under_commits () =
  (* two stats scrapes race a committing writer: every counter delta must
     still be >= 0 — a snapshot must never observe a counter mid-rollback
     or torn *)
  with_custom_server @@ fun ~e ~db path ->
  let b = e.Dg.ext.b in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          ignore
            (Db.insert db ~cls:b.vehicle [ ("color", Value.Str "Teal") ]);
          ignore (Db.commit db);
          incr n
        done;
        !n)
  in
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Client.close c)
    (fun () ->
      let counters () = member_exn "stats" "counters" (Client.stats c) in
      let prev = ref (counters ()) in
      for round = 1 to 6 do
        ignore (Client.request c "query (Red, Bus*)");
        Unix.sleepf 0.02;
        let cur = counters () in
        List.iter
          (fun (k, v) ->
            if v < 0 then
              Alcotest.failf "round %d: counter %s went backwards by %d"
                round k (-v))
          (Obs.Metrics.delta ~before:!prev ~after:cur);
        prev := cur
      done);
  let commits = Domain.join writer in
  Alcotest.(check bool)
    (Printf.sprintf "writer interleaved commits (%d)" commits)
    true (commits > 0)

let test_page_read_reconciliation () =
  (* the acceptance invariant: the global pager.reads counter delta
     between two stats scrapes must equal the sum of per-request
     page_reads over the slow-log entries in between — every page read
     the server does (session-pin attach walks included, across both
     attached indexes) is attributed to some request's span *)
  let telemetry =
    {
      Service.tracing = true;
      slow_threshold_ns = 0;
      slow_capacity = 512;
    }
  in
  with_custom_server ~telemetry @@ fun ~e:_ ~db:_ path ->
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let counters r = member_exn "stats" "counters" r in
      let before = counters (Client.stats c) in
      let lines =
        List.concat
          (List.init 10 (fun _ ->
               [
                 "query (Red, Bus*)";
                 "query (White, Vehicle*)";
                 "query (Red, Vehicle*)";
                 "ping";
               ]))
      in
      List.iter
        (fun l ->
          if not (Protocol.response_is_ok (Client.request c l)) then
            Alcotest.failf "request %S failed" l)
        lines;
      let after = counters (Client.stats c) in
      let d = Obs.Metrics.delta ~before ~after in
      let delta k = Option.value ~default:0 (List.assoc_opt k d) in
      Alcotest.(check int) "every query executed" 30 (delta "exec.queries");
      let slow = Client.slow_queries c in
      let entries =
        match member_exn "slow log" "entries" slow with
        | Json.List l -> l
        | _ -> Alcotest.fail "entries not a list"
      in
      (* ring capacity exceeds total traffic, so nothing was evicted:
         the entries are exactly the requests served (scrapes included,
         at zero reads each) *)
      Alcotest.(check int) "nothing evicted" (List.length lines + 2)
        (List.length entries);
      let attributed =
        List.fold_left
          (fun acc en ->
            acc
            + Option.get
                (Json.to_int (member_exn "slow entry" "page_reads" en)))
          0 entries
      in
      Alcotest.(check int) "pager.reads reconciles with per-request spans"
        (delta "pager.reads") attributed)

(* --- served rows against the decoding pipeline -------------------------- *)

module Ps = Workload.Paper_schema
module Index = Uindex.Index
module Router = Uindex_shard.Router
module Splitter = Uindex_shard.Splitter
module Smap = Uindex_shard.Shard_map

(* A query reply as the server built it before rows were printed from
   key bytes: [Exec.run]'s bindings, each built into a Json.t and
   printed ({!Row_oracle}), then the same sort and rows writer.  [None]
   when no index serves the query's arity. *)
let decoded_reply db schema line =
  match Protocol.parse_line line with
  | Ok (_, Protocol.Query { algo; text }) -> (
      let q = Uindex.Qparse.parse schema text in
      let arity = List.length q.Uindex.Query.comps in
      match List.find_opt (fun i -> Index.arity i = arity) (Db.indexes db) with
      | None -> None
      | Some idx ->
          Db.with_session db (fun s ->
              let o = Db.session_query ~algo s idx q in
              Some
                (Protocol.answer_to_string
                   (Protocol.Rows
                      (Protocol.rows ~page_reads:o.page_reads
                         ~pool_hits:o.pool_hits
                         ~entries_scanned:o.entries_scanned
                         (List.map (Row_oracle.row schema) o.bindings))))))
  | _ -> Alcotest.failf "not a query line: %S" line

(* A partial-path query (fewer components than any index) is not
   served, so its rows are compared where the executor builds them:
   [Exec.run_rows] with the served row function against the parallel
   [Exec.run], whose skips meet each binding once — so a forward scan
   that let an adjacent duplicate through fails here. *)
let partial_rows_agree idx schema line =
  match Protocol.parse_line line with
  | Ok (_, Protocol.Query { algo; text }) ->
      let q = Uindex.Qparse.parse schema text in
      let key_row idx plan =
        let r = Uindex.Keyrow.create ~enc:(Index.encoding idx) plan in
        fun sc arity acc -> Uindex.Keyrow.render r (Btree.Scanner.key_bytes sc) ~arity :: acc
      in
      (Uindex.Exec.run_rows ~algo ~row:key_row idx q).bindings
      = List.map (Row_oracle.row schema)
          (Uindex.Exec.run ~algo:`Parallel idx q).bindings
  | _ -> false

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a colour that needs every kind of escape the rows carry *)
let odd_color = "Re\"d\\\t\x1f\xc3\xa9"

(* One store with a vehicle of [odd_color], served unsharded and by two
   in-process shards behind a router. *)
let served_fleet () =
  let e = Dg.exp1 ~n_vehicles:600 ~seed:11 () in
  let b = e.ext.b in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  ignore (Db.insert db ~cls:b.truck [ ("color", Value.Str odd_color) ]);
  ignore (Db.commit db);
  let svc = Service.create ~schema:b.schema db in
  let bounds = Splitter.choose_boundaries ~source:e.ch_color ~shards:2 in
  let map =
    Smap.make
      (List.map2
         (fun lo hi -> { Smap.lo; hi; file = None; endpoint = None })
         ("" :: bounds)
         (List.map Option.some bounds @ [ None ]))
  in
  let shards =
    Array.init (Smap.count map) (fun i ->
        let sdb = Db.create e.store in
        let restrict src = Splitter.restrict ~source:src map i (Storage.Pager.create ()) in
        Db.attach_index sdb (restrict e.ch_color);
        Db.attach_index sdb (restrict e.path_age);
        Router.Local (Service.create ~schema:b.schema sdb))
  in
  let router = Router.create ~schema:b.schema ~enc:b.enc ~map ~backends:shards () in
  (e, db, svc, router)

let gen_query_line =
  let colors = Array.to_list Ps.colors @ [ "*"; "[Q-S]" ] in
  let classes =
    [ "Vehicle*"; "Truck*"; "Bus*"; "Automobile"; "CompactAutomobile*"; "[Bus* | Truck]" ]
  in
  QCheck.Gen.(
    let* verb = oneofl [ "query"; "query-forward" ] in
    let* a = int_range 20 70 and* w = int_bound 3 in
    let+ body =
      oneof
        [
          map2 (Printf.sprintf "(%s, %s)") (oneofl colors) (oneofl classes);
          return (Printf.sprintf "([%d-%d], Employee*, Company*, Vehicle*)" a (a + w));
          return (Printf.sprintf "(%d, Employee*, Company*)" a);
          return (Printf.sprintf "([%d-%d], Employee*, AutoCompany*)" a (a + w));
        ]
    in
    verb ^ " " ^ body)

let prop_served_rows =
  let e, db, svc, router = served_fleet () in
  let schema = e.ext.b.schema in
  QCheck.Test.make ~count:150 ~name:"served rows = decoded rows, direct and routed"
    (QCheck.make ~print:Fun.id gen_query_line)
    (fun line ->
      let served = Service.serve_line svc line in
      match decoded_reply db schema line with
      | None ->
          Protocol.response_error_kind (Json.of_string served)
          = Some "unroutable"
          && partial_rows_agree e.path_age schema line
      | Some expected ->
          if served <> expected then
            QCheck.Test.fail_reportf "served %s@.decoded %s" served expected;
          Router.canonical_projection (Router.serve_line router line)
          = Router.canonical_projection expected)

(* The odd colour's row, and rows of a class added after the service
   first answered. *)
let test_served_rows_escapes_and_new_class () =
  let e, db, svc, _ = served_fleet () in
  let b = e.ext.b in
  let same line =
    Alcotest.(check (option string)) line (decoded_reply db b.schema line)
      (Some (Service.serve_line svc line))
  in
  same "query (*, Truck*)";
  let reply = Service.serve_line svc "query (*, Truck*)" in
  let escaped = {|"Re\"d\\\t\u001f|} ^ "\xc3\xa9\"" in
  if not (contains reply escaped) then
    Alcotest.failf "no escaped colour %s in %s" escaped reply;
  let late =
    Oodb_schema.Schema.add_class b.schema ~parent:b.truck ~name:"LateTruck"
      ~attrs:[]
  in
  Oodb_schema.Encoding.assign_new_class b.enc late;
  let oid = Db.insert db ~cls:late [ ("color", Value.Str "Red") ] in
  ignore (Db.commit db);
  List.iter same
    [ "query (Red, Truck*)"; "query-forward (Red, Vehicle*)"; "query (*, LateTruck)" ];
  let reply = Service.serve_line svc "query (Red, LateTruck)" in
  let row = Printf.sprintf {|[["LateTruck",%d]]|} oid in
  if not (contains reply row) then Alcotest.failf "no row %s in %s" row reply

(* A served query runs through the executor's instruments: one request
   moves each exec.* count and histogram. *)
let test_served_exec_metrics () =
  let _, _, svc, _ = served_fleet () in
  let count name =
    match Obs.Metrics.find_summary Obs.Metrics.default name with
    | Some s -> s.Obs.Metrics.count
    | None -> Alcotest.failf "no histogram %s" name
  in
  let queries () = Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default "exec.queries") in
  let names = [ "exec.page_reads"; "exec.entries_scanned"; "exec.alloc_per_query" ] in
  let q0 = queries () and before = List.map count names in
  ignore (Service.serve_line svc "query (Red, Vehicle*)");
  Alcotest.(check int) "exec.queries" (q0 + 1) (queries ());
  List.iter2
    (fun name n -> Alcotest.(check int) name (n + 1) (count name))
    names before

let test_concurrent_clients () =
  with_server ~workers:4 @@ fun path _server ->
  (* a sequential baseline, then 8 concurrent clients must match it *)
  let lines =
    [
      "query (Red, Bus*)";
      "query (White, Vehicle*)";
      "query ([50-60], Employee*, Company*, Vehicle*)";
    ]
  in
  let baseline =
    let c = Client.connect_unix path in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> List.map (Client.request_raw c) lines)
  in
  let clients =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            let c = Client.connect_unix path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> List.map (Client.request_raw c) lines)))
  in
  List.iteri
    (fun i d ->
      let got = Domain.join d in
      List.iter2
        (Alcotest.(check string) (Printf.sprintf "client %d byte-identical" i))
        baseline got)
    clients

let test_graceful_stop () =
  let e = Dg.exp1 ~n_vehicles:200 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_stop" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let server =
    Server.start svc (Server.default_config (Server.Unix_sock path))
  in
  let c = Client.connect_unix path in
  assert (Protocol.response_is_ok (Client.request c "ping"));
  Client.close c;
  Server.stop server;
  Server.stop server (* idempotent *);
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path);
  (match Client.connect_unix path with
  | c ->
      Client.close c;
      Alcotest.fail "listener still accepting after stop"
  | exception Client.Error (Client.Connect_failed _) -> ());
  Unix.rmdir dir

(* --- session-leak audit ----------------------------------------------- *)

(* [Db.active_sessions] must return to zero after every error path a
   hostile client or a failing backend can reach: if a worker abandons
   a request without releasing its session, snapshot reclamation stalls
   forever.  Workers may still be finishing an abandoned request when
   the client side returns, so poll briefly before declaring a leak. *)
let assert_sessions_drained label =
  let rec wait tries =
    let n = Uindex.Db.active_sessions () in
    if n = 0 then ()
    else if tries = 0 then Alcotest.failf "%s: %d sessions leaked" label n
    else begin
      Unix.sleepf 0.02;
      wait (tries - 1)
    end
  in
  wait 100

let test_session_leak_audit () =
  with_server @@ fun path _server ->
  Alcotest.(check int) "baseline" 0 (Uindex.Db.active_sessions ());
  ignore (expect_ok path "query (Red, Vehicle*)");
  assert_sessions_drained "good query";
  expect_error path "query (((" "parse_error";
  expect_error path "query (Red, NoSuchClass*)" "parse_error";
  expect_error path
    "query ([99999999999999999999-1], Employee*, Company*, Vehicle*)"
    "parse_error";
  assert_sessions_drained "parse errors";
  (* arity with no matching index: a typed unroutable reply *)
  expect_error path "query ([1-2], Employee*, Vehicle*)" "unroutable";
  assert_sessions_drained "unroutable";
  (* hostile 256 MiB length header *)
  let fd = raw_connect path in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (256 * 1024 * 1024));
  ignore (Unix.write fd hdr 0 4);
  ignore (read_reply fd);
  Unix.close fd;
  assert_sessions_drained "oversized frame";
  (* header promising bytes that never come *)
  let fd = raw_connect path in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write fd hdr 0 4);
  Unix.close fd;
  assert_sessions_drained "truncated frame";
  (* full request, client gone before the reply is written *)
  let fd = raw_connect path in
  Protocol.write_frame fd "query (White, Vehicle*)";
  Unix.close fd;
  prove_workers_alive path;
  assert_sessions_drained "mid-request disconnect"

let test_session_leak_under_chaos () =
  let module Chaos = Uindex_server.Chaos in
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_leak" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let chaos =
    { Chaos.none with Chaos.seed = 11; reset = 0.3; crash = 0.3; truncate = 0.2 }
  in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers = 2;
      request_timeout = 2.;
      chaos = Some (Chaos.arm chaos);
      restart_budget = 1000;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* hammer the chaotic server; cut connections and crashed workers
         are expected — leaked sessions are not *)
      for i = 0 to 39 do
        let line =
          match i mod 3 with
          | 0 -> "query (Red, Vehicle*)"
          | 1 -> "query ([50-60], Employee*, Company*, Vehicle*)"
          | _ -> "query (White, Bus*)"
        in
        match Client.connect_unix path with
        | exception Client.Error _ -> ()
        | c ->
            (match Client.request c line with
            | (_ : Json.t) -> ()
            | exception Client.Error _ -> ());
            Client.close c
      done;
      assert_sessions_drained "chaos mix")

(* --- endpoints ----------------------------------------------------------- *)

let test_endpoint_table () =
  let unix p = Ok (Endpoint.Unix_sock p)
  and tcp h p = Ok (Endpoint.Tcp (h, p)) in
  let bad = Error () in
  let expect what parse cases =
    List.iter
      (fun (spec, want) ->
        let got = parse spec in
        Alcotest.(check bool)
          (Printf.sprintf "%s %S" what spec)
          true
          (Result.map_error ignore got = want);
        match got with
        | Error msg when spec <> "" ->
            let quoted = Printf.sprintf "%S" spec in
            let n = String.length quoted in
            let rec names i =
              i + n <= String.length msg
              && (String.sub msg i n = quoted || names (i + 1))
            in
            Alcotest.(check bool) ("error names the spec: " ^ msg) true
              (names 0)
        | _ -> ())
      cases
  in
  expect "of_string" Endpoint.of_string
    [
      ("/tmp/x.sock", unix "/tmp/x.sock");
      ("rel.sock", unix "rel.sock");
      ("a:b", unix "a:b");
      ("/tmp/a:1", unix "/tmp/a:1");
      ("127.0.0.1:7771", tcp "127.0.0.1" 7771);
      (":7771", tcp "127.0.0.1" 7771);
      ("0.0.0.0:0", tcp "0.0.0.0" 0);
      ("10.1.2.3:65535", tcp "10.1.2.3" 65535);
      ("localhost:7771", bad);
      ("127.0.0.1:99999", bad);
      ("127.0.0.1:65536", bad);
      ("::1:7771", bad);
      ("", bad);
    ];
  expect "tcp_of_string" Endpoint.tcp_of_string
    [
      ("127.0.0.1:7771", tcp "127.0.0.1" 7771);
      (":7771", tcp "127.0.0.1" 7771);
      ("localhost:7771", bad);
      ("127.0.0.1:99999", bad);
      ("/tmp/x.sock", bad);
      ("rel.sock", bad);
      ("a:b", bad);
      ("/tmp/a:1", bad);
      ("nonsense", bad);
    ]

(* whatever a spec parses to prints back to a spec that parses to the
   same endpoint *)
let prop_endpoint_round_trip =
  let open QCheck in
  let structured =
    Gen.(
      oneof
        [
          map
            (fun s -> Endpoint.to_string (Endpoint.Unix_sock ("/" ^ s)))
            string;
          map2
            (fun (a, b, c) p ->
              Endpoint.to_string
                (Endpoint.Tcp (Printf.sprintf "%d.%d.%d.1" a b c, p)))
            (triple (int_bound 255) (int_bound 255) (int_bound 255))
            (int_bound 65535);
          string_size ~gen:(oneofl [ ':'; '/'; '.'; '1'; '7'; 'a' ]) (0 -- 12);
        ])
  in
  Test.make ~count:500 ~name:"spec round trip"
    (make ~print:Print.string structured) (fun spec ->
      match Endpoint.of_string spec with
      | Error _ -> true
      | Ok e -> Endpoint.of_string (Endpoint.to_string e) = Ok e)

(* a TCP listener on port 0 reports the port it got, and the one
   connector reaches it there *)
let test_tcp_ephemeral_port () =
  let e = Dg.exp1 ~n_vehicles:100 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let server =
    Server.start svc
      { (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with workers = 1 }
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let bound = Server.bound_addr server in
  (match bound with
  | Server.Tcp (host, port) ->
      Alcotest.(check string) "bound host" "127.0.0.1" host;
      Alcotest.(check bool) "ephemeral port chosen" true (port > 0)
  | Server.Unix_sock p -> Alcotest.failf "bound a Unix socket %s" p);
  let c = Client.connect bound in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check (option string)) "ping answers" (Some "pong")
    (Option.bind (Json.member "type" (Client.request c "ping")) Json.to_str)

(* --- the rows reply format --------------------------------------------- *)

(* strings that stress the printer: quotes, backslashes, the escaped
   whitespace, other control characters and high bytes *)
let gen_json_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (4, printable);
             (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '/'; '\127' ]);
             (1, map Char.chr (int_bound 0x1f));
             (1, map Char.chr (int_range 0x80 0xff));
           ])
      (int_bound 10))

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map
                   (fun f -> Json.Float (if Float.is_finite f then f else 0.5))
                   float;
                 map (fun s -> Json.Str s) gen_json_string;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map (fun l -> Json.List l)
                     (list_size (int_bound 4) (self (n / 3))) );
                 ( 1,
                   map (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4)
                        (pair gen_json_string (self (n / 3)))) );
               ]))

(* a row as a service renders one: value plus (class, oid) components *)
let gen_row =
  QCheck.Gen.(
    map2
      (fun value comps ->
        Json.Obj
          [
            ("value", value);
            ( "comps",
              Json.List
                (List.map
                   (fun (c, o) -> Json.List [ Json.Str c; Json.Int o ])
                   comps) );
          ])
      (oneof
         [
           map (fun s -> Json.Str s) gen_json_string;
           map (fun i -> Json.Int i) int;
           pure Json.Null;
           gen_json;
         ])
      (list_size (int_range 1 3) (pair gen_json_string nat)))

let with_trace_id ?trace_id doc =
  match (trace_id, doc) with
  | Some id, Json.Obj kvs ->
      Json.Obj (kvs @ [ ("trace_id", Json.Str (Printf.sprintf "%x" id)) ])
  | _ -> doc

(* the rows document exactly as the server built it before the rows
   writer existed: rows sorted by their rendering, the trace id appended
   last *)
let old_rows_reply ?trace_id ~page_reads ~pool_hits ~entries_scanned rows =
  let keyed = List.map (fun j -> (Json.to_string j, j)) rows in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) keyed in
  with_trace_id ?trace_id
    (Protocol.ok
       [
         ("type", Json.Str "rows");
         ("count", Json.Int (List.length rows));
         ("rows", Json.List (List.map snd sorted));
         ("page_reads", Json.Int page_reads);
         ("pool_hits", Json.Int pool_hits);
         ("entries_scanned", Json.Int entries_scanned);
       ])

let prop_rows_writer =
  QCheck.Test.make ~count:500 ~name:"rows writer = old document's bytes"
    QCheck.(
      make
        Gen.(
          triple (list_size (int_bound 12) gen_row) (opt nat) (triple nat nat nat)))
    (fun (rows, trace_id, (page_reads, pool_hits, entries_scanned)) ->
      Protocol.answer_to_string ?trace_id
        (Protocol.Rows
           (Protocol.rows ~page_reads ~pool_hits ~entries_scanned
              (List.map Json.to_string rows)))
      = Json.to_string
          (old_rows_reply ?trace_id ~page_reads ~pool_hits ~entries_scanned rows))

(* what a router does with a remote shard's reply: parse it, drop the
   echoed trace id, render it back with its own echo — the same bytes *)
let prop_remote_reply =
  QCheck.Test.make ~count:300 ~name:"remote reply renders back to its bytes"
    QCheck.(
      make
        Gen.(
          triple (list_size (int_bound 8) gen_row) (opt nat)
            (opt gen_json_string)))
    (fun (rows, trace_id, error) ->
      let doc =
        match error with
        | Some detail ->
            with_trace_id ?trace_id (Protocol.error ~detail Protocol.Corrupt)
        | None ->
            old_rows_reply ?trace_id ~page_reads:3 ~pool_hits:1
              ~entries_scanned:9 rows
      in
      let bytes = Json.to_string doc in
      Protocol.answer_to_string ?trace_id
        (Protocol.answer_of_reply (Json.of_string bytes))
      = bytes)

let prop_merge_rows =
  QCheck.Test.make ~count:300 ~name:"merge of sorted lists = sorted concat"
    QCheck.(
      make
        Gen.(
          list_size (int_bound 5)
            (pair
               (list_size (int_bound 8) (string_size ~gen:printable (int_bound 4)))
               nat)))
    (fun parts ->
      let replies =
        List.map
          (fun (rendered, n) ->
            Protocol.rows ~page_reads:n ~pool_hits:(2 * n) ~entries_scanned:1
              rendered)
          parts
      in
      let merged = Protocol.merge_rows replies in
      let sum f = List.fold_left (fun a (_, n) -> a + f n) 0 parts in
      merged.Protocol.rendered
      = List.sort String.compare (List.concat_map fst parts)
      && merged.page_reads = sum Fun.id
      && merged.pool_hits = sum (fun n -> 2 * n)
      && merged.entries_scanned = List.length parts)

let prop_json_round_trip =
  QCheck.Test.make ~count:1000 ~name:"Json: print . parse . print = print"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun j ->
      let s = Json.to_string j in
      Json.to_string (Json.of_string s) = s)

(* the printer's bytes for escapes at the start and end of a string and
   next to each other, and a string's print . parse = itself (the parser
   decodes escapes on its own, so a printer that loses or doubles a run
   fails here, not only against itself) *)
let test_escape_runs () =
  List.iter
    (fun (s, printed) ->
      Alcotest.(check string) (Printf.sprintf "%S" s) printed
        (Json.to_string (Json.Str s)))
    [
      ("", {|""|});
      ("plain", {|"plain"|});
      ("\"lead", {|"\"lead"|});
      ("trail\\", {|"trail\\"|});
      ("\n\r\t", {|"\n\r\t"|});
      ("a\"\"b\\", {|"a\"\"b\\"|});
      ("\x01x\x1f", {|"\u0001x\u001f"|});
      ("\x7f\xffz", "\"\x7f\xffz\"");
    ]

let prop_json_string_round_trip =
  QCheck.Test.make ~count:1000 ~name:"Json: parse . print = id on strings"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_string)
    (fun s -> Json.of_string (Json.to_string (Json.Str s)) = Json.Str s)

(* random bytes, and printed documents with one byte replaced, inserted
   or dropped: the parser accepts or raises Parse_error, nothing else *)
let prop_json_garbage =
  QCheck.Test.make ~count:2000 ~name:"Json.of_string raises only Parse_error"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          oneof
            [
              string_size ~gen:char (int_bound 24);
              map2
                (fun (j, pos) (edit, c) ->
                  let s = Json.to_string j in
                  let n = String.length s in
                  let i = pos mod (n + 1) in
                  match edit with
                  | 0 when i < n -> String.mapi (fun k x -> if k = i then c else x) s
                  | 1 when i < n ->
                      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
                  | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
                (pair gen_json nat) (pair (int_bound 2) char);
            ]))
    (fun s ->
      match Json.of_string s with
      | _ -> true
      | exception Json.Parse_error _ -> true)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "good queries, persistent connections" `Quick
            test_good_queries;
          Alcotest.test_case "bad requests get typed errors" `Quick
            test_bad_requests;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "truncated frames" `Quick test_truncated_frame;
          Alcotest.test_case "mid-request disconnect" `Quick
            test_mid_request_disconnect;
          Alcotest.test_case "quit and binary garbage" `Quick
            test_quit_and_garbage_payload;
        ] );
      ( "load",
        [
          Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
          Alcotest.test_case "stale queue timeout" `Quick
            test_stale_queue_timeout;
          Alcotest.test_case "8 concurrent clients = sequential" `Quick
            test_concurrent_clients;
        ] );
      ( "service",
        [
          Alcotest.test_case "stats percentiles" `Quick test_stats_response;
          Alcotest.test_case "graceful stop" `Quick test_graceful_stop;
          Alcotest.test_case "session-leak audit" `Quick
            test_session_leak_audit;
          Alcotest.test_case "session leaks under chaos" `Quick
            test_session_leak_under_chaos;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "health fields" `Quick test_health_response;
          Alcotest.test_case "malformed admin requests" `Quick
            test_admin_malformed;
          Alcotest.test_case "trace id echo" `Quick test_trace_id_echo;
          Alcotest.test_case "slow ring eviction" `Quick
            test_slow_ring_eviction;
          Alcotest.test_case "telemetry never changes reply bytes" `Quick
            test_telemetry_reply_bytes;
          Alcotest.test_case "slow log compacts wide span trees" `Quick
            test_slow_log_compacts_wide_trees;
          Alcotest.test_case "monotone counters under commits" `Quick
            test_monotone_counters_under_commits;
          Alcotest.test_case "page-read reconciliation" `Quick
            test_page_read_reconciliation;
          Alcotest.test_case "served queries move exec.*" `Quick
            test_served_exec_metrics;
        ] );
      ( "rows",
        [
          QCheck_alcotest.to_alcotest prop_served_rows;
          Alcotest.test_case "escapes and a class added later" `Quick
            test_served_rows_escapes_and_new_class;
        ] );
      ( "format",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rows_writer;
            prop_remote_reply;
            prop_merge_rows;
            prop_json_round_trip;
            prop_json_garbage;
            prop_json_string_round_trip;
          ]
        @ [ Alcotest.test_case "escape runs" `Quick test_escape_runs ] );
      ( "endpoint",
        [
          Alcotest.test_case "spec table" `Quick test_endpoint_table;
          QCheck_alcotest.to_alcotest prop_endpoint_round_trip;
          Alcotest.test_case "TCP port 0" `Quick test_tcp_ephemeral_port;
        ] );
    ]
