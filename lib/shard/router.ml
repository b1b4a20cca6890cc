module Json = Obs.Json
module Metrics = Obs.Metrics
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Qparse = Uindex.Qparse
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client
module Protocol = Uindex_server.Protocol

(* the router feeds the same request instruments the service does, so
   [stats]/[top] read a router exactly like a plain server *)
let c_requests = Metrics.counter ~subsystem:"server" "requests"
let c_request_errors = Metrics.counter ~subsystem:"server" "request_errors"

let h_request_ns =
  Metrics.histogram ~subsystem:"server"
    ~help:"request handling latency (ns)" "request_ns"

let h_queue_wait =
  Metrics.histogram ~subsystem:"server"
    ~help:"time between accept and a worker picking the connection (ns)"
    "queue_wait_ns"

let h_fanout =
  Metrics.histogram ~subsystem:"shard"
    ~help:"shards contacted per query" "fanout"

let c_pruned =
  Metrics.counter ~subsystem:"shard"
    ~help:"shard requests avoided by interval pruning" "pruned"

let c_forwarded =
  Metrics.counter ~subsystem:"shard"
    ~help:"requests forwarded to shards" "forwarded"

let c_shard_failures =
  Metrics.counter ~subsystem:"shard"
    ~help:"queries answered with a typed shard_failure error"
    "failures"

let h_merge_ns =
  Metrics.histogram ~subsystem:"shard"
    ~help:"scatter-gather merge latency (ns)" "merge_ns"

type backend = Local of Service.t | Remote of string

type t = {
  schema : Schema.t;
  enc : Encoding.t;
  map : Shard_map.t;
  backends : backend array;
  shard_timeout : float;
  policy : Client.retry_policy;
  per_shard : int Atomic.t array;
  started : float;
}

let create ?(shard_timeout = 5.) ?(retry_policy = Client.default_retry_policy)
    ~schema ~enc ~map ~backends () =
  if Array.length backends <> Shard_map.count map then
    invalid_arg "Router.create: one backend per shard required";
  {
    schema;
    enc;
    map;
    backends;
    shard_timeout;
    policy = retry_policy;
    per_shard = Array.init (Shard_map.count map) (fun _ -> Atomic.make 0);
    started = Unix.gettimeofday ();
  }

let map t = t.map
let requests_per_shard t = Array.map Atomic.get t.per_shard
let route_query t q = Planner.route t.map t.enc q

let hex_id = Printf.sprintf "%x"

let attach_trace_id id = function
  | Json.Obj kvs -> Json.Obj (kvs @ [ ("trace_id", Json.Str (hex_id id)) ])
  | j -> j

(* --- canonical projection ---------------------------------------------- *)

let canonical_projection payload =
  match Json.of_string payload with
  | exception Json.Parse_error _ -> payload
  | j ->
      let keep = [ "ok"; "type"; "count"; "rows"; "error"; "trace_id" ] in
      let members =
        List.filter_map (fun k -> Option.map (fun v -> (k, v)) (Json.member k j)) keep
      in
      Json.to_string (Json.Obj members)

(* --- per-shard calls --------------------------------------------------- *)

type shard_reply = Replied of string | Lost of string

let call t i line deadline =
  Atomic.incr t.per_shard.(i);
  Metrics.incr c_forwarded;
  match t.backends.(i) with
  | Local svc -> (
      match Service.serve_line ?deadline svc line with
      | payload -> Replied payload
      | exception e -> Lost (Printexc.to_string e))
  | Remote spec -> (
      let rc =
        Client.retrying ~timeout:t.shard_timeout ~policy:t.policy spec
      in
      Fun.protect ~finally:(fun () -> Client.retry_close rc) @@ fun () ->
      match Client.retry_request_raw rc line with
      | payload -> Replied payload
      | exception Client.Error f -> Lost (Client.failure_to_string f))

let backend_name t i =
  match t.backends.(i) with Local _ -> "local" | Remote spec -> spec

(* --- query fan-out and merge ------------------------------------------- *)

let empty_rows_reply client_id =
  let resp =
    Protocol.ok
      [
        ("type", Json.Str "rows");
        ("count", Json.Int 0);
        ("rows", Json.List []);
        ("page_reads", Json.Int 0);
        ("pool_hits", Json.Int 0);
        ("entries_scanned", Json.Int 0);
      ]
  in
  match client_id with
  | Some id -> attach_trace_id id resp
  | None -> resp

let jint j k =
  match Json.member k j with Some (Json.Int i) -> i | _ -> 0

let shard_failure_reply t client_id ~contacted ~lost =
  Metrics.incr c_shard_failures;
  let detail =
    Printf.sprintf "%d of %d shards lost: %s" (List.length lost)
      (List.length contacted)
      (String.concat "; "
         (List.map
            (fun (i, why) ->
              Printf.sprintf "shard %d (%s): %s" i (backend_name t i) why)
            lost))
  in
  let resp = Protocol.error ~detail Protocol.Shard_failure in
  match client_id with Some id -> attach_trace_id id resp | None -> resp

let merge_replies t client_id ~targets replies =
  let m0 = Obs.Clock.now_ns () in
  let parsed =
    List.map2
      (fun i r ->
        match r with
        | Lost why -> (i, Error why)
        | Replied payload -> (
            match Json.of_string payload with
            | j -> (i, Ok j)
            | exception Json.Parse_error msg ->
                (i, Error ("unparseable shard reply: " ^ msg))))
      targets replies
  in
  let lost =
    List.filter_map
      (function (i, Error why) -> Some (i, why) | _ -> None)
      parsed
  in
  let oks = List.filter_map (function (_, Ok j) -> Some j | _ -> None) parsed in
  let errors = List.filter (fun j -> not (Protocol.response_is_ok j)) oks in
  if lost <> [] then
    Some (shard_failure_reply t client_id ~contacted:targets ~lost)
  else if errors <> [] then begin
    (* every shard agreeing on one error (e.g. unroutable arity) is that
       error; disagreement means some shards answered and some did not —
       a partial failure *)
    let kinds =
      List.sort_uniq compare
        (List.filter_map Protocol.response_error_kind errors)
    in
    match kinds with
    | [ _ ] when List.length errors = List.length oks -> None (* pass through *)
    | _ ->
        let lost =
          List.filter_map
            (fun (i, r) ->
              match r with
              | Ok j when not (Protocol.response_is_ok j) ->
                  Some
                    ( i,
                      Printf.sprintf "%s reply"
                        (Option.value ~default:"error"
                           (Protocol.response_error_kind j)) )
              | _ -> None)
            parsed
        in
        Some (shard_failure_reply t client_id ~contacted:targets ~lost)
  end
  else begin
    let rows =
      List.concat_map
        (fun j ->
          match Json.member "rows" j with Some (Json.List l) -> l | _ -> [])
        oks
    in
    (* each entry lives on exactly one shard and every shard rendered its
       rows in the canonical order; re-sorting the rendered strings makes
       the merged list byte-identical to the unsharded rendering *)
    let keyed = List.map (fun j -> (Json.to_string j, j)) rows in
    let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) keyed in
    let sum f = List.fold_left (fun a j -> a + jint j f) 0 oks in
    let resp =
      Protocol.ok
        [
          ("type", Json.Str "rows");
          ("count", Json.Int (List.length sorted));
          ("rows", Json.List (List.map snd sorted));
          ("page_reads", Json.Int (sum "page_reads"));
          ("pool_hits", Json.Int (sum "pool_hits"));
          ("entries_scanned", Json.Int (sum "entries_scanned"));
        ]
    in
    let resp =
      match client_id with
      | Some id -> attach_trace_id id resp
      | None -> resp
    in
    Metrics.observe h_merge_ns (Obs.Clock.since_ns m0);
    Some resp
  end

let respond_parsed t client_id ~line ~deadline q =
  (
      let targets = Planner.route t.map t.enc q in
      let n = List.length targets in
      Metrics.observe h_fanout n;
      Metrics.add c_pruned (Shard_map.count t.map - n);
      match targets with
      | [] -> `Doc (empty_rows_reply client_id)
      | [ i ] -> (
          (* single-shard bypass: forward the line verbatim and hand the
             shard's reply bytes back untouched *)
          match call t i line deadline with
          | Replied payload -> `Raw payload
          | Lost why ->
              `Doc
                (shard_failure_reply t client_id ~contacted:targets
                   ~lost:[ (i, why) ]))
      | targets -> (
          let arr = Array.make n (Lost "not dispatched") in
          let threads =
            List.mapi
              (fun slot i ->
                Thread.create
                  (fun () -> arr.(slot) <- call t i line deadline)
                  ())
              targets
          in
          List.iter Thread.join threads;
          match merge_replies t client_id ~targets (Array.to_list arr) with
          | Some doc -> `Doc doc
          | None -> (
              (* unanimous typed error: pass the first shard's reply through *)
              match arr.(0) with
              | Replied payload -> `Raw payload
              | Lost why ->
                  `Doc
                    (shard_failure_reply t client_id ~contacted:targets
                       ~lost:[ (List.hd targets, why) ]))))

let query_response t client_id ~line ~deadline text =
  match Qparse.parse t.schema text with
  | exception Qparse.Parse_error msg ->
      `Doc (Protocol.error ~detail:msg Protocol.Parse_error)
  | q -> respond_parsed t client_id ~line ~deadline q

let respond ?trace_id t q =
  let line =
    Protocol.line_to_string ?trace_id
      (Protocol.Query { algo = `Parallel; text = Qparse.to_syntax t.schema q })
  in
  match respond_parsed t trace_id ~line ~deadline:None q with
  | `Raw payload -> payload
  | `Doc doc -> Json.to_string doc

(* --- admin responses --------------------------------------------------- *)

let stats_response t =
  let latency =
    match Metrics.find_summary Metrics.default "server.request_ns" with
    | Some s -> Metrics.summary_json s
    | None -> Json.Null
  in
  Protocol.ok
    [
      ("type", Json.Str "stats");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("request_latency", latency);
      ("metrics", Metrics.to_json Metrics.default);
      ("counters", Metrics.counters_json Metrics.default);
    ]

let health_response t =
  let metric name =
    Option.value ~default:0 (Metrics.find Metrics.default name)
  in
  Protocol.ok
    [
      ("type", Json.Str "health");
      ("role", Json.Str "router");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("workers", Json.Int (metric "server.workers"));
      ("queue_depth", Json.Int (metric "server.queue_depth"));
      ("shards", Json.Int (Shard_map.count t.map));
      ("topology", Shard_map.topology_json t.map);
      ( "forwarded",
        Json.List
          (Array.to_list
             (Array.map (fun a -> Json.Int (Atomic.get a)) t.per_shard)) );
      ("pruned", Json.Int (metric "shard.pruned"));
      ("shard_failures", Json.Int (metric "shard.failures"));
    ]

let slow_response =
  Protocol.ok
    [
      ("type", Json.Str "slow_queries");
      ("threshold_ns", Json.Int 0);
      ("capacity", Json.Int 0);
      ("count", Json.Int 0);
      ("entries", Json.List []);
    ]

(* --- the request pipeline ---------------------------------------------- *)

let serve_line ?(queued_ns = 0) ?deadline t line =
  Metrics.incr c_requests;
  let t0 = Obs.Clock.now_ns () in
  if queued_ns > 0 then Metrics.observe h_queue_wait queued_ns;
  let answer =
    match Protocol.parse_line line with
    | Error msg -> `Doc (Protocol.error ~detail:msg Protocol.Bad_request)
    | Ok (client_id, req) -> (
        let expired =
          match deadline with
          | Some d -> Obs.Clock.now_ns () > d
          | None -> false
        in
        if expired then
          `Doc
            (Protocol.error ~detail:"deadline exceeded before execution"
               Protocol.Timeout)
        else
          match req with
          | Protocol.Ping -> `Doc (Protocol.ok [ ("type", Json.Str "pong") ])
          | Protocol.Quit -> `Doc (Protocol.ok [ ("type", Json.Str "bye") ])
          | Protocol.Stats -> `Doc (stats_response t)
          | Protocol.Health -> `Doc (health_response t)
          | Protocol.Slow_queries _ -> `Doc slow_response
          | Protocol.Query { text; _ } ->
              let doc =
                query_response t client_id ~line ~deadline text
              in
              (match (doc, client_id) with
              | `Doc (Json.Obj _ as d), Some id
                when Json.member "trace_id" d = None ->
                  `Doc (attach_trace_id id d)
              | _ -> doc))
  in
  let payload =
    match answer with `Raw payload -> payload | `Doc doc -> Json.to_string doc
  in
  Metrics.observe h_request_ns (Obs.Clock.since_ns t0);
  let is_error =
    match answer with
    | `Doc doc -> not (Protocol.response_is_ok doc)
    | `Raw payload -> (
        match Json.of_string payload with
        | j -> not (Protocol.response_is_ok j)
        | exception Json.Parse_error _ -> true)
  in
  if is_error then Metrics.incr c_request_errors;
  payload

let handler t =
  {
    Server.serve =
      (fun ~queued_ns ~deadline line -> serve_line ~queued_ns ?deadline t line);
    on_stop = (fun () -> ());
  }
