module Json = Obs.Json
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Qparse = Uindex.Qparse
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client
module Endpoint = Uindex_server.Endpoint
module Protocol = Uindex_server.Protocol

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

type backend = Local of Service.t | Remote of Endpoint.t

type t = {
  schema : Schema.t;
  enc : Encoding.t;
  map : Shard_map.t;
  backends : backend array;
  shard_timeout : float;
  policy : Client.retry_policy;
  per_shard : int Atomic.t array;
  pipe : Service.pipeline;
}

let create ?(shard_timeout = 5.) ?(retry_policy = Client.default_retry_policy)
    ?telemetry ~schema ~enc ~map ~backends () =
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
    pipe = Service.pipeline ?telemetry ~schema ();
  }

let requests_per_shard t = Array.map Atomic.get t.per_shard
let route_query t q = Planner.route t.map t.enc q

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

(* an in-process shard answers the already-parsed query without its
   request pipeline; a remote one gets the line and its reply is parsed
   once here *)
type shard_reply = Replied of Service.answer | Lost of string

let call t i ~line ~deadline ~algo q =
  Atomic.incr t.per_shard.(i);
  Metrics.incr c_forwarded;
  match t.backends.(i) with
  | Local svc ->
      Replied
        (Service.contain (fun () ->
             Service.query_answer svc ~root:None ~line ~deadline ~algo q))
  | Remote endpoint -> (
      let rc =
        Client.retrying ~timeout:t.shard_timeout ~policy:t.policy endpoint
      in
      Fun.protect ~finally:(fun () -> Client.retry_close rc) @@ fun () ->
      match Client.retry_request_raw rc line with
      | payload -> (
          match Json.of_string payload with
          | doc -> Replied (Protocol.answer_of_reply doc)
          | exception Json.Parse_error msg ->
              Lost ("unparseable shard reply: " ^ msg))
      | exception Client.Error f -> Lost (Client.failure_to_string f))

let backend_name t i =
  match t.backends.(i) with
  | Local _ -> "local"
  | Remote endpoint -> Endpoint.to_string endpoint

(* --- query fan-out and merge ------------------------------------------- *)

let shard_failure_reply t ~contacted ~lost =
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
  Service.Doc (Protocol.error ~detail Protocol.Shard_failure)

let merge_replies t ~targets replies =
  let replies = List.combine targets replies in
  let pick f = List.filter_map f replies in
  let lost = pick (function i, Lost why -> Some (i, why) | _ -> None) in
  let rows =
    pick (function _, Replied (Service.Rows r) -> Some r | _ -> None)
  in
  let errors =
    pick (function i, Replied (Service.Doc d) -> Some (i, d) | _ -> None)
  in
  if lost <> [] then shard_failure_reply t ~contacted:targets ~lost
  else if errors = [] then
    (* each entry lives on exactly one shard and every shard's rows are
       in the canonical order, so merging them is byte-identical to the
       unsharded rendering *)
    Service.Rows (Protocol.merge_rows rows)
  else begin
    (* every shard agreeing on one error (e.g. unroutable arity) is that
       error, passed through as the first shard gave it; disagreement
       means some shards answered and some did not — a partial failure *)
    let kind (_, d) = Protocol.response_error_kind d in
    match (List.sort_uniq compare (List.map kind errors), errors) with
    | [ Some _ ], (_, d) :: _ when rows = [] -> Service.Doc d
    | _ ->
        let lost =
          List.map
            (fun e -> (fst e, Option.value ~default:"error" (kind e) ^ " reply"))
            errors
        in
        shard_failure_reply t ~contacted:targets ~lost
  end

(* the query answer the shared pipeline serves; a traced request's root
   span also carries the reply's page reads, so a slow-log entry reports
   them *)
let query_answer t ~root ~line ~deadline ~algo q =
  let targets = Planner.route t.map t.enc q in
  let n = List.length targets in
  Metrics.observe h_fanout n;
  Metrics.add c_pruned (Shard_map.count t.map - n);
  Option.iter (fun sp -> Trace.add_field sp "fanout" n) root;
  let ans =
    match targets with
    | [] -> Service.Rows (Protocol.merge_rows [])
    | [ i ] -> merge_replies t ~targets [ call t i ~line ~deadline ~algo q ]
    | targets ->
        let arr = Array.make n (Lost "not dispatched") in
        let threads =
          List.mapi
            (fun slot i ->
              Thread.create
                (fun () -> arr.(slot) <- call t i ~line ~deadline ~algo q)
                ())
            targets
        in
        List.iter Thread.join threads;
        let m0 = Obs.Clock.now_ns () in
        let ans = merge_replies t ~targets (Array.to_list arr) in
        let merge_ns = Obs.Clock.since_ns m0 in
        Metrics.observe h_merge_ns merge_ns;
        Option.iter (fun sp -> Trace.add_field sp "merge_ns" merge_ns) root;
        ans
  in
  Option.iter
    (fun sp ->
      Trace.add_field sp "page_reads"
        (match ans with Service.Rows r -> r.page_reads | Service.Doc _ -> 0))
    root;
  ans

let respond t q =
  let line =
    Protocol.line_to_string
      (Protocol.Query { algo = `Parallel; text = Qparse.to_syntax t.schema q })
  in
  Protocol.answer_to_string
    (query_answer t ~root:None ~line ~deadline:None ~algo:`Parallel q)

(* --- the request pipeline ---------------------------------------------- *)

let health_fields t () =
  [
    ("role", Json.Str "router");
    ("shards", Json.Int (Shard_map.count t.map));
    ("topology", Shard_map.topology_json t.map);
    ( "forwarded",
      Json.List
        (Array.to_list
           (Array.map (fun a -> Json.Int (Atomic.get a)) t.per_shard)) );
    ("pruned", Json.Int (Metrics.value c_pruned));
    ("shard_failures", Json.Int (Metrics.value c_shard_failures));
  ]

let serve_line ?queued_ns ?deadline t line =
  Service.serve_core ?queued_ns ?deadline t.pipe ~health:(health_fields t)
    ~answer:(query_answer t) line

let slow_log_json ?limit t = Service.pipeline_slow_log ?limit t.pipe

let handler t =
  {
    Server.serve =
      (fun ~queued_ns ~deadline line -> serve_line ~queued_ns ?deadline t line);
    on_stop = (fun () -> ());
  }
