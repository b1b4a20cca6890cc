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

let map t = t.map
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

(* a reply is its document and its bytes: an in-process shard hands over
   both from its own pipeline, a remote one is parsed once here *)
type shard_reply = Replied of Json.t * string | Lost of string

let call t i line deadline =
  Atomic.incr t.per_shard.(i);
  Metrics.incr c_forwarded;
  match t.backends.(i) with
  | Local svc -> (
      match Service.serve ?deadline svc line with
      | doc, payload -> Replied (doc, payload)
      | exception e -> Lost (Printexc.to_string e))
  | Remote endpoint -> (
      let rc =
        Client.retrying ~timeout:t.shard_timeout ~policy:t.policy endpoint
      in
      Fun.protect ~finally:(fun () -> Client.retry_close rc) @@ fun () ->
      match Client.retry_request_raw rc line with
      | payload -> (
          match Json.of_string payload with
          | doc -> Replied (doc, payload)
          | exception Json.Parse_error msg ->
              Lost ("unparseable shard reply: " ^ msg))
      | exception Client.Error f -> Lost (Client.failure_to_string f))

let backend_name t i =
  match t.backends.(i) with
  | Local _ -> "local"
  | Remote endpoint -> Endpoint.to_string endpoint

(* --- query fan-out and merge ------------------------------------------- *)

let rows_reply ~rows ~page_reads ~pool_hits ~entries_scanned =
  Protocol.ok
    [
      ("type", Json.Str "rows");
      ("count", Json.Int (List.length rows));
      ("rows", Json.List rows);
      ("page_reads", Json.Int page_reads);
      ("pool_hits", Json.Int pool_hits);
      ("entries_scanned", Json.Int entries_scanned);
    ]

let jint j k =
  match Json.member k j with Some (Json.Int i) -> i | _ -> 0

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
  let lost, oks =
    List.partition_map Fun.id
      (List.map2
         (fun i -> function
           | Lost why -> Either.Left (i, why)
           | Replied (j, payload) -> Either.Right (i, j, payload))
         targets replies)
  in
  let errors =
    List.filter (fun (_, j, _) -> not (Protocol.response_is_ok j)) oks
  in
  if lost <> [] then shard_failure_reply t ~contacted:targets ~lost
  else if errors <> [] then begin
    (* every shard agreeing on one error (e.g. unroutable arity) is that
       error, passed through as the first shard rendered it;
       disagreement means some shards answered and some did not — a
       partial failure *)
    let kind (_, j, _) = Protocol.response_error_kind j in
    match (List.sort_uniq compare (List.filter_map kind errors), errors) with
    | [ _ ], (_, j, payload) :: _ when List.length errors = List.length oks ->
        Service.Rendered (j, payload)
    | _ ->
        let lost =
          List.map
            (fun ((i, _, _) as e) ->
              (i, Option.value ~default:"error" (kind e) ^ " reply"))
            errors
        in
        shard_failure_reply t ~contacted:targets ~lost
  end
  else begin
    let rows =
      List.concat_map
        (fun (_, j, _) ->
          match Json.member "rows" j with Some (Json.List l) -> l | _ -> [])
        oks
    in
    (* each entry lives on exactly one shard and every shard rendered its
       rows in the canonical order; re-sorting the rendered strings makes
       the merged list byte-identical to the unsharded rendering *)
    let keyed = List.map (fun j -> (Json.to_string j, j)) rows in
    let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) keyed in
    let sum f = List.fold_left (fun a (_, j, _) -> a + jint j f) 0 oks in
    Service.Doc
      (rows_reply ~rows:(List.map snd sorted) ~page_reads:(sum "page_reads")
         ~pool_hits:(sum "pool_hits")
         ~entries_scanned:(sum "entries_scanned"))
  end

let respond_parsed t ~root ~line ~deadline q =
  let targets = Planner.route t.map t.enc q in
  let n = List.length targets in
  Metrics.observe h_fanout n;
  Metrics.add c_pruned (Shard_map.count t.map - n);
  Option.iter (fun sp -> Trace.add_field sp "fanout" n) root;
  match targets with
  | [] ->
      Service.Doc
        (rows_reply ~rows:[] ~page_reads:0 ~pool_hits:0 ~entries_scanned:0)
  | [ i ] -> (
      (* single-shard bypass: forward the line verbatim and hand the
         shard's reply bytes back untouched *)
      match call t i line deadline with
      | Replied (j, payload) -> Service.Rendered (j, payload)
      | Lost why -> shard_failure_reply t ~contacted:targets ~lost:[ (i, why) ])
  | targets ->
      let arr = Array.make n (Lost "not dispatched") in
      let threads =
        List.mapi
          (fun slot i ->
            Thread.create (fun () -> arr.(slot) <- call t i line deadline) ())
          targets
      in
      List.iter Thread.join threads;
      let m0 = Obs.Clock.now_ns () in
      let ans = merge_replies t ~targets (Array.to_list arr) in
      let merge_ns = Obs.Clock.since_ns m0 in
      Metrics.observe h_merge_ns merge_ns;
      Option.iter (fun sp -> Trace.add_field sp "merge_ns" merge_ns) root;
      ans

(* the query answer the shared pipeline serves; the root span also
   carries the reply's page reads, so a slow-log entry reports them *)
let query_answer t ~root ~line ~deadline ~algo:_ q =
  let ans = respond_parsed t ~root ~line ~deadline q in
  (match (root, ans) with
  | Some sp, (Service.Doc j | Service.Rendered (j, _)) ->
      Trace.add_field sp "page_reads" (jint j "page_reads")
  | None, _ -> ());
  ans

let respond t q =
  let line =
    Protocol.line_to_string
      (Protocol.Query { algo = `Parallel; text = Qparse.to_syntax t.schema q })
  in
  match respond_parsed t ~root:None ~line ~deadline:None q with
  | Service.Rendered (_, payload) -> payload
  | Service.Doc doc -> Json.to_string doc

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
  snd
    (Service.serve_core ?queued_ns ?deadline t.pipe ~health:(health_fields t)
       ~answer:(query_answer t) line)

let slow_log_json ?limit t = Service.pipeline_slow_log ?limit t.pipe

let handler t =
  {
    Server.serve =
      (fun ~queued_ns ~deadline line -> serve_line ~queued_ns ?deadline t line);
    on_stop = (fun () -> ());
  }
