module Json = Obs.Json
module Metrics = Obs.Metrics

let c_retries =
  Metrics.counter ~subsystem:"client" ~help:"request attempts retried"
    "retries"

let c_reconnects =
  Metrics.counter ~subsystem:"client"
    ~help:"connections re-established by the retry layer" "reconnects"

let c_exhausted =
  Metrics.counter ~subsystem:"client" ~help:"requests that ran out of retries"
    "exhausted"

type failure =
  | Connect_failed of string
  | Timed_out
  | Reset
  | Closed_by_server
  | Bad_frame of string
  | Rejected of { kind : string; detail : string }
  | Exhausted of { attempts : int; last : string }

exception Error of failure

let failure_to_string = function
  | Connect_failed detail -> Printf.sprintf "connect failed: %s" detail
  | Timed_out -> "timed out"
  | Reset -> "connection reset mid-frame"
  | Closed_by_server -> "closed by server"
  | Bad_frame detail -> Printf.sprintf "bad reply frame: %s" detail
  | Rejected { kind; detail } ->
      Printf.sprintf "rejected: %s (%s)" kind detail
  | Exhausted { attempts; last } ->
      Printf.sprintf "gave up after %d attempts: %s" attempts last

let () =
  Printexc.register_printer (function
    | Error f -> Some (Printf.sprintf "Client.Error (%s)" (failure_to_string f))
    | _ -> None)

type t = { fd : Unix.file_descr }

let default_timeout = 30.

let apply_timeout fd timeout =
  if timeout > 0. then begin
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
  end

let connect ?(timeout = default_timeout) endpoint =
  let fail detail = raise (Error (Connect_failed detail)) in
  let addr =
    try Endpoint.to_sockaddr endpoint with Invalid_argument msg -> fail msg
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match Unix.connect fd addr with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail
        (match e with
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | e -> Printexc.to_string e));
  apply_timeout fd timeout;
  { fd }

let connect_unix ?timeout path = connect ?timeout (Endpoint.Unix_sock path)

(* every transport failure on the request path becomes a typed Error:
   expired socket deadlines read as Timed_out, stream death as Reset *)
let typed_transport = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    ->
      Error Timed_out
  | Unix.Unix_error
      ((Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNABORTED | Unix.ESHUTDOWN),
       _, _) ->
      Error Reset
  | Unix.Unix_error (err, _, _) ->
      Error (Bad_frame (Unix.error_message err))
  | e -> e

let request_raw t line =
  match
    Protocol.write_frame t.fd line;
    Protocol.read_frame t.fd
  with
  | Protocol.Frame payload -> payload
  | Protocol.Eof -> raise (Error Closed_by_server)
  | Protocol.Truncated -> raise (Error Reset)
  | Protocol.Too_large n ->
      raise
        (Error (Bad_frame (Printf.sprintf "reply frame of %d bytes" n)))
  | exception (Unix.Unix_error _ as e) -> raise (typed_transport e)

let request t line =
  let raw = request_raw t line in
  match Json.of_string raw with
  | j -> j
  | exception _ -> raise (Error (Bad_frame "reply is not JSON"))

(* --- admin conveniences ------------------------------------------------ *)

let admin t req =
  let resp = request t (Protocol.request_to_string req) in
  if Protocol.response_is_ok resp then resp
  else
    let kind =
      Option.value ~default:"unknown" (Protocol.response_error_kind resp)
    in
    let detail =
      match Json.member "error" resp with
      | Some e -> (
          match Option.bind (Json.member "detail" e) Json.to_str with
          | Some d -> d
          | None -> "")
      | None -> ""
    in
    raise (Error (Rejected { kind; detail }))

let stats t = admin t Protocol.Stats
let health t = admin t Protocol.Health
let slow_queries ?limit t = admin t (Protocol.Slow_queries limit)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- retrying requests ------------------------------------------------- *)

type retry_policy = {
  attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  retry_seed : int;
}

let default_retry_policy =
  {
    attempts = 5;
    base_delay = 0.05;
    max_delay = 1.0;
    jitter = 0.5;
    retry_seed = 1;
  }

type retrying = {
  connect : unit -> t;
  policy : retry_policy;
  rng : Chaos.Rng.t;
  mutable conn : t option;
  mutable retries : int;
}

let retrying ?timeout ?(policy = default_retry_policy) endpoint =
  if policy.attempts < 1 then invalid_arg "Client.retrying: attempts < 1";
  {
    connect = (fun () -> connect ?timeout endpoint);
    policy;
    rng = Chaos.Rng.create policy.retry_seed;
    conn = None;
    retries = 0;
  }

let retry_count r = r.retries

let retry_close r =
  Option.iter close r.conn;
  r.conn <- None

let drop_conn r =
  Option.iter close r.conn;
  r.conn <- None

let ensure_conn r =
  match r.conn with
  | Some c -> c
  | None ->
      let c = r.connect () in
      r.conn <- Some c;
      c

(* exponential backoff with multiplicative jitter: base * 2^k capped,
   scaled by a seeded uniform factor in [1-jitter, 1+jitter] *)
let backoff r k =
  let p = r.policy in
  let d = min p.max_delay (p.base_delay *. (2. ** float_of_int k)) in
  let factor = 1. -. p.jitter +. (2. *. p.jitter *. Chaos.Rng.float r.rng) in
  let d = d *. factor in
  if d > 0. then Unix.sleepf d

(* replies documented "retry later"; everything else typed is final *)
let retryable_reply raw =
  match Json.of_string raw with
  | exception _ -> `Malformed
  | j ->
      if Protocol.response_is_ok j then `Final
      else (
        match Protocol.response_error_kind j with
        | Some ("overloaded" | "timeout") -> `Retry
        | Some _ -> `Final
        | None -> `Malformed)

let retry_request_raw r line =
  let rec attempt k =
    let again last =
      drop_conn r;
      if k + 1 >= r.policy.attempts then begin
        Metrics.incr c_exhausted;
        raise (Error (Exhausted { attempts = r.policy.attempts; last }))
      end
      else begin
        r.retries <- r.retries + 1;
        Metrics.incr c_retries;
        backoff r k;
        attempt (k + 1)
      end
    in
    let reconnecting = r.conn = None in
    match
      let c = ensure_conn r in
      if reconnecting && k > 0 then Metrics.incr c_reconnects;
      request_raw c line
    with
    | raw -> (
        match retryable_reply raw with
        | `Final -> raw
        | `Retry -> again ("server replied retryable: " ^ raw)
        | `Malformed ->
            drop_conn r;
            raise (Error (Bad_frame "reply is not a response document")))
    | exception
        Error ((Connect_failed _ | Timed_out | Reset | Closed_by_server) as f)
      ->
        again (failure_to_string f)
  in
  attempt 0
