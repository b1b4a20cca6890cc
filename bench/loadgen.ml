(* The load generator behind every serve section of the bench: a fixed
   request mix fired by closed-loop clients (one request in flight per
   client) on systhreads, each request timed on the monotonic clock.
   Clients are pure I/O; the parallelism under test belongs to whatever
   answers them — server workers, shard servers, or the calling thread
   for the in-process connector.

   Snapshot reads make every answer deterministic, so each client's
   replies must repeat one cycle exactly, and every client's cycle must
   be the same: one digest per run, comparable across client counts,
   worker counts, telemetry modes and shard counts. *)

module Client = Uindex_server.Client
module Service = Uindex_server.Service

type conn = { send : string -> string; close : unit -> unit }

(* Per-client connectors. *)
let socket path _ =
  let c = Client.connect_unix path in
  { send = Client.request_raw c; close = (fun () -> Client.close c) }

let in_process svc _ = { send = Service.serve_line svc; close = ignore }

type result = {
  queries : int;
  elapsed_s : float;
  qps : float;
  p50_us : float;
  p99_us : float;
  digest : Digest.t;  (* of one accepted reply cycle *)
  ok : int;  (* replies equal to the expected cycle *)
  typed : int;  (* conclusive typed error replies *)
  failed : int;  (* requests the retry policy gave up on *)
}

(* Monotonic nanoseconds: the only clock the serve sections read. *)
let now = Obs.Clock.now_ns
let seconds_since t0 = float_of_int (Obs.Clock.since_ns t0) /. 1e9

(* Runs [f 0] .. [f (n-1)] on systhreads.  The returned function joins
   them all and re-raises the first exception any of them raised: one
   that escapes a thread body is otherwise only printed to stderr. *)
let spawn n f =
  let errors = Array.make n None in
  let threads =
    List.init n (fun k ->
        Thread.create (fun () -> try f k with e -> errors.(k) <- Some e) ())
  in
  fun () ->
    List.iter Thread.join threads;
    Array.iter (function Some e -> raise e | None -> ()) errors

(* Nearest-rank percentile of sorted ns samples, in us. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else float_of_int sorted.(max 0 (((p * n) + 99) / 100 - 1)) /. 1e3

(* The best of [n] runs: the first one maximising [by]. *)
let best_of n ~by f =
  let rec go best k =
    if k = 0 then best
    else
      let r = f () in
      go (if by r > by best then r else best) (k - 1)
  in
  go (f ()) (n - 1)

let is_typed_error raw =
  match Obs.Json.of_string raw with
  | resp -> not (Uindex_server.Protocol.response_is_ok resp)
  | exception Obs.Json.Parse_error _ -> false

(* [clients] clients each send [per_client] requests cycling through
   [mix]; with [stagger], client k leads with mix slot k so lock-step
   rounds cannot pile onto one backend.  Each reply, after [canon], must
   equal the expected cycle: [expected] when given, else the first
   reply each client got for that slot.  With [errors_ok] a differing
   reply is counted when it is a typed error document, and retry
   exhaustion is counted as failed; otherwise both fail the run, as
   does a reply that differs without being a typed error. *)
let run ~name ~mix ~clients ~per_client ?(stagger = false) ?expected
    ?(canon = Fun.id) ?(errors_ok = false) connect =
  let fail what = failwith (name ^ ": " ^ what) in
  let n_mix = Array.length mix in
  let lats = Array.make_matrix clients per_client 0 in
  let cycles = Array.init clients (fun _ -> Array.make n_mix None) in
  let ok = Array.make clients 0 in
  let typed = Array.make clients 0 in
  let failed = Array.make clients 0 in
  let client k =
    let c = connect k in
    Fun.protect ~finally:c.close @@ fun () ->
    let cycle = cycles.(k) in
    for i = 0 to per_client - 1 do
      let j = (if stagger then i + k else i) mod n_mix in
      let t0 = now () in
      let reply =
        match c.send mix.(j) with
        | raw -> Some raw
        | exception Client.Error (Client.Exhausted _) when errors_ok -> None
      in
      lats.(k).(i) <- now () - t0;
      match Option.map canon reply with
      | None -> failed.(k) <- failed.(k) + 1
      | Some r -> (
          let want =
            match (cycle.(j), expected) with
            | Some w, _ -> Some w
            | None, Some e -> Some e.(j)
            | None, None -> None
          in
          match want with
          | Some w when w <> r ->
              if errors_ok && is_typed_error r then typed.(k) <- typed.(k) + 1
              else fail "reply drifted from the expected cycle"
          | _ ->
              cycle.(j) <- Some r;
              ok.(k) <- ok.(k) + 1)
    done
  in
  let t0 = now () in
  spawn clients client ();
  let elapsed_s = seconds_since t0 in
  let digest_of k =
    Array.map
      (function Some r -> r | None -> fail "a mix slot never got a reply")
      cycles.(k)
    |> Array.to_list |> String.concat "\n" |> Digest.string
  in
  let digest = digest_of 0 in
  for k = 1 to clients - 1 do
    if digest_of k <> digest then fail "clients got different answers"
  done;
  let sorted = Array.concat (Array.to_list lats) in
  Array.sort compare sorted;
  let sum = Array.fold_left ( + ) 0 in
  let queries = clients * per_client in
  {
    queries;
    elapsed_s;
    qps = float_of_int queries /. elapsed_s;
    p50_us = percentile sorted 50;
    p99_us = percentile sorted 99;
    digest;
    ok = sum ok;
    typed = sum typed;
    failed = sum failed;
  }

(* One results row — the section's key members, the generator's fields,
   then the section's own measurements — also printed as one line. *)
let row ?(extras = []) key r =
  let fields =
    key
    @ [
        ("queries", Obs.Json.Int r.queries);
        ("qps", Float r.qps);
        ("p50_us", Float r.p50_us);
        ("p99_us", Float r.p99_us);
        ("digest", Str (Digest.to_hex r.digest));
        ("ok", Int r.ok);
        ("typed_errors", Int r.typed);
        ("failed", Int r.failed);
      ]
    @ extras
  in
  List.map
    (fun (k, v) ->
      k ^ " "
      ^
      match v with
      | Obs.Json.Float f -> Printf.sprintf "%.2f" f
      | Str s -> s
      | v -> Obs.Json.to_string v)
    fields
  |> String.concat "  " |> print_endline;
  Obs.Json.Obj fields
