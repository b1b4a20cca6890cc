module Json = Obs.Json

let src = Logs.Src.create "uindex.server" ~doc:"query service socket server"

module Log = (val Logs.src_log src : Logs.LOG)

let g_workers =
  Obs.Metrics.gauge ~subsystem:"server" ~help:"worker domains serving"
    "workers"

let g_queue_depth =
  Obs.Metrics.gauge ~subsystem:"server"
    ~help:"connections waiting in the accept queue" "queue_depth"

let c_worker_restarts =
  Obs.Metrics.counter ~subsystem:"server"
    ~help:"dead worker domains respawned by the supervisor" "worker_restarts"

let c_acceptor_restarts =
  Obs.Metrics.counter ~subsystem:"server"
    ~help:"dead acceptor domains respawned by the supervisor"
    "acceptor_restarts"

let g_budget_left =
  Obs.Metrics.gauge ~subsystem:"server"
    ~help:"domain respawns left in the restart budget" "restart_budget_left"

type addr = Endpoint.t = Unix_sock of string | Tcp of string * int

type config = {
  addr : addr;
  workers : int;
  backlog : int;
  request_timeout : float;  (* seconds; 0. = no deadline *)
  chaos : Chaos.t option;  (* armed fault injector; None = serve honestly *)
  restart_budget : int;  (* domain respawns before degrading *)
}

let default_config addr =
  {
    addr;
    workers = 4;
    backlog = 64;
    request_timeout = 5.;
    chaos = None;
    restart_budget = 8;
  }

type conn = { fd : Unix.file_descr; enqueued_ns : int (* Obs.Clock *) }

(* what a worker serves requests through: the plain query service, or
   any other request pipeline with the same line-in/payload-out contract
   (e.g. a shard router) *)
type handler = {
  serve : queued_ns:int -> deadline:int option -> string -> string;
  on_stop : unit -> unit;
}

let handler_of_service service =
  {
    serve =
      (fun ~queued_ns ~deadline line ->
        Service.serve_line ~queued_ns ?deadline service line);
    on_stop = (fun () -> Uindex.Db.sync (Service.db service));
  }

type t = {
  handler : handler;
  config : config;
  listen_fd : Unix.file_descr;
  queue : conn Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  stopping : bool Atomic.t;
  (* supervision: dying domains report their slot (-1 = acceptor) here;
     the supervisor joins the corpse and respawns it under the budget *)
  dead : int Queue.t;
  dlock : Mutex.t;
  dcond : Condition.t;
  budget_left : int Atomic.t;
  pool : unit Domain.t option array;
  mutable acceptor : unit Domain.t option;
  mutable supervisor : unit Domain.t option;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send_quietly fd json =
  try Protocol.write_frame fd (Json.to_string json)
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* --- binding ---------------------------------------------------------- *)

let unlink_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> invalid_arg (Printf.sprintf "Server: %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let bind_listener config =
  let addr = Endpoint.to_sockaddr config.addr in
  let domain = Unix.domain_of_sockaddr addr in
  (match config.addr with
  | Unix_sock path -> unlink_stale_socket path
  | Tcp _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd (max 8 config.backlog);
  fd

let bound_addr t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (ip, port) -> Tcp (Unix.string_of_inet_addr ip, port)
  | Unix.ADDR_UNIX path -> Unix_sock path

(* --- acceptor --------------------------------------------------------- *)

let enqueue t fd =
  Mutex.lock t.qlock;
  let full = Queue.length t.queue >= t.config.backlog in
  if not full then begin
    Queue.push { fd; enqueued_ns = Obs.Clock.now_ns () } t.queue;
    Obs.Metrics.set g_queue_depth (Queue.length t.queue);
    Condition.signal t.qcond
  end;
  Mutex.unlock t.qlock;
  if full then begin
    (* shed load in the acceptor: a typed reply beats a hung client *)
    Log.warn (fun m -> m "accept queue full (%d): shedding" t.config.backlog);
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1. with Unix.Unix_error _ -> ());
    send_quietly fd (Protocol.error ~detail:"accept queue full" Protocol.Overloaded);
    close_quietly fd
  end

let rec accept_loop t =
  if not (Atomic.get t.stopping) then begin
    (* poll with a timeout so a quiet listener still notices [stop] *)
    (match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ -> enqueue t fd
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

(* --- workers ---------------------------------------------------------- *)

(* next queued connection; None only when stopping AND the queue has
   drained — pending requests are served through shutdown *)
let pop t =
  Mutex.lock t.qlock;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    Condition.wait t.qcond t.qlock
  done;
  let c = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Obs.Metrics.set g_queue_depth (Queue.length t.queue);
  Mutex.unlock t.qlock;
  c

let serve_conn t conn =
  let timeout = t.config.request_timeout in
  let chaos = t.config.chaos in
  let fd = conn.fd in
  if timeout > 0. then begin
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
  end;
  let waited_ns = Obs.Clock.since_ns conn.enqueued_ns in
  if timeout > 0. && float_of_int waited_ns > timeout *. 1e9 then begin
    (* went stale waiting in the accept queue: tell the client, not limbo *)
    send_quietly fd (Protocol.error ~detail:"queued past deadline" Protocol.Timeout);
    close_quietly fd
  end
  else begin
    (* the accept-queue wait belongs to the connection's first request;
       subsequent requests on the same connection waited zero *)
    let queued_ns = ref waited_ns in
    let rec loop () =
      match Chaos.read_frame chaos fd with
      | Protocol.Eof | Protocol.Truncated -> close_quietly fd
      | Protocol.Too_large n ->
          (* stream position is unrecoverable after a hostile length *)
          send_quietly fd
            (Protocol.error
               ~detail:(Printf.sprintf "frame of %d bytes exceeds %d" n Protocol.max_frame)
               Protocol.Frame_too_large);
          close_quietly fd
      | Protocol.Frame payload -> (
          (* the injected worker crash: raises out of serve_conn so the
             domain really dies and supervision has to earn its keep *)
          Chaos.maybe_crash chaos;
          let deadline =
            if timeout > 0. then
              Some (Obs.Clock.now_ns () + int_of_float (timeout *. 1e9))
            else None
          in
          let wait = !queued_ns in
          queued_ns := 0;
          let reply = t.handler.serve ~queued_ns:wait ~deadline payload in
          let sent =
            try Chaos.write_frame chaos fd reply
            with Unix.Unix_error _ | Invalid_argument _ -> `Sent
          in
          match sent with
          | `Injected ->
              (* the reply was dropped or cut short: the connection is
                 poisoned, kill it like a real fault would *)
              close_quietly fd
          | `Sent ->
              if
                match Protocol.parse_request payload with
                | Ok Protocol.Quit -> true
                | _ -> false
              then close_quietly fd
              else loop ())
    in
    try loop ()
    with
    | Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT | Unix.ECONNRESET
          | Unix.EPIPE ),
          _,
          _ ) ->
        close_quietly fd
  end

let worker_loop t =
  let rec go () =
    match pop t with
    | None -> ()
    | Some conn ->
        (* a worker must survive anything one connection throws at it —
           except the deliberate chaos crash, which must kill the domain *)
        (match serve_conn t conn with
        | () -> ()
        | exception Chaos.Crash ->
            close_quietly conn.fd;
            raise Chaos.Crash
        | exception e ->
            Log.err (fun m -> m "worker: %s" (Printexc.to_string e));
            (* best-effort typed reply before closing, so a client can
               tell a server bug from network death *)
            send_quietly conn.fd
              (Protocol.error
                 ~detail:("unhandled server error: " ^ Printexc.to_string e)
                 Protocol.Internal);
            close_quietly conn.fd);
        go ()
  in
  go ()

(* --- supervision ------------------------------------------------------- *)

let report_death t slot =
  Mutex.lock t.dlock;
  Queue.push slot t.dead;
  Condition.signal t.dcond;
  Mutex.unlock t.dlock

let worker_body t slot =
  try worker_loop t
  with e ->
    Log.err (fun m -> m "worker %d died: %s" slot (Printexc.to_string e));
    report_death t slot

let acceptor_body t =
  try accept_loop t
  with e ->
    Log.err (fun m -> m "acceptor died: %s" (Printexc.to_string e));
    report_death t (-1)

let live_workers t =
  Array.fold_left (fun n d -> if d = None then n else n + 1) 0 t.pool

(* joins each corpse as it is reported and respawns it while the budget
   lasts; an exhausted budget degrades (fewer workers) instead of
   respawning forever — a crash loop should page someone, not spin *)
let rec supervisor_loop t =
  Mutex.lock t.dlock;
  while Queue.is_empty t.dead && not (Atomic.get t.stopping) do
    Condition.wait t.dcond t.dlock
  done;
  let slot = if Queue.is_empty t.dead then None else Some (Queue.pop t.dead) in
  Mutex.unlock t.dlock;
  match slot with
  | None -> ()  (* stopping and every death handled *)
  | Some slot ->
      (* the death report was the domain's last act; reap it *)
      if slot < 0 then begin
        Option.iter Domain.join t.acceptor;
        t.acceptor <- None
      end
      else begin
        Option.iter Domain.join t.pool.(slot);
        t.pool.(slot) <- None
      end;
      let budget = Atomic.get t.budget_left in
      if budget > 0 && not (Atomic.get t.stopping) then begin
        Atomic.decr t.budget_left;
        Obs.Metrics.set g_budget_left (budget - 1);
        if slot < 0 then begin
          Obs.Metrics.incr c_acceptor_restarts;
          Log.warn (fun m ->
              m "supervisor: respawning acceptor (%d respawns left)"
                (budget - 1));
          t.acceptor <- Some (Domain.spawn (fun () -> acceptor_body t))
        end
        else begin
          Obs.Metrics.incr c_worker_restarts;
          Log.warn (fun m ->
              m "supervisor: respawning worker %d (%d respawns left)" slot
                (budget - 1));
          t.pool.(slot) <- Some (Domain.spawn (fun () -> worker_body t slot))
        end
      end
      else
        Log.err (fun m ->
            m "supervisor: restart budget exhausted, %s stays down"
              (if slot < 0 then "acceptor" else "worker " ^ string_of_int slot));
      Obs.Metrics.set g_workers (live_workers t);
      supervisor_loop t

(* --- lifecycle -------------------------------------------------------- *)

let start_handler handler config =
  if config.workers < 1 then invalid_arg "Server.start: workers < 1";
  if config.backlog < 1 then invalid_arg "Server.start: backlog < 1";
  if config.restart_budget < 0 then
    invalid_arg "Server.start: restart_budget < 0";
  (* a peer that disconnects mid-reply must surface as EPIPE on the
     write, not kill the process *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = bind_listener config in
  let t =
    {
      handler;
      config;
      listen_fd;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = Atomic.make false;
      dead = Queue.create ();
      dlock = Mutex.create ();
      dcond = Condition.create ();
      budget_left = Atomic.make config.restart_budget;
      pool = Array.make config.workers None;
      acceptor = None;
      supervisor = None;
    }
  in
  t.acceptor <- Some (Domain.spawn (fun () -> acceptor_body t));
  for slot = 0 to config.workers - 1 do
    t.pool.(slot) <- Some (Domain.spawn (fun () -> worker_body t slot))
  done;
  t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t));
  Obs.Metrics.set g_workers config.workers;
  Obs.Metrics.set g_budget_left config.restart_budget;
  Log.info (fun m ->
      m "serving with %d workers%s" config.workers
        (match config.chaos with
        | None -> ""
        | Some c -> " [chaos: " ^ Chaos.spec_to_string (Chaos.spec c) ^ "]"));
  t

let start service config = start_handler (handler_of_service service) config

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake the pool (to drain) and the supervisor (to exit); the
       supervisor is joined first so nothing mutates the pool under us *)
    Mutex.lock t.qlock;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qlock;
    Mutex.lock t.dlock;
    Condition.broadcast t.dcond;
    Mutex.unlock t.dlock;
    Option.iter Domain.join t.supervisor;
    t.supervisor <- None;
    Option.iter Domain.join t.acceptor;
    t.acceptor <- None;
    (* wake workers again in case they raced the first broadcast *)
    Mutex.lock t.qlock;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qlock;
    Array.iteri
      (fun i d ->
        Option.iter Domain.join d;
        t.pool.(i) <- None)
      t.pool;
    Obs.Metrics.set g_workers 0;
    (* the pool drained the queue before exiting; anything left was
       enqueued in the closing race — refuse it cleanly *)
    Queue.iter
      (fun c ->
        send_quietly c.fd (Protocol.error ~detail:"server stopping" Protocol.Overloaded);
        close_quietly c.fd)
      t.queue;
    Queue.clear t.queue;
    close_quietly t.listen_fd;
    (match t.config.addr with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (* drain-then-sync: shutdown leaves nothing in the journal *)
    t.handler.on_stop ();
    Log.info (fun m -> m "stopped")
  end
