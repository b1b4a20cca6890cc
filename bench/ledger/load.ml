(* The closed-loop load: each client connection has one request in
   flight, like every caller of this server (Client, the router's
   fan-out, the CLI).  Requests that start inside the measured window
   count; the warm-up before it is discarded. *)

module Client = Uindex_server.Client

type client = {
  lat : Stat.buf;  (* ns, ok replies only *)
  mutable attempted : int;
  mutable failed : int;
}

let client_loop ~sock ~stream ~t_start ~t_end r =
  let conn = ref (Client.connect_unix sock) in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let line = stream.(!i mod Array.length stream) in
    incr i;
    let t0 = Stat.now () in
    let ok =
      match Client.request_raw !conn line with
      | raw -> Deploy.is_ok raw
      | exception Client.Error _ ->
          (* a transport failure counts as failed; carry on afresh *)
          (try Client.close !conn with _ -> ());
          conn := Client.connect_unix sock;
          false
    in
    let t1 = Stat.now () in
    if t0 >= t_start && t0 < t_end then begin
      r.attempted <- r.attempted + 1;
      if ok then Stat.push r.lat (t1 - t0) else r.failed <- r.failed + 1
    end;
    if t1 >= t_end then fin := true
  done;
  Client.close !conn

type result = {
  attempted : int;
  failed : int;
  latencies : int array;  (* sorted, ns *)
}

(* Runs one client per stream on its own systhread until [t_end]; what
   comes before [t_start] is warm-up. *)
let run ~sock ~streams ~t_start ~t_end =
  let rs =
    Array.map (fun _ -> { lat = Stat.buf (); attempted = 0; failed = 0 }) streams
  in
  let errors = Array.make (Array.length streams) None in
  let threads =
    Array.mapi
      (fun k stream ->
        Thread.create
          (fun () ->
            try client_loop ~sock ~stream ~t_start ~t_end rs.(k)
            with e -> errors.(k) <- Some e)
          ())
      streams
  in
  Array.iter Thread.join threads;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  let all = Stat.buf () in
  Array.iter (fun r -> for i = 0 to r.lat.n - 1 do Stat.push all r.lat.a.(i) done) rs;
  {
    attempted = Array.fold_left (fun a (r : client) -> a + r.attempted) 0 rs;
    failed = Array.fold_left (fun a (r : client) -> a + r.failed) 0 rs;
    latencies = Stat.sorted all;
  }
