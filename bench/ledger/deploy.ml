(* The five served workloads: how each deployment is set up, the request
   streams its clients send, the correctness gate run before timing, the
   [rw] writer and the [rw] durability check. *)

module Dg = Workload.Datagen
module Db = Uindex.Db
module Index = Uindex.Index
module Qparse = Uindex.Qparse
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client
module Router = Uindex_shard.Router
module Smap = Uindex_shard.Shard_map
module Splitter = Uindex_shard.Splitter
module Pager = Storage.Pager
module Store = Objstore.Store
module Value = Objstore.Value
module Schema = Oodb_schema.Schema

type kind = Lookup | Scan | Filter | Rw | Sharded

let kinds = [ Lookup; Scan; Filter; Rw; Sharded ]

let name = function
  | Lookup -> "lookup"
  | Scan -> "scan"
  | Filter -> "filter"
  | Rw -> "rw"
  | Sharded -> "sharded"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* Reader connections.  Fixed rather than derived from the core count,
   so numbers compare across hosts; [rw] pairs its one reader with the
   writer domain. *)
let clients = function Rw -> 1 | Lookup | Scan | Filter | Sharded -> 2

type size = { vehicles : int; companies : int; employees : int }

(* About 25 vehicles per employee keeps path lookups selective; the
   trees are 5 levels high. *)
let full = { vehicles = 50_000; companies = 5_000; employees = 2_000 }
let smoke = { vehicles = 5_000; companies = 500; employees = 200 }

(* The paper's m = 10 records per node on 1 KiB pages, as Datagen.exp1
   builds its in-memory trees. *)
let tree_config =
  { (Btree.default_config ~page_size:1024) with max_entries = Some 10 }

type rw = {
  db : Db.t;
  ch : Index.t;
  path : Index.t;
  ch_file : string;
  path_file : string;
  ch_before : int;
  path_before : int;
}

type t = {
  kind : kind;
  e : Dg.exp1;
  services : Service.t array;
      (* the services behind the socket: one, or one per shard *)
  router : Router.t option;
  oracle : Service.t;
      (* a service over the generated in-memory indexes: unsharded and
         write-free, the reference every workload's answers must equal *)
  server : Server.t;
  sock : string;
  rw : rw option;
}

let schema t = t.e.ext.b.schema

(* --- setup ----------------------------------------------------------------- *)

let sharded_map (e : Dg.exp1) =
  let bounds = Splitter.choose_boundaries ~source:e.ch_color ~shards:2 in
  let rec ranges lo = function
    | [] -> [ { Smap.lo; hi = None; file = None; endpoint = None } ]
    | hi :: rest ->
        { Smap.lo; hi = Some hi; file = None; endpoint = None } :: ranges hi rest
  in
  Smap.make (ranges "" bounds)

(* Everything [setup_s] measures: data generation, index build, file
   sync ([rw]) or split ([sharded]), and server start.  [tag] keeps the
   files and socket of repeated set-ups apart. *)
let setup ~dir ~size ~seed ~tag kind =
  let e =
    Dg.exp1 ~n_vehicles:size.vehicles ~n_companies:size.companies
      ~n_employees:size.employees ~seed ()
  in
  let b = e.ext.b in
  let service db =
    Service.create ~telemetry:Service.default_telemetry ~schema:b.schema db
  in
  let oracle =
    let db = Db.create e.store in
    Db.attach_index db e.ch_color;
    Db.attach_index db e.path_age;
    service db
  in
  let sock = Filename.concat dir (tag ^ ".sock") in
  let config = { (Server.default_config (Server.Unix_sock sock)) with workers = 2 } in
  let plain services server rw =
    { kind; e; services; router = None; oracle; server; sock; rw }
  in
  match kind with
  | Lookup | Scan | Filter -> plain [| oracle |] (Server.start oracle config) None
  | Rw ->
      let file suffix = Filename.concat dir (tag ^ suffix) in
      let ch_file = file "-color.pages" and path_file = file "-age.pages" in
      let ch =
        Index.create_class_hierarchy ~config:tree_config
          (Pager.create_file ch_file) b.enc ~root:b.vehicle ~attr:"color"
      in
      let path =
        Index.create_path ~config:tree_config (Pager.create_file path_file)
          b.enc ~head:b.vehicle
          ~refs:[ "manufactured_by"; "president" ]
          ~attr:"age"
      in
      let db = Db.create e.store in
      Db.add_index db ch;
      Db.add_index db path;
      Db.sync db;
      Db.set_group_window db 0.002;
      let svc = service db in
      let rw =
        {
          db;
          ch;
          path;
          ch_file;
          path_file;
          ch_before = Index.entry_count ch;
          path_before = Index.entry_count path;
        }
      in
      plain [| svc |] (Server.start svc config) (Some rw)
  | Sharded ->
      let map = sharded_map e in
      let services =
        Array.init (Smap.count map) (fun i ->
            let db = Db.create e.store in
            Db.attach_index db
              (Splitter.restrict ~source:e.ch_color map i (Pager.create ()));
            Db.attach_index db
              (Splitter.restrict ~source:e.path_age map i (Pager.create ()));
            service db)
      in
      let r =
        Router.create ~schema:b.schema ~enc:b.enc ~map
          ~backends:(Array.map (fun s -> Router.Local s) services)
          ()
      in
      {
        kind;
        e;
        services;
        router = Some r;
        oracle;
        server = Server.start_handler (Router.handler r) config;
        sock;
        rw = None;
      }

let remove_files t =
  match t.rw with
  | None -> ()
  | Some rw ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ rw.ch_file; Pager.journal_path rw.ch_file; rw.path_file;
          Pager.journal_path rw.path_file ]

(* A set-up that was only timed: stop it and free its files. *)
let discard t =
  Server.stop t.server;
  (match t.rw with
  | Some rw ->
      Pager.close (Btree.pager (Index.tree rw.ch));
      Pager.close (Btree.pager (Index.tree rw.path))
  | None -> ());
  remove_files t

(* --- request streams ------------------------------------------------------- *)

type pools = {
  emps : (int * int) array;  (* employee, age *)
  cos : (int * int * int) array;  (* company, president, president's age *)
  vehs : (int * Schema.class_id * string) array;  (* vehicle, class, colour *)
  subs : Schema.class_id array;  (* vehicle subclasses, the root excluded *)
  leaves : Schema.class_id array;
  tops : Schema.class_id array;  (* the root's subclasses *)
  fanout : Schema.class_id array;  (* [sharded]: those whose subtree spans both shards *)
}

let int_attr st o a =
  match Store.attr st o a with Value.Int i -> i | _ -> invalid_arg a

let str_attr st o a =
  match Store.attr st o a with Value.Str s -> s | _ -> invalid_arg a

let sorted_extent st cls =
  List.sort compare (Store.extent st ~deep:true cls) |> Array.of_list

let pools t =
  let b = t.e.ext.b and st = t.e.store in
  let schema = b.schema in
  let emps =
    Array.map (fun o -> (o, int_attr st o "age")) (sorted_extent st b.employee)
  in
  let cos =
    Array.to_list (sorted_extent st b.company)
    |> List.filter_map (fun c ->
           match Store.follow st c "president" with
           | [ p ] -> Some (c, p, int_attr st p "age")
           | _ -> None)
    |> Array.of_list
  in
  let vehs =
    Array.map
      (fun v -> (v, Store.class_of st v, str_attr st v "color"))
      (sorted_extent st b.vehicle)
  in
  let subs = List.filter (fun c -> c <> b.vehicle) (Schema.subtree schema b.vehicle) in
  let leaves = List.filter (fun c -> Schema.children schema c = []) subs in
  (* colour queries draw from classes whose subtrees are alike in size
     (the leaves, or the root's subclasses), so they form one latency
     mode and each workload's median sits inside a mode *)
  let tops = Schema.children schema b.vehicle in
  let fanout =
    match t.router with
    | None -> []
    | Some r -> (
        let spans c =
          let q = Qparse.parse schema ("(Red, " ^ Schema.name schema c ^ "*)") in
          List.length (Router.route_query r q) > 1
        in
        (* a split that cuts no such subtree leaves only the root
           spanning both shards *)
        match List.filter spans tops with [] -> [ b.vehicle ] | l -> l)
  in
  let a = Array.of_list in
  { emps; cos; vehs; subs = a subs; leaves = a leaves; tops = a tops; fanout = a fanout }

let pick rng a = a.(Random.State.int rng (Array.length a))
let colors = Workload.Paper_schema.colors

(* The lookup shapes: a path lookup by employee (half), the same with the
   company bound too (a quarter), and a point lookup of one vehicle. *)
let lookup_line schema p rng =
  match Random.State.int rng 4 with
  | 0 | 1 ->
      let e, age = pick rng p.emps in
      Printf.sprintf "query (%d, Employee* @%d, Company*, Vehicle*)" age e
  | 2 ->
      let c, e, age = pick rng p.cos in
      Printf.sprintf "query (%d, Employee* @%d, Company* @%d, Vehicle*)" age e c
  | _ ->
      let v, cls, color = pick rng p.vehs in
      Printf.sprintf "query (%s, %s @%d)" color (Schema.name schema cls) v

let line t p rng =
  let schema = schema t in
  let cname = Schema.name schema in
  let color_sub verb subs =
    Printf.sprintf "%s (%s, %s*)" verb (pick rng colors) (cname (pick rng subs))
  in
  let u = Random.State.int rng 4 in
  match t.kind with
  | Lookup | Rw -> lookup_line schema p rng
  | Scan -> (
      match u with
      | 0 | 1 -> color_sub "query" p.leaves
      | 2 ->
          let a = 20 + Random.State.int rng 50 in
          Printf.sprintf "query ([%d-%d], Employee*, Company*, Vehicle*)" a (a + 1)
      | _ -> color_sub "query-forward" p.leaves)
  | Filter -> (
      match u with
      | 0 | 1 | 2 ->
          Printf.sprintf "%s (%d, Employee*, Company*, %s)"
            (if u = 2 then "query-forward" else "query")
            (20 + Random.State.int rng 51)
            (cname (pick rng p.leaves))
      | _ ->
          (* one vehicle, found by scanning a whole colour run of one of
             its class's subtrees *)
          let rec vehicle () =
            let ((_, cls, _) as v) = pick rng p.vehs in
            if Array.mem cls p.subs then v else vehicle ()
          in
          let v, cls, color = vehicle () in
          let ancestors =
            List.filter
              (fun c -> Schema.is_subclass schema ~sub:cls ~super:c)
              (Array.to_list p.subs)
          in
          Printf.sprintf "query (%s, %s* @%d)" color
            (cname (pick rng (Array.of_list ancestors)))
            v)
  | Sharded -> (
      match u with
      | 0 | 1 -> color_sub "query" p.fanout
      | 2 ->
          let single = List.filter (fun c -> not (Array.mem c p.fanout)) (Array.to_list p.tops) in
          color_sub "query" (Array.of_list single)
      | _ -> lookup_line schema p rng)

(* Lines per client stream; clients cycle through their stream. *)
let stream_length = 8192

(* Client [k]'s stream: a function of the seed alone, generated before
   any timing starts.  [rw] reads exactly [lookup]'s stream, so their
   gate digests must match. *)
let stream t p ~seed ~client =
  let key = match t.kind with Rw -> Lookup | k -> k in
  let rng = Random.State.make [| seed; client; Hashtbl.hash (name key) |] in
  Array.init stream_length (fun _ -> line t p rng)

(* --- correctness gate ------------------------------------------------------ *)

(* [query X] <-> [query-forward X]: the paper's baseline algorithm is the
   oracle for the parallel one, and back. *)
let twin line =
  let fwd = "query-forward " and par = "query " in
  let after p = String.sub line (String.length p) (String.length line - String.length p) in
  if String.starts_with ~prefix:fwd line then par ^ after fwd
  else if String.starts_with ~prefix:par line then fwd ^ after par
  else invalid_arg ("twin: " ^ line)

let is_ok raw = String.starts_with ~prefix:"{\"ok\":true" raw

(* Answers each line over the socket and checks its canonical projection
   against the oracle service, once with the same algorithm and once
   with the twin.  Returns the digest of the projections, or the first
   disagreement. *)
let gate t lines =
  let c = Client.connect_unix t.sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rec go acc = function
    | [] -> Ok (Digest.to_hex (Digest.string (String.concat "\n" (List.rev acc))))
    | line :: rest ->
        let raw = Client.request_raw c line in
        let got = Router.canonical_projection raw in
        let oracle l = Router.canonical_projection (Service.serve_line t.oracle l) in
        if not (is_ok raw) then Error (Printf.sprintf "%s: not ok: %s" line got)
        else if got <> oracle line then
          Error (Printf.sprintf "%s: differs from the unsharded, write-free oracle" line)
        else if got <> oracle (twin line) then
          Error (Printf.sprintf "%s: differs from %s" line (twin line))
        else go (got :: acc) rest
  in
  go [] lines

(* --- the rw writer ---------------------------------------------------------- *)

type writer = {
  stop : bool Atomic.t;
  gate : Mutex.t;
      (* held around each insert + commit; the traced replay takes it to
         keep the writer out of a replayed request *)
  want : bool Atomic.t;  (* the replay is waiting for [gate] *)
  starts : Stat.buf;
  inserts : Stat.buf;  (* insert time *)
  commits : Stat.buf;  (* insert + commit time, as the writer sees it *)
  dom : unit Domain.t;
}

(* Repeats [Db.insert] of a vehicle with a fresh colour no query matches,
   then a synchronous [Db.commit]. *)
let start_writer t rw ~seed =
  let stop = Atomic.make false and gate = Mutex.create () and want = Atomic.make false in
  let starts = Stat.buf () and inserts = Stat.buf () and commits = Stat.buf () in
  let vehicle = t.e.ext.b.vehicle in
  let dom =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          (* the mutex is not fair: step aside while the replay waits *)
          while Atomic.get want do Unix.sleepf 0.0002 done;
          Mutex.lock gate;
          Fun.protect ~finally:(fun () -> Mutex.unlock gate) (fun () ->
              let t0 = Stat.now () in
              ignore
                (Db.insert rw.db ~cls:vehicle
                   [ ("color", Value.Str (Printf.sprintf "zz-%d-%d" seed !n)) ]);
              let t1 = Stat.now () in
              ignore (Db.commit rw.db);
              let t2 = Stat.now () in
              Stat.push starts t0;
              Stat.push inserts (t1 - t0);
              Stat.push commits (t2 - t0));
          incr n
        done)
  in
  { stop; gate; want; starts; inserts; commits; dom }

(* Runs [f] with the writer held off. *)
let quiet w f =
  Atomic.set w.want true;
  Mutex.lock w.gate;
  Atomic.set w.want false;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.gate) f

(* Idempotent; returns the number of acknowledged commits. *)
let stop_writer w =
  if not (Atomic.exchange w.stop true) then Domain.join w.dom;
  w.commits.n

(* --- rw durability ------------------------------------------------------------ *)

(* After a clean stop: close both page files, reopen them (which runs
   journal recovery), re-attach, and require every acknowledged commit's
   entry and sound trees. *)
let check_durability t rw ~acked =
  let b = t.e.ext.b in
  Pager.close (Btree.pager (Index.tree rw.ch));
  Pager.close (Btree.pager (Index.tree rw.path));
  let chp = Pager.open_file rw.ch_file and pathp = Pager.open_file rw.path_file in
  Fun.protect ~finally:(fun () -> Pager.close chp; Pager.close pathp) @@ fun () ->
  let ch =
    Index.attach_class_hierarchy ~config:tree_config chp b.enc ~root:b.vehicle
      ~attr:"color"
  in
  let path = Btree.reattach ~config:tree_config pathp in
  match (Btree.check_invariants (Index.tree ch), Btree.check_invariants path) with
  | exception Failure msg -> Error ("reopened tree fails its invariants: " ^ msg)
  | chr, pathr ->
      if chr.entries <> rw.ch_before + acked then
        Error
          (Printf.sprintf "colour index holds %d entries after reopen, want %d + %d"
             chr.entries rw.ch_before acked)
      else if pathr.entries <> rw.path_before then
        Error
          (Printf.sprintf "path index holds %d entries after reopen, want %d"
             pathr.entries rw.path_before)
      else Ok ()
