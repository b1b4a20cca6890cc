module Json = Obs.Json
module Metrics = Obs.Metrics

let g_pages =
  Metrics.gauge ~subsystem:"server"
    ~help:"distinct pages in the corruption quarantine" "quarantined_pages"

let c_records =
  Metrics.counter ~subsystem:"server"
    ~help:"corruption findings recorded in the quarantine"
    "quarantine_records"

type entry = {
  page : int option;
  component : string;
  detail : string;
  source : string;
  first_at : float;
  mutable last_at : float;
  mutable hits : int;
}

(* process-wide, like the metrics registry: every service/scrub in the
   process reports into one quarantine *)
let lock = Mutex.create ()
let table : (int option * string, entry) Hashtbl.t = Hashtbl.create 16
let order : entry list ref = ref []  (* newest first *)

let distinct_pages_locked () =
  let pages = Hashtbl.fold (fun (p, _) _ acc ->
      match p with Some p -> p :: acc | None -> acc) table []
  in
  List.sort_uniq compare pages

let record ~source ?page ~component ~detail () =
  let now = Unix.gettimeofday () in
  Mutex.lock lock;
  (match Hashtbl.find_opt table (page, component) with
  | Some e ->
      e.hits <- e.hits + 1;
      e.last_at <- now
  | None ->
      let e =
        { page; component; detail; source; first_at = now; last_at = now;
          hits = 1 }
      in
      Hashtbl.add table (page, component) e;
      order := e :: !order;
      Metrics.set g_pages (List.length (distinct_pages_locked ())));
  Mutex.unlock lock;
  Metrics.incr c_records

let entries () =
  Mutex.lock lock;
  let es = List.rev !order in
  Mutex.unlock lock;
  es

let pages () =
  Mutex.lock lock;
  let ps = distinct_pages_locked () in
  Mutex.unlock lock;
  ps

let length () =
  Mutex.lock lock;
  let n = Hashtbl.length table in
  Mutex.unlock lock;
  n

let entry_json e =
  Json.Obj
    [
      ("page", match e.page with Some p -> Json.Int p | None -> Json.Null);
      ("component", Json.Str e.component);
      ("detail", Json.Str e.detail);
      ("source", Json.Str e.source);
      ("first_at", Json.Float e.first_at);
      ("last_at", Json.Float e.last_at);
      ("hits", Json.Int e.hits);
    ]

let summary_json () =
  Mutex.lock lock;
  let es = List.rev !order and ps = distinct_pages_locked () in
  Mutex.unlock lock;
  Json.Obj
    [
      ("length", Json.Int (List.length es));
      ("pages", Json.List (List.map (fun p -> Json.Int p) ps));
      ("entries", Json.List (List.map entry_json es));
    ]

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  order := [];
  Metrics.set g_pages 0;
  Mutex.unlock lock
