(* Counters and gauges are single atomic words, so hot paths pay one
   fetch-and-add per event even with concurrent snapshot readers and
   server workers.  Histograms mutate several fields per observation, so
   each carries its own mutex; registries guard their table with one more
   for the (rare) registration and export paths. *)

type counter = { c_value : int Atomic.t }
type gauge = { g_value : int Atomic.t }

let n_buckets = 64

type histogram = {
  h_lock : Mutex.t;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  buckets : int array;  (* buckets.(i) counts values in [2^(i-1), 2^i) *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type entry = { help : string; inst : instrument }

type registry = { lock : Mutex.t; table : (string, entry) Hashtbl.t }

let create_registry () = { lock = Mutex.create (); table = Hashtbl.create 64 }
let default = create_registry ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let qualify ~subsystem name = subsystem ^ "." ^ name

let register registry ~key ~help ~make ~cast ~kind =
  with_lock registry.lock @@ fun () ->
  match Hashtbl.find_opt registry.table key with
  | Some { inst; _ } -> (
      match cast inst with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf
               "Metrics: %s is already registered as a different kind" key))
  | None ->
      let i = make () in
      Hashtbl.add registry.table key { help; inst = kind i };
      i

let counter ?(registry = default) ~subsystem ?(help = "") name =
  register registry ~key:(qualify ~subsystem name) ~help
    ~make:(fun () -> { c_value = Atomic.make 0 })
    ~cast:(function Counter c -> Some c | _ -> None)
    ~kind:(fun c -> Counter c)

let gauge ?(registry = default) ~subsystem ?(help = "") name =
  register registry ~key:(qualify ~subsystem name) ~help
    ~make:(fun () -> { g_value = Atomic.make 0 })
    ~cast:(function Gauge g -> Some g | _ -> None)
    ~kind:(fun g -> Gauge g)

let histogram ?(registry = default) ~subsystem ?(help = "") name =
  register registry ~key:(qualify ~subsystem name) ~help
    ~make:(fun () ->
      {
        h_lock = Mutex.create ();
        h_count = 0;
        h_sum = 0;
        h_max = 0;
        buckets = Array.make n_buckets 0;
      })
    ~cast:(function Histogram h -> Some h | _ -> None)
    ~kind:(fun h -> Histogram h)

let incr c = ignore (Atomic.fetch_and_add c.c_value 1)
let add c n = ignore (Atomic.fetch_and_add c.c_value n)
let value c = Atomic.get c.c_value

let set g v = Atomic.set g.g_value v
let gauge_value g = Atomic.get g.g_value

(* bucket index: 0 holds exactly 0; index i >= 1 holds [2^(i-1), 2^i) *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      Stdlib.incr i;
      v := !v lsr 1
    done;
    min !i (n_buckets - 1)
  end

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

(* Hand-rolled lock scope (no [with_lock] closure): observations ride
   the descent hot path (one per node visit), which must stay
   allocation-free, and nothing in the guarded section can raise —
   [bucket_of] caps its result below [n_buckets]. *)
let observe h v =
  let v = max 0 v in
  let i = bucket_of v in
  Mutex.lock h.h_lock;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  h.buckets.(i) <- h.buckets.(i) + 1;
  Mutex.unlock h.h_lock

let observe_span h f =
  let t0 = Clock.now_ns () in
  let finally () = observe h (Clock.since_ns t0) in
  Fun.protect ~finally f

type histogram_summary = {
  count : int;
  sum : int;
  max_value : int;
  p50 : int;
  p90 : int;
  p95 : int;
  p99 : int;
}

(* callers hold h.h_lock *)
let quantile h q =
  if h.h_count = 0 then 0
  else begin
    let target = int_of_float (Float.round (q *. float_of_int h.h_count)) in
    let target = max 1 (min h.h_count target) in
    let acc = ref 0 and i = ref 0 in
    while !acc < target && !i < n_buckets do
      acc := !acc + h.buckets.(!i);
      if !acc < target then Stdlib.incr i
    done;
    min (bucket_upper !i) h.h_max
  end

let summary h =
  with_lock h.h_lock @@ fun () ->
  {
    count = h.h_count;
    sum = h.h_sum;
    max_value = h.h_max;
    p50 = quantile h 0.5;
    p90 = quantile h 0.9;
    p95 = quantile h 0.95;
    p99 = quantile h 0.99;
  }

(* --- snapshot / export -------------------------------------------------- *)

let sorted_entries r =
  with_lock r.lock (fun () ->
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) r.table [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find r key =
  match with_lock r.lock (fun () -> Hashtbl.find_opt r.table key) with
  | Some { inst = Counter c; _ } -> Some (value c)
  | Some { inst = Gauge g; _ } -> Some (gauge_value g)
  | Some { inst = Histogram _; _ } | None -> None

let find_summary r key =
  match with_lock r.lock (fun () -> Hashtbl.find_opt r.table key) with
  | Some { inst = Histogram h; _ } -> Some (summary h)
  | Some _ | None -> None

let reset r =
  List.iter
    (fun (_, e) ->
      match e.inst with
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> Atomic.set g.g_value 0
      | Histogram h ->
          with_lock h.h_lock (fun () ->
              h.h_count <- 0;
              h.h_sum <- 0;
              h.h_max <- 0;
              Array.fill h.buckets 0 n_buckets 0))
    (sorted_entries r)

let pp ppf r =
  let entries = sorted_entries r in
  let last_subsystem = ref "" in
  List.iter
    (fun (key, e) ->
      let subsystem =
        match String.index_opt key '.' with
        | Some i -> String.sub key 0 i
        | None -> ""
      in
      if subsystem <> !last_subsystem then begin
        if !last_subsystem <> "" then Format.fprintf ppf "@.";
        Format.fprintf ppf "[%s]@." subsystem;
        last_subsystem := subsystem
      end;
      match e.inst with
      | Counter c -> Format.fprintf ppf "  %-40s %12d@." key (value c)
      | Gauge g -> Format.fprintf ppf "  %-40s %12d  (gauge)@." key (gauge_value g)
      | Histogram h ->
          let s = summary h in
          Format.fprintf ppf
            "  %-40s count=%d sum=%d max=%d p50<=%d p90<=%d p95<=%d p99<=%d@."
            key s.count s.sum s.max_value s.p50 s.p90 s.p95 s.p99)
    entries

let summary_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      ("max", Json.Int s.max_value);
      ("p50", Json.Int s.p50);
      ("p90", Json.Int s.p90);
      ("p95", Json.Int s.p95);
      ("p99", Json.Int s.p99);
    ]

let to_json r =
  let entries = sorted_entries r in
  Json.Obj
    (List.map
       (fun (key, e) ->
         match e.inst with
         | Counter c -> (key, Json.Int (value c))
         | Gauge g -> (key, Json.Int (gauge_value g))
         | Histogram h -> (key, summary_json (summary h)))
       entries)

(* Counters only — the monotone subset of the registry.  Gauges can
   legitimately decrease (queue depth, active sessions), so snapshot
   diffing and monotonicity checks work off this export. *)
let counters_json r =
  Json.Obj
    (List.filter_map
       (fun (key, e) ->
         match e.inst with
         | Counter c -> Some (key, Json.Int (value c))
         | Gauge _ | Histogram _ -> None)
       (sorted_entries r))

(* Key-wise sum of counter snapshots from several servers: the cluster
   total a multi-endpoint [stats]/[top] renders as its merged row.  Keys
   missing from some snapshots count from 0; non-integer members are
   dropped.  Output keys are sorted, so merging is order-insensitive. *)
let merge_counters snaps =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun snap ->
      match snap with
      | Json.Obj kvs ->
          List.iter
            (fun (k, v) ->
              match v with
              | Json.Int n ->
                  let prev =
                    Option.value ~default:0 (Hashtbl.find_opt tbl k)
                  in
                  Hashtbl.replace tbl k (prev + n)
              | _ -> ())
            kvs
      | _ -> ())
    snaps;
  let kvs = Hashtbl.fold (fun k n acc -> (k, Json.Int n) :: acc) tbl [] in
  Json.Obj (List.sort (fun (a, _) (b, _) -> compare a b) kvs)

let delta ~before ~after =
  match after with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int a ->
              let b =
                match Json.member k before with
                | Some (Json.Int b) -> b
                | _ -> 0
              in
              Some (k, a - b)
          | _ -> None)
        kvs
  | _ -> []
