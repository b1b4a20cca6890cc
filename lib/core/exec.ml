module Schema = Oodb_schema.Schema
module Value = Objstore.Value
module Stats = Storage.Stats
module Pager = Storage.Pager
module Trace = Obs.Trace

type binding = {
  value : Value.t;
  comps : (Schema.class_id * Value.oid) list;
}

type 'a result = {
  bindings : 'a list;
  page_reads : int;
  pool_hits : int;
  entries_scanned : int;
}

type outcome = binding result

let head_oids o =
  List.filter_map
    (fun b ->
      match List.rev b.comps with (_, oid) :: _ -> Some oid | [] -> None)
    o.bindings
  |> List.sort_uniq compare

type 'a row = Btree.Scanner.t -> int -> 'a list -> 'a list

(* The single-value layout's row for library callers: the key's value
   and first [arity] components, read where the classifier found them. *)
let binding_row _idx plan sc arity acc =
  let key = Btree.Scanner.key_bytes sc in
  let value =
    match Plan.attr_ty plan with
    | Schema.Int -> Value.Int (Storage.Bytes_util.get_int key 0)
    | _ -> Value.Str (Bytes.sub_string key 0 (Plan.value_end plan))
  in
  let comps =
    List.init arity (fun j ->
        (Plan.comp_class plan j, Storage.Bytes_util.get_u32 key (Plan.comp_end plan j)))
  in
  { value; comps } :: acc

(* The forward scan reads every leaf of the bracket, so it meets the
   adjacent duplicate bindings a partial-path query produces (the skips
   would have jumped past them).  Two bindings are equal exactly when
   their keys agree up to the end of the [arity]-th component, so an
   accepted key whose prefix is the last accepted key's adds no row. *)
let dedup plan row =
  let last = ref Bytes.empty and last_len = ref (-1) in
  fun sc arity acc ->
    let key = Btree.Scanner.key_bytes sc and n = Plan.prefix_length plan arity in
    if n = !last_len
       && Storage.Bytes_util.match_len key 0 (Bytes.unsafe_to_string !last) 0 n
          = n
    then acc
    else begin
      if Bytes.length !last < n then last := Bytes.create (2 * n);
      Bytes.blit key 0 !last 0 n;
      last_len := n;
      row sc arity acc
    end

(* [page_reads] stays the pager-read delta whether or not a pool is
   attached: pool hits never reach the pager, misses do, so the paper's
   uncached counts are preserved exactly when no pool is in play and the
   warm counts are genuine physical-page fetches otherwise.  Hits are
   reported separately. *)
let with_read_count tree f =
  let stats = Pager.stats (Btree.pager tree) in
  let before = Stats.snapshot stats in
  let bindings, entries = f () in
  let delta = Stats.diff ~before ~after:(Stats.snapshot stats) in
  {
    bindings = List.rev bindings;
    page_reads = delta.reads;
    pool_hits = delta.pool_hits;
    entries_scanned = entries;
  }

(* --- span plumbing ------------------------------------------------------ *)

(* All instrumentation is keyed on [trace : Trace.span option]; when it is
   [None] the cost is an option match at segment boundaries — never per
   entry — so the untraced paths stay within noise of the old code.

   Only descent/scan segment spans carry a ["page_reads"] field, and every
   pager read issued by the executor happens inside exactly one segment
   (plan compilation and candidate generation are pure), so
   [Trace.total root "page_reads"] equals the query's pager-stats delta. *)

let plan_span trace plan =
  match trace with
  | None -> ()
  | Some parent ->
      let sp = Trace.span "plan" in
      (match Plan.intervals plan with
      | Some ivs -> Trace.add_field sp "intervals" (List.length ivs)
      | None -> Trace.add_field sp "enumerable" 0);
      Trace.add_child parent sp

let merge_span trace (acc, n) =
  (match trace with
  | None -> ()
  | Some parent ->
      let sp = Trace.span "merge" in
      Trace.add_field sp "bindings" (List.length acc);
      Trace.add_field sp "entries_scanned" n;
      Trace.add_child parent sp);
  (acc, n)

(* Mutable per-query segment accounting for the scan loops.  A segment is
   one B-tree descent plus the sequential scan that follows it; the
   parallel algorithm opens a new segment at every [Plan.Seek], hundreds
   per selective query.  So a segment costs O(1): its span is built once,
   with all its fields, when it closes, and pushed onto [closed]; the
   whole run is attached to the parent by [seg_finish] in one append. *)
type seg_state = {
  parent : Trace.span;
  stats : Stats.t;
  mutable name : string option;  (* the open segment, if any *)
  mutable start_reads : int;
  mutable start_pool_hits : int;
  mutable entries : int;
  mutable accepted : int;
  mutable closed : Trace.span list;  (* newest first *)
}

let seg_make trace stats =
  match trace with
  | None -> None
  | Some parent ->
      Some
        {
          parent;
          stats;
          name = None;
          start_reads = 0;
          start_pool_hits = 0;
          entries = 0;
          accepted = 0;
          closed = [];
        }

let seg_close = function
  | None -> ()
  | Some s -> (
      match s.name with
      | None -> ()
      | Some name ->
          let hits = s.stats.Stats.pool_hits - s.start_pool_hits in
          let tail = [ ("entries", s.entries); ("accepted", s.accepted) ] in
          let fields =
            ("page_reads", s.stats.Stats.reads - s.start_reads)
            :: (if hits > 0 then ("pool_hits", hits) :: tail else tail)
          in
          s.closed <- Trace.span ~fields name :: s.closed;
          s.name <- None)

let seg_open seg name =
  match seg with
  | None -> ()
  | Some s ->
      seg_close seg;
      s.name <- Some name;
      s.start_reads <- s.stats.Stats.reads;
      s.start_pool_hits <- s.stats.Stats.pool_hits;
      s.entries <- 0;
      s.accepted <- 0

(* closes the last segment and attaches every segment span, in execution
   order, after the plan span *)
let seg_finish seg =
  match seg with
  | None -> ()
  | Some s ->
      seg_close seg;
      Trace.add_children s.parent (List.rev s.closed);
      s.closed <- []

let seg_entry seg ~accepted =
  match seg with
  | None -> ()
  | Some s ->
      s.entries <- s.entries + 1;
      if accepted then s.accepted <- s.accepted + 1

(* --- cursor reuse -------------------------------------------------------- *)

(* One scanner per domain, re-pointed at the query's view with
   [Scanner.reset]: its key scratch is recycled instead of reallocated
   per query.  Page dedup is not the scanner's business: the parallel
   algorithm hands it a [Pager.Cache] reader.  Server workers are
   domains, so each worker gets its own cursor and no locking is
   needed.  The slot is emptied while a query runs — a re-entrant call
   would simply build a fresh scanner — and refilled on the way out,
   exceptions included. *)
let scanner_slot : Btree.Scanner.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_scanner tree read f =
  let slot = Domain.DLS.get scanner_slot in
  let sc =
    match !slot with
    | Some sc ->
        slot := None;
        Btree.Scanner.reset sc tree ~read;
        sc
    | None -> Btree.Scanner.create tree ~read
  in
  Fun.protect ~finally:(fun () -> slot := Some sc) (fun () -> f sc)

(* --- the interval walk ----------------------------------------------------- *)

let below upper sc =
  match upper with
  | Some h ->
      Storage.Bytes_util.compare_sub (Btree.Scanner.key_bytes sc) 0
        (Btree.Scanner.key_length sc) h
      < 0
  | None -> true

(* The one interval walk (see the interface).  With [skip] a [`Seek]
   opens a new descent segment and a [`Stop] ends the walk; without it
   every verdict advances.  A per-query [Pager.Cache] as the scanner's
   [read] makes revisits free, [Btree.raw_read] counts every one. *)
let scan ?trace ~skip tree sc plan row =
  match Plan.lower plan with
  | None -> ([], 0)
  | Some lo ->
      let seg = seg_make trace (Pager.stats (Btree.pager tree)) in
      let upper = Plan.upper plan in
      let rec go acc n live =
        if live && below upper sc then begin
          let r =
            Plan.classify_in_place plan ~skip (Btree.Scanner.key_bytes sc)
              (Btree.Scanner.key_length sc)
          in
          let arity = Plan.arity r in
          seg_entry seg ~accepted:(arity > 0);
          step (if arity = 0 then acc else row sc arity acc) (n + 1) r
        end
        else (acc, n)
      and step acc n r =
        match Plan.move r with
        | `Advance -> go acc n (Btree.Scanner.advance sc)
        | `Seek ->
            (* skip targets are always strictly beyond the current key,
               so the scanner serves them as finger seeks *)
            seg_open seg "descent";
            go acc n
              (Btree.Scanner.seek_bytes sc (Plan.target plan)
                 (Plan.target_length plan))
        | `Stop -> (acc, n)
      in
      seg_open seg "descent";
      let first =
        Btree.Scanner.seek_bytes sc (Bytes.unsafe_of_string lo) (String.length lo)
      in
      if not skip then seg_open seg "scan";
      let r = go [] 0 first in
      seg_finish seg;
      merge_span trace r

let compile idx query =
  Plan.compile ~enc:(Index.encoding idx) ~ty:(Index.attr_ty idx) query

let impl ?trace algo idx query make_row =
  let plan = compile idx query in
  plan_span trace plan;
  let tree = Index.tree idx in
  let read, skip =
    match algo with
    | `Forward -> (Btree.raw_read tree, false)
    | `Parallel -> (Pager.Cache.read (Btree.cached_read tree), true)
  in
  let row = make_row idx plan in
  let row = if skip then row else dedup plan row in
  with_read_count tree (fun () ->
      with_scanner tree read (fun sc -> scan ?trace ~skip tree sc plan row))

let algo_name = function `Forward -> "forward" | `Parallel -> "parallel"

let m_queries =
  Obs.Metrics.counter ~subsystem:"exec" ~help:"queries executed" "queries"

let h_page_reads =
  Obs.Metrics.histogram ~subsystem:"exec" ~help:"page reads per query"
    "page_reads"

let h_entries =
  Obs.Metrics.histogram ~subsystem:"exec" ~help:"entries scanned per query"
    "entries_scanned"

let h_alloc =
  Obs.Metrics.histogram ~subsystem:"exec"
    ~help:"minor-heap words allocated per query" "alloc_per_query"

let record (o : _ result) =
  Obs.Metrics.incr m_queries;
  Obs.Metrics.observe h_page_reads o.page_reads;
  Obs.Metrics.observe h_entries o.entries_scanned;
  o

(* The allocation regression guard (ROADMAP item 5): every query records
   its Gc.minor_words delta.  Reading the minor allocation pointer is a
   few instructions, so this rides on the hot path; the histogram
   observation itself happens after the second sample. *)
let with_alloc_accounting f =
  let w0 = Gc.minor_words () in
  let o = f () in
  Obs.Metrics.observe h_alloc (int_of_float (Gc.minor_words () -. w0));
  o

let finish_root sp (o : _ result) =
  Trace.add_field sp "bindings" (List.length o.bindings);
  Trace.add_field sp "entries_scanned" o.entries_scanned

(* Public entry points trace into the global sink when one is installed
   (see Obs.Trace.with_collector); with the default null sink they run
   the bare algorithms. *)
let run_rows ~algo ~row idx query =
  with_alloc_accounting @@ fun () ->
  match Trace.scope () with
  | None -> record (impl algo idx query row)
  | Some sink ->
      let sp = Trace.span (algo_name algo) in
      let o = impl ~trace:sp algo idx query row in
      finish_root sp o;
      Trace.emit sink sp;
      record o

let run ~algo idx query = run_rows ~algo ~row:binding_row idx query

let forward idx query = run ~algo:`Forward idx query
let parallel idx query = run ~algo:`Parallel idx query

let analyze ~algo idx query =
  with_alloc_accounting @@ fun () ->
  let sp = Trace.span (algo_name algo) in
  let undecodable0 = Plan.undecodable_entries () in
  let o = impl ~trace:sp algo idx query binding_row in
  finish_root sp o;
  (if o.pool_hits > 0 then Trace.add_field sp "pool_hits_total" o.pool_hits);
  let undecodable = Plan.undecodable_entries () - undecodable0 in
  if undecodable > 0 then Trace.add_field sp "undecodable_entries" undecodable;
  (record o, sp)

type visit = { depth : int; page : int; is_leaf : bool }

(* A dry run of the parallel walk on its own scanner, whose reader
   records a page when its per-query cache fetches it (the cache's
   distinct count grows), at the level the scanner reports for it.  (A
   finger seek starts below the root, so the order of touches alone does
   not give depth.) *)
let explain idx query =
  let plan = compile idx query in
  let tree = Index.tree idx in
  let stats = Pager.stats (Btree.pager tree) in
  let reads0 = stats.Stats.reads in
  (* explain must not perturb measurements: read the pager directly
     (never the shared pool, whose LRU state and hit counters a dry run
     must not disturb) and roll the read counter back after *)
  let cache = Pager.Cache.create (Btree.pager tree) in
  let scanner = ref None in
  let visits = ref [] in
  let read id =
    let distinct = Pager.Cache.distinct_reads cache in
    let b = Pager.Cache.read cache id in
    if Pager.Cache.distinct_reads cache > distinct then begin
      let depth = Option.fold ~none:0 ~some:Btree.Scanner.level !scanner in
      let is_leaf =
        try Btree.Node.is_leaf_page b with Invalid_argument _ -> false
      in
      visits := { depth; page = id; is_leaf } :: !visits
    end;
    b
  in
  let sc = Btree.Scanner.create tree ~read in
  scanner := Some sc;
  Fun.protect
    ~finally:(fun () -> stats.Stats.reads <- reads0)
    (fun () ->
      ignore (scan ~skip:true tree sc plan (fun _ _ acc -> acc)));
  List.rev !visits

let pp_explain ppf visits =
  List.iter
    (fun v ->
      Format.fprintf ppf "%s%s page %d@."
        (String.make (2 * v.depth) ' ')
        (if v.is_leaf then "leaf" else "node")
        v.page)
    visits
