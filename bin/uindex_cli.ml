(* uindex-cli: explore the U-index from the command line.

   Subcommands:
     codes        print the encoded paper schema
     demo         build the Example 1 database and run the Section 3.3 queries
     query        run a textual query (Section 3.4), with its Fig. 3 search
                  tree (--explain) or its EXPLAIN ANALYZE span tree (--analyze)
     stats        run a canned workload and dump the metrics registry
     build        persist a generated index to a page file (crash-safe)
     shard-split  partition a page file into COD-range shards
     recover      replay a page file's journal and verify the index
     check        run the full corruption verifier against a page file
     salvage      rebuild a damaged index from the (regenerated) object store
     corrupt      inflict deterministic media damage on a page file
     bench-table1 regenerate Table 1 (small/full size)
     bench-figures regenerate Figures 5-8 and ablations A1-A7 at a small size,
                  checking their claims
     serve        serve the generated database over a socket (worker pool)
     client       send request lines to a running server
     supervise    run serve as a child process, recovering and respawning it
     top          a refreshing dashboard over running servers

   Exit codes: 0 success, 1 usage/IO error, 2 corruption detected,
   3 (recover) a torn journal was discarded — the last committed state
   was restored but the in-flight transaction is lost. *)

module Ps = Workload.Paper_schema
module Dg = Workload.Datagen
module Ex = Workload.Experiment
module Qg = Workload.Querygen
module Value = Objstore.Value
module Query = Uindex.Query
module Index = Uindex.Index
module Exec = Uindex.Exec
module Encoding = Oodb_schema.Encoding
module Schema = Oodb_schema.Schema
module Smap = Uindex_shard.Shard_map
module Splitter = Uindex_shard.Splitter
module Router = Uindex_shard.Router

open Cmdliner

(* --- codes -------------------------------------------------------------- *)

let codes_cmd =
  let run extended =
    if extended then
      let e = Ps.extended () in
      Format.printf "%a" Encoding.pp e.b.enc
    else
      let b = Ps.base () in
      Format.printf "%a" Encoding.pp b.enc
  in
  let extended =
    Arg.(value & flag & info [ "extended" ] ~doc:"Include the Section 5 classes.")
  in
  Cmd.v
    (Cmd.info "codes" ~doc:"Print the encoded Fig. 1 schema (the COD relation).")
    Term.(const run $ extended)

(* --- demo --------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    let b = Ps.base () in
    let ex = Ps.example1 b in
    let ch =
      Index.create_class_hierarchy (Storage.Pager.create ()) b.enc
        ~root:b.vehicle ~attr:"color"
    in
    Index.build ch ex.store;
    let path =
      Index.create_path (Storage.Pager.create ()) b.enc ~head:b.vehicle
        ~refs:[ "manufactured_by"; "president" ]
        ~attr:"age"
    in
    Index.build path ex.store;
    let show label idx q =
      let o = Exec.parallel idx q in
      Printf.printf "%-46s -> %s (%d pages)\n" label
        (String.concat ","
           (List.map string_of_int (Exec.head_oids o)))
        o.Exec.page_reads
    in
    Printf.printf "Example 1 database: %d objects\n\n" (Objstore.Store.count ex.store);
    show "red vehicles" ch
      (Query.class_hierarchy ~value:(V_eq (Str "Red")) (P_subtree b.vehicle));
    show "white autos or trucks" ch
      (Query.class_hierarchy ~value:(V_eq (Str "White"))
         (P_union [ P_subtree b.automobile; P_subtree b.truck ]));
    show "vehicles, president aged 50" path
      (Query.path ~value:(V_eq (Int 50))
         [
           Query.comp (P_subtree b.employee);
           Query.comp (P_subtree b.company);
           Query.comp (P_subtree b.vehicle);
         ]);
    show "vehicles of Japanese auto companies" path
      (Query.path ~value:V_any
         [
           Query.comp (P_subtree b.employee);
           Query.comp (P_subtree b.japanese_auto_company);
           Query.comp (P_subtree b.vehicle);
         ])
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Example 1 database and the Section 3.3 queries.")
    Term.(const run $ const ())

(* --- terms shared by several subcommands ---------------------------------- *)

(* a usage or IO error: one line on stderr, exit 1 *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "uindex-cli: %s\n" msg;
      exit 1)
    fmt

let or_die = function Ok v -> v | Error msg -> die "%s" msg

(* -n/--seed: the generated vehicle database, built when first forced *)
let dataset_arg ?(n = 12_000) ?(seed = 1) () =
  let n = Arg.(value & opt int n & info [ "n" ] ~doc:"Number of vehicles.") in
  let seed =
    Arg.(value & opt int seed & info [ "seed" ] ~doc:"Generator seed.")
  in
  Term.(
    const (fun n_vehicles seed -> lazy (Dg.exp1 ~n_vehicles ~seed ()))
    $ n $ seed)

let existing file =
  if not (Sys.file_exists file) then die "no such file: %s" file;
  file

(* the positional page file; one that must already exist is checked
   before anything else runs *)
let file_arg ?(exists = true) doc =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  if exists then Term.(const existing $ file) else file

(* the pager and the bulk loader own the bounds: a value they refuse is a
   usage error here, before any file is touched *)
let page_size_arg =
  let check page_size =
    match Storage.Pager.create ~page_size () with
    | _ -> page_size
    | exception Invalid_argument msg -> die "--page-size %d: %s" page_size msg
  in
  Term.(
    const check
    $ Arg.(
        value & opt int 1024
        & info [ "page-size" ] ~docv:"BYTES" ~doc:"Page size in bytes."))

let fill_arg =
  let check = function
    | Some fill as f -> (
        let probe = Btree.create (Storage.Pager.create ()) in
        match Btree.bulk_load ~fill probe Seq.empty with
        | () -> f
        | exception Invalid_argument msg -> die "--fill %g: %s" fill msg)
    | None -> None
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt (some float) None
        & info [ "fill" ] ~docv:"FACTOR"
            ~doc:
              "Bulk-load fill factor in (0, 1] (default 0.9): pack pages to \
               this fraction, leaving headroom for later inserts."))

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

(* --- query: one textual query, its search tree or its span tree ----------- *)

let parse_query schema qstr =
  match Uindex.Qparse.parse schema qstr with
  | exception Uindex.Qparse.Parse_error m ->
      Printf.eprintf "parse error %s\n" m;
      exit 1
  | q -> q

(* the line every query report carries: query, query --analyze (after
   "total: ") and check --query *)
let result_line (o : Exec.outcome) =
  Printf.sprintf "%d results, %d page reads%s, %d entries scanned"
    (List.length o.bindings) o.page_reads
    (if o.pool_hits > 0 then Printf.sprintf " (+%d pool hits)" o.pool_hits
     else "")
    o.entries_scanned

let pool_report idx =
  match Index.pool idx with
  | None -> ()
  | Some p ->
      Printf.printf "pool: %d hits, %d misses, %.1f%% hit rate, %d resident\n"
        (Storage.Buffer_pool.hits p)
        (Storage.Buffer_pool.misses p)
        (100. *. Storage.Buffer_pool.hit_rate p)
        (Storage.Buffer_pool.resident p)

let query_cmd =
  let run data qstr algo explain analyze json cache_pages repeat =
    let e = Lazy.force data in
    let schema = e.Dg.ext.b.schema in
    let q = parse_query schema qstr in
    (* route to the index matching the query's arity *)
    let idx =
      if List.length q.Query.comps = 1 then e.ch_color else e.path_age
    in
    if cache_pages > 0 then Index.set_cache_pages idx cache_pages;
    (* the runs before the last only warm the pool *)
    for _ = 2 to repeat do
      ignore (Exec.run ~algo idx q)
    done;
    if analyze then begin
      let o, sp = Exec.analyze ~algo idx q in
      if json then print_endline (Obs.Json.to_string (Obs.Trace.to_json sp))
      else begin
        Format.printf "%a" Obs.Trace.pp sp;
        print_endline ("total: " ^ result_line o);
        pool_report idx
      end
    end
    else begin
      let o = Exec.run ~algo idx q in
      Printf.printf "query  %s\nindex  %s\n%s\n"
        (Uindex.Qparse.to_syntax schema q)
        (match Index.kind idx with
        | Index.Class_hierarchy _ -> "class-hierarchy on Vehicle.color"
        | Index.Path _ -> "path on Vehicle.manufactured_by.president.age")
        (result_line o);
      pool_report idx;
      List.iteri
        (fun i bnd ->
          if i < 10 then
            Printf.printf "  %s\n"
              (String.concat " / "
                 (List.map
                    (fun (cls, oid) ->
                      Printf.sprintf "%s@%d" (Schema.name schema cls) oid)
                    bnd.Exec.comps)))
        o.bindings;
      if List.length o.bindings > 10 then print_endline "  ..."
    end;
    if explain then begin
      print_endline "\nsearch tree (the paper's Fig. 3):";
      Format.printf "%a" Exec.pp_explain (Exec.explain idx q)
    end
  in
  let qstr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Query in the paper's syntax, e.g. '(Red, Bus*)', '(*, Bus*)' or \
             '([50-60], Employee*, Company*, Vehicle*)'.")
  in
  let algo =
    Arg.(
      value
      & opt (enum [ ("parallel", `Parallel); ("forward", `Forward) ]) `Parallel
      & info [ "algo" ] ~doc:"Retrieval algorithm: parallel or forward.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Also print the search tree the parallel algorithm builds (Fig. \
             3): every page a dry run of its walk touches.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "EXPLAIN ANALYZE: execute the query traced and print the span \
             tree of what actually happened (per-descent page reads, \
             entries, bindings) and a $(b,total:) line in place of the \
             result listing.")
  in
  let json = json_arg "With $(b,--analyze): print the span tree as JSON." in
  let cache_pages =
    Arg.(
      value & opt int 0
      & info [ "cache-pages" ] ~docv:"N"
          ~doc:
            "Attach a shared LRU buffer pool of $(docv) pages to the index. \
             Pool hits are reported separately and never counted as page \
             reads; 0 (the default) keeps the paper's exact uncached \
             accounting.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"K"
          ~doc:
            "Run the query $(docv) times and report the last run (the one \
             $(b,--analyze) traces); with $(b,--cache-pages), later runs hit \
             the warm pool.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run a textual query (Section 3.4 syntax) on a generated vehicle \
          database, through the index matching its arity.")
    Term.(
      const run $ dataset_arg () $ qstr $ algo $ explain $ analyze $ json
      $ cache_pages $ repeat)

(* --- live views: stats --connect and top, over any number of endpoints ---- *)

module Endpoint = Uindex_server.Endpoint
module Client = Uindex_server.Client

(* small JSON accessors shared by stats --connect and top *)
let jmember k j = Obs.Json.member k j
let jobj_or_empty = function Some j -> j | None -> Obs.Json.Obj []

let jint j k =
  match jmember k j with
  | Some (Obs.Json.Int i) -> i
  | Some (Obs.Json.Float f) -> int_of_float f
  | _ -> 0

let jfloat j k =
  match jmember k j with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> 0.

(* a comma-separated --connect/--endpoints list, parsed once *)
let endpoints_or_die spec =
  List.map
    (fun s -> or_die (Endpoint.of_string s))
    (String.split_on_char ',' spec)

let with_connections endpoints f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns =
    List.map
      (fun ep ->
        match Client.connect ep with
        | c -> (ep, c)
        | exception Client.Error f ->
            die "cannot connect to %s: %s" (Endpoint.to_string ep)
              (Client.failure_to_string f))
      endpoints
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, c) -> Client.close c) conns)
    (fun () -> f conns)

(* one scrape: every endpoint's stats and health snapshots.  A server
   that dies (or a chaos injector that cuts the connection) mid-scrape is
   an error message and exit 1, not a backtrace. *)
type scrape = { name : string; stats : Obs.Json.t; health : Obs.Json.t }

let scrape conns =
  let one (ep, c) =
    let stats = Client.stats c in
    { name = Endpoint.to_string ep; stats; health = Client.health c }
  in
  match List.map one conns with
  | snaps -> snaps
  | exception Client.Error f ->
      die "server request failed: %s" (Client.failure_to_string f)

let counters sc = jobj_or_empty (jmember "counters" sc.stats)

(* the figures both views print for each endpoint *)
let endpoint_lines emit i sc =
  let line fmt = Printf.ksprintf emit fmt in
  let h = sc.health in
  let sl = jobj_or_empty (jmember "slow_log" h) in
  let gc = jobj_or_empty (jmember "gc" h) in
  let lat = jobj_or_empty (jmember "request_latency" sc.stats) in
  let alloc =
    jobj_or_empty
      (Option.bind (jmember "metrics" sc.stats)
         (jmember "exec.alloc_per_query"))
  in
  line "[%d] %s: up %.1fs, %d workers, queue %d, %d sessions%s" i sc.name
    (jfloat h "uptime_s") (jint h "workers") (jint h "queue_depth")
    (jint h "active_sessions")
    (match jmember "role" h with
    | Some (Obs.Json.Str r) -> ", role " ^ r
    | _ -> "");
  line "    lsn: acked=%d durable=%d lag=%d" (jint h "acked_lsn")
    (jint h "durable_lsn") (jint h "lsn_lag");
  line "    slow log: %d/%d entries (threshold %.1f ms), tracing %s, gc \
        minor-coll %d major-coll %d"
    (jint sl "length") (jint sl "capacity")
    (float_of_int (jint sl "threshold_ns") /. 1e6)
    (match jmember "tracing" h with
    | Some (Obs.Json.Bool true) -> "on"
    | _ -> "off")
    (jint gc "minor_collections") (jint gc "major_collections");
  line "    request latency (µs): count=%d p50<=%d p90<=%d p99<=%d max=%d"
    (jint lat "count") (jint lat "p50" / 1000) (jint lat "p90" / 1000)
    (jint lat "p99" / 1000) (jint lat "max" / 1000);
  line "    alloc/query (words): p50<=%d p99<=%d max=%d" (jint alloc "p50")
    (jint alloc "p99") (jint alloc "max")

(* one column per endpoint, plus [merged] (column [n]) when there are
   several; [cell i] renders column [i] of a row *)
let table emit n title rows =
  let cols = List.init (if n > 1 then n + 1 else n) Fun.id in
  let name i = if i = n then "merged" else Printf.sprintf "[%d]" i in
  let cells f =
    String.concat "" (List.map (fun i -> Printf.sprintf " %11s" (f i)) cols)
  in
  emit (Printf.sprintf "%-38s%s" title (cells name));
  List.iter
    (fun (label, cell) -> emit (Printf.sprintf "  %-36s%s" label (cells cell)))
    rows

(* every counter of every endpoint against the same endpoint's counters
   in an earlier --json snapshot, matched by endpoint *)
let monotone_since file snaps =
  let before =
    try Obs.Json.of_string (In_channel.with_open_text file In_channel.input_all)
    with
    | Sys_error msg -> die "%s" msg
    | Obs.Json.Parse_error msg -> die "%s: %s" file msg
  in
  let earlier =
    match jmember "endpoints" before with Some (Obs.Json.List l) -> l | _ -> []
  in
  let check sc =
    match
      List.find_opt
        (fun e ->
          Option.bind (jmember "endpoint" e) Obs.Json.to_str = Some sc.name)
        earlier
    with
    | None ->
        Printf.eprintf "uindex-cli: %s: no snapshot of %s\n" file sc.name;
        false
    | Some e ->
        let deltas =
          Obs.Metrics.delta
            ~before:
              (jobj_or_empty
                 (Option.bind (jmember "stats" e) (jmember "counters")))
            ~after:(counters sc)
        in
        let bad = List.filter (fun (_, d) -> d < 0) deltas in
        List.iter
          (fun (k, d) ->
            Printf.eprintf "uindex-cli: %s: counter %s went backwards by %d\n"
              sc.name k (-d))
          bad;
        if bad = [] then
          Printf.eprintf
            "%s: counters monotone: %d counters, +%d events since snapshot\n"
            sc.name (List.length deltas)
            (List.fold_left (fun a (_, d) -> a + d) 0 deltas);
        bad = []
  in
  List.for_all Fun.id (List.map check snaps)

let stats_connect endpoints json since =
  let snaps = with_connections endpoints scrape in
  (* schema sanity: a live snapshot must carry a non-empty metrics object *)
  List.iter
    (fun sc ->
      match jmember "metrics" sc.stats with
      | Some (Obs.Json.Obj (_ :: _)) -> ()
      | _ -> die "%s: stats reply carries no metrics snapshot" sc.name)
    snaps;
  let monotone =
    match since with None -> true | Some f -> monotone_since f snaps
  in
  let cols = List.map counters snaps in
  let merged = Obs.Metrics.merge_counters cols in
  (if json then
     print_endline
       (Obs.Json.to_multiline
          (Obs.Json.Obj
             [
               ( "endpoints",
                 Obs.Json.List
                   (List.map
                      (fun sc ->
                        Obs.Json.Obj
                          [
                            ("endpoint", Obs.Json.Str sc.name);
                            ("stats", sc.stats);
                            ("health", sc.health);
                          ])
                      snaps) );
               ("merged_counters", merged);
             ]))
   else begin
     List.iteri (endpoint_lines print_endline) snaps;
     let cols = Array.of_list (cols @ [ merged ]) in
     match merged with
     | Obs.Json.Obj kvs ->
         table print_endline (List.length snaps) "counters:"
           (List.map
              (fun (k, _) -> (k, fun i -> string_of_int (jint cols.(i) k)))
              kvs)
     | _ -> ()
   end);
  if not monotone then exit 1

(* --- stats: canned workload + registry dump, or a live-server scrape ----- *)

let stats_cmd =
  let run_canned data json =
    (* exercise every instrumented subsystem: build the generated database
       (pager, btree), run the Table 1 query mix (exec), then a durable
       build + recover round-trip (journal, buffer pool via experiment) *)
    let e = Lazy.force data in
    ignore (Ex.table1 e);
    let file = Filename.temp_file "uindex_stats" ".pages" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        let pager = Storage.Pager.create_file ~page_size:1024 file in
        let b = e.ext.b in
        let ch =
          Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
        in
        Index.build ch e.store;
        Index.sync ch;
        Storage.Pager.close pager;
        ignore (Storage.Pager.recover file));
    (* exercise the request path too, so server.request_ns has a
       distribution: the same dispatch the socket server runs *)
    let db = Uindex.Db.create e.store in
    Uindex.Db.attach_index db e.ch_color;
    Uindex.Db.attach_index db e.path_age;
    let svc = Uindex_server.Service.create ~schema:e.ext.b.schema db in
    List.iter
      (fun line -> ignore (Uindex_server.Service.serve_line svc line))
      [
        "ping";
        "query (Red, Bus*)";
        "query (White, Vehicle*)";
        "query-forward (Red, Bus*)";
        "query ([50-60], Employee*, Company*, Vehicle*)";
        "stats";
      ];
    if json then
      print_endline (Obs.Json.to_multiline (Obs.Metrics.to_json Obs.Metrics.default))
    else begin
      Format.printf "%a" Obs.Metrics.pp Obs.Metrics.default;
      match
        Obs.Metrics.find_summary Obs.Metrics.default "server.request_ns"
      with
      | Some s ->
          Printf.printf
            "request latency (ns): count=%d p50<=%d p95<=%d p99<=%d max=%d\n"
            s.Obs.Metrics.count s.p50 s.p95 s.p99 s.max_value
      | None -> ()
    end
  in
  let run data json connect monotone_since =
    match connect with
    | Some spec -> stats_connect (endpoints_or_die spec) json monotone_since
    | None -> run_canned data json
  in
  let json = json_arg "Dump the registry as JSON." in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SPEC"
          ~doc:
            "Scrape live $(b,serve) instances instead of running the \
             canned workload: $(i,SPEC) is a comma-separated list of \
             endpoints (HOST:PORT or a Unix socket path), e.g. a shard \
             fleet and its router.  Prints each endpoint's health and \
             latency figures and a counter table with one column per \
             endpoint, plus the merged totals when there are several.")
  in
  let monotone_since =
    Arg.(
      value
      & opt (some string) None
      & info [ "monotone-since" ] ~docv:"FILE"
          ~doc:
            "With $(b,--connect): load a previous $(b,--json) snapshot \
             from $(i,FILE) and fail (exit 1) unless every counter of \
             every endpoint is monotone non-decreasing since the same \
             endpoint's snapshot.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a canned workload (generated database, Table 1 query mix, one \
          durable build/recover round-trip) and dump the metrics registry — \
          or, with $(b,--connect), scrape a live server's registry over \
          the admin protocol.")
    Term.(const run $ dataset_arg ~n:2_000 () $ json $ connect $ monotone_since)

(* --- build: persist an index to a page file ------------------------------- *)

let build_cmd =
  let run file data page_size sync_each fill no_checksums =
    if sync_each && fill <> None then
      die "--fill sets the bulk load's packing; --sync inserts per object";
    let e = Lazy.force data in
    let b = e.Dg.ext.b in
    let pager =
      Storage.Pager.create_file ~page_size ~checksums:(not no_checksums) file
    in
    let ch =
      Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
    in
    if sync_each then
      (* one durable commit per object: every prefix of the build is a
         state `recover` can restore *)
      Objstore.Store.iter e.store (fun o ->
          Index.index_object ch e.store o.Objstore.Store.oid;
          Index.sync ch)
    else Index.build ?fill ch e.store;
    Index.sync ch;
    Printf.printf "%s: %d entries in %d pages (%d physical writes)\n" file
      (Index.entry_count ch)
      (Storage.Pager.page_count pager)
      (Storage.Pager.physical_writes pager);
    Storage.Pager.close pager
  in
  let sync_each =
    Arg.(
      value & flag
      & info [ "sync" ]
          ~doc:
            "Insert and commit one object at a time instead of bulk-loading \
             and committing once (slow; exercises the journal).")
  in
  let no_checksums =
    Arg.(
      value & flag
      & info [ "no-checksums" ]
          ~doc:
            "Disable per-page checksums (they are on by default for file \
             pagers; without them media damage is served silently).")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Build the Vehicle.color class-hierarchy index on a file-backed \
          pager and commit it: bottom-up from the sorted entry stream, each \
          page written once and packed to $(b,--fill), or with $(b,--sync) \
          one committed insert per object.")
    Term.(
      const run
      $ file_arg ~exists:false "Page file to create (truncated)."
      $ dataset_arg () $ page_size_arg $ sync_each $ fill_arg $ no_checksums)

(* --- shard-split: partition a page file into COD-range shards -------------- *)

let shard_split_cmd =
  let run source shards out endpoints page_size fill =
    if shards < 1 then die "--shards must be >= 1";
    let b = (Ps.extended ()).b in
    let src_pager = Storage.Pager.open_file source in
    Fun.protect ~finally:(fun () -> Storage.Pager.close src_pager)
    @@ fun () ->
    let src =
      Index.attach_class_hierarchy src_pager b.enc ~root:b.vehicle
        ~attr:"color"
    in
    let bounds = Splitter.choose_boundaries ~source:src ~shards in
    let n = List.length bounds + 1 in
    if n < shards then
      Printf.eprintf
        "uindex-cli: only %d distinct classes to cut on; producing %d \
         shards instead of %d\n"
        n n shards;
    let eps = Option.fold ~none:[] ~some:endpoints_or_die endpoints in
    if eps <> [] && List.length eps <> n then
      die "%d endpoints given for %d shards" (List.length eps) n;
    let file_of i = Printf.sprintf "%s.%d.pages" out i in
    (* bounds b1 < b2 < ... become ["", b1) [b1, b2) ... [bk, inf) *)
    let ranges =
      let rec go lo = function
        | [] -> [ (lo, None) ]
        | b :: rest -> (lo, Some b) :: go b rest
      in
      go "" bounds
    in
    let map =
      Smap.make
        (List.mapi
           (fun i (lo, hi) ->
             {
               Smap.lo;
               hi;
               file = Some (file_of i);
               endpoint = List.nth_opt eps i;
             })
           ranges)
    in
    let pagers = Array.make n None in
    let make_pager i =
      let p = Storage.Pager.create_file ~page_size (file_of i) in
      pagers.(i) <- Some p;
      p
    in
    let idxs = Splitter.split ?fill ~source:src ~make_pager map in
    let total = ref 0 in
    Array.iteri
      (fun i idx ->
        Index.sync idx;
        total := !total + Index.entry_count idx;
        Printf.printf "shard %d: %d entries -> %s%s\n" i
          (Index.entry_count idx) (file_of i)
          (match (Smap.get map i).Smap.endpoint with
          | Some e -> " (" ^ Endpoint.to_string e ^ ")"
          | None -> ""))
      idxs;
    Array.iter (Option.iter Storage.Pager.close) pagers;
    (* every source entry must land on exactly one shard *)
    if !total <> Index.entry_count src then begin
      Printf.eprintf
        "uindex-cli: shard entry counts sum to %d but the source holds %d\n"
        !total (Index.entry_count src);
      exit 2
    end;
    let map_file = out ^ ".map.json" in
    Smap.save map map_file;
    Printf.printf "%s: %d shards, %d entries\n" map_file n !total
  in
  let shards =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shards to produce.")
  in
  let out =
    Arg.(
      value & opt string "shard"
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:
            "Output prefix: shard $(i,i) goes to $(i,PREFIX).$(i,i).pages \
             and the map to $(i,PREFIX).map.json.")
  in
  let endpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "endpoints" ] ~docv:"SPEC,SPEC,..."
          ~doc:
            "Comma-separated endpoints (HOST:PORT or a Unix socket path) \
             recorded in the map, one per shard in range order — what \
             $(b,serve --shard-map) routes to.")
  in
  Cmd.v
    (Cmd.info "shard-split"
       ~doc:
         "Partition a page file into COD-range shards: pick entry-balanced \
          class-subtree boundaries, bulk-load each shard's entries into \
          its own page file, and write the shard map ($(b,serve \
          --shard-map) consumes it).  Exits 2 if the shards do not \
          exactly cover the source.")
    Term.(
      const run
      $ file_arg "Source page file (written by $(b,build))."
      $ shards $ out $ endpoints $ page_size_arg $ fill_arg)

(* --- recover: journal replay + integrity check ----------------------------- *)

let recover_cmd =
  let run file =
    let status = Storage.Pager.recover_status file in
    (match status with
    | Storage.Pager.Replayed ->
        print_endline "journal: committed transaction replayed"
    | Storage.Pager.No_journal ->
        print_endline "journal: none (file already consistent)"
    | Storage.Pager.Discarded_torn ->
        print_endline
          "journal: torn commit discarded (last committed state restored; \
           the in-flight transaction is lost)");
    let j name =
      Option.value ~default:0
        (Obs.Metrics.find Obs.Metrics.default ("journal." ^ name))
    in
    Printf.printf
      "journal counters: %d replay(s), %d record(s) replayed, %d torn \
       commit(s) discarded\n"
      (j "replays") (j "records_replayed") (j "torn_discarded");
    (match
       let pager = Storage.Pager.open_file file in
       let t = Btree.reattach pager in
       let r = Btree.check_invariants t in
       Format.printf "tree ok: %a@." Btree.pp_invariant_report r;
       Storage.Pager.close pager
     with
    | () -> ()
    | exception Storage.Storage_error.Corruption { detail; _ } ->
        Printf.eprintf "uindex-cli: %s: %s\n" file detail;
        exit 2
    | exception (Invalid_argument msg | Failure msg) -> die "%s: %s" file msg);
    if status = Storage.Pager.Discarded_torn then exit 3
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Replay any interrupted commit on FILE, reattach the index tree, \
          and verify its invariants.  Exits 3 when a torn journal had to be \
          discarded (the last committed state is intact, but the in-flight \
          transaction is lost), 2 when the file is corrupt.")
    Term.(const run $ file_arg "Page file written by $(b,build).")

(* --- check / salvage / corrupt: the corruption-robustness toolkit ----------- *)

module Verify = Uindex.Verify

(* check/salvage regenerate the same deterministic database that `build`
   persisted (same -n / --seed), which doubles as the surviving object
   store the verifier cross-references and salvage rebuilds from. *)

let print_report json report =
  if json then print_endline (Obs.Json.to_multiline (Verify.to_json report))
  else Format.printf "%a@." Verify.pp report

(* a file so damaged it cannot even be opened/attached still produces a
   one-issue machine-readable report *)
let unopenable_report ~component ?page detail =
  {
    Verify.ok = false;
    checksums = false;
    pages = 0;
    node_pages = 0;
    overflow_pages = 0;
    free_pages = 0;
    entries = 0;
    issues = [ { Verify.component; page; detail } ];
  }

let check_cmd =
  let run file data json query =
    let e = Lazy.force data in
    let b = e.Dg.ext.b in
    match
      let pager = Storage.Pager.open_file file in
      let ch =
        Index.attach_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
      in
      (pager, ch)
    with
    | exception Storage.Storage_error.Corruption { page; component; detail } ->
        print_report json (unopenable_report ~component ?page detail);
        exit 2
    | exception Invalid_argument msg -> die "%s: %s" file msg
    | pager, ch ->
        let report = Verify.check ~store:e.Dg.store ch in
        print_report json report;
        (match query with
        | Some qstr when report.Verify.ok ->
            let q = parse_query b.schema qstr in
            print_endline (result_line (Exec.run ~algo:`Parallel ch q))
        | Some _ ->
            print_endline "(query skipped: the index failed verification)"
        | None -> ());
        Storage.Pager.close pager;
        if not report.Verify.ok then exit 2
  in
  let json = json_arg "Print the report as JSON." in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"QUERY"
          ~doc:
            "After a clean verification, run this query (paper syntax) \
             against the on-file index.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify FILE end to end: page reachability vs the free list, \
          B-tree invariants, entry decoding and COD validation, and a \
          cross-reference against the regenerated object store.  Exits 2 \
          when corruption is found.")
    Term.(
      const run
      $ file_arg "Page file written by $(b,build)."
      $ dataset_arg () $ json $ query)

let salvage_cmd =
  let run file data page_size out json =
    let e = Lazy.force data in
    let b = e.Dg.ext.b in
    let target, rename_over =
      match out with Some o -> (o, None) | None -> (file ^ ".salvage", Some file)
    in
    (* the damaged file is never read: the index is a pure function of the
       object store and schema, so it is rebuilt from the regenerated
       store onto a fresh file and verified before replacing anything *)
    let desc =
      Index.create_class_hierarchy (Storage.Pager.create ()) b.enc
        ~root:b.vehicle ~attr:"color"
    in
    let pager = Storage.Pager.create_file ~page_size target in
    let fresh = Verify.salvage desc e.Dg.store pager in
    let report = Verify.check ~store:e.Dg.store fresh in
    let entries = Index.entry_count fresh in
    let pages = Storage.Pager.page_count pager in
    Storage.Pager.close pager;
    if not report.Verify.ok then begin
      print_report json report;
      Printf.eprintf "uindex-cli: salvage of %s failed verification\n" file;
      exit 2
    end;
    (match rename_over with Some dst -> Sys.rename target dst | None -> ());
    print_report json report;
    Printf.printf "salvaged %s: %d entries in %d pages\n"
      (match rename_over with Some dst -> dst | None -> target)
      entries pages
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT"
          ~doc:
            "Write the rebuilt index to $(docv) instead of atomically \
             replacing FILE.")
  in
  let json = json_arg "Print the report as JSON." in
  Cmd.v
    (Cmd.info "salvage"
       ~doc:
         "Rebuild the index from the surviving (regenerated) object store \
          onto a fresh page file, verify it, and atomically replace FILE.")
    Term.(
      const run
      $ file_arg ~exists:false "Damaged page file to replace."
      $ dataset_arg () $ page_size_arg $ out $ json)

let corrupt_cmd =
  let flip_conv =
    let parse s =
      let int_of s' =
        match int_of_string_opt s' with
        | Some i -> Ok i
        | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s'))
      in
      match String.split_on_char ':' s with
      | [ p ] -> Result.map (fun p -> (p, 0)) (int_of p)
      | [ p; b ] ->
          Result.bind (int_of p) (fun p ->
              Result.map (fun b -> (p, b)) (int_of b))
      | _ -> Error (`Msg "expected PAGE or PAGE:BIT")
    in
    let print ppf (p, b) = Format.fprintf ppf "%d:%d" p b in
    Arg.conv (parse, print)
  in
  let run file flips zeros truncate =
    let media =
      List.map
        (fun (page, bit) -> Storage.Pager.Flip_bit { page; bit })
        flips
      @ List.map (fun page -> Storage.Pager.Zero_page { page }) zeros
      @
      match truncate with
      | Some keep -> [ Storage.Pager.Truncate_file { keep } ]
      | None -> []
    in
    if media = [] then
      die "nothing to do (use --flip-bit, --zero-page or --truncate)";
    match
      let pager = Storage.Pager.open_file file in
      ignore
        (Storage.Pager.create_faulty
           { Storage.Pager.no_faults with media }
           pager);
      Storage.Pager.close pager
    with
    | () -> Printf.printf "%s: applied %d media fault(s)\n" file (List.length media)
    | exception Invalid_argument msg -> die "%s" msg
  in
  let flips =
    Arg.(
      value
      & opt_all flip_conv []
      & info [ "flip-bit" ] ~docv:"PAGE[:BIT]"
          ~doc:"Flip one bit of logical page $(docv) (default bit 0).")
  in
  let zeros =
    Arg.(
      value & opt_all int []
      & info [ "zero-page" ] ~docv:"PAGE"
          ~doc:"Overwrite logical page $(docv) with zeros.")
  in
  let truncate =
    Arg.(
      value
      & opt (some int) None
      & info [ "truncate" ] ~docv:"PAGES"
          ~doc:"Truncate the file to $(docv) physical pages.")
  in
  Cmd.v
    (Cmd.info "corrupt"
       ~doc:
         "Deterministically damage a page file's committed state (for \
          exercising $(b,check), $(b,salvage) and the checksum layer).")
    Term.(
      const run
      $ file_arg "Page file to damage (in place)."
      $ flips $ zeros $ truncate)

(* --- bench-table1 ---------------------------------------------------------- *)

let table1_cmd =
  let run data = print_string (Ex.render_table1 (Ex.table1 (Lazy.force data))) in
  Cmd.v
    (Cmd.info "bench-table1" ~doc:"Regenerate Table 1 (visited nodes per query).")
    Term.(const run $ dataset_arg ~seed:20260706 ())

(* --- bench-figures ------------------------------------------------------- *)

(* Pinned in [dune runtest] against test/figures.expected.  Every shape
   of [Ex.shape_failures] holds from 8,500 objects up; at 10,000 the
   near/non-near cell (0.86 of non-near) is clear of its 0.9 bound.  The
   full-size figures and ablations come from bench/main.exe. *)
let figures_cmd =
  let run () =
    let datasets = Ex.datasets ~n_objects:10_000 ~seed:20260706 in
    let panels = Ex.figures datasets ~reps:10 in
    print_string (Ex.render_figures panels);
    let ablations = Ex.ablations datasets ~reps:10 in
    print_string (Ex.render_ablations ablations);
    match Ex.shape_failures panels @ Ex.ablation_failures ablations with
    | [] -> ()
    | failures ->
        List.iter (Printf.eprintf "shape does not hold: %s\n") failures;
        exit 1
  in
  Cmd.v
    (Cmd.info "bench-figures"
       ~doc:
         "Regenerate Figures 5-8 (U-index vs CG-tree page reads) and \
          ablations A1-A7 at 10,000 objects and 10 repetitions, and check \
          the paper's shapes and the ablations' claims on them.")
    Term.(const run $ const ())

(* --- serve / client: the concurrent query service --------------------------- *)

module Server = Uindex_server.Server
module Service = Uindex_server.Service
module Chaos = Uindex_server.Chaos
module Scrub = Uindex_server.Scrub

let addr_args =
  let socket =
    Arg.(
      value
      & opt string "uindex.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path (ignored with $(b,--tcp)).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen/connect on TCP instead, e.g. 127.0.0.1:7771 (HOST is \
             a numeric IPv4 address; empty means 127.0.0.1).")
  in
  let combine socket tcp =
    match tcp with
    | None -> Server.Unix_sock socket
    | Some spec -> or_die (Endpoint.tcp_of_string spec)
  in
  Term.(const combine $ socket $ tcp)

(* the serve/router shutdown loop: announce the bound address, then wait
   for SIGTERM/SIGINT *)
let announce_and_wait server =
  let stop = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Printf.printf "listening on %s\n%!"
    (Endpoint.to_string (Server.bound_addr server));
  while not (Atomic.get stop) do
    try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  print_endline "shutting down"

(* SIGTERM drain dumps the slow-query log so the slowest requests of the
   run survive the process (stderr keeps stdout scriptable) *)
let dump_slow_log slow =
  match Obs.Json.member "count" slow with
  | Some (Obs.Json.Int n) when n > 0 ->
      prerr_endline "slow-query log (newest first):";
      prerr_endline (Obs.Json.to_multiline slow)
  | _ -> ()

let load_map file =
  try Smap.load file with Sys_error msg | Invalid_argument msg -> die "%s" msg

(* serve --shard-map without --shard-id: the scatter-gather router.  No
   database of its own — every query fans out to the shards the planner
   cannot prune. *)
let run_router mapfile config telemetry =
  let map = load_map mapfile in
  let b = (Ps.extended ()).b in
  let backends =
    Array.mapi
      (fun i (s : Smap.shard) ->
        match s.endpoint with
        | Some endpoint -> Router.Remote endpoint
        | None ->
            die
              "shard %d carries no endpoint in %s (re-run shard-split with \
               --endpoints)"
              i mapfile)
      (Smap.shards map)
  in
  let timeout = config.Server.request_timeout in
  let router =
    Router.create
      ~shard_timeout:(if timeout > 0. then timeout else 5.)
      ~telemetry ~schema:b.schema ~enc:b.enc ~map ~backends ()
  in
  let server = Server.start_handler (Router.handler router) config in
  announce_and_wait server;
  Server.stop server;
  dump_slow_log (Router.slow_log_json ~limit:16 router)

(* serve the generated database: the arity-1 route from the on-file
   index when [file] is given, else the in-memory one; a --file index
   must have been built with the same -n/--seed so its entries match the
   regenerated store.  A shard server serves its shard's page file from
   the map ([serve_term] resolves it into [file]) and restricts the
   arity-3 route to the same COD range, so every route answers exactly
   this shard's slice. *)
let run_server e ~file ~shard ~churn ~group_window ~scrub_every config
    telemetry =
  let b = e.Dg.ext.b in
  let db = Uindex.Db.create e.store in
  let file_pager =
    Option.map (fun f -> Storage.Pager.open_file (existing f)) file
  in
  let attach_file pager =
    Uindex.Db.attach_index db
      (Index.attach_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color")
  in
  (match (shard, file_pager) with
  | Some (map, k), _ ->
      Option.iter attach_file file_pager;
      Uindex.Db.attach_index db
        (Splitter.restrict ~source:e.path_age map k (Storage.Pager.create ()))
  | None, Some pager ->
      Uindex.Db.attach_index db e.path_age;
      attach_file pager
  | None, None ->
      Uindex.Db.attach_index db e.path_age;
      Uindex.Db.attach_index db e.ch_color);
  Uindex.Db.set_group_window db group_window;
  let shard_info =
    Option.map
      (fun (map, k) ->
        match Smap.topology_json map with
        | Obs.Json.List l -> List.nth l k
        | _ -> Obs.Json.Null)
      shard
  in
  let svc = Service.create ~telemetry ?shard_info ~schema:b.schema db in
  let server = Server.start svc config in
  let scrub =
    if scrub_every > 0. then
      Some
        (Scrub.start
           ~config:{ Scrub.default_config with every = scrub_every }
           db)
    else None
  in
  (* --churn: in-process writer storm alongside the served readers.
     The inserted colors are prefixed so they never match a benchmark
     query: reader replies stay comparable to a churn-free run. *)
  let churn_stop = Atomic.make false in
  let churners =
    List.init (max 0 churn) (fun w ->
        Domain.spawn (fun () ->
            let k = ref 0 in
            while not (Atomic.get churn_stop) do
              let color = Printf.sprintf "zz-churn-%d-%d" w !k in
              ignore
                (Uindex.Db.insert db ~cls:b.vehicle
                   [ ("color", Value.Str color) ]);
              ignore (Uindex.Db.commit db);
              incr k
            done;
            !k))
  in
  announce_and_wait server;
  Atomic.set churn_stop true;
  let commits = List.fold_left (fun a d -> a + Domain.join d) 0 churners in
  if churn > 0 then Printf.printf "churn writers committed %d times\n" commits;
  Option.iter Scrub.stop scrub;
  Server.stop server;
  dump_slow_log (Service.slow_log_json ~limit:16 svc);
  Option.iter Storage.Pager.close file_pager

(* serve's options, checked: the page file it serves, if any, and the
   server to start.  supervise checks its child's arguments with this
   same term, so a bad address or chaos spec fails before any start, and
   recovers the page file it returns. *)
let serve_term =
  let serve data addr workers backlog timeout file churn group_window slow_ms
      slow_log trace_sample no_tracing chaos scrub_every restart_budget
      shard_map shard_id =
    let chaos =
      Option.map (fun spec -> Chaos.arm (or_die (Chaos.parse spec))) chaos
    in
    let config =
      { (Server.default_config addr) with workers; backlog;
        request_timeout = timeout; chaos; restart_budget }
    in
    let telemetry =
      {
        Service.tracing = not no_tracing;
        sample_every = max 1 trace_sample;
        slow_threshold_ns = int_of_float (slow_ms *. 1e6);
        slow_capacity = max 0 slow_log;
      }
    in
    (* a shard server serves its map entry's page file, a router none *)
    let shard, file =
      match (shard_map, shard_id) with
      | None, Some _ -> die "--shard-id requires --shard-map"
      | None, None -> (None, file)
      | Some _, None -> (None, None)
      | Some mapfile, Some k ->
          let map = load_map mapfile in
          if k < 0 || k >= Smap.count map then
            die "shard id %d out of range (map has %d shards)" k
              (Smap.count map);
          (match (Smap.get map k).Smap.file with
          | Some f -> (Some (map, k), Some f)
          | None -> die "shard %d carries no page file in the map" k)
    in
    let start () =
      match (shard_map, shard) with
      | Some mapfile, None -> run_router mapfile config telemetry
      | _ ->
          run_server (Lazy.force data) ~file ~shard ~churn ~group_window
            ~scrub_every config telemetry
    in
    (file, start)
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker domains.")
  in
  let backlog =
    Arg.(
      value & opt int 64
      & info [ "backlog" ]
          ~doc:"Queued connections before shedding with an overloaded reply.")
  in
  let timeout =
    Arg.(
      value & opt float 5.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline and socket timeout; 0 disables.")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Serve the class-hierarchy index from this page file (written \
             by $(b,build) with the same $(b,-n)/$(b,--seed)) instead of \
             the in-memory one.")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"N"
          ~doc:
            "Run $(i,N) in-process writer threads that insert and commit \
             continuously while the server runs (group-commit exercise; \
             the written values never match benchmark queries).")
  in
  let group_window =
    Arg.(
      value & opt float 0.002
      & info [ "group-window" ] ~docv:"SECONDS"
          ~doc:
            "Group-commit window: how long a commit leader waits for \
             followers before flushing; 0 flushes immediately.")
  in
  let slow_ms =
    Arg.(
      value & opt float 10.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds: requests at least \
             this slow enter the slow-query log.  0 logs every request.")
  in
  let slow_log =
    Arg.(
      value & opt int 128
      & info [ "slow-log" ] ~docv:"N"
          ~doc:
            "Slow-query log capacity (a ring keeping the most recent \
             $(i,N) slow requests); 0 disables the log.")
  in
  let trace_sample =
    Arg.(
      value & opt int 1
      & info [ "trace-sample" ] ~docv:"K"
          ~doc:
            "Trace 1 in $(i,K) requests (requests carrying a client \
             trace id are always traced).")
  in
  let no_tracing =
    Arg.(
      value & flag
      & info [ "no-tracing" ]
          ~doc:
            "Disable per-request span capture (per-stage histograms and \
             the slow-query log stay on; slow entries just carry no \
             span).")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Arm the seeded fault injector on every connection.  \
             $(docv) is comma-separated key=value pairs: $(b,seed=N), \
             probabilities $(b,reset), $(b,partial), $(b,truncate), \
             $(b,delay), $(b,slow-read), $(b,crash) in [0,1], and \
             $(b,delay-ms=MS).  Example: \
             seed=7,reset=0.05,partial=0.1,delay=0.2,delay-ms=3.")
  in
  let scrub_every =
    Arg.(
      value & opt float 0.
      & info [ "scrub-every" ] ~docv:"SECONDS"
          ~doc:
            "Run the online background scrub this often: each pass \
             re-verifies every serving index against a pinned snapshot \
             (IO-throttled) and quarantines any damage it finds.  0 \
             disables the scrub.")
  in
  let restart_budget =
    Arg.(
      value & opt int 8
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "Worker/acceptor domain respawns the in-process supervisor \
             may perform before letting capacity degrade.")
  in
  let shard_map =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard-map" ] ~docv:"FILE"
          ~doc:
            "Shard map written by $(b,shard-split).  Alone: run the \
             scatter-gather router over the map's endpoints.  With \
             $(b,--shard-id): serve that one shard's page file.")
  in
  let shard_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-id" ] ~docv:"K"
          ~doc:
            "With $(b,--shard-map): serve shard $(i,K) — its page file \
             from the map, and the path index restricted to its COD \
             range.  [health] reports the shard's range.")
  in
  Term.(
    const serve $ dataset_arg () $ addr_args $ workers $ backlog $ timeout
    $ (const (Option.map existing) $ file)
    $ churn $ group_window $ slow_ms $ slow_log $ trace_sample $ no_tracing
    $ chaos $ scrub_every $ restart_budget $ shard_map $ shard_id)

let serve_info =
  Cmd.info "serve"
    ~doc:
      "Serve the generated vehicle database over a socket: snapshot-\
       isolated readers on a fixed worker pool, with live telemetry on the \
       admin protocol ($(b,stats)/$(b,health)/$(b,slow-queries) requests).  \
       SIGTERM/SIGINT shut down gracefully (drain, sync, dump the \
       slow-query log, exit 0).  With $(b,--shard-map) the process becomes \
       a scatter-gather router (or, with $(b,--shard-id), one shard of the \
       fleet)."

let serve_cmd =
  Cmd.v serve_info Term.(const (fun (_, start) -> start ()) $ serve_term)

let client_cmd =
  let run addr requests retry timeout retry_seed stable =
    (* a server that vanishes mid-request should be an error message,
       not a SIGPIPE death *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let failures = ref 0 in
    let note_reply raw =
      print_endline
        (if stable then Router.canonical_projection raw else raw);
      match Obs.Json.of_string raw with
      | j when Uindex_server.Protocol.response_is_ok j -> ()
      | _ -> incr failures
      | exception Obs.Json.Parse_error _ -> incr failures
    in
    (* one loop over a send chosen once: with --retry, transport
       failures and retryable replies are retried with seeded backoff on
       a reconnecting handle; without, every request goes exactly once
       over one connection.  Typed errors print and count either way. *)
    let send, close =
      if retry > 0 then
        let policy =
          { Client.default_retry_policy with attempts = retry; retry_seed }
        in
        let r = Client.retrying ~timeout ~policy addr in
        (Client.retry_request_raw r, fun () -> Client.retry_close r)
      else
        match Client.connect ~timeout addr with
        | c -> (Client.request_raw c, fun () -> Client.close c)
        | exception Client.Error f ->
            die "cannot connect: %s" (Client.failure_to_string f)
    in
    Fun.protect ~finally:close (fun () ->
        List.iter
          (fun line ->
            match send line with
            | raw -> note_reply raw
            | exception Client.Error f ->
                Printf.printf "(request failed: %s)\n"
                  (Client.failure_to_string f);
                incr failures)
          requests);
    if !failures > 0 then exit 1
  in
  let requests =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request lines: $(b,ping), $(b,stats), $(b,quit), $(b,query \
             <q>), $(b,query-forward <q>) with $(i,<q>) in the paper's \
             syntax.")
  in
  let retry =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"ATTEMPTS"
          ~doc:
            "Retry each request up to $(docv) times total with seeded \
             exponential backoff, reconnecting after transport failures \
             and $(b,overloaded)/$(b,timeout) replies.  0 sends each \
             request exactly once.")
  in
  let timeout =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Socket read/write deadline — a stalled server surfaces as \
             a typed timeout instead of a hang.  0 disables.")
  in
  let retry_seed =
    Arg.(
      value & opt int 1
      & info [ "retry-seed" ] ~docv:"N"
          ~doc:"Seed for the backoff jitter stream (runs are replayable).")
  in
  let stable =
    Arg.(
      value & flag
      & info [ "stable" ]
          ~doc:
            "Print the canonical projection of each reply (drop the \
             deployment-dependent cost fields) — what a sharded and an \
             unsharded deployment must answer byte-identically.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send request lines to a running $(b,serve) instance and print \
          each raw JSON reply.  Exits 1 if any reply is not ok.")
    Term.(
      const run $ addr_args $ requests $ retry $ timeout $ retry_seed
      $ stable)

(* --- supervise: crash -> recover -> re-serve, automatically ----------------- *)

(* A signal as an operator knows it.  OCaml reports the signals it names
   by its own negative numbers; the system numbers printed are the ones
   POSIX fixes, and any other signal keeps the number the system gave. *)
let signal_name s =
  let named =
    [
      (Sys.sighup, "SIGHUP", Some 1); (Sys.sigint, "SIGINT", Some 2);
      (Sys.sigquit, "SIGQUIT", Some 3); (Sys.sigill, "SIGILL", Some 4);
      (Sys.sigtrap, "SIGTRAP", Some 5); (Sys.sigabrt, "SIGABRT", Some 6);
      (Sys.sigfpe, "SIGFPE", Some 8); (Sys.sigkill, "SIGKILL", Some 9);
      (Sys.sigsegv, "SIGSEGV", Some 11); (Sys.sigpipe, "SIGPIPE", Some 13);
      (Sys.sigalrm, "SIGALRM", Some 14); (Sys.sigterm, "SIGTERM", Some 15);
      (Sys.sigbus, "SIGBUS", None); (Sys.sigusr1, "SIGUSR1", None);
      (Sys.sigusr2, "SIGUSR2", None); (Sys.sigchld, "SIGCHLD", None);
      (Sys.sigcont, "SIGCONT", None); (Sys.sigstop, "SIGSTOP", None);
      (Sys.sigtstp, "SIGTSTP", None); (Sys.sigttin, "SIGTTIN", None);
      (Sys.sigttou, "SIGTTOU", None); (Sys.sigvtalrm, "SIGVTALRM", None);
      (Sys.sigprof, "SIGPROF", None); (Sys.sigpoll, "SIGPOLL", None);
      (Sys.sigsys, "SIGSYS", None); (Sys.sigurg, "SIGURG", None);
      (Sys.sigxcpu, "SIGXCPU", None); (Sys.sigxfsz, "SIGXFSZ", None);
    ]
  in
  match List.find_opt (fun (n, _, _) -> n = s) named with
  | Some (_, name, Some num) -> Printf.sprintf "%s (%d)" name num
  | Some (_, name, None) -> name
  | None -> Printf.sprintf "signal %d" s

let supervise_cmd =
  let run max_restarts serve_args =
    (* serve's own term checks the child's arguments once, up front: a
       bad one fails here, before any child starts *)
    let file =
      match
        Cmd.eval_value'
          ~argv:(Array.of_list ("serve" :: serve_args))
          (Cmd.v serve_info serve_term)
      with
      | `Exit code -> exit code
      | `Ok (Some file, _) -> file
      | `Ok (None, _) ->
          die
            "supervise: serve needs a page file to recover (--file, or \
             --shard-map with --shard-id)"
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let stop = ref false in
    let child = ref None in
    let on_signal =
      Sys.Signal_handle
        (fun _ ->
          stop := true;
          (* forward the shutdown so the child drains gracefully *)
          match !child with
          | Some pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          | None -> ())
    in
    Sys.set_signal Sys.sigterm on_signal;
    Sys.set_signal Sys.sigint on_signal;
    let argv = Array.of_list (Sys.executable_name :: "serve" :: serve_args) in
    let rec waitpid pid =
      match Unix.waitpid [] pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
    in
    let recover_file () =
      match Storage.Pager.recover_status file with
      | Storage.Pager.Replayed ->
          print_endline "supervise: recover replayed a committed journal"
      | Storage.Pager.No_journal ->
          print_endline "supervise: recover found the file consistent"
      | Storage.Pager.Discarded_torn ->
          print_endline
            "supervise: recover discarded a torn commit (last committed \
             state restored)"
      | exception Storage.Storage_error.Corruption { detail; _ } ->
          Printf.eprintf "uindex-cli: supervise: %s is corrupt: %s\n" file
            detail;
          exit 2
    in
    let restarts = ref 0 in
    let rec loop () =
      Printf.printf "supervise: starting server (restart %d/%d)\n%!"
        !restarts max_restarts;
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
          Unix.stderr
      in
      child := Some pid;
      let status = waitpid pid in
      child := None;
      match status with
      | Unix.WEXITED 0 -> print_endline "supervise: server exited cleanly"
      | status ->
          let describe =
            match status with
            | Unix.WEXITED n -> Printf.sprintf "exit code %d" n
            | Unix.WSIGNALED s -> "killed by " ^ signal_name s
            | Unix.WSTOPPED s -> "stopped by " ^ signal_name s
          in
          Printf.eprintf "supervise: server died (%s)\n%!" describe;
          if !stop then ()
          else begin
            (* crash exit: recover the page file, then re-serve — this
               is the process-level tier of the supervision story *)
            recover_file ();
            if !restarts >= max_restarts then
              die "supervise: restart budget (%d) exhausted" max_restarts;
            incr restarts;
            Unix.sleepf 0.2;
            loop ()
          end
    in
    loop ()
  in
  let max_restarts =
    Arg.(
      value & opt int 3
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Crash restarts before giving up (a crash loop should page \
             someone, not spin).")
  in
  let serve_args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SERVE-ARGS"
          ~doc:
            "$(b,serve)'s arguments, after $(b,--): they must name the page \
             file that is recovered after a crash, with $(b,--file) or, for \
             a shard server, $(b,--shard-map) and $(b,--shard-id).")
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Run $(b,serve) $(i,SERVE-ARGS) as a supervised child process: on \
          a crash exit (a signal or a non-zero status), run journal \
          recovery on the served page file and start a fresh server, \
          up to $(b,--max-restarts) times.  SIGTERM/SIGINT forward to the \
          child for a graceful drain.  Exits 2 if the recovered file is \
          corrupt, 1 when the restart budget is exhausted.")
    Term.(const run $ max_restarts $ serve_args)

(* --- top: a refreshing live dashboard over the admin protocol -------------- *)

let top_cmd =
  let run spec interval iterations raw =
    with_connections (endpoints_or_die spec) @@ fun conns ->
    let n = List.length conns in
    let prev = ref None in
    let tick = ref 0 in
    let rec loop () =
      incr tick;
      let snaps = scrape conns in
      let now = float_of_int (Obs.Clock.now_ns ()) /. 1e9 in
      let cs = List.map counters snaps in
      let cols = Array.of_list (cs @ [ Obs.Metrics.merge_counters cs ]) in
      (* rates come from counter deltas between ticks; the first tick has
         no baseline and shows "-" *)
      let rate =
        match !prev with
        | None -> fun _ _ -> None
        | Some (cols0, t0) ->
            let dt = max 1e-6 (now -. t0) in
            fun i key ->
              Some (float_of_int (jint cols.(i) key - jint cols0.(i) key) /. dt)
      in
      let per_s key i =
        match rate i key with None -> "-" | Some r -> Printf.sprintf "%.1f" r
      in
      let pool_hit i =
        match (rate i "buffer_pool.hits", rate i "buffer_pool.misses") with
        | Some h, Some m when h +. m > 0. ->
            Printf.sprintf "%.1f%%" (100. *. h /. (h +. m))
        | _ -> "-"
      in
      let buf = Buffer.create 1024 in
      let emit s = Buffer.add_string buf (s ^ "\n") in
      emit
        (Printf.sprintf "uindex top — %d endpoint%s   tick %d (every %.1fs)" n
           (if n = 1 then "" else "s")
           !tick interval);
      List.iteri (endpoint_lines emit) snaps;
      emit "";
      table emit n "rate/s"
        ([
           ("qps", per_s "server.requests");
           ("errors", per_s "server.request_errors");
           ("slow", per_s "server.slow_queries");
           ("page reads", per_s "pager.reads");
           ("pool hit", pool_hit);
           ("fsyncs", per_s "journal.fsyncs");
           ("commits", per_s "journal.commits");
         ]
        (* a router also shows its fan-out economy *)
        @
        if Array.exists (fun c -> jmember "shard.forwarded" c <> None) cols
        then
          [
            ("forwarded", per_s "shard.forwarded");
            ("pruned", per_s "shard.pruned");
            ("shard-fail", per_s "shard.failures");
          ]
        else []);
      if not raw then print_string "\027[2J\027[H";
      print_string (Buffer.contents buf);
      flush stdout;
      prev := Some (cols, now);
      if iterations = 0 || !tick < iterations then begin
        (try Unix.sleepf interval
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ()
  in
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated server endpoints (HOST:PORT or a Unix \
             socket path), e.g. a shard fleet and its router.  Renders \
             each endpoint's figures and a rate table with one column \
             per endpoint, plus the merged total when there are \
             several.")
  in
  let interval =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(i,N) refreshes; 0 runs until interrupted.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Do not clear the screen between refreshes (append frames — \
             for logs and tests).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll running $(b,serve) instances over the admin protocol and \
          render a refreshing dashboard: qps, latency percentiles, cache \
          hit rate, fsync and commit rates, allocation per query, queue \
          and slow-log occupancy.")
    Term.(const run $ connect $ interval $ iterations $ raw)

let () =
  let doc = "A uniform indexing scheme for object-oriented databases (U-index)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "uindex-cli" ~doc)
          [
            codes_cmd;
            demo_cmd;
            query_cmd;
            stats_cmd;
            build_cmd;
            shard_split_cmd;
            recover_cmd;
            check_cmd;
            salvage_cmd;
            corrupt_cmd;
            table1_cmd;
            figures_cmd;
            serve_cmd;
            client_cmd;
            supervise_cmd;
            top_cmd;
          ]))
