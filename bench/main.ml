(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus seven ablations (A1-A7), best-of-5
   wall-clock timings of six figure queries, and the serve sections.

   Environment knobs:
     UINDEX_BENCH_QUICK=1        small database, few repetitions (smoke run)
     UINDEX_BENCH_REPS=n         repetitions per configuration (default 100,
                                 the paper's count)
     UINDEX_BENCH_OBJECTS=n      objects per experiment-2 database
                                 (default 150,000, the paper's count)
     UINDEX_BENCH_JSON=path      machine-readable results file
                                 (default BENCH_results.json)

   Besides the human-readable report on stdout, the run always writes a
   line-oriented JSON summary (Table 1 page reads, the full metrics
   registry, a query-latency histogram) that CI diffs against checked-in
   expectations — see check_results.ml. *)

module Dg = Workload.Datagen
module Ex = Workload.Experiment
module Qg = Workload.Querygen
module Tb = Workload.Table
module Value = Objstore.Value
module Query = Uindex.Query
module Exec = Uindex.Exec
module Index = Uindex.Index

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let quick = Sys.getenv_opt "UINDEX_BENCH_QUICK" = Some "1"
let reps = env_int "UINDEX_BENCH_REPS" (if quick then 10 else 100)
let n_objects = env_int "UINDEX_BENCH_OBJECTS" (if quick then 20_000 else 150_000)
let seed = 20260706

let section title = print_string (Tb.section title)
let subsection title = print_string (Tb.subsection title)

(* --- Table 1 ----------------------------------------------------------------- *)

let h_query_ns =
  Obs.Metrics.histogram ~subsystem:"bench"
    ~help:"wall-clock ns per parallel point query (Table 1 database)"
    "query_ns"

let run_table1 () =
  section "Table 1: visited nodes, 12,000-record vehicle database (m = 10)";
  let n_vehicles = if quick then 2_000 else 12_000 in
  let e = Dg.exp1 ~n_vehicles ~seed () in
  Format.printf "color index: %a@.path index:  %a@.@." Index.pp_stats e.ch_color
    Index.pp_stats e.path_age;
  let rows = Ex.table1 e in
  print_string (Ex.render_table1 rows);
  print_string
    "(expected shapes, per the paper: subtree queries cheaper than\n\
    \ full-class queries; each extra range value adds little; parallel\n\
    \ well below forward on multi-class queries; partial-path cheaper\n\
    \ than full-path)\n";
  (* feed the latency histogram with a point-query sample on the same
     database; the JSON summary reports its quantiles *)
  let b = e.ext.b in
  let q =
    Query.class_hierarchy ~value:(V_eq (Value.Str "Red")) (P_subtree b.vehicle)
  in
  for _ = 1 to reps do
    ignore
      (Obs.Metrics.observe_span h_query_ns (fun () -> Exec.parallel e.ch_color q))
  done;
  (rows, n_vehicles, e)

(* --- cold vs warm A/B on Table-1 query classes ------------------------------- *)

(* The paper's counts are cold: every query starts from an empty buffer.
   Re-running the same query classes against a shared LRU pool measures
   the steady-state behaviour a real system would see.  Cold runs use the
   uncached path (identical to Table 1's accounting); warm runs attach a
   pool sized to the index (full residency) and re-run after one warming
   pass, so warm page reads are true physical fetches and the hits are
   reported separately. *)
type ab_row = {
  ab_id : string;
  ab_descr : string;
  ab_pool_pages : int;
  ab_cold : int;  (* page reads, uncached — Table 1's number *)
  ab_warm : int;  (* page reads with a warm pool *)
  ab_hits : int;  (* pool hits during the warm run *)
}

let run_cache_ab (e : Dg.exp1) =
  section "Cache A/B: cold (uncached) vs warm (shared LRU pool) page reads";
  let b = e.ext.b in
  let queries =
    [
      ( "1",
        "all Buses (subtree), all colors",
        Query.class_hierarchy ~value:Query.V_any (P_subtree e.ext.bus) );
      ( "1a",
        "all Buses (subtree), Red",
        Query.class_hierarchy
          ~value:(Query.V_eq (Value.Str "Red"))
          (P_subtree e.ext.bus) );
      ( "3",
        "Automobiles (subtree), all colors",
        Query.class_hierarchy ~value:Query.V_any (P_subtree b.automobile) );
    ]
  in
  let idx = e.ch_color in
  let rows =
    List.map
      (fun (ab_id, ab_descr, q) ->
        Index.set_cache_pages idx 0;
        let cold = Exec.parallel idx q in
        let ab_pool_pages =
          Storage.Pager.page_count (Btree.pager (Index.tree idx))
        in
        Index.set_cache_pages idx ab_pool_pages;
        ignore (Exec.parallel idx q);
        let warm = Exec.parallel idx q in
        Index.set_cache_pages idx 0;
        {
          ab_id;
          ab_descr;
          ab_pool_pages;
          ab_cold = cold.Exec.page_reads;
          ab_warm = warm.Exec.page_reads;
          ab_hits = warm.Exec.pool_hits;
        })
      queries
  in
  print_string
    (Tb.render
       ~header:[ "query"; "pool pages"; "cold reads"; "warm reads"; "warm hits" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.ab_id;
                string_of_int r.ab_pool_pages;
                string_of_int r.ab_cold;
                string_of_int r.ab_warm;
                string_of_int r.ab_hits;
              ])
            rows));
  print_string
    "(cold runs use the uncached path — identical to Table 1's accounting)\n";
  rows

(* --- checksum on/off A/B ------------------------------------------------------ *)

(* Guard for the corruption-proofing layer: verifying per-page checksums
   must not change the paper's metric.  The same index is built on two
   file-backed pagers — checksums on and off — and every Table-1 query
   class must read exactly the same pages (check_results hard-fails on
   drift).  The wall-clock delta is the entire cost of verification. *)
type ck_row = {
  ck_id : string;
  ck_descr : string;
  ck_reads_on : int;
  ck_reads_off : int;
  ck_ns_on : float;
  ck_ns_off : float;
}

let run_checksum_ab (e : Dg.exp1) =
  section "Checksum A/B: page reads and wall-clock, checksums on vs off";
  let b = e.ext.b in
  let queries =
    [
      ( "1",
        "all Buses (subtree), all colors",
        Query.class_hierarchy ~value:Query.V_any (P_subtree e.ext.bus) );
      ( "1a",
        "all Buses (subtree), Red",
        Query.class_hierarchy
          ~value:(Query.V_eq (Value.Str "Red"))
          (P_subtree e.ext.bus) );
      ( "3",
        "Automobiles (subtree), all colors",
        Query.class_hierarchy ~value:Query.V_any (P_subtree b.automobile) );
    ]
  in
  let with_file_index ~checksums f =
    let path = Filename.temp_file "uindex_bench_ck" ".pages" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; Storage.Pager.journal_path path ])
      (fun () ->
        let pager = Storage.Pager.create_file ~page_size:1024 ~checksums path in
        let idx =
          Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
        in
        Index.build idx e.store;
        Index.sync idx;
        Fun.protect
          ~finally:(fun () -> Storage.Pager.close pager)
          (fun () -> f idx))
  in
  let measure idx q =
    let o = Exec.parallel idx q in
    let runs = 5 in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to runs do
      ignore (Exec.parallel idx q)
    done;
    let ns = float_of_int (Obs.Clock.since_ns t0) /. float_of_int runs in
    (o.Exec.page_reads, ns)
  in
  let run ~checksums =
    with_file_index ~checksums (fun idx ->
        List.map (fun (_, _, q) -> measure idx q) queries)
  in
  let on_ = run ~checksums:true and off = run ~checksums:false in
  let rows =
    List.map2
      (fun ((ck_id, ck_descr, _), (ck_reads_on, ck_ns_on))
           (ck_reads_off, ck_ns_off) ->
        { ck_id; ck_descr; ck_reads_on; ck_reads_off; ck_ns_on; ck_ns_off })
      (List.combine queries on_)
      off
  in
  print_string
    (Tb.render
       ~header:[ "query"; "reads on"; "reads off"; "ns on"; "ns off" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.ck_id;
                string_of_int r.ck_reads_on;
                string_of_int r.ck_reads_off;
                Printf.sprintf "%.0f" r.ck_ns_on;
                Printf.sprintf "%.0f" r.ck_ns_off;
              ])
            rows));
  print_string
    "(page reads must be identical: checksums live out of band and cost\n\
    \ no extra fetches on the read path)\n";
  rows

(* --- Figures 5-8 -------------------------------------------------------------- *)

(* datasets are shared by figures 5-8 and the ablations *)
let datasets = Ex.datasets ~n_objects ~seed

let dataset = Ex.dataset datasets

(* set UINDEX_BENCH_CSV=<dir> to also emit one CSV per panel *)
let write_csv dir (p : Ex.panel) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (p.name ^ ".csv")) in
  Printf.fprintf oc "sets,%s\n" (String.concat "," (List.map fst p.series));
  List.iter
    (fun (x, _) ->
      Printf.fprintf oc "%d" x;
      List.iter
        (fun (_, pts) -> Printf.fprintf oc ",%.2f" (List.assoc x pts))
        p.series;
      output_char oc '\n')
    (snd (List.hd p.series));
  close_out oc

let run_figures () =
  let panels = Ex.figures datasets ~reps in
  print_string (Ex.render_figures panels);
  Option.iter
    (fun dir -> List.iter (write_csv dir) panels)
    (Sys.getenv_opt "UINDEX_BENCH_CSV")

(* --- Ablation A1: front compression ------------------------------------------- *)

let run_ablation_compression () =
  section "Ablation A1: front compression on/off (U-index storage & reads)";
  let d = dataset ~n_classes:40 ~distinct_keys:1000 in
  let build ~front_coding =
    let pager = Storage.Pager.create ~page_size:d.cfg.page_size () in
    let config =
      { (Btree.default_config ~page_size:d.cfg.page_size) with front_coding }
    in
    let idx =
      Index.create_class_hierarchy ~config pager d.enc ~root:d.root ~attr:"k"
    in
    Array.iter
      (fun (k, cls, oid) ->
        Index.insert_entry idx ~value:(Value.Int k) [ (cls, oid) ])
      d.entries;
    idx
  in
  (* both builds see the same draws: one stream per placement, structure
     and set count *)
  let measure idx =
    ( Storage.Pager.page_count (Btree.pager (Index.tree idx)),
      Ex.average
        (Ex.structures { d with uindex = idx })
        `U Qg.Near ~kind:(Ex.Range 0.02) ~k:10 ~reps ~seed )
  in
  let on_idx = build ~front_coding:true in
  let on_pages, on_reads = measure on_idx in
  let off_pages, off_reads = measure (build ~front_coding:false) in
  print_string
    (Tb.render
       ~header:
         [ "front coding"; "index pages"; "avg reads (2% range, 10 near sets)" ]
       ~rows:
         [
           [ "on"; string_of_int on_pages; Tb.fmt_f on_reads ];
           [ "off"; string_of_int off_pages; Tb.fmt_f off_reads ];
         ]);
  let cs = Btree.compression_stats (Index.tree on_idx) in
  Printf.printf
    "key bytes: %d raw -> %d stored (%.1f%%); avg compressed prefix %.1f B\n"
    cs.Btree.raw_key_bytes cs.Btree.stored_key_bytes
    (100.0
    *. float_of_int cs.Btree.stored_key_bytes
    /. float_of_int (max 1 cs.Btree.raw_key_bytes))
    cs.Btree.avg_prefix_len

(* --- Ablation A2: four-way shootout -------------------------------------------- *)

let run_shootout () =
  section
    "Ablation A2: U-index vs CH-tree vs H-tree vs CG-tree (class-hierarchy \
     case, 40 classes, 1000 keys)";
  print_string
    (Ex.shootout
       (Ex.structures (dataset ~n_classes:40 ~distinct_keys:1000))
       [ `U; `Ch; `H; `Cg ]
       ~queries:
         [
           ("exact match", Ex.Exact);
           ("range 10%", Ex.Range 0.10);
           ("range 2%", Ex.Range 0.02);
         ]
       ~set_counts:[ 1; 10; 20; 40 ] ~reps ~seed)

(* --- Ablation A3: update cost (Section 4.2) ------------------------------------ *)

let run_update_cost () =
  section
    "Ablation A3: update cost — page writes+reads per operation (Section 4.2)";
  let d = dataset ~n_classes:40 ~distinct_keys:1000 in
  let entries =
    Array.to_list d.entries
    |> List.map (fun (k, cls, oid) -> (Value.Int k, cls, oid))
  in
  let page_size = d.cfg.page_size in
  (* fresh copies so the shared dataset stays untouched *)
  let upager = Storage.Pager.create ~page_size () in
  let u = Index.create_class_hierarchy upager d.enc ~root:d.root ~attr:"k" in
  Array.iter
    (fun (k, cls, oid) -> Index.insert_entry u ~value:(Value.Int k) [ (cls, oid) ])
    d.entries;
  let ch = Baselines.Ch_tree.create (Storage.Pager.create ~page_size ()) in
  Baselines.Ch_tree.build ch entries;
  let ht =
    Baselines.H_tree.create
      (Storage.Pager.create ~page_size ())
      ~classes:(Array.to_list d.classes)
  in
  Baselines.H_tree.build ht entries;
  let cg = Baselines.Cg_tree.create (Storage.Pager.create ~page_size ()) in
  Baselines.Cg_tree.build cg entries;
  let ops = if quick then 200 else 2000 in
  let measure pager f =
    let s = Storage.Pager.stats pager in
    Storage.Stats.reset s;
    let rng = Workload.Rng.create 99 in
    for i = 0 to ops - 1 do
      let k = Workload.Rng.int rng 1000
      and cls = Workload.Rng.pick rng d.classes in
      f i k cls
    done;
    ( float_of_int s.Storage.Stats.reads /. float_of_int ops,
      float_of_int s.Storage.Stats.writes /. float_of_int ops )
  in
  let base = 1_000_000 in
  let rows =
    [
      ( "U-index",
        measure upager (fun i k cls ->
            Index.insert_entry u ~value:(Value.Int k) [ (cls, base + i) ]) );
      ( "CH-tree",
        measure
          (Baselines.Ch_tree.pager ch)
          (fun i k cls ->
            Baselines.Ch_tree.insert ch ~value:(Value.Int k) ~cls (base + i)) );
      ( "H-tree",
        measure (Baselines.H_tree.pager ht) (fun i k cls ->
            Baselines.H_tree.insert ht ~value:(Value.Int k) ~cls (base + i)) );
      ( "CG-tree",
        measure (Baselines.Cg_tree.pager cg) (fun i k cls ->
            Baselines.Cg_tree.insert cg ~value:(Value.Int k) ~cls (base + i)) );
    ]
  in
  print_string
    (Tb.render
       ~header:[ "structure"; "reads/insert"; "writes/insert" ]
       ~rows:
         (List.map
            (fun (n, (r, w)) -> [ n; Tb.fmt_f r; Tb.fmt_f w ])
            rows));
  (* the mid-path update: presidents switch companies; batched B-tree
     maintenance keeps it to a handful of page writes (Section 3.5) *)
  subsection "mid-path update: a company replaces its president (path index)";
  let pd = Dg.path_db ~n_vehicles:(if quick then 2_000 else 12_000) ~seed:7 () in
  let store = pd.e1.store in
  let b = pd.e1.ext.b in
  let db = Uindex.Db.create store in
  Uindex.Db.add_index db pd.e1.path_age;
  let companies = Objstore.Store.extent store ~deep:true b.company in
  let employees = Array.of_list (Objstore.Store.extent store ~deep:true b.employee) in
  let stats = Storage.Pager.stats (Btree.pager (Index.tree pd.e1.path_age)) in
  let rng = Workload.Rng.create 5 in
  let n = min 200 (List.length companies) in
  Storage.Stats.reset stats;
  List.iteri
    (fun i c ->
      if i < n then
        Uindex.Db.set_attr db c "president"
          (Value.Ref (Workload.Rng.pick rng employees)))
    companies;
  Printf.printf
    "%d president replacements: %.1f page reads, %.1f page writes per switch\n"
    n
    (float_of_int stats.Storage.Stats.reads /. float_of_int n)
    (float_of_int stats.Storage.Stats.writes /. float_of_int n);
  (* end-of-path inserts: the U-index writes one leaf; NIX also maintains
     its auxiliary structures (Section 4.4's update expectation) *)
  subsection "end-of-path object insertion: U-index path vs NIX";
  let enc = b.enc in
  let code c = Oodb_schema.Encoding.code enc c in
  ignore code;
  let rng = Workload.Rng.create 31 in
  let employees' = employees in
  let sample_chain i =
    let e = Workload.Rng.pick rng employees' in
    let c = List.nth companies (Workload.Rng.int rng (List.length companies)) in
    let age =
      match Objstore.Store.attr store e "age" with
      | Value.Int a -> a
      | _ -> 40
    in
    (Value.Int age, [ (Objstore.Store.class_of store e, e);
                      (Objstore.Store.class_of store c, c);
                      (b.vehicle, 2_000_000 + i) ])
  in
  let chains = List.init (if quick then 100 else 1000) sample_chain in
  let u_stats = Storage.Pager.stats (Btree.pager (Index.tree pd.e1.path_age)) in
  Storage.Stats.reset u_stats;
  List.iter
    (fun (v, chain) -> Index.insert_entry pd.e1.path_age ~value:v chain)
    chains;
  let u_w = float_of_int u_stats.Storage.Stats.writes /. float_of_int (List.length chains) in
  let nix_stats = Storage.Pager.stats (Baselines.Nix.pager pd.nix) in
  Storage.Stats.reset nix_stats;
  List.iter
    (fun (v, chain) -> Baselines.Nix.insert_chain pd.nix ~value:v chain)
    chains;
  let nix_w =
    float_of_int nix_stats.Storage.Stats.writes /. float_of_int (List.length chains)
  in
  Printf.printf "U-index: %.1f page writes/insert; NIX: %.1f (primary + auxiliary)\n"
    u_w nix_w

(* --- Ablation A4: storage cost (Section 4.2) ------------------------------------ *)

let run_storage_cost () =
  section "Ablation A4: storage cost — pages per structure (Section 4.2)";
  let d = dataset ~n_classes:40 ~distinct_keys:1000 in
  let entries =
    Array.to_list d.entries
    |> List.map (fun (k, cls, oid) -> (Value.Int k, cls, oid))
  in
  let page_size = d.cfg.page_size in
  let u_pages ~front_coding =
    let pager = Storage.Pager.create ~page_size () in
    let config =
      { (Btree.default_config ~page_size) with front_coding }
    in
    let idx =
      Index.create_class_hierarchy ~config pager d.enc ~root:d.root ~attr:"k"
    in
    Array.iter
      (fun (k, cls, oid) ->
        Index.insert_entry idx ~value:(Value.Int k) [ (cls, oid) ])
      d.entries;
    Storage.Pager.page_count pager
  in
  let ch_pager = Storage.Pager.create ~page_size () in
  let ch = Baselines.Ch_tree.create ch_pager in
  Baselines.Ch_tree.build ch entries;
  let ht_pager = Storage.Pager.create ~page_size () in
  let ht = Baselines.H_tree.create ht_pager ~classes:(Array.to_list d.classes) in
  Baselines.H_tree.build ht entries;
  let cg_pager = Storage.Pager.create ~page_size () in
  let cg = Baselines.Cg_tree.create cg_pager in
  Baselines.Cg_tree.build cg entries;
  print_string
    (Tb.render
       ~header:[ "structure"; "pages (1 KiB)" ]
       ~rows:
         [
           [ "U-index (front-coded)"; string_of_int (u_pages ~front_coding:true) ];
           [ "U-index (uncompressed)"; string_of_int (u_pages ~front_coding:false) ];
           [ "CH-tree"; string_of_int (Storage.Pager.page_count ch_pager) ];
           [ "H-tree"; string_of_int (Storage.Pager.page_count ht_pager) ];
           [ "CG-tree"; string_of_int (Storage.Pager.page_count cg_pager) ];
         ])

(* --- Ablation A5: path indexes vs NIX (Section 4.4) ------------------------------ *)

let run_path_comparison () =
  section
    "Ablation A5: path queries — U-index vs NIX vs Bertino-Kim indexes \
     (Section 4.4)";
  let pd = Dg.path_db ~n_vehicles:(if quick then 3_000 else 12_000) ~seed:13 () in
  let b = pd.e1.ext.b in
  let u = pd.e1.path_age in
  let reps' = if quick then 20 else 100 in
  let counted pager f =
    let s = Storage.Pager.stats pager in
    Storage.Stats.reset s;
    let n = f () in
    (s.Storage.Stats.reads, n)
  in
  let avg f =
    let rng = Workload.Rng.create 21 in
    let total = ref 0 and results = ref 0 in
    for _ = 1 to reps' do
      let age = 20 + Workload.Rng.int rng 51 in
      let reads, n = f age in
      total := !total + reads;
      results := !results + n
    done;
    ( float_of_int !total /. float_of_int reps',
      float_of_int !results /. float_of_int reps' )
  in
  let vehicle_sets =
    Workload.Paper_schema.vehicle_leaf_classes pd.e1.ext |> Array.to_list
  in
  let japanese_sets =
    Oodb_schema.Schema.subtree b.schema b.japanese_auto_company
  in
  let u_query age comps =
    let o = Exec.parallel u (Query.path ~value:(V_eq (Value.Int age)) comps) in
    (o.Exec.page_reads, List.length (Exec.head_oids o))
  in
  let full_path age =
    u_query age
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.company);
        Query.comp (P_subtree b.vehicle);
      ]
  in
  (* 1. exact head retrieval: "vehicles whose president is AGE" *)
  let nix_exact age =
    counted (Baselines.Nix.pager pd.nix) (fun () ->
        Baselines.Nix.exact pd.nix ~value:(Value.Int age) ~sets:vehicle_sets
        |> List.length)
  in
  let bk what age =
    let idx = match what with `Path -> pd.bk_path | `Nested -> pd.bk_nested in
    counted (Baselines.Path_index.pager idx) (fun () ->
        List.length (Baselines.Path_index.exact idx ~value:(Value.Int age)))
  in
  (* 2. combined query: vehicles of Japanese auto companies with that
     president age — NIX joins its per-class lists through the auxiliary
     parent structures *)
  let u_combined age =
    u_query age
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.japanese_auto_company);
        Query.comp (P_subtree b.vehicle);
      ]
  in
  let nix_combined age =
    counted (Baselines.Nix.pager pd.nix) (fun () ->
        Baselines.Nix.exact pd.nix ~value:(Value.Int age) ~sets:japanese_sets
        |> List.concat_map (fun (cls, c) -> Baselines.Nix.parents pd.nix ~cls c)
        |> List.sort_uniq compare |> List.length)
  in
  let bk_combined age =
    (* the BK path index scans its path records and filters *)
    let japanese c = List.mem c japanese_sets in
    counted (Baselines.Path_index.pager pd.bk_path) (fun () ->
        Baselines.Path_index.exact_restricted pd.bk_path ~value:(Value.Int age)
          ~pred:(fun inner ->
            match inner with
            | c :: _ -> japanese (Objstore.Store.class_of pd.e1.store c)
            | [] -> false)
        |> List.length)
  in
  let row label cells =
    label :: List.map (fun (r, _) -> Tb.fmt_f r) cells
    @ [ Tb.fmt_f (snd (List.hd cells)) ]
  in
  let cells_of f = avg f in
  print_string
    (Tb.render
       ~header:[ "query"; "U-index"; "NIX"; "BK path"; "BK nested"; "avg results" ]
       ~rows:
         [
           row "exact head retrieval"
             [
               cells_of full_path;
               cells_of nix_exact;
               cells_of (bk `Path);
               cells_of (bk `Nested);
             ];
           (let u = cells_of u_combined
            and nx = cells_of nix_combined
            and bp = cells_of bk_combined in
            [
              "combined (Japanese makers)";
              Tb.fmt_f (fst u);
              Tb.fmt_f (fst nx);
              Tb.fmt_f (fst bp);
              "-";
              Tb.fmt_f (snd u);
            ]);
         ]);
  Printf.printf
    "(NIX answers the combined query through its auxiliary parent trees;\n\
    \ the nested index cannot answer it at all — Section 4.4)\n"

(* --- Ablation A6: LRU buffer pool ------------------------------------------------ *)

let run_buffer_pool () =
  section
    "Ablation A6: steady-state U-index behaviour under a shared LRU buffer \
     pool (2% ranges, 10 near sets)";
  let d = dataset ~n_classes:40 ~distinct_keys:1000 in
  let tree = Index.tree d.uindex in
  let total_pages = Storage.Pager.page_count (Btree.pager tree) in
  let run_queries read =
    let rng = Workload.Rng.create 17 in
    for _ = 1 to if quick then 50 else 400 do
      let sets = Qg.pick_sets rng Qg.Near ~classes:d.classes ~k:10 in
      let lo, hi = Qg.range_bounds rng ~distinct_keys:1000 ~frac:0.02 in
      let q =
        Query.class_hierarchy
          ~value:(V_range (Some (Value.Int lo), Some (Value.Int hi)))
          (Qg.union_of_classes sets)
      in
      let plan =
        Uindex.Plan.compile ~enc:(Index.encoding d.uindex)
          ~ty:(Index.attr_ty d.uindex) q
      in
      let sc = Btree.Scanner.create tree ~read in
      let rec go = function
        | Some (e : Btree.entry) -> (
            match Uindex.Plan.classify plan e.Btree.key with
            | Uindex.Plan.Accept { next = Uindex.Plan.Seek k; _ }
            | Uindex.Plan.Reject (Uindex.Plan.Seek k) ->
                go (Btree.Scanner.seek sc k)
            | Uindex.Plan.Accept { next = Uindex.Plan.Advance; _ }
            | Uindex.Plan.Reject Uindex.Plan.Advance ->
                go (Btree.Scanner.next sc)
            | Uindex.Plan.Accept { next = Uindex.Plan.Stop; _ }
            | Uindex.Plan.Reject Uindex.Plan.Stop ->
                ())
        | None -> ()
      in
      match Uindex.Plan.lower plan with
      | Some lo -> go (Btree.Scanner.seek sc lo)
      | None -> ()
    done
  in
  let rows =
    List.map
      (fun capacity ->
        let pool = Storage.Buffer_pool.create ~capacity (Btree.pager tree) in
        run_queries (Storage.Buffer_pool.read pool);
        [
          string_of_int capacity;
          Printf.sprintf "%.1f%%" (100.0 *. Storage.Buffer_pool.hit_rate pool);
          string_of_int (Storage.Buffer_pool.misses pool);
        ])
      [ 64; 256; 1024 ]
  in
  Printf.printf "index occupies %d pages\n" total_pages;
  print_string
    (Tb.render ~header:[ "pool pages"; "hit rate"; "pager reads" ] ~rows)

(* --- Ablation A7: entry layout (Section 3.2.1) ----------------------------------- *)

let run_entry_layout () =
  section
    "Ablation A7: single-value vs grouped (OID-list) entries (Section 3.2.1)";
  List.iter
    (fun distinct_keys ->
      let d = dataset ~n_classes:40 ~distinct_keys in
      let g =
        Uindex.Grouped.create
          (Storage.Pager.create ~page_size:d.cfg.page_size ())
          d.enc ~root:d.root ~attr:"k"
      in
      Array.iter
        (fun (k, cls, oid) ->
          Uindex.Grouped.insert g ~value:(Value.Int k) ~cls oid)
        d.entries;
      let single_pages =
        Storage.Pager.page_count (Btree.pager (Index.tree d.uindex))
      in
      let grouped_pages =
        Storage.Pager.page_count (Btree.pager (Uindex.Grouped.tree g))
      in
      let avg kind =
        let rng = Workload.Rng.create 77 in
        let ts = ref 0 and tg = ref 0 in
        for _ = 1 to reps do
          let sets = Qg.pick_sets rng Qg.Near ~classes:d.classes ~k:10 in
          let value =
            match kind with
            | `Exact ->
                Query.V_eq
                  (Value.Int (Qg.exact_value rng ~distinct_keys))
            | `Range ->
                let lo, hi = Qg.range_bounds rng ~distinct_keys ~frac:0.02 in
                Query.V_range (Some (Value.Int lo), Some (Value.Int hi))
          in
          let q = Query.class_hierarchy ~value (Qg.union_of_classes sets) in
          ts := !ts + (Exec.parallel d.uindex q).Exec.page_reads;
          tg := !tg + snd (Uindex.Grouped.query g q)
        done;
        ( float_of_int !ts /. float_of_int reps,
          float_of_int !tg /. float_of_int reps )
      in
      let es, eg = avg `Exact and rs, rg = avg `Range in
      Printf.printf "\n%d distinct keys:\n" distinct_keys;
      print_string
        (Tb.render
           ~header:[ "layout"; "pages"; "exact (10 near sets)"; "2% range" ]
           ~rows:
             [
               [ "single-value"; string_of_int single_pages; Tb.fmt_f es; Tb.fmt_f rs ];
               [ "grouped"; string_of_int grouped_pages; Tb.fmt_f eg; Tb.fmt_f rg ];
             ]))
    [ 100; 1000 ]

(* --- wall-clock: six figure queries ----------------------------------------- *)

(* Not a paper metric: ns per query on the 40-class, 1000-key dataset
   with 10 near sets, the best of 5 rounds that each repeat the query for
   [round_ns]. *)
let run_timing () =
  section "Wall-clock: ns per query, best of 5 rounds";
  let d = dataset ~n_classes:40 ~distinct_keys:1000 in
  let sets =
    Qg.pick_sets (Workload.Rng.create seed) Qg.Near ~classes:d.classes ~k:10
  in
  let round_ns = if quick then 50_000_000 else 200_000_000 in
  let round run =
    let t0 = Obs.Clock.now_ns () and n = ref 0 in
    while Obs.Clock.since_ns t0 < round_ns do
      run ();
      incr n
    done;
    Obs.Clock.since_ns t0 / !n
  in
  List.iter
    (fun (name, structure, kind, lo, hi) ->
      let s = Ex.structures d in
      let run () = ignore (Ex.page_reads s structure ~kind ~sets ~lo ~hi) in
      Printf.printf "%-20s %10d ns\n" name
        (List.fold_left min max_int (List.init 5 (fun _ -> round run))))
    [
      ("fig5.u-exact", `U, Ex.Exact, 500, 500);
      ("fig5.cg-exact", `Cg, Ex.Exact, 500, 500);
      ("fig6.u-range-10pc", `U, Ex.Range 0.10, 100, 199);
      ("fig6.cg-range-10pc", `Cg, Ex.Range 0.10, 100, 199);
      ("fig7.u-range-2pc", `U, Ex.Range 0.02, 100, 119);
      ("fig8.u-range-0.5pc", `U, Ex.Range 0.005, 100, 104);
    ]

(* --- serve sections: shared set-up -------------------------------------------- *)

(* The five serve sections are wall-clock by nature: their qps/p99 rows
   and cross-run digests are what check_results gates on.  Each is
   set-up, one Loadgen call per row, and the row's own extras. *)

module Db = Uindex.Db
module Server = Uindex_server.Server
module Service = Uindex_server.Service
module Client = Uindex_server.Client

(* The mix serve_throughput, telemetry_overhead and chaos_resilience
   share: check_results gates their digests against each other. *)
let served_mix =
  [|
    "query (Red, Bus*)";
    "query (White, Vehicle*)";
    "query-forward (Red, Bus*)";
    "query ([50-60], Employee*, Company*, Vehicle*)";
  |]

let served_queries = if quick then 240 else 480

let metric name =
  Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)

(* e1's two indexes behind a fresh Db over its store *)
let served_db (e : Dg.exp1) =
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  db

let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A server on the Unix socket [dir/name.sock]; [tweak] adjusts the
   config beyond the worker count and a 30 s request timeout. *)
let listen ?(tweak = Fun.id) ~workers dir name handler =
  let path = Filename.concat dir (name ^ ".sock") in
  let config =
    tweak
      {
        (Server.default_config (Server.Unix_sock path)) with
        workers;
        request_timeout = 30.;
      }
  in
  (Server.start_handler handler config, path)

let serving ?tweak ~workers dir name handler f =
  let server, path = listen ?tweak ~workers dir name handler in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f path)

(* --- serve throughput: the concurrent query service -------------------------- *)

(* N socket clients against a server with N workers, best-of-3 by qps
   (a fresh server per run) to damp scheduler noise.  check_results
   asserts the digests agree across thread counts — concurrent serving
   returns exactly the sequential answers — and that 4 workers keep up
   with 1. *)
let run_serve_throughput (e : Dg.exp1) =
  section "Serve throughput: N clients vs N workers, snapshot per request";
  let svc = Service.create ~schema:e.ext.b.schema (served_db e) in
  with_temp_dir "uindex_bench_srv" @@ fun dir ->
  List.map
    (fun threads ->
      let run () =
        serving ~workers:threads dir "srv" (Server.handler_of_service svc)
        @@ fun path ->
        Loadgen.run ~name:"serve_throughput" ~mix:served_mix ~clients:threads
          ~per_client:(served_queries / threads) (Loadgen.socket path)
      in
      let r = Loadgen.best_of 3 ~by:(fun (r : Loadgen.result) -> r.qps) run in
      Loadgen.row [ ("threads", Obs.Json.Int threads) ] r)
    [ 1; 2; 4 ]

(* --- mixed read/write serve throughput --------------------------------------- *)

(* The read-only rows above leave the write path idle; these rows run N
   reader clients against a file-backed index while N in-process writer
   threads insert and commit continuously.  What they demonstrate is
   group commit: at writer concurrency >= 4 the journal fsync count must
   amortize below one fsync per commit (check_results hard-fails
   otherwise).  Writers insert colors no benchmark query matches, so
   reader replies — and their digests — stay identical across rows and
   to a write-free run.  The fsyncs-per-commit ratio is
   scheduling-independent. *)
let run_serve_mixed (e : Dg.exp1) =
  section "Serve throughput, mixed: N readers + N committing writers";
  let b = e.ext.b in
  with_temp_dir "uindex_bench_mix" @@ fun dir ->
  let pager =
    Storage.Pager.create_file ~page_size:1024
      (Filename.concat dir "mixed.pages")
  in
  let ch =
    Index.create_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"color"
  in
  let db = Db.create e.store in
  Db.add_index db ch (* bulk-builds over the store *);
  Db.sync db;
  Db.set_group_window db 0.002;
  let svc = Service.create ~schema:b.schema db in
  (* arity-1 queries only: the sole attached index is the file-backed
     class-hierarchy one *)
  let mix = Array.sub served_mix 0 3 in
  let min_commits = if quick then 20 else 40 in
  (* replies carry per-request I/O accounting (page_reads etc.) that
     legitimately moves as writers grow the tree; only the answer itself
     must be invariant *)
  let stable raw =
    match Obs.Json.of_string raw with
    | j ->
        let take k = Option.map (fun v -> (k, v)) (Obs.Json.member k j) in
        Obs.Json.to_string
          (Obs.Json.Obj (List.filter_map take [ "ok"; "type"; "count"; "rows" ]))
    | exception Obs.Json.Parse_error _ -> raw
  in
  List.map
    (fun threads ->
      let fsyncs0 = metric "journal.fsyncs" in
      let groups0 = metric "journal.group_commits" in
      serving ~workers:threads dir "mix" (Server.handler_of_service svc)
      @@ fun path ->
      let stop = Atomic.make false in
      let commits = Array.make threads 0 in
      let t0 = Loadgen.now () in
      let join_writers =
        Loadgen.spawn threads (fun w ->
            while (not (Atomic.get stop)) || commits.(w) < min_commits do
              let color =
                Value.Str (Printf.sprintf "zz-mix-%d-%d-%d" threads w commits.(w))
              in
              ignore (Db.insert db ~cls:b.vehicle [ ("color", color) ]);
              ignore (Db.commit db);
              commits.(w) <- commits.(w) + 1
            done)
      in
      let r =
        Fun.protect
          ~finally:(fun () -> Atomic.set stop true)
          (fun () ->
            Loadgen.run ~name:"serve_mixed" ~mix ~clients:threads
              ~per_client:(served_queries / threads) ~canon:stable
              (Loadgen.socket path))
      in
      join_writers ();
      let elapsed = Loadgen.seconds_since t0 in
      (* sample before Server.stop: its drain runs one final sync *)
      let fsyncs = metric "journal.fsyncs" - fsyncs0 in
      let groups = metric "journal.group_commits" - groups0 in
      let commits = Array.fold_left ( + ) 0 commits in
      Loadgen.row
        [ ("threads", Int threads); ("writers", Int threads) ]
        r
        ~extras:
          [
            ("commits", Int commits);
            ("commits_per_sec", Float (float_of_int commits /. elapsed));
            ("fsyncs", Int fsyncs);
            ( "fsyncs_per_commit",
              Float
                (if commits = 0 then infinity
                 else float_of_int fsyncs /. float_of_int commits) );
            ("groups", Int groups);
          ])
    [ 1; 2; 4 ]

(* --- telemetry overhead ------------------------------------------------------ *)

(* The served mix driven straight through Service.serve_line (no
   sockets, so the comparison isolates exactly what telemetry adds):
   tracing off + slow log disabled vs tracing every request + a
   threshold-0 slow log that admits all of them.  Reply bytes must not
   change — telemetry that alters responses would break the cross-mode
   digest — and check_results gates the traced p50 at <= 110% of the
   untraced one.  Best-of-3 by p50 damps scheduler noise. *)
let run_telemetry_overhead (e : Dg.exp1) =
  section "Telemetry overhead: tracing + slow-log on vs off, fixed digest";
  let db = served_db e in
  let row mode telemetry =
    let svc = Service.create ~telemetry ~schema:e.ext.b.schema db in
    (* one untimed warm cycle so first-touch costs don't bias run 1 *)
    Array.iter (fun l -> ignore (Service.serve_line svc l)) served_mix;
    let run () =
      let slow0 = metric "server.slow_queries" in
      let r =
        Loadgen.run ~name:"telemetry_overhead" ~mix:served_mix ~clients:1
          ~per_client:served_queries (Loadgen.in_process svc)
      in
      (r, metric "server.slow_queries" - slow0)
    in
    let r, slow =
      Loadgen.best_of 3 ~by:(fun ((r : Loadgen.result), _) -> -.r.p50_us) run
    in
    Loadgen.row [ ("mode", Str mode) ] r ~extras:[ ("slow_entries", Int slow) ]
  in
  [
    row "off"
      {
        Service.tracing = false;
        sample_every = 1;
        slow_threshold_ns = max_int;
        slow_capacity = 0;
      };
    row "on"
      {
        Service.tracing = true;
        sample_every = 1;
        slow_threshold_ns = 0;
        slow_capacity = 64;
      };
  ]

(* --- chaos resilience --------------------------------------------------------- *)

(* The served mix fired through the retrying client at a chaos-armed
   server: connection resets, truncated replies, injected delays,
   slow-loris reads and worker crashes.  Every accepted reply must be
   byte-identical to the fault-free answer from the service itself;
   the digest is built from those accepted replies.  check_results
   gates the story: both rows' digests must equal serve_throughput's,
   the chaos row must have actually injected faults and spent retries,
   and its success rate must stay above threshold — availability
   through retries, not luck. *)
let run_chaos_resilience (e : Dg.exp1) =
  section "Chaos resilience: retrying client vs fault-injected server";
  let svc = Service.create ~schema:e.ext.b.schema (served_db e) in
  let expected = Array.map (Service.serve_line svc) served_mix in
  let policy =
    {
      Client.attempts = 10;
      base_delay = 0.002;
      max_delay = 0.05;
      jitter = 0.5;
      retry_seed = 42;
    }
  in
  let retrying path _ =
    let c = Client.retrying ~timeout:5. ~policy (Server.Unix_sock path) in
    {
      Loadgen.send = Client.retry_request_raw c;
      close = (fun () -> Client.retry_close c);
    }
  in
  with_temp_dir "uindex_bench_chaos" @@ fun dir ->
  let row mode chaos =
    let faults0 = metric "chaos.faults" in
    let restarts0 = metric "server.worker_restarts" in
    let retries0 = metric "client.retries" in
    let tweak c =
      {
        c with
        Server.request_timeout = 5.;
        chaos = Option.map Uindex_server.Chaos.arm chaos;
        restart_budget = 100_000;
      }
    in
    serving ~tweak ~workers:2 dir ("chaos_" ^ mode)
      (Server.handler_of_service svc)
    @@ fun path ->
    let r =
      Loadgen.run ~name:"chaos_resilience" ~mix:served_mix ~clients:1
        ~per_client:served_queries ~expected ~errors_ok:true (retrying path)
    in
    Loadgen.row [ ("mode", Str mode) ] r
      ~extras:
        [
          ("retries", Int (metric "client.retries" - retries0));
          ("faults", Int (metric "chaos.faults" - faults0));
          ( "worker_restarts",
            Int (metric "server.worker_restarts" - restarts0) );
          ("success_rate", Float (float_of_int r.ok /. float_of_int r.queries));
        ]
  in
  let storm =
    {
      Uindex_server.Chaos.seed = 42;
      reset = 0.05;
      partial = 0.05;
      truncate = 0.02;
      delay = 0.10;
      slow_read = 0.05;
      crash = 0.03;
      delay_ms = 1.;
    }
  in
  [ row "off" None; row "on" (Some storm) ]

(* --- bulk load vs incremental build ------------------------------------------ *)

(* Builds the same 100k-entry tree twice — bottom-up bulk load vs
   entry-at-a-time insertion — and checks the results are identical,
   the bulk pages denser, and the bulk build faster in wall-clock
   (check_results gates on all three). *)
type bulk_report = {
  bl_entries : int;
  bl_bulk_ms : float;
  bl_incr_ms : float;
  bl_identical : bool;
  bl_bulk_fill : float;
  bl_incr_fill : float;
}

let run_bulk_load () =
  section "Bulk load: bottom-up build vs entry-at-a-time, 100k entries";
  let n = 100_000 in
  let entry i = (Printf.sprintf "key%08d" i, Printf.sprintf "v%d" (i * 7)) in
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let x = f () in
    (x, float_of_int (Obs.Clock.since_ns t0) /. 1e6)
  in
  let bulk_tree = Btree.create (Storage.Pager.create ~page_size:1024 ()) in
  let (), bulk_ms =
    time (fun () -> Btree.bulk_load bulk_tree (Seq.init n entry))
  in
  let incr_tree = Btree.create (Storage.Pager.create ~page_size:1024 ()) in
  let (), incr_ms =
    time (fun () ->
        for i = 0 to n - 1 do
          let k, v = entry i in
          Btree.insert incr_tree ~key:k ~value:v
        done)
  in
  let digest t =
    let b = Buffer.create (n * 16) in
    Btree.iter t (fun e ->
        Buffer.add_string b e.Btree.key;
        Buffer.add_char b '=';
        Buffer.add_string b (e.value ());
        Buffer.add_char b '\n');
    Digest.string (Buffer.contents b)
  in
  let rb = Btree.check_invariants bulk_tree in
  let ri = Btree.check_invariants incr_tree in
  let identical =
    digest bulk_tree = digest incr_tree && rb.Btree.entries = ri.Btree.entries
  in
  let r =
    {
      bl_entries = rb.Btree.entries;
      bl_bulk_ms = bulk_ms;
      bl_incr_ms = incr_ms;
      bl_identical = identical;
      bl_bulk_fill = rb.Btree.avg_fill;
      bl_incr_fill = ri.Btree.avg_fill;
    }
  in
  Printf.printf
    "bulk %.1f ms vs incremental %.1f ms (%.1fx); identical=%b; avg fill \
     %.2f vs %.2f\n"
    r.bl_bulk_ms r.bl_incr_ms
    (r.bl_incr_ms /. Float.max 0.001 r.bl_bulk_ms)
    r.bl_identical r.bl_bulk_fill r.bl_incr_fill;
  r

(* --- shard scaling: scatter-gather over 1/2/4 COD-range shards --------------- *)

(* The same database partitioned into k COD-range shards, each shard
   behind its own server (own worker domains), with a scatter-gather
   router in front; a fixed client pool drives a fixed query mix and
   only k varies.  Correctness: the canonical projection of every reply
   (cost fields dropped — they are deployment-dependent sums) must be
   byte-identical at every shard count; one digest per row, and
   check_results asserts the rows agree.  Scaling: single-shard queries
   spread across shards and spanning queries fan out in parallel, so on
   a host with cores to spare the 4-shard deployment must beat 1-shard
   by at least 2x (gated by check_results when serve_cores >= 8; an
   anti-collapse floor otherwise).  Clients start the mix at staggered
   offsets so lock-step rounds cannot pile onto one shard. *)
let run_shard_scaling (e : Dg.exp1) =
  section "Shard scaling: scatter-gather router over 1/2/4 COD-range shards";
  let module Smap = Uindex_shard.Shard_map in
  let module Splitter = Uindex_shard.Splitter in
  let module Router = Uindex_shard.Router in
  let b = e.ext.b in
  let mix =
    [|
      "query (Red, Bus*)";
      "query (Blue, Automobile*)";
      "query (Green, Truck*)";
      "query (Black, CompactAutomobile)";
      "query (White, Vehicle*)";
      "query ([50-60], Employee*, Company*, Vehicle*)";
    |]
  in
  let clients = 8 in
  with_temp_dir "uindex_bench_shard" @@ fun dir ->
  let deployment shards =
    let bounds =
      if shards = 1 then []
      else Splitter.choose_boundaries ~source:e.ch_color ~shards
    in
    let rec ranges lo = function
      | [] -> [ { Smap.lo; hi = None; file = None; endpoint = None } ]
      | hi :: rest ->
          { Smap.lo; hi = Some hi; file = None; endpoint = None }
          :: ranges hi rest
    in
    let map = Smap.make (ranges "" bounds) in
    let shard_servers =
      Array.init (Smap.count map) (fun i ->
          let db = Db.create e.store in
          Db.attach_index db
            (Splitter.restrict ~source:e.ch_color map i (Storage.Pager.create ()));
          Db.attach_index db
            (Splitter.restrict ~source:e.path_age map i (Storage.Pager.create ()));
          listen ~workers:2 dir
            (Printf.sprintf "s%d_%d" shards i)
            (Server.handler_of_service (Service.create ~schema:b.schema db)))
    in
    Fun.protect ~finally:(fun () ->
        Array.iter (fun (s, _) -> Server.stop s) shard_servers)
    @@ fun () ->
    let router =
      Router.create ~schema:b.schema ~enc:b.enc ~map
        ~backends:
          (Array.map
             (fun (_, p) -> Router.Remote (Server.Unix_sock p))
             shard_servers)
        ()
    in
    serving ~workers:clients dir
      (Printf.sprintf "router%d" shards)
      (Router.handler router)
    @@ fun path ->
    (* shard indexes are built once per deployment; best-of-3 timed
       client phases damp scheduler noise *)
    let run () =
      Loadgen.run ~name:"shard_scaling" ~mix ~clients
        ~per_client:(served_queries / clients) ~stagger:true
        ~canon:Router.canonical_projection (Loadgen.socket path)
    in
    let r = Loadgen.best_of 3 ~by:(fun (r : Loadgen.result) -> r.qps) run in
    Loadgen.row [ ("shards", Int (Smap.count map)) ] r
  in
  List.map deployment [ 1; 2; 4 ]

(* --- machine-readable results ---------------------------------------------- *)

let json_path =
  Option.value ~default:"BENCH_results.json"
    (Sys.getenv_opt "UINDEX_BENCH_JSON")

let write_results ~t1_rows ~t1_vehicles ~cache_ab ~checksum_ab ~serve ~mixed
    ~telemetry ~chaos ~bulk ~shard =
  let open Obs.Json in
  let row (r : Ex.t1_row) =
    Obj
      [
        ("id", Str r.id);
        ("descr", Str r.descr);
        ("results", Int r.results);
        ("parallel", Int r.parallel);
        ("forward", Int r.forward);
      ]
  in
  let ab_row r =
    let denom = r.ab_warm + r.ab_hits in
    Obj
      [
        ("id", Str r.ab_id);
        ("descr", Str r.ab_descr);
        ("pool_pages", Int r.ab_pool_pages);
        ("cold_reads", Int r.ab_cold);
        ("warm_reads", Int r.ab_warm);
        ("warm_pool_hits", Int r.ab_hits);
        ( "warm_hit_rate",
          Float
            (if denom = 0 then 0.
             else float_of_int r.ab_hits /. float_of_int denom) );
      ]
  in
  let ck_row r =
    Obj
      [
        ("id", Str r.ck_id);
        ("descr", Str r.ck_descr);
        ("reads_on", Int r.ck_reads_on);
        ("reads_off", Int r.ck_reads_off);
        ("ns_on", Float r.ck_ns_on);
        ("ns_off", Float r.ck_ns_off);
      ]
  in
  let bulk_obj =
    Obj
      [
        ("entries", Int bulk.bl_entries);
        ("bulk_ms", Float bulk.bl_bulk_ms);
        ("incr_ms", Float bulk.bl_incr_ms);
        ("identical", Bool bulk.bl_identical);
        ("bulk_avg_fill", Float bulk.bl_bulk_fill);
        ("incr_avg_fill", Float bulk.bl_incr_fill);
      ]
  in
  let j =
    Obj
      [
        ("schema_version", Int 10);
        ("quick", Bool quick);
        ("reps", Int reps);
        ("objects", Int n_objects);
        ("seed", Int seed);
        ("table1_vehicles", Int t1_vehicles);
        ("table1", List (List.map row t1_rows));
        ("cache_ab", List (List.map ab_row cache_ab));
        ("checksum_ab", List (List.map ck_row checksum_ab));
        (* scaling assertions only make sense with real cores to scale
           onto; check_results keys its serve gate on this *)
        ("serve_cores", Int (Domain.recommended_domain_count ()));
        ("serve_throughput", List serve);
        ("serve_mixed", List mixed);
        ("telemetry_overhead", List telemetry);
        ("chaos_resilience", List chaos);
        ("shard_scaling", List shard);
        ("bulk_load", bulk_obj);
        ("metrics", Obs.Metrics.to_json Obs.Metrics.default);
      ]
  in
  let oc = open_out json_path in
  output_string oc (to_multiline j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" json_path

let () =
  Printf.printf "U-index reproduction benchmarks (reps=%d, objects=%d%s)\n" reps
    n_objects
    (if quick then ", QUICK" else "");
  let t1_rows, t1_vehicles, e1 = run_table1 () in
  let cache_ab = run_cache_ab e1 in
  let checksum_ab = run_checksum_ab e1 in
  run_figures ();
  run_ablation_compression ();
  run_shootout ();
  run_update_cost ();
  run_storage_cost ();
  run_path_comparison ();
  run_buffer_pool ();
  run_entry_layout ();
  run_timing ();
  let serve = run_serve_throughput e1 in
  (* telemetry must run before serve_mixed mutates e1's store: its digest
     is gated against serve_throughput's *)
  let telemetry = run_telemetry_overhead e1 in
  (* chaos replays the same mix, so the store must still be unmutated:
     its digests are gated against serve_throughput's *)
  let chaos = run_chaos_resilience e1 in
  (* the splitter reads e1's indexes, so this too must precede the
     store-mutating mixed section *)
  let shard = run_shard_scaling e1 in
  let bulk = run_bulk_load () in
  (* last: its writers mutate e1's store *)
  let mixed = run_serve_mixed e1 in
  write_results ~t1_rows ~t1_vehicles ~cache_ab ~checksum_ab ~serve ~mixed
    ~telemetry ~chaos ~bulk ~shard
