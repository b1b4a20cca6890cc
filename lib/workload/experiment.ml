module Value = Objstore.Value
module Stats = Storage.Stats
module Pager = Storage.Pager
module Query = Uindex.Query
module Exec = Uindex.Exec
module Index = Uindex.Index

(* --- experiment 1: Table 1 ------------------------------------------------- *)

type t1_row = {
  id : string;
  descr : string;
  results : int;
  parallel : int;
  forward : int;
}

let run_row idx id descr q =
  let p = Exec.parallel idx q and f = Exec.forward idx q in
  assert (List.length p.bindings = List.length f.bindings);
  {
    id;
    descr;
    results = List.length p.bindings;
    parallel = p.page_reads;
    forward = f.page_reads;
  }

let color_variants = [ ("", None); ("a", Some [ "Red" ]); ("b", Some [ "Red"; "Blue" ]); ("c", Some [ "Red"; "Blue"; "Green" ]) ]

let value_pred_of = function
  | None -> Query.V_any
  | Some [ c ] -> Query.V_eq (Value.Str c)
  | Some cs -> Query.V_in (List.map (fun c -> Value.Str c) cs)

let descr_of_colors = function
  | None -> "all colors"
  | Some cs -> String.concat "+" cs

let table1 (e : Datagen.exp1) =
  let b = e.ext.b in
  let ch_rows base_id descr pat =
    List.map
      (fun (suffix, colors) ->
        run_row e.ch_color (base_id ^ suffix)
          (Printf.sprintf "%s, %s" descr (descr_of_colors colors))
          (Query.class_hierarchy ~value:(value_pred_of colors) pat))
      color_variants
  in
  let q1 = ch_rows "1" "all Buses (subtree)" (P_subtree e.ext.bus) in
  let q2 =
    ch_rows "2" "all PassengerBuses (subtree)" (P_subtree e.ext.passenger_bus)
  in
  let q3 = ch_rows "3" "Automobiles (subtree)" (P_subtree b.automobile) in
  let q4 =
    ch_rows "4" "Compact or Service automobiles"
      (P_union [ P_subtree b.compact; P_subtree e.ext.service_auto ])
  in
  let partial value =
    Query.path ~value
      [ Query.comp (P_subtree b.employee); Query.comp (P_subtree b.company) ]
  in
  let q5 =
    [
      run_row e.path_age "5a" "companies with president age = 50"
        (partial (V_eq (Int 50)));
      run_row e.path_age "5b" "companies with president age > 50"
        (partial (V_range (Some (Int 51), Some (Int 70))));
    ]
  in
  let combined head_pat =
    Query.path
      ~value:(V_range (Some (Int 51), Some (Int 70)))
      [
        Query.comp (P_subtree b.employee);
        Query.comp (P_subtree b.auto_company);
        Query.comp head_pat;
      ]
  in
  let q6 =
    [
      run_row e.path_age "6a"
        "Automobiles by AutoCompanies, president age > 50"
        (combined (P_subtree b.automobile));
      run_row e.path_age "6b" "Trucks by AutoCompanies, president age > 50"
        (combined (P_subtree b.truck));
    ]
  in
  q1 @ q2 @ q3 @ q4 @ q5 @ q6

let render_table1 rows =
  Table.render
    ~header:[ "query"; "description"; "results"; "parallel"; "forward" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.id;
             r.descr;
             string_of_int r.results;
             string_of_int r.parallel;
             string_of_int r.forward;
           ])
         rows)

(* --- experiment 2: figures 5-8 --------------------------------------------- *)

type query_kind = Exact | Range of float
type structure = [ `U | `Ch | `H | `Cg | `Nix | `Grouped ]

let structure_name = function
  | `U -> "U-index"
  | `Ch -> "CH-tree"
  | `H -> "H-tree"
  | `Cg -> "CG-tree"
  | `Nix -> "NIX"
  | `Grouped -> "grouped U-index"

type structures = {
  d : Datagen.exp2;
  ch : Baselines.Ch_tree.t Lazy.t;
  h : Baselines.H_tree.t Lazy.t;
  nix : Baselines.Nix.t Lazy.t;
  grouped : Uindex.Grouped.t Lazy.t;
}

let structures (d : Datagen.exp2) =
  let entries =
    lazy
      (Array.to_list d.entries
      |> List.map (fun (k, cls, oid) -> (Value.Int k, cls, oid)))
  in
  let built create fill =
    lazy
      (let t = create (Pager.create ~page_size:d.cfg.page_size ()) in
       fill t (Lazy.force entries);
       t)
  in
  let classes = Array.to_list d.classes in
  {
    d;
    ch = built (fun p -> Baselines.Ch_tree.create p) Baselines.Ch_tree.build;
    h =
      built (fun p -> Baselines.H_tree.create p ~classes) Baselines.H_tree.build;
    nix =
      built
        (fun p -> Baselines.Nix.create p ~classes)
        (fun t ->
          List.iter (fun (value, cls, oid) ->
              Baselines.Nix.insert_chain t ~value [ (cls, oid) ]));
    grouped =
      built
        (fun p -> Uindex.Grouped.create p d.enc ~root:d.root ~attr:"k")
        (fun g ->
          List.iter (fun (value, cls, oid) ->
              Uindex.Grouped.insert g ~value ~cls oid));
  }

let database s = s.d

(* the pages [f] reads and writes on [pager], and its result *)
let counted pager f =
  let stats = Pager.stats pager in
  Stats.reset stats;
  let r = f () in
  (Stats.snapshot stats, r)

let page_reads s structure ~kind ~sets ~lo ~hi =
  let reads pager exact range =
    (fst
       (counted pager (fun () ->
            ignore
              (match kind with
              | Exact -> exact ~value:(Value.Int lo) ~sets
              | Range _ -> range ~lo:(Value.Int lo) ~hi:(Value.Int hi) ~sets))))
      .Stats.reads
  in
  let query () =
    let value =
      if lo = hi then Query.V_eq (Value.Int lo)
      else Query.V_range (Some (Value.Int lo), Some (Value.Int hi))
    in
    Query.class_hierarchy ~value (Querygen.union_of_classes sets)
  in
  let open Baselines in
  match structure with
  | `U -> (Exec.parallel s.d.uindex (query ())).page_reads
  | `Grouped -> snd (Uindex.Grouped.query (Lazy.force s.grouped) (query ()))
  | `Cg -> Cg_tree.(reads (pager s.d.cg) (exact s.d.cg) (range s.d.cg))
  | `Ch ->
      let t = Lazy.force s.ch in
      Ch_tree.(reads (pager t) (exact t) (range t))
  | `H ->
      let t = Lazy.force s.h in
      H_tree.(reads (pager t) (exact t) (range t))
  | `Nix ->
      let t = Lazy.force s.nix in
      Nix.(reads (pager t) (exact t) (range t))

let bounds_of rng (d : Datagen.exp2) = function
  | Exact ->
      let v = Querygen.exact_value rng ~distinct_keys:d.cfg.distinct_keys in
      (v, v)
  | Range frac ->
      Querygen.range_bounds rng ~distinct_keys:d.cfg.distinct_keys ~frac

(* one draw stream per (placement, structure, set count), so a point does
   not depend on which other points are measured *)
let average s (structure : structure) placement ~kind ~k ~reps ~seed =
  let rng =
    Rng.create (seed + k + (1000 * Hashtbl.hash (placement, structure)))
  in
  let total = ref 0 in
  for _ = 1 to reps do
    let sets = Querygen.pick_sets rng placement ~classes:s.d.classes ~k in
    let lo, hi = bounds_of rng s.d kind in
    total := !total + page_reads s structure ~kind ~sets ~lo ~hi
  done;
  float_of_int !total /. float_of_int reps

let series s ~kind ~set_counts ~reps ~seed lines =
  List.map
    (fun (label, structure, placement) ->
      ( label,
        List.map
          (fun k -> (k, average s structure placement ~kind ~k ~reps ~seed))
          set_counts ))
    lines

let shootout s structures ~queries ~set_counts ~reps ~seed =
  let lines =
    List.map (fun st -> (structure_name st, st, Querygen.Near)) structures
  in
  String.concat ""
    (List.map
       (fun (title, kind) ->
         Table.render_series ~title ~x_label:"sets"
           ~series:(series s ~kind ~set_counts ~reps ~seed lines)
         ^ "\n")
       queries)

let figure_lines =
  [
    ("B-tree (near sets)", `U, Querygen.Near);
    ("B-tree (non-near sets)", `U, Querygen.Distant);
    ("CG-tree", `Cg, Querygen.Random);
  ]

let figure_series d ~kind ~set_counts ~reps ~seed =
  series (structures d) ~kind ~set_counts ~reps ~seed figure_lines

(* --- the Figures 5-8 panels ----------------------------------------------- *)

type datasets = {
  n_objects : int;
  seed : int;
  built : (int * int, structures) Hashtbl.t;
}

let datasets ~n_objects ~seed = { n_objects; seed; built = Hashtbl.create 8 }

let dataset ds ~n_classes ~distinct_keys =
  match Hashtbl.find_opt ds.built (n_classes, distinct_keys) with
  | Some s -> s
  | None ->
      let s =
        structures
          (Datagen.exp2
             {
               (Datagen.default_exp2 ~n_classes ~distinct_keys) with
               n_objects = ds.n_objects;
               seed = ds.seed;
             })
      in
      Hashtbl.add ds.built (n_classes, distinct_keys) s;
      s

type panel = {
  figure : int;
  heading : string;
  part : string option;
  title : string;
  series : (string * (int * float) list) list;
}

let figures ds ~reps =
  (* Figure 8's near vs non-near panels repeat Figure 6's 1,000-key ones:
     each (kind, classes, keys) series is measured once *)
  let measured = Hashtbl.create 32 in
  let series ~kind n_classes distinct_keys =
    match Hashtbl.find_opt measured (kind, n_classes, distinct_keys) with
    | Some s -> s
    | None ->
        let set_counts =
          if n_classes >= 40 then [ 1; 10; 20; 30; 40 ] else [ 1; 2; 4; 6; 8 ]
        in
        let s =
          series
            (dataset ds ~n_classes ~distinct_keys)
            ~kind ~set_counts ~reps ~seed:ds.seed figure_lines
        in
        Hashtbl.add measured (kind, n_classes, distinct_keys) s;
        s
  in
  let panel (figure, heading) ?part ~kind (keys_label, distinct_keys) n_classes
      =
    {
      figure;
      heading =
        Printf.sprintf "Figure %d: %s (avg page reads over %d reps)" figure
          heading reps;
      part;
      title = Printf.sprintf "%d sets, %s" n_classes keys_label;
      series = series ~kind n_classes distinct_keys;
    }
  in
  let classes = [ 40; 8 ] and keys1000 = ("1000 different keys", 1000) in
  let grid fig kind =
    List.concat_map
      (fun n_classes ->
        List.map
          (fun key_config -> panel fig ~kind key_config n_classes)
          [
            ("unique keys", ds.n_objects); ("100 different keys", 100); keys1000;
          ])
      classes
  in
  let fig8 (part, kind) =
    List.map
      (panel
         (8, "narrow ranges and set clustering, 1000 different keys")
         ~part ~kind keys1000)
      classes
  in
  List.concat
    ([
       grid (5, "exact match queries") Exact;
       grid (6, "range queries, 10% of keyspace") (Range 0.10);
       grid (7, "range queries, 2% of keyspace") (Range 0.02);
     ]
    @ List.map fig8
        [
          ("range = 0.5% of keyspace", Range 0.005);
          ("range = 0.2% of keyspace", Range 0.002);
          ("near vs non-near queried sets, range = 10%, 1000 keys", Range 0.10);
        ])

let render_figures panels =
  let b = Buffer.create 8192 in
  ignore
    (List.fold_left
       (fun (prev_heading, prev_part) p ->
         if p.heading <> prev_heading then
           Buffer.add_string b (Table.section p.heading);
         (match p.part with
         | Some part when p.part <> prev_part ->
             Buffer.add_string b (Table.subsection part)
         | _ -> ());
         Buffer.add_string b
           (Table.render_series ~title:p.title ~x_label:"sets"
              ~series:p.series);
         Buffer.add_char b '\n';
         (p.heading, p.part))
       ("", None) panels);
  Buffer.contents b

(* --- the paper's shapes ---------------------------------------------------- *)

(* the messages of the claims that do not hold *)
let failing claims =
  List.filter_map (fun (holds, claim) -> if holds then None else Some claim) claims

let shape_failures panels =
  let series ?part figure title label =
    let p =
      List.find
        (fun p ->
          p.figure = figure && p.title = title && (part = None || p.part = part))
        panels
    in
    List.assoc label p.series
  in
  let near = "B-tree (near sets)" and cg = "CG-tree" in
  let at k s = List.assoc k s in
  let first s = snd (List.hd s) and last s = snd (List.hd (List.rev s)) in
  let exact = series 5 "40 sets, unique keys" in
  let u_lo = List.fold_left (fun m (_, y) -> min m y) infinity (exact near)
  and u_hi = List.fold_left (fun m (_, y) -> max m y) 0. (exact near) in
  let wide = series 6 "40 sets, unique keys" in
  let wide_at k = (at k (wide cg), at k (wide near)) in
  let narrow =
    series ~part:"range = 0.2% of keyspace" 8 "40 sets, 1000 different keys"
  in
  let u_loses =
    List.filter (fun (k, u) -> k >= 10 && u >= at k (narrow cg)) (narrow near)
  in
  let keys100 = series 6 "40 sets, 100 different keys" in
  let near10 = at 10 (keys100 near)
  and far10 = at 10 (keys100 "B-tree (non-near sets)") in
  failing
    [
      ( u_hi -. u_lo <= 0.5 && last (exact cg) >= first (exact cg) +. 0.5,
        Printf.sprintf
          "Figure 5, 40 classes, unique keys: U should stay flat (%.1f..%.1f) \
           and CG grow (%.1f -> %.1f)"
          u_lo u_hi (first (exact cg)) (last (exact cg)) );
      (let (cg1, u1), (cg40, u40) = (wide_at 1, wide_at 40) in
       ( cg1 < u1 && cg40 > u40,
         Printf.sprintf
           "Figure 6, 40 classes, unique keys: CG should read less than U at 1 \
            set (%.1f vs %.1f) and more at 40 sets (%.1f vs %.1f)"
           cg1 u1 cg40 u40 ));
      ( u_loses = [],
        Printf.sprintf
          "Figure 8, 0.2%% ranges, 40 classes: U should read less than CG from \
           10 sets (not at %s sets)"
          (String.concat ", " (List.map (fun (k, _) -> string_of_int k) u_loses))
      );
      ( near10 <= 0.9 *. far10,
        Printf.sprintf
          "Figure 6, 40 classes, 100 keys, 10 sets: near sets should read at \
           least 10%% less than non-near (%.1f vs %.1f)"
          near10 far10 );
    ]

(* --- ablations A1-A7 ------------------------------------------------------ *)

type pool_row = {
  pool_pages : int;
  pager_reads : int;
  pool_hits : int;
  exec_page_reads : int;
}

type layout = { pages : int; exact : float; range : float }

type ablations = {
  coding : (int * float) * (int * float);
      (* A1, front coding on and off: pages, average 2 % range reads *)
  key_bytes : Btree.compression_stats;
  shootout : string;  (* A2, rendered *)
  per_insert : (string * float * float) list;  (* A3: reads, writes *)
  switches : int * float * float;  (* A3: count, reads and writes each *)
  end_of_path : float * float;  (* A3: writes per insert, U and NIX *)
  storage : (string * int) list;  (* A4: pages *)
  path_queries : (string * (float * float) list) list;
      (* A5: per query, (reads, results) per structure *)
  pools : pool_row list;  (* A6 *)
  layouts : (int * layout * layout) list;  (* A7: keys, single, grouped *)
}

let pool_rows a = a.pools

let per n x = float_of_int x /. float_of_int n
let index_pages idx = Pager.page_count (Btree.pager (Index.tree idx))

(* a U-index over [d]'s entries, built by the inserts that built [d.uindex] *)
let u_index ?config (d : Datagen.exp2) =
  let idx =
    Index.create_class_hierarchy ?config
      (Pager.create ~page_size:d.cfg.page_size ())
      d.enc ~root:d.root ~attr:"k"
  in
  Array.iter
    (fun (k, cls, oid) ->
      Index.insert_entry idx ~value:(Value.Int k) [ (cls, oid) ])
    d.entries;
  idx

(* A3, Section 4.2: page reads and writes per insert into fresh copies of
   the four structures, so the shared dataset stays untouched *)
let insert_costs (d : Datagen.exp2) ~ops =
  let open Baselines in
  let copy = structures d in
  let u = u_index d and ch = Lazy.force copy.ch and ht = Lazy.force copy.h in
  let cg = Cg_tree.create (Pager.create ~page_size:d.cfg.page_size ()) in
  Array.iter
    (fun (k, cls, oid) -> Cg_tree.insert cg ~value:(Value.Int k) ~cls oid)
    d.entries;
  let measure name pager insert =
    let stats, () =
      counted pager (fun () ->
          let rng = Rng.create 99 in
          for i = 0 to ops - 1 do
            let k = Rng.int rng 1000 and cls = Rng.pick rng d.classes in
            insert ~value:(Value.Int k) ~cls (1_000_000 + i)
          done)
    in
    (name, per ops stats.Stats.reads, per ops stats.Stats.writes)
  in
  [
    measure "U-index" (Btree.pager (Index.tree u)) (fun ~value ~cls oid ->
        Index.insert_entry u ~value [ (cls, oid) ]);
    measure "CH-tree" (Ch_tree.pager ch) (Ch_tree.insert ch);
    measure "H-tree" (H_tree.pager ht) (H_tree.insert ht);
    measure "CG-tree" (Cg_tree.pager cg) (Cg_tree.insert cg);
  ]

(* the path databases of A3 and A5: the Table 1 vehicle database at its
   full size, whatever the experiment-2 size *)
let path_db ~seed = Datagen.path_db ~n_vehicles:12_000 ~seed ()

(* A3, Sections 3.5 and 4.2: a company replaces its president, which
   moves ~40 clustered path entries through the batched maintenance path;
   then end-of-path objects are inserted into the U-index and NIX *)
let path_updates ~chains =
  let pd = path_db ~seed:7 in
  let store = pd.e1.store and b = pd.e1.ext.b and u = pd.e1.path_age in
  (* the path index already holds its entries *)
  let db = Uindex.Db.create store in
  Uindex.Db.attach_index db u;
  let companies = Objstore.Store.extent store ~deep:true b.company in
  let employees =
    Array.of_list (Objstore.Store.extent store ~deep:true b.employee)
  in
  let n = min 200 (List.length companies) in
  let switched, () =
    counted (Btree.pager (Index.tree u)) (fun () ->
        let rng = Rng.create 5 in
        List.iteri
          (fun i c ->
            if i < n then
              Uindex.Db.set_attr db c "president"
                (Value.Ref (Rng.pick rng employees)))
          companies)
  in
  let rng = Rng.create 31 in
  let chain i =
    let e = Rng.pick rng employees in
    let c = List.nth companies (Rng.int rng (List.length companies)) in
    let age =
      match Objstore.Store.attr store e "age" with Value.Int a -> a | _ -> 40
    in
    ( Value.Int age,
      [
        (Objstore.Store.class_of store e, e);
        (Objstore.Store.class_of store c, c);
        (b.vehicle, 2_000_000 + i);
      ] )
  in
  let chains = List.init chains chain in
  let writes pager insert =
    let stats, () =
      counted pager (fun () ->
          List.iter (fun (value, chain) -> insert ~value chain) chains)
    in
    per (List.length chains) stats.Stats.writes
  in
  ( (n, per n switched.Stats.reads, per n switched.Stats.writes),
    ( writes (Btree.pager (Index.tree u)) (Index.insert_entry u),
      writes (Baselines.Nix.pager pd.nix) (Baselines.Nix.insert_chain pd.nix) ) )

(* A5, Section 4.4: exact head retrieval and the combined query (the
   company restricted to the JapaneseAutoCompany subtree), averaged over
   [draws] president ages; each cell is (page reads, results) *)
let path_queries ~draws =
  let pd = path_db ~seed:13 in
  let b = pd.e1.ext.b and u = pd.e1.path_age in
  let module Nix = Baselines.Nix in
  let module Pi = Baselines.Path_index in
  let vehicle_sets =
    Paper_schema.vehicle_leaf_classes pd.e1.ext |> Array.to_list
  in
  let japanese_sets =
    Oodb_schema.Schema.subtree b.schema b.japanese_auto_company
  in
  let avg f =
    let rng = Rng.create 21 in
    let total = ref 0 and results = ref 0 in
    for _ = 1 to draws do
      let reads, n = f (Value.Int (20 + Rng.int rng 51)) in
      total := !total + reads;
      results := !results + n
    done;
    (per draws !total, per draws !results)
  in
  let reads_of pager f value =
    let stats, n = counted pager (fun () -> List.length (f value)) in
    (stats.Stats.reads, n)
  in
  let u_path company value =
    let o =
      Exec.parallel u
        (Query.path ~value:(V_eq value)
           [
             Query.comp (P_subtree b.employee);
             Query.comp (P_subtree company);
             Query.comp (P_subtree b.vehicle);
           ])
    in
    (o.Exec.page_reads, List.length (Exec.head_oids o))
  in
  let nix f = reads_of (Nix.pager pd.nix) f
  and bk f = reads_of (Pi.pager pd.bk_path) f in
  [
    ( "exact head retrieval",
      List.map avg
        [
          u_path b.company;
          nix (fun value -> Nix.exact pd.nix ~value ~sets:vehicle_sets);
          bk (fun value -> Pi.exact pd.bk_path ~value);
          reads_of (Pi.pager pd.bk_nested) (fun value ->
              Pi.exact pd.bk_nested ~value);
        ] );
    (* NIX joins its per-class lists through the auxiliary parent trees;
       the BK path index scans its path records and filters *)
    ( "combined (Japanese makers)",
      List.map avg
        [
          u_path b.japanese_auto_company;
          nix (fun value ->
              Nix.exact pd.nix ~value ~sets:japanese_sets
              |> List.concat_map (fun (cls, c) -> Nix.parents pd.nix ~cls c)
              |> List.sort_uniq compare);
          bk (fun value ->
              Pi.exact_restricted pd.bk_path ~value ~pred:(function
                | c :: _ ->
                    List.mem
                      (Objstore.Store.class_of pd.e1.store c)
                      japanese_sets
                | [] -> false));
        ] );
  ]

(* A6: the served read path under a shared LRU pool attached to the
   index: each query's own revisits are absorbed by its per-query cache
   before they reach the pool *)
let pool_runs (s : structures) ~queries =
  let d = s.d in
  let tree = Index.tree d.uindex in
  let rng = Rng.create 17 in
  let queries =
    List.init queries (fun _ ->
        let sets =
          Querygen.pick_sets rng Querygen.Near ~classes:d.classes ~k:10
        in
        let lo, hi =
          Querygen.range_bounds rng ~distinct_keys:d.cfg.distinct_keys ~frac:0.02
        in
        Query.class_hierarchy
          ~value:(V_range (Some (Value.Int lo), Some (Value.Int hi)))
          (Querygen.union_of_classes sets))
  in
  List.map
    (fun capacity ->
      let pool = Storage.Buffer_pool.create ~capacity (Btree.pager tree) in
      Btree.set_pool tree (Some pool);
      Fun.protect ~finally:(fun () -> Btree.set_pool tree None) @@ fun () ->
      let exec_page_reads =
        List.fold_left
          (fun n q -> n + (Exec.parallel d.uindex q).Exec.page_reads)
          0 queries
      in
      {
        pool_pages = capacity;
        pager_reads = Storage.Buffer_pool.misses pool;
        pool_hits = Storage.Buffer_pool.hits pool;
        exec_page_reads;
      })
    [ 64; 256; 1024 ]

let ablations ds ~reps =
  let open Baselines in
  let s = dataset ds ~n_classes:40 ~distinct_keys:1000 in
  let d = s.d and seed = ds.seed in
  let raw =
    u_index d
      ~config:
        {
          (Btree.default_config ~page_size:d.cfg.page_size) with
          front_coding = false;
        }
  in
  (* both builds see the same draws: the stream is the U-index's *)
  let coding idx =
    ( index_pages idx,
      average (structures { d with uindex = idx }) `U Querygen.Near
        ~kind:(Range 0.02) ~k:10 ~reps ~seed )
  in
  let switches, end_of_path = path_updates ~chains:(10 * reps) in
  let layout s structure pages =
    let avg kind = average s structure Querygen.Near ~kind ~k:10 ~reps ~seed in
    { pages; exact = avg Exact; range = avg (Range 0.02) }
  in
  {
    coding = (coding d.uindex, coding raw);
    key_bytes = Btree.compression_stats (Index.tree d.uindex);
    shootout =
      shootout s [ `U; `Ch; `H; `Cg ]
        ~queries:
          [
            ("exact match", Exact);
            ("range 10%", Range 0.10);
            ("range 2%", Range 0.02);
          ]
        ~set_counts:[ 1; 10; 20; 40 ] ~reps ~seed;
    per_insert = insert_costs d ~ops:(20 * reps);
    switches;
    end_of_path;
    storage =
      [
        ("U-index (front-coded)", index_pages d.uindex);
        ("U-index (uncompressed)", index_pages raw);
        ("CH-tree", Pager.page_count (Ch_tree.pager (Lazy.force s.ch)));
        ("H-tree", Pager.page_count (H_tree.pager (Lazy.force s.h)));
        ("CG-tree", Pager.page_count (Cg_tree.pager d.cg));
      ];
    path_queries = path_queries ~draws:reps;
    pools = pool_runs s ~queries:(4 * reps);
    layouts =
      List.map
        (fun distinct_keys ->
          let s = dataset ds ~n_classes:40 ~distinct_keys in
          ( distinct_keys,
            layout s `U (index_pages s.d.uindex),
            layout s `Grouped
              (Pager.page_count
                 (Btree.pager (Uindex.Grouped.tree (Lazy.force s.grouped))))
          ))
        [ 100; 1000 ];
  }

let render_ablations a =
  let b = Buffer.create 8192 in
  let section title = Buffer.add_string b (Table.section title)
  and subsection title = Buffer.add_string b (Table.subsection title)
  and table header rows = Buffer.add_string b (Table.render ~header ~rows)
  and int = string_of_int
  and f = Table.fmt_f in
  let (on_pages, on_reads), (off_pages, off_reads) = a.coding in
  section "Ablation A1: front compression on/off (U-index storage & reads)";
  table
    [ "front coding"; "index pages"; "avg reads (2% range, 10 near sets)" ]
    [
      [ "on"; int on_pages; f on_reads ]; [ "off"; int off_pages; f off_reads ];
    ];
  let kb = a.key_bytes in
  Printf.bprintf b
    "key bytes: %d raw -> %d stored (%.1f%%); avg compressed prefix %.1f B\n"
    kb.raw_key_bytes kb.stored_key_bytes
    (100.0 *. per (max 1 kb.raw_key_bytes) kb.stored_key_bytes)
    kb.avg_prefix_len;
  section
    "Ablation A2: U-index vs CH-tree vs H-tree vs CG-tree (class-hierarchy \
     case, 40 classes, 1000 keys)";
  Buffer.add_string b a.shootout;
  section
    "Ablation A3: update cost — page writes+reads per operation (Section 4.2)";
  table
    [ "structure"; "reads/insert"; "writes/insert" ]
    (List.map (fun (n, r, w) -> [ n; f r; f w ]) a.per_insert);
  subsection "mid-path update: a company replaces its president (path index)";
  let n, r, w = a.switches in
  Printf.bprintf b
    "%d president replacements: %.1f page reads, %.1f page writes per switch\n"
    n r w;
  subsection "end-of-path object insertion: U-index path vs NIX";
  Printf.bprintf b
    "U-index: %.1f page writes/insert; NIX: %.1f (primary + auxiliary)\n"
    (fst a.end_of_path) (snd a.end_of_path);
  section "Ablation A4: storage cost — pages per structure (Section 4.2)";
  table
    [ "structure"; "pages (1 KiB)" ]
    (List.map (fun (n, p) -> [ n; int p ]) a.storage);
  section
    "Ablation A5: path queries — U-index vs NIX vs Bertino-Kim indexes \
     (Section 4.4)";
  table
    [ "query"; "U-index"; "NIX"; "BK path"; "BK nested"; "avg results" ]
    (List.map
       (fun (label, cells) ->
         let reads = List.map (fun (r, _) -> f r) cells in
         (label :: reads)
         @ List.init (4 - List.length cells) (fun _ -> "-")
         @ [ f (snd (List.hd cells)) ])
       a.path_queries);
  Buffer.add_string b
    "(NIX answers the combined query through its auxiliary parent trees;\n\
    \ the nested index cannot answer it at all — Section 4.4)\n";
  section
    "Ablation A6: steady-state U-index behaviour under a shared LRU buffer \
     pool (2% ranges, 10 near sets)";
  Printf.bprintf b "index occupies %d pages\n" on_pages;
  table
    [ "pool pages"; "hit rate"; "pager reads"; "pool hits" ]
    (List.map
       (fun r ->
         [
           int r.pool_pages;
           Printf.sprintf "%.1f%%"
             (100.0 *. per (max 1 (r.pool_hits + r.pager_reads)) r.pool_hits);
           int r.pager_reads;
           int r.pool_hits;
         ])
       a.pools);
  section
    "Ablation A7: single-value vs grouped (OID-list) entries (Section 3.2.1)";
  List.iter
    (fun (keys, single, grouped) ->
      Printf.bprintf b "\n%d distinct keys:\n" keys;
      table
        [ "layout"; "pages"; "exact (10 near sets)"; "2% range" ]
        (List.map
           (fun (name, l) -> [ name; int l.pages; f l.exact; f l.range ])
           [ ("single-value", single); ("grouped", grouped) ]))
    a.layouts;
  Buffer.contents b

let ablation_failures a =
  let (on_pages, on_reads), (off_pages, off_reads) = a.coding in
  let _, _, u_writes = List.hd a.per_insert in
  let u_path, nix_path = a.end_of_path in
  let coded = List.assoc "U-index (front-coded)" a.storage
  and raw = List.assoc "U-index (uncompressed)" a.storage in
  let rec rising = function
    | (p, r) :: ((p', r') :: _ as rest) ->
        if r' > r then
          Some (Printf.sprintf "%d reads at %d pool pages, %d at %d" r p r' p')
        else rising rest
    | _ -> None
  in
  let rising =
    rising
      (List.sort compare
         (List.map (fun r -> (r.pool_pages, r.pager_reads)) a.pools))
  in
  failing
    ([
       ( on_pages < off_pages && on_reads < off_reads,
         Printf.sprintf
           "A1: front coding should use fewer pages (%d vs %d) and fewer 2%% \
            range reads (%.1f vs %.1f)"
           on_pages off_pages on_reads off_reads );
       ( u_writes <= 1.1,
         Printf.sprintf
           "A3: a U-index insert should write about one page (%.2f per insert)"
           u_writes );
       ( u_path < nix_path,
         Printf.sprintf
           "A3: end-of-path inserts should write fewer pages for U than for \
            NIX (%.1f vs %.1f)"
           u_path nix_path );
       ( coded < raw,
         Printf.sprintf
           "A4: the front-coded U-index should use fewer pages than the \
            uncompressed one (%d vs %d)"
           coded raw );
       ( rising = None,
         Printf.sprintf "A6: pager reads should not rise as the pool grows (%s)"
           (Option.value rising ~default:"") );
     ]
    @ List.map
        (fun r ->
          ( r.exec_page_reads = r.pager_reads,
            Printf.sprintf
              "A6: summed Exec page reads should equal the pool's misses (%d \
               vs %d at %d pages)"
              r.exec_page_reads r.pager_reads r.pool_pages ))
        a.pools
    @ List.map
        (fun (keys, single, grouped) ->
          ( grouped.pages < single.pages,
            Printf.sprintf
              "A7: grouped entries should use fewer pages than single-value \
               ones at %d keys (%d vs %d)"
              keys grouped.pages single.pages ))
        a.layouts)
