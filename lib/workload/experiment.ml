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
type structure = [ `U | `Ch | `H | `Cg | `Nix ]

let structure_name = function
  | `U -> "U-index"
  | `Ch -> "CH-tree"
  | `H -> "H-tree"
  | `Cg -> "CG-tree"
  | `Nix -> "NIX"

type structures = {
  d : Datagen.exp2;
  ch : Baselines.Ch_tree.t Lazy.t;
  h : Baselines.H_tree.t Lazy.t;
  nix : Baselines.Nix.t Lazy.t;
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
  }

let page_reads s structure ~kind ~sets ~lo ~hi =
  let counted pager exact range =
    let stats = Pager.stats pager in
    Stats.reset stats;
    ignore
      (match kind with
      | Exact -> exact ~value:(Value.Int lo) ~sets
      | Range _ -> range ~lo:(Value.Int lo) ~hi:(Value.Int hi) ~sets);
    stats.Stats.reads
  in
  let open Baselines in
  match structure with
  | `U ->
      let value =
        if lo = hi then Query.V_eq (Value.Int lo)
        else Query.V_range (Some (Value.Int lo), Some (Value.Int hi))
      in
      (Exec.parallel s.d.uindex
         (Query.class_hierarchy ~value (Querygen.union_of_classes sets)))
        .page_reads
  | `Cg -> Cg_tree.(counted (pager s.d.cg) (exact s.d.cg) (range s.d.cg))
  | `Ch ->
      let t = Lazy.force s.ch in
      Ch_tree.(counted (pager t) (exact t) (range t))
  | `H ->
      let t = Lazy.force s.h in
      H_tree.(counted (pager t) (exact t) (range t))
  | `Nix ->
      let t = Lazy.force s.nix in
      Nix.(counted (pager t) (exact t) (range t))

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

let figure_series d =
  series (structures d)
    [
      ("B-tree (near sets)", `U, Querygen.Near);
      ("B-tree (non-near sets)", `U, Querygen.Distant);
      ("CG-tree", `Cg, Querygen.Random);
    ]

(* --- the Figures 5-8 panels ----------------------------------------------- *)

type datasets = {
  n_objects : int;
  seed : int;
  built : (int * int, Datagen.exp2) Hashtbl.t;
}

let datasets ~n_objects ~seed = { n_objects; seed; built = Hashtbl.create 8 }

let dataset ds ~n_classes ~distinct_keys =
  match Hashtbl.find_opt ds.built (n_classes, distinct_keys) with
  | Some d -> d
  | None ->
      let d =
        Datagen.exp2
          {
            (Datagen.default_exp2 ~n_classes ~distinct_keys) with
            n_objects = ds.n_objects;
            seed = ds.seed;
          }
      in
      Hashtbl.add ds.built (n_classes, distinct_keys) d;
      d

type panel = {
  figure : int;
  heading : string;
  part : string option;
  title : string;
  name : string;
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
          figure_series
            (dataset ds ~n_classes ~distinct_keys)
            ~kind ~set_counts ~reps ~seed:ds.seed
        in
        Hashtbl.add measured (kind, n_classes, distinct_keys) s;
        s
  in
  let panel (figure, heading) ?part ~kind ~name (keys_label, distinct_keys)
      n_classes =
    {
      figure;
      heading =
        Printf.sprintf "Figure %d: %s (avg page reads over %d reps)" figure
          heading reps;
      part;
      title = Printf.sprintf "%d sets, %s" n_classes keys_label;
      name = name n_classes;
      series = series ~kind n_classes distinct_keys;
    }
  in
  let classes = [ 40; 8 ] and keys1000 = ("1000 different keys", 1000) in
  let grid ((figure, _) as fig) kind =
    List.concat_map
      (fun n_classes ->
        List.map
          (fun ((_, keys) as key_config) ->
            panel fig ~kind key_config n_classes ~name:(fun n ->
                Printf.sprintf "fig%d_%dsets_%dkeys" figure n keys))
          [
            ("unique keys", ds.n_objects); ("100 different keys", 100); keys1000;
          ])
      classes
  in
  let fig8 (part, tag, kind) =
    List.map
      (panel
         (8, "narrow ranges and set clustering, 1000 different keys")
         ~part ~kind keys1000
         ~name:(Printf.sprintf "fig8_%s_%dsets" tag))
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
          ("range = 0.5% of keyspace", "range0_5_", Range 0.005);
          ("range = 0.2% of keyspace", "range0_2_", Range 0.002);
          ( "near vs non-near queried sets, range = 10%, 1000 keys",
            "near",
            Range 0.10 );
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
  List.filter_map
    (fun (holds, claim) -> if holds then None else Some claim)
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
