(* Unit tests for the observability layer: the JSON codec, the metrics
   registry, the monotonic clock, and the tracing spans/sinks/compaction. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- JSON ---------------------------------------------------------------- *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("yes", Json.Bool true);
      ("n", Json.Int (-42));
      ("f", Json.Float 1.5);
      ("s", Json.Str "a\"b\\c\n\t\xe2\x82\xac");
      ("l", Json.List [ Json.Int 1; Json.Str "two"; Json.List [] ]);
      ("o", Json.Obj [ ("k", Json.Int 7) ]);
    ]

let test_json_roundtrip () =
  let s = Json.to_string sample in
  Alcotest.(check bool) "compact round-trip" true (Json.of_string s = sample);
  let m = Json.to_multiline sample in
  Alcotest.(check bool) "multiline round-trip" true (Json.of_string m = sample);
  Alcotest.(check bool)
    "multiline has one member per line" true
    (List.length (String.split_on_char '\n' (String.trim m)) >= 7)

let test_json_parse () =
  Alcotest.(check bool)
    "unicode escape" true
    (Json.of_string {|"€"|} = Json.Str "\xe2\x82\xac");
  Alcotest.(check bool)
    "numbers" true
    (Json.of_string "[0, -7, 2.5, 1e3]"
    = Json.List [ Json.Int 0; Json.Int (-7); Json.Float 2.5; Json.Float 1000. ]);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | v ->
          Alcotest.failf "parsed %S to %s" bad (Json.to_string v))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ]

let test_json_accessors () =
  Alcotest.(check (option int)) "member/to_int" (Some 7)
    (Option.bind (Json.member "o" sample) (Json.member "k")
    |> Fun.flip Option.bind Json.to_int);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" sample = None)

(* --- metrics ------------------------------------------------------------- *)

let test_counters_gauges () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r ~subsystem:"t" "events" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter value" 5 (Metrics.value c);
  (* registration is idempotent: same instrument comes back *)
  let c' = Metrics.counter ~registry:r ~subsystem:"t" "events" in
  Metrics.incr c';
  Alcotest.(check int) "same instrument" 6 (Metrics.value c);
  (* but a kind clash is a programming error *)
  (match Metrics.gauge ~registry:r ~subsystem:"t" "events" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted");
  let g = Metrics.gauge ~registry:r ~subsystem:"t" "level" in
  Metrics.set g 3;
  Metrics.set g 9;
  Alcotest.(check int) "gauge last-wins" 9 (Metrics.gauge_value g);
  Alcotest.(check (option int)) "find counter" (Some 6)
    (Metrics.find r "t.events");
  Alcotest.(check (option int)) "find gauge" (Some 9) (Metrics.find r "t.level");
  Alcotest.(check (option int)) "find unknown" None (Metrics.find r "t.nope");
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.value c);
  Alcotest.(check int) "reset zeroes gauges" 0 (Metrics.gauge_value g)

let test_histogram () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r ~subsystem:"t" "lat" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 100; -5 ];
  let s = Metrics.summary h in
  Alcotest.(check int) "count" 7 s.Metrics.count;
  Alcotest.(check int) "sum clamps negatives" 110 s.Metrics.sum;
  Alcotest.(check int) "max" 100 s.Metrics.max_value;
  Alcotest.(check bool) "p50 sane" true (s.Metrics.p50 >= 1 && s.Metrics.p50 <= 4);
  Alcotest.(check bool) "p99 capped at max" true (s.Metrics.p99 <= 100);
  let v = Metrics.observe_span h (fun () -> 42) in
  Alcotest.(check int) "observe_span returns" 42 v;
  Alcotest.(check int) "observe_span observed" 8 (Metrics.summary h).Metrics.count

(* Satellite coverage for the summary export: the histogram JSON must
   carry explicit tail members, not just count/sum — [uindex top] and
   the slow-query tooling read "p99" and "max" by name. *)
let test_histogram_tail_export () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r ~subsystem:"t" "ns" in
  for i = 1 to 100 do
    Metrics.observe h i
  done;
  let j =
    match Json.member "t.ns" (Metrics.to_json r) with
    | Some j -> j
    | None -> Alcotest.fail "t.ns missing from export"
  in
  let get k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "histogram export missing %S" k
  in
  Alcotest.(check int) "max" 100 (get "max");
  Alcotest.(check bool) "p99 near tail" true (get "p99" >= 90);
  Alcotest.(check bool) "p99 <= max" true (get "p99" <= get "max");
  Alcotest.(check bool) "p50 < p99" true (get "p50" < get "p99");
  let table = Format.asprintf "%a" Metrics.pp r in
  List.iter
    (fun needle ->
      if not (contains table needle) then
        Alcotest.failf "missing %S in:\n%s" needle table)
    [ "p99<="; "max=100" ]

let test_counters_json_delta () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r ~subsystem:"t" "events" in
  let g = Metrics.gauge ~registry:r ~subsystem:"t" "depth" in
  let h = Metrics.histogram ~registry:r ~subsystem:"t" "ns" in
  Metrics.add c 3;
  Metrics.set g 9;
  Metrics.observe h 5;
  let before = Metrics.counters_json r in
  (* counters only: gauges and histograms must stay out of the monotone
     subset, else a shrinking queue would read as a regression *)
  Alcotest.(check bool) "gauge excluded" true
    (Json.member "t.depth" before = None);
  Alcotest.(check bool) "histogram excluded" true
    (Json.member "t.ns" before = None);
  Alcotest.(check (option int)) "counter present" (Some 3)
    (Option.bind (Json.member "t.events" before) Json.to_int);
  Metrics.add c 4;
  let c2 = Metrics.counter ~registry:r ~subsystem:"t" "late" in
  Metrics.incr c2;
  let after = Metrics.counters_json r in
  let d = Metrics.delta ~before ~after in
  Alcotest.(check (option int)) "delta" (Some 4) (List.assoc_opt "t.events" d);
  (* a counter born after the snapshot diffs against 0 *)
  Alcotest.(check (option int)) "new counter" (Some 1)
    (List.assoc_opt "t.late" d)

let test_metrics_export () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r ~subsystem:"pager" "reads" in
  Metrics.add c 12;
  let h = Metrics.histogram ~registry:r ~subsystem:"exec" "ns" in
  Metrics.observe h 1000;
  let j = Metrics.to_json r in
  Alcotest.(check (option int)) "counter in json" (Some 12)
    (Option.bind (Json.member "pager.reads" j) Json.to_int);
  Alcotest.(check (option int)) "histogram count in json" (Some 1)
    (Option.bind (Json.member "exec.ns" j) (Json.member "count")
    |> Fun.flip Option.bind Json.to_int);
  (* the table renders every instrument, grouped by subsystem *)
  let table = Format.asprintf "%a" Metrics.pp r in
  List.iter
    (fun needle ->
      if not (contains table needle) then
        Alcotest.failf "missing %S in:\n%s" needle table)
    [ "pager.reads"; "exec.ns"; "[pager]"; "[exec]" ]

(* --- clock --------------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 100_000 do
    let t = Obs.Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went back: %d after %d" t !prev;
    prev := t
  done;
  let t0 = Obs.Clock.now_ns () in
  Unix.sleepf 0.002;
  let dt = Obs.Clock.since_ns t0 in
  if dt < 2_000_000 then Alcotest.failf "2 ms sleep measured as %d ns" dt

(* --- tracing ------------------------------------------------------------- *)

let test_span_tree () =
  let root = Trace.span "query" in
  let a = Trace.span ~fields:[ ("page_reads", 3) ] "descent" in
  let b = Trace.span "descent" in
  Trace.add_field b "page_reads" 4;
  Trace.add_field b "page_reads" 5 (* replace, not append *);
  Trace.add_child root a;
  Trace.add_child root b;
  Alcotest.(check (option int)) "field" (Some 5) (Trace.field b "page_reads");
  Alcotest.(check int) "total over subtree" 8 (Trace.total root "page_reads");
  Alcotest.(check int) "total of absent field" 0 (Trace.total root "zzz");
  let txt = Format.asprintf "%a" Trace.pp root in
  Alcotest.(check bool) "pp mentions fields" true (contains txt "page_reads=5");
  let j = Trace.to_json root in
  match Json.member "children" j with
  | Some (Json.List [ _; _ ]) -> ()
  | _ -> Alcotest.fail "json children"

(* --- slow-log compaction --------------------------------------------------- *)

let rec max_width (sp : Trace.span) =
  List.fold_left
    (fun m c -> max m (max_width c))
    (List.length sp.Trace.children) sp.Trace.children

let rec size (sp : Trace.span) =
  List.fold_left (fun n c -> n + size c) 1 sp.Trace.children

let rec field_names (sp : Trace.span) =
  List.sort_uniq compare
    (List.map fst sp.Trace.fields
    @ List.concat_map field_names sp.Trace.children)

(* a seeded random tree: up to [width] children per node, [depth] levels,
   each span carrying a random subset of three fields *)
let random_tree rng ~width ~depth =
  let rec go d =
    let fields =
      List.filter_map
        (fun k ->
          if Random.State.bool rng then Some (k, Random.State.int rng 1000)
          else None)
        [ "page_reads"; "entries"; "accepted" ]
    in
    let sp = Trace.span ~fields (if d = 0 then "query" else "descent") in
    if d < depth then
      Trace.add_children sp
        (List.init (Random.State.int rng (width + 1)) (fun _ -> go (d + 1)));
    sp
  in
  go 0

let test_compact_within_bound () =
  let root = Trace.span ~fields:[ ("page_reads", 1) ] "query" in
  Trace.add_children root
    (List.init Trace.max_children (fun i ->
         let c = Trace.span ~fields:[ ("page_reads", i) ] "descent" in
         Trace.add_child c (Trace.span "leaf");
         c));
  let c = Trace.compact root in
  Alcotest.(check bool) "same tree back" true (c == root)

let test_compact_folds_tail () =
  let n = 200 in
  let root = Trace.span "query" in
  Trace.add_child root (Trace.span "plan");
  Trace.add_children root
    (List.init n (fun i ->
         let c =
           Trace.span ~fields:[ ("page_reads", i); ("entries", 2 * i) ] "descent"
         in
         (* every child has one grandchild, so folded subtrees count twice *)
         Trace.add_child c (Trace.span ~fields:[ ("entries", 1) ] "inner");
         c));
  let c = Trace.compact root in
  Alcotest.(check int) "bounded width" Trace.max_children (max_width c);
  let kept = Trace.max_children - 1 in
  Alcotest.(check bool) "first children kept in order" true
    (List.filteri (fun i _ -> i < kept) c.Trace.children
    = List.filteri (fun i _ -> i < kept) root.Trace.children);
  let last = List.nth c.Trace.children kept in
  Alcotest.(check string) "tail elided" "elided" last.Trace.name;
  (* the plan span plus [n] descents, of which [kept - 1] survive *)
  let folded_children = n + 1 - kept in
  Alcotest.(check (option int)) "elided.spans counts folded subtrees"
    (Some (2 * folded_children)) (Trace.field last "spans");
  Alcotest.(check int) "spans folded away"
    (size root - size c + 1) (2 * folded_children);
  List.iter
    (fun k ->
      Alcotest.(check int) ("total " ^ k) (Trace.total root k)
        (Trace.total c k))
    [ "page_reads"; "entries" ];
  Alcotest.(check bool) "idempotent" true (Trace.compact c == c)

let test_compact_random_trees () =
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 100 do
    let sp = random_tree rng ~width:150 ~depth:2 in
    let c = Trace.compact sp in
    if max_width c > Trace.max_children then
      Alcotest.failf "width %d after compact" (max_width c);
    List.iter
      (fun k ->
        Alcotest.(check int) ("total " ^ k) (Trace.total sp k)
          (Trace.total c k))
      (field_names sp);
    (* each elided span stands for the spans it replaced *)
    let rec n_elided (s : Trace.span) =
      List.fold_left
        (fun n c -> n + n_elided c)
        (if s.Trace.name = "elided" then 1 else 0)
        s.Trace.children
    in
    Alcotest.(check int) "spans conserved" (size sp)
      (size c - n_elided c + Trace.total c "spans");
    let cc = Trace.compact c in
    Alcotest.(check bool) "idempotent" true (cc == c)
  done

let test_sinks () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Alcotest.(check bool) "default scope off" true (Trace.scope () = None);
  let sink = Trace.collector () in
  Trace.emit sink (Trace.span "a");
  Trace.emit sink (Trace.span "b");
  Alcotest.(check (list string)) "collected in order" [ "a"; "b" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.collected sink));
  let (), spans =
    Trace.with_collector (fun () ->
        (match Trace.scope () with
        | Some s -> Trace.emit s (Trace.span "inside")
        | None -> Alcotest.fail "collector not installed"))
  in
  Alcotest.(check int) "with_collector captures" 1 (List.length spans);
  Alcotest.(check bool) "global restored" true (Trace.scope () = None)

(* Four domains trace concurrently, each into its own collector: the
   domain-local override means no domain ever sees another's spans. *)
let test_domain_isolated_collectors () =
  let per_domain = 200 in
  let work d () =
    let (), spans =
      Trace.with_collector (fun () ->
          for _i = 1 to per_domain do
            match Trace.scope () with
            | Some sink ->
                Trace.emit sink
                  (Trace.span ~fields:[ ("domain", d) ] (Printf.sprintf "d%d" d))
            | None -> Alcotest.fail "collector not installed"
          done)
    in
    spans
  in
  let domains = List.init 4 (fun d -> Domain.spawn (work d)) in
  List.iteri
    (fun d dom ->
      let spans = Domain.join dom in
      Alcotest.(check int)
        (Printf.sprintf "domain %d span count" d)
        per_domain (List.length spans);
      List.iter
        (fun (s : Trace.span) ->
          if Trace.field s "domain" <> Some d then
            Alcotest.failf "domain %d saw foreign span %s" d s.Trace.name)
        spans)
    domains;
  Alcotest.(check bool) "main domain unaffected" true (Trace.scope () = None)

(* A deliberately shared global collector: emission is a CAS push, so
   four domains hammering one sink must lose nothing. *)
let test_shared_global_collector () =
  let per_domain = 500 in
  let sink = Trace.collector () in
  Fun.protect
    ~finally:(fun () -> Trace.set_global Trace.null)
    (fun () ->
      Trace.set_global sink;
      let work d () =
        for _i = 1 to per_domain do
          match Trace.scope () with
          | Some s -> Trace.emit s (Trace.span ~fields:[ ("d", d) ] "op")
          | None -> Alcotest.fail "global sink not visible"
        done
      in
      let domains = List.init 4 (fun d -> Domain.spawn (work d)) in
      List.iter Domain.join domains;
      let spans = Trace.collected sink in
      Alcotest.(check int) "no lost spans" (4 * per_domain) (List.length spans);
      List.iteri
        (fun d () ->
          Alcotest.(check int)
            (Printf.sprintf "domain %d contribution" d)
            per_domain
            (List.length
               (List.filter
                  (fun s -> Trace.field s "d" = Some d)
                  spans)))
        [ (); (); (); () ])

(* --- ring ---------------------------------------------------------------- *)

let test_ring_eviction () =
  let r = Obs.Ring.create 3 in
  Alcotest.(check int) "capacity" 3 (Obs.Ring.capacity r);
  Alcotest.(check (list int)) "empty" [] (Obs.Ring.to_list r);
  Obs.Ring.add r 1;
  Obs.Ring.add r 2;
  Alcotest.(check (list int)) "newest first" [ 2; 1 ] (Obs.Ring.to_list r);
  Obs.Ring.add r 3;
  Obs.Ring.add r 4;
  (* 1 evicted: the ring keeps the most recent capacity elements *)
  Alcotest.(check (list int)) "evicts oldest" [ 4; 3; 2 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Obs.Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Obs.Ring.to_list r);
  Obs.Ring.add r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Obs.Ring.to_list r)

let test_ring_edge_caps () =
  (* capacity 0 is the legal "disabled" ring *)
  let z = Obs.Ring.create 0 in
  Obs.Ring.add z 1;
  Obs.Ring.add z 2;
  Alcotest.(check (list int)) "cap 0 drops all" [] (Obs.Ring.to_list z);
  Alcotest.(check int) "cap 0 length" 0 (Obs.Ring.length z);
  (match Obs.Ring.create (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity accepted");
  (* concurrent adds under the mutex keep the count exact *)
  let r = Obs.Ring.create 64 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              Obs.Ring.add r ((d * 1000) + i)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "full after concurrent adds" 64 (Obs.Ring.length r)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "histograms" `Quick test_histogram;
          Alcotest.test_case "tail export" `Quick test_histogram_tail_export;
          Alcotest.test_case "counters_json delta" `Quick
            test_counters_json_delta;
          Alcotest.test_case "export" `Quick test_metrics_export;
        ] );
      ( "clock",
        [ Alcotest.test_case "never decreases" `Quick test_clock_monotonic ] );
      ( "trace",
        [
          Alcotest.test_case "span trees" `Quick test_span_tree;
          Alcotest.test_case "sinks" `Quick test_sinks;
          Alcotest.test_case "domain-isolated collectors" `Quick
            test_domain_isolated_collectors;
          Alcotest.test_case "shared global collector" `Quick
            test_shared_global_collector;
          Alcotest.test_case "compact: within bound" `Quick
            test_compact_within_bound;
          Alcotest.test_case "compact: folds the tail" `Quick
            test_compact_folds_tail;
          Alcotest.test_case "compact: random trees" `Quick
            test_compact_random_trees;
        ] );
      ( "ring",
        [
          Alcotest.test_case "eviction order" `Quick test_ring_eviction;
          Alcotest.test_case "edge capacities" `Quick test_ring_edge_caps;
        ] );
    ]
