(* The sharding subsystem end to end: shard-map validation and
   round-tripping, the splitter's exact partition of a real index, the
   planner's interval intersection on subtree boundaries, and — the
   heart of it — a differential run of 500+ generated queries through a
   3-shard scatter-gather router against the unsharded engine, with the
   per-shard request counters proving pruning is exact, not heuristic.
   Partial failure (a dead shard) must surface as a typed
   [shard_failure], and a unanimously unroutable query must pass the
   shards' own error through untouched.  The router serves through the
   service's request pipeline, so trace-id echo and the slow-query log
   behave exactly as on a plain server. *)

module Dg = Workload.Datagen
module Ps = Workload.Paper_schema
module Db = Uindex.Db
module Index = Uindex.Index
module Query = Uindex.Query
module Qparse = Uindex.Qparse
module Value = Objstore.Value
module Json = Obs.Json
module Encoding = Oodb_schema.Encoding
module Service = Uindex_server.Service
module Protocol = Uindex_server.Protocol
module Client = Uindex_server.Client
module Smap = Uindex_shard.Shard_map
module Planner = Uindex_shard.Planner
module Splitter = Uindex_shard.Splitter
module Router = Uindex_shard.Router
module Endpoint = Uindex_server.Endpoint
module Quarantine = Uindex_server.Quarantine
module Pager = Storage.Pager
module Verify = Uindex.Verify

let mkshard ?hi ?file ?endpoint lo = { Smap.lo; hi; file; endpoint }

let count_sub hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
  in
  go 0 0

let map_of_boundaries bounds =
  let rec go lo = function
    | [] -> [ mkshard lo ]
    | b :: rest -> mkshard ~hi:b lo :: go b rest
  in
  Smap.make (go "" bounds)

(* One store, one unsharded service, and a [shards]-way fleet of
   in-process shard services behind a router, all over the same data. *)
type fleet = {
  ext : Ps.extended;
  map : Smap.t;
  unsharded : Service.t;
  services : Service.t array;
  router : Router.t;
}

(* [damage i pager] runs on shard [i]'s colour-index pager once the
   shard is loaded. *)
let make_fleet ?(n_vehicles = 600) ?(seed = 7) ?(shards = 3)
    ?(checksums = false) ?(damage = fun _ _ -> ()) () =
  let e = Dg.exp1 ~n_vehicles ~seed () in
  let ext = e.Dg.ext in
  let b = ext.Ps.b in
  let db0 = Db.create e.Dg.store in
  Db.attach_index db0 e.Dg.ch_color;
  Db.attach_index db0 e.Dg.path_age;
  let unsharded = Service.create ~schema:b.Ps.schema db0 in
  let bounds = Splitter.choose_boundaries ~source:e.Dg.ch_color ~shards in
  let map = map_of_boundaries bounds in
  let services =
    Array.init (Smap.count map) (fun i ->
        let db = Db.create e.Dg.store in
        let pager = Pager.create ~checksums () in
        Db.attach_index db (Splitter.restrict ~source:e.Dg.ch_color map i pager);
        damage i pager;
        Db.attach_index db
          (Splitter.restrict ~source:e.Dg.path_age map i (Storage.Pager.create ()));
        Service.create ~schema:b.Ps.schema db)
  in
  let backends = Array.map (fun s -> Router.Local s) services in
  let router =
    Router.create ~schema:b.Ps.schema ~enc:b.Ps.enc ~map ~backends ()
  in
  { ext; map; unsharded; services; router }

(* A deterministic query mix covering every pattern and value form the
   wire syntax can express: exact/subtree/union class patterns times
   exact/set/range/open-range values on the class-hierarchy index, plus
   path queries with varying component patterns and ages. *)
let query_mix ext =
  let b = ext.Ps.b in
  let classes =
    [
      b.Ps.vehicle;
      b.Ps.automobile;
      b.Ps.compact;
      b.Ps.truck;
      ext.Ps.bus;
      ext.Ps.military_bus;
      ext.Ps.tourist_bus;
      ext.Ps.passenger_bus;
      ext.Ps.foreign_auto;
      ext.Ps.service_auto;
      ext.Ps.heavy_truck;
      ext.Ps.light_truck;
    ]
  in
  let pats =
    List.concat_map (fun c -> [ Query.P_class c; Query.P_subtree c ]) classes
    @ [
        Query.P_union [ Query.P_subtree ext.Ps.bus; Query.P_subtree b.Ps.truck ];
        Query.P_union
          [ Query.P_class b.Ps.compact; Query.P_subtree ext.Ps.military_bus ];
        Query.P_union
          [ Query.P_subtree b.Ps.automobile; Query.P_class b.Ps.vehicle ];
        Query.P_union
          [
            Query.P_class ext.Ps.heavy_truck;
            Query.P_class ext.Ps.light_truck;
            Query.P_subtree ext.Ps.passenger_bus;
          ];
      ]
  in
  let colors = Array.to_list Ps.colors in
  let values =
    (Query.V_any :: List.map (fun c -> Query.V_eq (Value.Str c)) colors)
    @ [
        Query.V_in [ Value.Str "Red"; Value.Str "Blue" ];
        Query.V_range (Some (Value.Str "B"), Some (Value.Str "H"));
        Query.V_range (None, Some (Value.Str "M"));
        Query.V_range (Some (Value.Str "R"), None);
      ]
  in
  let ch =
    List.concat_map
      (fun v -> List.map (fun p -> Query.class_hierarchy ~value:v p) pats)
      values
  in
  let path_comps =
    [
      [ b.Ps.employee, `Sub; b.Ps.company, `Sub; b.Ps.vehicle, `Sub ];
      [ b.Ps.employee, `Exact; b.Ps.company, `Sub; b.Ps.vehicle, `Sub ];
      [ b.Ps.employee, `Sub; b.Ps.japanese_auto_company, `Sub; b.Ps.vehicle, `Sub ];
      [ b.Ps.employee, `Sub; b.Ps.auto_company, `Sub; b.Ps.automobile, `Sub ];
      [ b.Ps.employee, `Sub; b.Ps.truck_company, `Sub; b.Ps.truck, `Sub ];
      [ b.Ps.employee, `Sub; b.Ps.company, `Exact; ext.Ps.bus, `Sub ];
      [ b.Ps.employee, `Sub; b.Ps.company, `Sub; b.Ps.compact, `Exact ];
    ]
  in
  let ages =
    (Query.V_any
    :: List.init 30 (fun i -> Query.V_eq (Value.Int (20 + i))))
    @ [
        Query.V_range (Some (Value.Int 30), Some (Value.Int 40));
        Query.V_range (Some (Value.Int 55), None);
      ]
  in
  let comp (c, k) =
    Query.comp
      (match k with `Sub -> Query.P_subtree c | `Exact -> Query.P_class c)
  in
  let paths =
    List.concat_map
      (fun v ->
        List.map (fun cs -> Query.path ~value:v (List.map comp cs)) path_comps)
      ages
  in
  ch @ paths

(* --- shard map --------------------------------------------------------- *)

let expect_invalid name shards =
  match Smap.make shards with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_map_validation () =
  expect_invalid "empty map" [];
  expect_invalid "first lo nonempty" [ mkshard "a" ];
  expect_invalid "gap between ranges" [ mkshard ~hi:"b" ""; mkshard "c" ];
  expect_invalid "overlap" [ mkshard ~hi:"c" ""; mkshard "b" ];
  expect_invalid "empty range" [ mkshard ~hi:"b" ""; mkshard ~hi:"b" "b"; mkshard "b" ];
  expect_invalid "unbounded non-last" [ mkshard ""; mkshard "b" ];
  expect_invalid "bounded last" [ mkshard ~hi:"b" "" ];
  let m = Smap.make [ mkshard ~hi:"b" ""; mkshard ~hi:"d" "b"; mkshard "d" ] in
  Alcotest.(check int) "count" 3 (Smap.count m);
  Alcotest.(check int) "locate below" 0 (Smap.locate m "a");
  Alcotest.(check int) "locate on boundary" 1 (Smap.locate m "b");
  Alcotest.(check int) "locate inside" 1 (Smap.locate m "c");
  Alcotest.(check int) "locate top" 2 (Smap.locate m "zz");
  Alcotest.(check (list int)) "intersecting one" [ 1 ]
    (Smap.intersecting m [ ("b", "c") ]);
  Alcotest.(check (list int)) "intersecting span" [ 0; 1; 2 ]
    (Smap.intersecting m [ ("a", "e") ]);
  Alcotest.(check (list int)) "empty interval" []
    (Smap.intersecting m [ ("c", "c") ]);
  Alcotest.(check (list int)) "no intervals" [] (Smap.intersecting m [])

let test_map_roundtrip () =
  (* real serialized codes carry 0x02 unit terminators; they must
     survive JSON and the filesystem byte-exactly *)
  let ext = Ps.extended () in
  let b = ext.Ps.b in
  let bound c = fst (Encoding.subtree_interval b.Ps.enc c) in
  let b1, b2 =
    let x = bound ext.Ps.bus and y = bound b.Ps.truck in
    if x < y then (x, y) else (y, x)
  in
  let m =
    Smap.make
      [
        mkshard ~hi:b1 ~file:"s0.pages"
          ~endpoint:(Endpoint.Tcp ("10.0.0.1", 4000)) "";
        mkshard ~hi:b2 ~file:"s1.pages" b1;
        mkshard ~endpoint:(Endpoint.Unix_sock "/tmp/s2.sock") b2;
      ]
  in
  let m' = Smap.of_json (Smap.to_json m) in
  Alcotest.(check string) "json round-trip"
    (Json.to_string (Smap.to_json m))
    (Json.to_string (Smap.to_json m'));
  let file = Filename.temp_file "uindex_shard" ".map.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Smap.save m file;
      let m'' = Smap.load file in
      Alcotest.(check string) "file round-trip"
        (Json.to_string (Smap.to_json m))
        (Json.to_string (Smap.to_json m'')));
  match Smap.of_json (Json.Obj [ ("shards", Json.List []) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_json accepted an empty cover"

(* Endpoints are checked when the map is read: a host name is refused
   there, naming the shard, instead of failing every query routed to
   it. *)
let test_map_bad_endpoint () =
  let shard lo hi endpoint =
    Json.Obj
      [
        ("lo", Json.Str lo);
        ("hi", Option.fold ~none:Json.Null ~some:(fun h -> Json.Str h) hi);
        ("file", Json.Null);
        ("endpoint", Json.Str endpoint);
      ]
  in
  let doc =
    Json.Obj
      [
        ( "shards",
          Json.List
            [
              shard "" (Some "B") "127.0.0.1:4000"; shard "B" None "h0:4000";
            ] );
      ]
  in
  match Smap.of_json doc with
  | _ -> Alcotest.fail "of_json accepted endpoint h0:4000"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names shard 1: " ^ msg) true
        (count_sub msg "shard 1" > 0 && count_sub msg "h0:4000" > 0)

(* --- splitter ---------------------------------------------------------- *)

let test_splitter_partition () =
  let e = Dg.exp1 ~n_vehicles:400 ~seed:11 () in
  let bounds = Splitter.choose_boundaries ~source:e.Dg.ch_color ~shards:3 in
  Alcotest.(check int) "boundary count" 2 (List.length bounds);
  let map = map_of_boundaries bounds in
  let parts =
    Splitter.split ~source:e.Dg.ch_color
      ~make_pager:(fun _ -> Storage.Pager.create ())
      map
  in
  let total =
    Array.fold_left (fun acc ix -> acc + Index.entry_count ix) 0 parts
  in
  Alcotest.(check int) "totality" (Index.entry_count e.Dg.ch_color) total;
  Array.iteri
    (fun i ix ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d nonempty" i)
        true
        (Index.entry_count ix > 0);
      ignore (Btree.check_invariants (Index.tree ix));
      Btree.iter (Index.tree ix) (fun en ->
          let sk = Splitter.shard_key ~ty:(Index.attr_ty ix) en.Btree.key in
          if Smap.locate map sk <> i then
            Alcotest.failf "shard %d holds an out-of-range entry" i))
    parts

(* --- planner ----------------------------------------------------------- *)

let test_planner_intervals () =
  let ext = Ps.extended () in
  let b = ext.Ps.b in
  let enc = b.Ps.enc in
  Alcotest.(check int) "P_union [] admits nothing" 0
    (List.length (Planner.code_intervals enc (Query.P_union [])));
  (* duplicate members merge away *)
  Alcotest.(check int) "idempotent union" 1
    (List.length
       (Planner.code_intervals enc
          (Query.P_union
             [ Query.P_subtree ext.Ps.bus; Query.P_subtree ext.Ps.bus ])));
  (* an exact interval inside its own subtree merges into it *)
  let sub = Planner.code_intervals enc (Query.P_subtree b.Ps.vehicle) in
  let merged =
    Planner.code_intervals enc
      (Query.P_union [ Query.P_class b.Ps.vehicle; Query.P_subtree b.Ps.vehicle ])
  in
  Alcotest.(check bool) "exact absorbed by subtree" true (sub = merged)

let test_planner_boundary () =
  let ext = Ps.extended () in
  let b = ext.Ps.b in
  let enc = b.Ps.enc in
  (* split exactly on the Bus subtree boundary: the bare serialized
     code of Bus, below every Bus-subtree shard key *)
  let boundary = fst (Encoding.subtree_interval enc ext.Ps.bus) in
  let m = map_of_boundaries [ boundary ] in
  let route pat =
    Planner.route m enc (Query.class_hierarchy ~value:Query.V_any pat)
  in
  Alcotest.(check (list int)) "bus subtree above the cut" [ 1 ]
    (route (Query.P_subtree ext.Ps.bus));
  Alcotest.(check (list int)) "bus exactly" [ 1 ] (route (Query.P_class ext.Ps.bus));
  Alcotest.(check (list int)) "bus descendant" [ 1 ]
    (route (Query.P_class ext.Ps.military_bus));
  Alcotest.(check (list int)) "vehicle root below the cut" [ 0 ]
    (route (Query.P_class b.Ps.vehicle));
  Alcotest.(check (list int)) "vehicle subtree spans the cut" [ 0; 1 ]
    (route (Query.P_subtree b.Ps.vehicle));
  Alcotest.(check (list int)) "empty union routes nowhere" []
    (route (Query.P_union []))

(* --- router ------------------------------------------------------------ *)

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Json.to_string doc)

let test_router_empty_union () =
  let f = make_fleet ~n_vehicles:200 () in
  let q = Query.class_hierarchy ~value:Query.V_any (Query.P_union []) in
  Alcotest.(check (list int)) "routes nowhere" [] (Router.route_query f.router q);
  let reply = Router.respond f.router q in
  let d = Json.of_string reply in
  Alcotest.(check bool) "ok" true (Protocol.response_is_ok d);
  Alcotest.(check (option int)) "count 0" (Some 0)
    (Json.to_int (member_exn "count" d));
  Alcotest.(check (option int)) "no rows" (Some 0)
    (Option.map List.length (Json.to_list (member_exn "rows" d)));
  Alcotest.(check (array int)) "no shard contacted"
    (Array.make (Smap.count f.map) 0)
    (Router.requests_per_shard f.router)

let test_router_all_shards () =
  let f = make_fleet ~n_vehicles:200 () in
  let q =
    Query.class_hierarchy ~value:Query.V_any (Query.P_subtree f.ext.Ps.b.Ps.vehicle)
  in
  Alcotest.(check (list int)) "vehicle subtree spans every shard"
    (List.init (Smap.count f.map) Fun.id)
    (Router.route_query f.router q)

let test_differential () =
  let f = make_fleet () in
  let schema = f.ext.Ps.b.Ps.schema in
  (* a second, untraced router over the same shards: telemetry never
     changes reply bytes, through the router either *)
  let dark =
    Router.create
      ~telemetry:{ Service.default_telemetry with tracing = false }
      ~schema ~enc:f.ext.Ps.b.Ps.enc ~map:f.map
      ~backends:(Array.map (fun s -> Router.Local s) f.services)
      ()
  in
  let qs = query_mix f.ext in
  Alcotest.(check bool) "mix is large enough" true (List.length qs >= 500);
  let expected = Array.make (Smap.count f.map) 0 in
  let single = ref 0 and full = ref 0 and ok = ref 0 in
  List.iter
    (fun q ->
      let text = Qparse.to_syntax schema q in
      let line = "query " ^ text in
      (match Qparse.parse schema text with
      | exception Qparse.Parse_error _ -> ()
      | q' ->
          let targets = Router.route_query f.router q' in
          List.iter (fun i -> expected.(i) <- expected.(i) + 1) targets;
          (match targets with
          | [ _ ] -> incr single
          | l when List.length l = Smap.count f.map -> incr full
          | _ -> ()));
      let a = Service.serve_line f.unsharded line in
      let r = Router.serve_line f.router line in
      Alcotest.(check string)
        (Printf.sprintf "untraced reply for %s" text)
        r
        (Router.serve_line dark line);
      if Protocol.response_is_ok (Json.of_string a) then incr ok;
      Alcotest.(check string)
        (Printf.sprintf "reply for %s" text)
        (Router.canonical_projection a)
        (Router.canonical_projection r))
    qs;
  Alcotest.(check (array int)) "pruning is exact" expected
    (Router.requests_per_shard f.router);
  Alcotest.(check bool) "mix has single-shard queries" true (!single > 0);
  Alcotest.(check bool) "mix has full fan-outs" true (!full > 0);
  Alcotest.(check bool) "mix mostly answers" true
    (!ok * 2 > List.length qs)

let test_single_shard_bypass () =
  let f = make_fleet ~n_vehicles:300 () in
  let schema = f.ext.Ps.b.Ps.schema in
  (* find a class pattern routed to exactly one shard *)
  let q, i =
    let cs = Ps.vehicle_leaf_classes f.ext in
    let rec pick k =
      if k >= Array.length cs then Alcotest.fail "no single-shard class"
      else
        let q =
          Query.class_hierarchy ~value:(Query.V_eq (Value.Str "Red"))
            (Query.P_class cs.(k))
        in
        match Router.route_query f.router q with
        | [ i ] -> (q, i)
        | _ -> pick (k + 1)
    in
    pick 0
  in
  let line = "@beef query " ^ Qparse.to_syntax schema q in
  (* warm the shard's cache so cost fields are stable, then the
     router's reply must be byte-identical to the shard's own — trace
     id, cost fields and all: the shard's answer with no merge, rendered
     once by the router's pipeline *)
  ignore (Service.serve_line f.services.(i) line);
  let direct = Service.serve_line f.services.(i) line in
  let via = Router.serve_line f.router line in
  Alcotest.(check string) "forwarded bytes untouched" direct via;
  Alcotest.(check (option string)) "trace id echoed" (Some "beef")
    (Json.to_str (member_exn "trace_id" (Json.of_string via)))

let test_partial_failure () =
  let f = make_fleet ~n_vehicles:300 () in
  let b = f.ext.Ps.b in
  let dead =
    Endpoint.Unix_sock
      (Filename.concat (Filename.get_temp_dir_name ()) "uindex-no-such.sock")
  in
  let backends =
    Array.mapi
      (fun i s -> if i = 1 then Router.Remote dead else Router.Local s)
      f.services
  in
  let policy =
    { Client.default_retry_policy with attempts = 1; base_delay = 0.001 }
  in
  let router =
    Router.create ~retry_policy:policy ~schema:b.Ps.schema ~enc:b.Ps.enc
      ~map:f.map ~backends ()
  in
  (* spans every shard, so the dead one is contacted *)
  let spanning =
    "query " ^ Qparse.to_syntax b.Ps.schema
      (Query.class_hierarchy ~value:Query.V_any (Query.P_subtree b.Ps.vehicle))
  in
  let d = Json.of_string (Router.serve_line router spanning) in
  Alcotest.(check (option string)) "typed partial failure"
    (Some "shard_failure")
    (Protocol.response_error_kind d);
  let detail =
    Option.value ~default:"" (Json.to_str (member_exn "detail" (member_exn "error" d)))
  in
  Alcotest.(check bool) "detail names the lost shard" true
    (count_sub detail "shard 1" > 0);
  (* a query pruned away from the dead shard still answers *)
  let cs = Ps.vehicle_leaf_classes f.ext in
  let rec pick k =
    if k >= Array.length cs then Alcotest.fail "no query avoiding shard 1"
    else
      let q = Query.class_hierarchy ~value:Query.V_any (Query.P_class cs.(k)) in
      match Router.route_query router q with
      | targets when targets <> [] && not (List.mem 1 targets) -> q
      | _ -> pick (k + 1)
  in
  let q = pick 0 in
  let line = "query " ^ Qparse.to_syntax b.Ps.schema q in
  let live = Json.of_string (Router.serve_line router line) in
  Alcotest.(check bool) "pruned query unaffected" true
    (Protocol.response_is_ok live)

let test_unanimous_error_passthrough () =
  let f = make_fleet ~n_vehicles:200 () in
  let b = f.ext.Ps.b in
  (* arity-2 path: no such index anywhere, first component spans every
     shard — all shards reply [unroutable], and that reply (not a
     [shard_failure]) must come back *)
  let q =
    Query.path ~value:Query.V_any
      [ Query.comp (Query.P_subtree b.Ps.vehicle);
        Query.comp (Query.P_subtree b.Ps.company) ]
  in
  Alcotest.(check int) "spans every shard" (Smap.count f.map)
    (List.length (Router.route_query f.router q));
  let line = "query " ^ Qparse.to_syntax b.Ps.schema q in
  let via = Json.of_string (Router.serve_line f.router line) in
  let direct = Json.of_string (Service.serve_line f.unsharded line) in
  Alcotest.(check (option string)) "same error as unsharded"
    (Protocol.response_error_kind direct)
    (Protocol.response_error_kind via);
  Alcotest.(check bool) "is unroutable, not shard_failure" true
    (Protocol.response_error_kind via = Some "unroutable")

(* Deadlines are instants on the monotonic clock: a past one times the
   request out before it runs, a future one lets it answer — through the
   service and through the router alike. *)
let test_monotonic_deadlines () =
  let f = make_fleet ~n_vehicles:300 () in
  let line = "query (Red, Bus*)" in
  let past = Obs.Clock.now_ns () - 1 in
  let future = Obs.Clock.now_ns () + 10_000_000_000 in
  let kind doc = Protocol.response_error_kind doc in
  Alcotest.(check (option string)) "service: past deadline times out"
    (Some "timeout")
    (kind (Json.of_string (Service.serve_line ~deadline:past f.unsharded line)));
  Alcotest.(check (option string)) "router: past deadline times out"
    (Some "timeout")
    (kind (Json.of_string (Router.serve_line ~deadline:past f.router line)));
  let direct =
    Json.of_string (Service.serve_line ~deadline:future f.unsharded line)
  in
  Alcotest.(check (option string)) "service: future deadline answers" None
    (kind direct);
  let via = Json.of_string (Router.serve_line ~deadline:future f.router line) in
  Alcotest.(check (option string)) "router: future deadline answers" None
    (kind via);
  Alcotest.(check (option int)) "same answer" (Json.to_int (member_exn "count" direct))
    (Json.to_int (member_exn "count" via))

(* A class pattern the router sends to exactly one shard. *)
let single_shard_query f router =
  let cs = Ps.vehicle_leaf_classes f.ext in
  let rec pick k =
    if k >= Array.length cs then Alcotest.fail "no single-shard class"
    else
      let q =
        Query.class_hierarchy ~value:(Query.V_eq (Value.Str "Red"))
          (Query.P_class cs.(k))
      in
      match Router.route_query router q with [ _ ] -> q | _ -> pick (k + 1)
  in
  pick 0

(* A damaged page in one in-process shard is contained the way the
   shard's own server contains it: a query routed only there gets the
   shard's typed data_corruption reply byte for byte, the page lands in
   the quarantine, and a fan-out over that shard is a shard_failure
   naming it. *)
let test_corrupt_local_shard () =
  let probe = make_fleet ~n_vehicles:300 ~checksums:true () in
  let b = probe.ext.Ps.b in
  let q = single_shard_query probe probe.router in
  let k = List.hd (Router.route_query probe.router q) in
  let text q = "query " ^ Qparse.to_syntax b.Ps.schema q in
  let line = text q in
  let spanning =
    text (Query.class_hierarchy ~value:Query.V_any (Query.P_subtree b.Ps.vehicle))
  in
  let ch =
    List.find
      (fun i -> Index.arity i = 1)
      (Db.indexes (Service.db probe.services.(k)))
  in
  let reachable = ref [] in
  ignore (Verify.check ~throttle:(fun p -> reachable := p :: !reachable) ch);
  let flip page i pager =
    if i = k then
      ignore
        (Pager.create_faulty
           { Pager.no_faults with media = [ Pager.Flip_bit { page; bit = 9 } ] }
           pager)
  in
  let rec try_page = function
    | [] -> Alcotest.fail "no damaged page produced a data_corruption reply"
    | page :: rest ->
        Quarantine.reset ();
        let f =
          make_fleet ~n_vehicles:300 ~checksums:true ~damage:(flip page) ()
        in
        let reply = Router.serve_line f.router line in
        if
          Protocol.response_error_kind (Json.of_string reply)
          <> Some "data_corruption"
        then try_page rest
        else begin
          Alcotest.(check (list int)) "quarantined page" [ page ]
            (Quarantine.pages ());
          List.iter
            (fun (en : Quarantine.entry) ->
              Alcotest.(check string) "source" "request" en.source)
            (Quarantine.entries ());
          Alcotest.(check string) "the shard's own reply" reply
            (Service.serve_line f.services.(k) line);
          let d = Json.of_string (Router.serve_line f.router spanning) in
          Alcotest.(check (option string)) "fan-out: typed partial failure"
            (Some "shard_failure")
            (Protocol.response_error_kind d);
          let detail =
            Option.value ~default:""
              (Json.to_str (member_exn "detail" (member_exn "error" d)))
          in
          Alcotest.(check int) "fan-out names the damaged shard" 1
            (count_sub detail
               (Printf.sprintf "shard %d (local): data_corruption reply" k))
        end
  in
  try_page (List.sort_uniq (fun a b -> compare b a) !reachable);
  Quarantine.reset ()

(* A port nothing listens on: bound, read back, closed. *)
let refused_endpoint () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Endpoint.Tcp ("127.0.0.1", port)
  | Unix.ADDR_UNIX _ -> assert false

(* Shards at refused TCP endpoints: a single-shard query and a fan-out
   both get a typed shard_failure naming each contacted shard's
   endpoint — never an escaped exception ("not dispatched") or an
   [internal] error. *)
let test_refused_tcp_shards () =
  let f = make_fleet ~n_vehicles:200 () in
  let b = f.ext.Ps.b in
  let endpoints = Array.map (fun _ -> refused_endpoint ()) f.services in
  let router =
    Router.create
      ~retry_policy:
        { Client.default_retry_policy with attempts = 1; base_delay = 0.001 }
      ~schema:b.Ps.schema ~enc:b.Ps.enc ~map:f.map
      ~backends:(Array.map (fun e -> Router.Remote e) endpoints)
      ()
  in
  let spanning =
    Query.class_hierarchy ~value:Query.V_any (Query.P_subtree b.Ps.vehicle)
  in
  List.iter
    (fun (what, q) ->
      let targets = Router.route_query router q in
      let reply =
        Router.serve_line router ("query " ^ Qparse.to_syntax b.Ps.schema q)
      in
      let d = Json.of_string reply in
      Alcotest.(check (option string)) (what ^ ": typed failure")
        (Some "shard_failure")
        (Protocol.response_error_kind d);
      List.iter
        (fun i ->
          let named =
            Printf.sprintf "shard %d (%s)" i (Endpoint.to_string endpoints.(i))
          in
          Alcotest.(check bool) (what ^ ": names " ^ named) true
            (count_sub reply named = 1))
        targets;
      Alcotest.(check int) (what ^ ": nothing undispatched") 0
        (count_sub reply "not dispatched"))
    [
      ("fan-out", spanning); ("single shard", single_shard_query f f.router);
    ]

(* Every reply kind a router produces — admin replies, a merged fan-out,
   a shard_failure and a single shard's answer — echoes the client trace
   id exactly once. *)
let test_router_trace_id_echo () =
  let f = make_fleet ~n_vehicles:300 () in
  let b = f.ext.Ps.b in
  let dead =
    Endpoint.Unix_sock
      (Filename.concat (Filename.get_temp_dir_name ()) "uindex-no-such.sock")
  in
  let crippled =
    Router.create
      ~retry_policy:
        { Client.default_retry_policy with attempts = 1; base_delay = 0.001 }
      ~schema:b.Ps.schema ~enc:b.Ps.enc ~map:f.map
      ~backends:
        (Array.mapi
           (fun i s -> if i = 1 then Router.Remote dead else Router.Local s)
           f.services)
      ()
  in
  let text q = Qparse.to_syntax b.Ps.schema q in
  let spanning =
    "query "
    ^ text
        (Query.class_hierarchy ~value:Query.V_any (Query.P_subtree b.Ps.vehicle))
  in
  let single = "query " ^ text (single_shard_query f f.router) in
  List.iter
    (fun (what, router, line, kind) ->
      let reply = Router.serve_line router ("@beef " ^ line) in
      let d = Json.of_string reply in
      Alcotest.(check (option string)) (what ^ ": reply kind") (Some kind)
        (match Protocol.response_error_kind d with
        | Some k -> Some k
        | None -> Option.bind (Json.member "type" d) Json.to_str);
      Alcotest.(check int) (what ^ ": trace id echoed once") 1
        (count_sub reply {|"trace_id":"beef"|}))
    [
      ("ping", f.router, "ping", "pong");
      ("stats", f.router, "stats", "stats");
      ("health", f.router, "health", "health");
      ("merged fan-out", f.router, spanning, "rows");
      ("shard failure", crippled, spanning, "shard_failure");
      ("single shard", f.router, single, "rows");
    ]

(* A router with a threshold-0 slow log admits every query; each entry's
   span carries the fan-out width, and each entry reports its reply's
   page reads. *)
let test_router_slow_log () =
  let f = make_fleet ~n_vehicles:300 () in
  let b = f.ext.Ps.b in
  let router =
    Router.create
      ~telemetry:{ Service.default_telemetry with slow_threshold_ns = 0 }
      ~schema:b.Ps.schema ~enc:b.Ps.enc ~map:f.map
      ~backends:(Array.map (fun s -> Router.Local s) f.services)
      ()
  in
  let fan_q =
    Query.class_hierarchy ~value:Query.V_any (Query.P_subtree b.Ps.vehicle)
  in
  let line q = "query " ^ Qparse.to_syntax b.Ps.schema q in
  let replies =
    List.map
      (fun q ->
        let reply = Json.of_string (Router.serve_line router (line q)) in
        Alcotest.(check bool) "answers" true (Protocol.response_is_ok reply);
        (q, reply))
      [ fan_q; single_shard_query f router ]
  in
  let log = Router.slow_log_json router in
  Alcotest.(check (option int)) "both admitted" (Some 2)
    (Json.to_int (member_exn "count" log));
  let entries = Option.get (Json.to_list (member_exn "entries" log)) in
  List.iter
    (fun (q, reply) ->
      let entry =
        List.find
          (fun e -> Json.to_str (member_exn "request" e) = Some (line q))
          entries
      in
      Alcotest.(check (option int)) "entry page_reads = reply's"
        (Json.to_int (member_exn "page_reads" reply))
        (Json.to_int (member_exn "page_reads" entry));
      Alcotest.(check (option int)) "span fanout = route width"
        (Some (List.length (Router.route_query router q)))
        (Json.to_int (member_exn "fanout" (member_exn "span" entry))))
    replies

(* A router's health carries the pipeline vitals a server's does: its
   own slow log and tracing switch, not zeros and "off". *)
let test_router_health () =
  let f = make_fleet ~n_vehicles:200 () in
  let b = f.ext.Ps.b in
  let router =
    Router.create
      ~telemetry:{ Service.default_telemetry with slow_capacity = 32 }
      ~schema:b.Ps.schema ~enc:b.Ps.enc ~map:f.map
      ~backends:(Array.map (fun s -> Router.Local s) f.services)
      ()
  in
  let h = Json.of_string (Router.serve_line router "health") in
  Alcotest.(check (option int)) "slow_log.capacity" (Some 32)
    (Json.to_int (member_exn "capacity" (member_exn "slow_log" h)));
  Alcotest.(check bool) "tracing" true
    (member_exn "tracing" h = Json.Bool true);
  Alcotest.(check bool) "gc counters" true
    (Json.to_int (member_exn "heap_words" (member_exn "gc" h)) <> None);
  Alcotest.(check (option string)) "role" (Some "router")
    (Json.to_str (member_exn "role" h))

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "validation" `Quick test_map_validation;
          Alcotest.test_case "round-trip" `Quick test_map_roundtrip;
          Alcotest.test_case "bad endpoint" `Quick test_map_bad_endpoint;
        ] );
      ( "splitter",
        [ Alcotest.test_case "partition" `Quick test_splitter_partition ] );
      ( "planner",
        [
          Alcotest.test_case "intervals" `Quick test_planner_intervals;
          Alcotest.test_case "subtree boundary" `Quick test_planner_boundary;
        ] );
      ( "router",
        [
          Alcotest.test_case "empty union" `Quick test_router_empty_union;
          Alcotest.test_case "all shards" `Quick test_router_all_shards;
          Alcotest.test_case "differential 500+" `Quick test_differential;
          Alcotest.test_case "single-shard bypass" `Quick test_single_shard_bypass;
          Alcotest.test_case "partial failure" `Quick test_partial_failure;
          Alcotest.test_case "corrupt local shard" `Quick
            test_corrupt_local_shard;
          Alcotest.test_case "refused TCP shards" `Quick
            test_refused_tcp_shards;
          Alcotest.test_case "unanimous error" `Quick
            test_unanimous_error_passthrough;
          Alcotest.test_case "monotonic deadlines" `Quick
            test_monotonic_deadlines;
          Alcotest.test_case "trace id echo" `Quick test_router_trace_id_echo;
          Alcotest.test_case "slow log" `Quick test_router_slow_log;
          Alcotest.test_case "health" `Quick test_router_health;
        ] );
    ]
