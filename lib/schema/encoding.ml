exception Cycle of string list

type t = {
  schema : Schema.t;
  codes : (Schema.class_id, Code.t) Hashtbl.t;
  by_ser : (string, Schema.class_id) Hashtbl.t;
  sers : (Schema.class_id, string) Hashtbl.t;  (* [by_ser] inverted *)
  (* [by_ser]'s keys in order, built on first use after a change *)
  mutable sorted : string array option;
  (* next fresh-unit rank per parent; key [-1] is the top level *)
  ranks : (int, int ref) Hashtbl.t;
}

let schema t = t.schema

let code t id =
  match Hashtbl.find_opt t.codes id with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Encoding: class %s has no code"
           (Schema.name t.schema id))

let class_of_serialized t s = Hashtbl.find_opt t.by_ser s
let class_of_code t c = class_of_serialized t (Code.serialize c)

let serialized_codes t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.of_seq (Hashtbl.to_seq_keys t.by_ser) in
      Array.sort String.compare a;
      t.sorted <- Some a;
      a

let serialized t id =
  match Hashtbl.find_opt t.sers id with
  | Some s -> s
  | None -> Code.serialize (code t id)

let subtree_interval t id = Code.serialized_subtree_interval (serialized t id)

let exact_interval t id =
  let s = serialized t id in
  (s ^ Code.component_end, s ^ "\x02")

let rec root_of schema id =
  match Schema.parent schema id with
  | Some p -> root_of schema p
  | None -> id

let sibling_units t parent =
  let sibs =
    match parent with
    | Some p -> Schema.children t.schema p
    | None -> Schema.roots t.schema
  in
  List.filter_map
    (fun s ->
      match Hashtbl.find_opt t.codes s with
      | Some c -> Some (List.hd (List.rev (Code.units c)))
      | None -> None)
    sibs

let fresh_unit t ~parent_key ~taken =
  let r =
    match Hashtbl.find_opt t.ranks parent_key with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.ranks parent_key r;
        r
  in
  let rec pick () =
    let u = Code.unit_of_rank !r in
    incr r;
    if List.mem u taken then pick () else u
  in
  pick ()

let record t id c =
  Hashtbl.replace t.codes id c;
  let s = Code.serialize c in
  Hashtbl.replace t.by_ser s id;
  Hashtbl.replace t.sers id s;
  t.sorted <- None

let rec assign_subtree t id c =
  record t id c;
  List.iter
    (fun child ->
      let u = fresh_unit t ~parent_key:id ~taken:[] in
      assign_subtree t child (Code.child c u))
    (Schema.children t.schema id)

let assign ?ref_edges schema =
  let refs =
    match ref_edges with
    | Some e -> e
    | None -> List.map (fun (s, _, d) -> (s, d)) (Schema.ref_edges schema)
  in
  let roots = Schema.roots schema in
  let lifted =
    List.filter_map
      (fun (src, dst) ->
        let rs = root_of schema src and rd = root_of schema dst in
        if rs = rd then None else Some (rd, rs))
      refs
  in
  let order =
    match Graph.toposort ~nodes:roots ~edges:lifted with
    | Ok o -> o
    | Error cyc -> raise (Cycle (List.map (Schema.name schema) cyc))
  in
  let t =
    {
      schema;
      codes = Hashtbl.create 64;
      by_ser = Hashtbl.create 64;
      sers = Hashtbl.create 64;
      sorted = None;
      ranks = Hashtbl.create 64;
    }
  in
  List.iter
    (fun r ->
      let u = fresh_unit t ~parent_key:(-1) ~taken:[] in
      assign_subtree t r (Code.root u))
    order;
  t

let top_unit t id = List.hd (Code.units (code t (root_of t.schema id)))

let assign_new_class t id =
  if Hashtbl.mem t.codes id then
    invalid_arg "Encoding.assign_new_class: class already encoded";
  match Schema.parent t.schema id with
  | Some p ->
      let u =
        fresh_unit t ~parent_key:p ~taken:(sibling_units t (Some p))
      in
      (* descendants may exist if the caller batched several additions *)
      assign_subtree t id (Code.child (code t p) u)
  | None ->
      (* a new hierarchy root: honour REF constraints against existing
         roots by slotting its top unit between them (Fig. 4b) *)
      let edges = Schema.ref_edges t.schema in
      let lows =
        List.filter_map
          (fun (src, _, dst) ->
            if root_of t.schema src = id && root_of t.schema dst <> id then
              Some (top_unit t dst)
            else None)
          edges
      and highs =
        List.filter_map
          (fun (src, _, dst) ->
            if root_of t.schema dst = id && root_of t.schema src <> id then
              Some (top_unit t src)
            else None)
          edges
      in
      let lower =
        List.fold_left
          (fun acc u -> if String.compare u acc > 0 then u else acc)
          "" lows
      and upper =
        match List.sort String.compare highs with u :: _ -> Some u | [] -> None
      in
      let unit =
        match upper with
        | Some up when String.compare lower up >= 0 ->
            raise
              (Cycle [ Schema.name t.schema id ])
        | Some _ | None ->
            if lower = "" && upper = None then
              fresh_unit t ~parent_key:(-1) ~taken:(sibling_units t None)
            else
              let rec pick lo =
                let u = Code.unit_between lo upper in
                if List.mem u (sibling_units t None) then pick u else u
              in
              pick lower
      in
      assign_subtree t id (Code.root unit)

let path_is_encodable t path =
  let rec go = function
    | a :: (b :: _ as rest) ->
        Code.compare (code t a) (code t b) > 0 && go rest
    | [ _ ] | [] -> true
  in
  go path

let pp ppf t =
  let entries =
    Hashtbl.fold (fun id c acc -> (c, id) :: acc) t.codes []
    |> List.sort (fun (a, _) (b, _) -> Code.compare a b)
  in
  List.iter
    (fun (c, id) ->
      Format.fprintf ppf "%-12s %s@." (Code.to_string c)
        (Schema.name t.schema id))
    entries
