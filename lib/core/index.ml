module Schema = Oodb_schema.Schema
module Code = Oodb_schema.Code
module Encoding = Oodb_schema.Encoding
module Value = Objstore.Value
module Store = Objstore.Store

type kind =
  | Class_hierarchy of { root : Schema.class_id; attr : string }
  | Path of { head : Schema.class_id; refs : string list; attr : string }

(* one REF path registered on the index *)
type spec = {
  (* declared classes head-first: [Vehicle; Company; Employee] *)
  s_classes : Schema.class_id array;
  (* REF attribute names, s_refs.(i) : s_classes.(i) -> s_classes.(i+1) *)
  s_refs : string array;
  s_attr : string;
}

type t = {
  tree : Btree.t;
  enc : Encoding.t;
  kind : kind;
  ty : Schema.attr_type;
  mutable specs : spec list;
}

let kind t = t.kind
let encoding t = t.enc
let tree t = t.tree
let attr_ty t = t.ty
let sync t = Btree.sync t.tree
let pool t = Btree.pool t.tree

let set_cache_pages t n =
  if n < 0 then invalid_arg "Uindex.set_cache_pages: negative capacity";
  if n = 0 then Btree.set_pool t.tree None
  else
    Btree.set_pool t.tree
      (Some (Storage.Buffer_pool.create ~capacity:n (Btree.pager t.tree)))

let first_spec t =
  match t.specs with
  | s :: _ -> s
  | [] -> invalid_arg "Uindex: index has no path registered"

let paths t =
  List.map
    (fun s -> (Array.to_list s.s_classes, Array.to_list s.s_refs, s.s_attr))
    t.specs

let arity t = Array.length (first_spec t).s_classes

let check_indexable schema cls attr =
  match Schema.attr_type_exn schema cls attr with
  | (Schema.Int | Schema.String) as ty -> ty
  | Schema.Ref _ | Schema.Ref_set _ ->
      invalid_arg
        (Printf.sprintf
           "Uindex: attribute %S of %s is a reference, not an indexable value"
           attr (Schema.name schema cls))

let create_class_hierarchy ?config pager enc ~root ~attr =
  let schema = Encoding.schema enc in
  let ty = check_indexable schema root attr in
  {
    tree = Btree.create ?config pager;
    enc;
    kind = Class_hierarchy { root; attr };
    ty;
    specs = [ { s_classes = [| root |]; s_refs = [||]; s_attr = attr } ];
  }

let attach_class_hierarchy ?config pager enc ~root ~attr =
  let schema = Encoding.schema enc in
  let ty = check_indexable schema root attr in
  {
    tree = Btree.reattach ?config pager;
    enc;
    kind = Class_hierarchy { root; attr };
    ty;
    specs = [ { s_classes = [| root |]; s_refs = [||]; s_attr = attr } ];
  }

let recreate ?config t pager =
  let config =
    match config with
    | Some _ as c -> c
    | None ->
        (* the tree configuration is page-size-dependent
           (overflow_threshold); inherit it only when it still applies *)
        if
          Storage.Pager.page_size pager
          = Storage.Pager.page_size (Btree.pager t.tree)
        then Some (Btree.config t.tree)
        else None
  in
  {
    tree = Btree.create ?config pager;
    enc = t.enc;
    kind = t.kind;
    ty = t.ty;
    specs = t.specs;
  }

(* resolve and validate one REF path; returns its spec and attribute type *)
let make_spec enc ~head ~refs ~attr =
  let schema = Encoding.schema enc in
  if refs = [] then
    invalid_arg
      "Uindex.create_path: empty REF chain (use a class-hierarchy index)";
  let classes =
    List.fold_left
      (fun acc r ->
        let cur = List.hd acc in
        match Schema.attr_type schema cur r with
        | Some (Schema.Ref c) | Some (Schema.Ref_set c) -> c :: acc
        | Some (Schema.Int | Schema.String) ->
            invalid_arg
              (Printf.sprintf "Uindex.create_path: %S on %s is not a reference"
                 r (Schema.name schema cur))
        | None ->
            invalid_arg
              (Printf.sprintf "Uindex.create_path: %s has no attribute %S"
                 (Schema.name schema cur) r))
      [ head ] refs
    |> List.rev
  in
  let tail = List.nth classes (List.length classes - 1) in
  let ty = check_indexable schema tail attr in
  if not (Encoding.path_is_encodable enc classes) then
    invalid_arg
      "Uindex.create_path: class codes do not decrease along the path (the \
       REF path is not encodable; check the schema's REF direction)";
  (* the subtrees along the path must be disjoint, in descending order *)
  let rec check_disjoint = function
    | a :: (b :: _ as rest) ->
        let _, ahi = Encoding.subtree_interval enc b in
        let blo, _ = Encoding.subtree_interval enc a in
        if String.compare ahi blo > 0 then
          invalid_arg
            "Uindex.create_path: class subtrees along the path overlap";
        check_disjoint rest
    | [ _ ] | [] -> ()
  in
  check_disjoint classes;
  ( {
      s_classes = Array.of_list classes;
      s_refs = Array.of_list refs;
      s_attr = attr;
    },
    ty )

let create_path ?config pager enc ~head ~refs ~attr =
  let spec, ty = make_spec enc ~head ~refs ~attr in
  {
    tree = Btree.create ?config pager;
    enc;
    kind = Path { head; refs; attr };
    ty;
    specs = [ spec ];
  }

let add_path t ~head ~refs ~attr =
  (match t.kind with
  | Path _ -> ()
  | Class_hierarchy _ ->
      invalid_arg "Uindex.add_path: not a path index");
  let spec, ty = make_spec t.enc ~head ~refs ~attr in
  if ty <> t.ty then
    invalid_arg
      "Uindex.add_path: the new path's attribute type differs from the \
       index's";
  t.specs <- t.specs @ [ spec ]

(* --- entry computation --------------------------------------------------- *)

let positions spec store oid =
  let schema = Store.schema store in
  let cls = Store.class_of store oid in
  let out = ref [] in
  Array.iteri
    (fun i declared ->
      if Schema.is_subclass schema ~sub:cls ~super:declared then
        out := i :: !out)
    spec.s_classes;
  List.rev !out

(* chains (head-first oid lists) passing through [oid] at position [p] *)
let chains_through spec store oid p =
  let schema = Store.schema store in
  let fits i o =
    Schema.is_subclass schema ~sub:(Store.class_of store o)
      ~super:spec.s_classes.(i)
  in
  let rec backward p o =
    if p = 0 then [ [ o ] ]
    else
      Store.referrers store o ~via:spec.s_refs.(p - 1)
      |> List.filter (fits (p - 1))
      |> List.concat_map (fun r ->
             List.map (fun ch -> ch @ [ o ]) (backward (p - 1) r))
  in
  let rec forward p o =
    if p = Array.length spec.s_classes - 1 then [ [ o ] ]
    else
      Store.follow store o spec.s_refs.(p)
      |> List.filter (fits (p + 1))
      |> List.concat_map (fun tgt ->
             List.map (fun ch -> o :: ch) (forward (p + 1) tgt))
  in
  let backs = backward p oid and fronts = forward p oid in
  List.concat_map
    (fun back -> List.map (fun front -> back @ List.tl front) fronts)
    backs

let spec_entry_keys t spec store oid =
  positions spec store oid
  |> List.concat_map (fun p ->
         chains_through spec store oid p
         |> List.filter_map (fun chain ->
                let tail = List.nth chain (List.length chain - 1) in
                match Store.attr store tail spec.s_attr with
                | Value.Null -> None
                | Value.Ref _ | Value.Ref_set _ -> None
                | (Value.Int _ | Value.Str _) as v ->
                    let comps =
                      List.rev_map
                        (fun o ->
                          (Encoding.code t.enc (Store.class_of store o), o))
                        chain
                    in
                    Some (Ukey.entry_key ~value:v comps)))

let entry_keys t store oid =
  if not (Store.mem store oid) then []
  else
    List.concat_map (fun spec -> spec_entry_keys t spec store oid) t.specs
    |> List.sort_uniq String.compare

let index_object t store oid =
  (* entries of one object cluster by construction; merge them in one
     batch (Section 3.5's batch updates) *)
  Btree.insert_batch t.tree
    (List.map (fun key -> (key, "")) (entry_keys t store oid))

let deindex_object t store oid =
  List.iter (fun key -> ignore (Btree.delete t.tree key)) (entry_keys t store oid)

let entry_of t ~value comps =
  Ukey.entry_key ~value
    (List.map (fun (cls, oid) -> (Encoding.code t.enc cls, oid)) comps)

let insert_entry t ~value comps =
  Btree.insert t.tree ~key:(entry_of t ~value comps) ~value:""

let remove_entry t ~value comps =
  ignore (Btree.delete t.tree (entry_of t ~value comps))

let build ?fill t store =
  let spec_entries spec =
    Store.extent store ~deep:true spec.s_classes.(0)
    |> List.concat_map (fun oid -> spec_entry_keys t spec store oid)
    |> List.map (fun key -> (key, ""))
  in
  if Btree.is_empty t.tree then
    (* initial build: sort every path's entries together and construct
       the tree bottom-up, writing each page exactly once *)
    List.concat_map spec_entries t.specs
    |> List.sort_uniq compare
    |> List.to_seq
    |> Btree.bulk_load ?fill t.tree
  else
    (* incremental (re)build into a populated tree: merge per path *)
    List.iter (fun spec -> Btree.insert_batch t.tree (spec_entries spec)) t.specs

(* --- snapshot views ------------------------------------------------------ *)

type pin = {
  pinned : t;
  snap : Storage.Pager.t;
  live_root : int;
      (* the live root at pin time: a memory pager commits every write
         immediately, so this is the committed root of the pinned image
         (its header metadata may be stale between Btree.syncs) *)
  mutable view : t option;
}

let pin t =
  {
    pinned = t;
    snap = Storage.Pager.snapshot (Btree.pager t.tree);
    live_root = Btree.root t.tree;
    view = None;
  }

let pinned p = p.pinned
let attached p = p.view

let pin_view p =
  match p.view with
  | Some v -> v
  | None ->
      let snap = p.snap and config = Btree.config p.pinned.tree in
      let root =
        (* a file pager's committed root is named by the committed header
           metadata (recorded by Btree.sync) *)
        if Storage.Pager.durable snap then Btree.committed_root snap
        else p.live_root
      in
      let tree =
        match Storage.Pager.epoch_tree snap with
        | Some (r, height) when r = root ->
            Btree.attach ~config ~height snap ~root
        | Some _ | None ->
            let tree = Btree.attach ~config snap ~root in
            Storage.Pager.set_epoch_tree snap (root, Btree.height tree);
            tree
      in
      (* no pool: a pool caches the live image, which may be ahead of the
         pinned snapshot *)
      let v = { p.pinned with tree } in
      p.view <- Some v;
      v

let release_pin p = Storage.Pager.release_snapshot p.snap

let snapshot_view t =
  let p = pin t in
  match pin_view p with
  | v -> v
  | exception e ->
      release_pin p;
      raise e

let release_view v =
  let pager = Btree.pager v.tree in
  if not (Storage.Pager.is_snapshot pager) then
    invalid_arg "Uindex.release_view: not a snapshot view";
  Storage.Pager.release_snapshot pager

let entry_count t = Btree.length t.tree

let pp_stats ppf t =
  let name =
    match t.kind with
    | Class_hierarchy { root; attr } ->
        Printf.sprintf "CH(%s.%s)"
          (Schema.name (Encoding.schema t.enc) root)
          attr
    | Path { head; refs; attr } ->
        Printf.sprintf "PATH(%s.%s.%s%s)"
          (Schema.name (Encoding.schema t.enc) head)
          (String.concat "." refs) attr
          (match t.specs with
          | _ :: _ :: _ -> Printf.sprintf " +%d paths" (List.length t.specs - 1)
          | _ -> "")
  in
  Format.fprintf ppf "%s %a" name Btree.pp_stats t.tree
