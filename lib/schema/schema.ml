type class_id = int

type attr_type = Int | String | Ref of class_id | Ref_set of class_id

type class_info = {
  cname : string;
  cparent : class_id option;
  mutable cattrs : (string * attr_type) list;  (* declaration order *)
  mutable cchildren : class_id list;  (* reverse declaration order *)
}

type t = {
  mutable classes : class_info array;
  mutable count : int;
  by_name : (string, class_id) Hashtbl.t;
}

let create () = { classes = [||]; count = 0; by_name = Hashtbl.create 16 }

let info t id =
  if id < 0 || id >= t.count then invalid_arg "Schema: unknown class id";
  t.classes.(id)

let name t id = (info t id).cname
let find t n = Hashtbl.find_opt t.by_name n

let parent t id = (info t id).cparent
let children t id = List.rev (info t id).cchildren
let class_count t = t.count

let all_classes t = List.init t.count Fun.id

let roots t =
  List.filter (fun id -> (info t id).cparent = None) (all_classes t)

let own_attrs t id = (info t id).cattrs

let rec attr_type t id attr =
  match List.assoc_opt attr (info t id).cattrs with
  | Some ty -> Some ty
  | None -> (
      match (info t id).cparent with
      | Some p -> attr_type t p attr
      | None -> None)

let attr_type_exn t id attr =
  match attr_type t id attr with
  | Some ty -> ty
  | None ->
      invalid_arg
        (Printf.sprintf "Schema: class %s has no attribute %S" (name t id)
           attr)

let validate_attr t id (attr, _ty) =
  match attr_type t id attr with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Schema: attribute %S already defined on %s or above"
           attr (name t id))
  | None -> ()

let check_class_exists t id =
  if id < 0 || id >= t.count then invalid_arg "Schema: unknown class id"

let add_class ?parent t ~name:n ~attrs =
  if Hashtbl.mem t.by_name n then
    invalid_arg (Printf.sprintf "Schema: duplicate class name %S" n);
  (match parent with Some p -> check_class_exists t p | None -> ());
  List.iter
    (fun (_, ty) ->
      match ty with
      | Ref c | Ref_set c -> check_class_exists t c
      | Int | String -> ())
    attrs;
  let id = t.count in
  if id >= Array.length t.classes then begin
    let n' = max 8 (2 * Array.length t.classes) in
    let a =
      Array.make n'
        { cname = ""; cparent = None; cattrs = []; cchildren = [] }
    in
    Array.blit t.classes 0 a 0 t.count;
    t.classes <- a
  end;
  t.classes.(id) <-
    { cname = n; cparent = parent; cattrs = []; cchildren = [] };
  t.count <- t.count + 1;
  Hashtbl.add t.by_name n id;
  (* inherit checks need the class registered first *)
  List.iter
    (fun (a, ty) ->
      validate_attr t id (a, ty);
      t.classes.(id).cattrs <- t.classes.(id).cattrs @ [ (a, ty) ])
    attrs;
  (match parent with
  | Some p -> t.classes.(p).cchildren <- id :: t.classes.(p).cchildren
  | None -> ());
  id

let add_attr t id attr ty =
  check_class_exists t id;
  (match ty with
  | Ref c | Ref_set c -> check_class_exists t c
  | Int | String -> ());
  validate_attr t id (attr, ty);
  t.classes.(id).cattrs <- t.classes.(id).cattrs @ [ (attr, ty) ]

let rec subtree t id =
  id :: List.concat_map (subtree t) (children t id)

let rec is_subclass t ~sub ~super =
  sub = super
  ||
  match parent t sub with
  | Some p -> is_subclass t ~sub:p ~super
  | None -> false

let rec inherited_attrs t id =
  let above =
    match parent t id with Some p -> inherited_attrs t p | None -> []
  in
  above @ own_attrs t id

let refs t id =
  List.filter_map
    (fun (attr, ty) ->
      match ty with
      | Ref c -> Some (attr, c, `One)
      | Ref_set c -> Some (attr, c, `Many)
      | Int | String -> None)
    (inherited_attrs t id)

let ref_edges t =
  List.concat_map
    (fun id ->
      List.filter_map
        (fun (attr, ty) ->
          match ty with
          | Ref c | Ref_set c -> Some (id, attr, c)
          | Int | String -> None)
        (own_attrs t id))
    (all_classes t)

let pp ppf t =
  let rec pp_class indent id =
    Format.fprintf ppf "%s%s" (String.make indent ' ') (name t id);
    List.iter
      (fun (a, ty) ->
        let tys =
          match ty with
          | Int -> "int"
          | String -> "string"
          | Ref c -> "ref " ^ name t c
          | Ref_set c -> "ref-set " ^ name t c
        in
        Format.fprintf ppf " %s:%s" a tys)
      (own_attrs t id);
    Format.fprintf ppf "@.";
    List.iter (pp_class (indent + 2)) (children t id)
  in
  List.iter (pp_class 0) (roots t)
