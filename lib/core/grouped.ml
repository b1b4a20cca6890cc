module Bu = Storage.Bytes_util
module Schema = Oodb_schema.Schema
module Code = Oodb_schema.Code
module Encoding = Oodb_schema.Encoding
module Value = Objstore.Value
module Store = Objstore.Store
module Stats = Storage.Stats
module Pager = Storage.Pager

type t = {
  tree : Btree.t;
  enc : Encoding.t;
  root : Schema.class_id;
  attr : string;
  ty : Schema.attr_type;
}

let tree t = t.tree

let create ?config pager enc ~root ~attr =
  let schema = Encoding.schema enc in
  let ty =
    match Schema.attr_type_exn schema root attr with
    | (Schema.Int | Schema.String) as ty -> ty
    | Schema.Ref _ | Schema.Ref_set _ ->
        invalid_arg "Grouped.create: attribute must be Int or String"
  in
  { tree = Btree.create ?config pager; enc; root; attr; ty }

(* the key ends with the component terminator (and no OID), so it falls
   inside the same exact/subtree intervals as single-value entries *)
let key_of t value cls =
  Value.encode value ^ "\x01"
  ^ Code.serialize (Encoding.code t.enc cls)
  ^ Code.component_end

let encode_oids oids =
  String.concat "" (List.map Bu.encode_u32 oids)

let decode_oids blob =
  List.init (String.length blob / 4) (fun i -> Bu.decode_u32 blob (4 * i))

let update t key f =
  let oids =
    match Btree.find t.tree key with
    | Some blob -> decode_oids blob
    | None -> []
  in
  match f oids with
  | [] -> ignore (Btree.delete t.tree key)
  | oids -> Btree.insert t.tree ~key ~value:(encode_oids oids)

let insert t ~value ~cls oid = update t (key_of t value cls) (fun os -> os @ [ oid ])

let remove t ~value ~cls oid =
  update t (key_of t value cls) (fun os ->
      let rec drop = function
        | o :: rest when o = oid -> rest
        | o :: rest -> o :: drop rest
        | [] -> []
      in
      drop os)

let build t store =
  (* group the extent's entries, then one batched load *)
  let groups = Hashtbl.create 256 in
  List.iter
    (fun oid ->
      match Store.attr store oid t.attr with
      | (Value.Int _ | Value.Str _) as v ->
          let key = key_of t v (Store.class_of store oid) in
          let r =
            match Hashtbl.find_opt groups key with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add groups key r;
                r
          in
          r := oid :: !r
      | Value.Null | Value.Ref _ | Value.Ref_set _ -> ())
    (Store.extent store ~deep:true t.root);
  Btree.insert_batch t.tree
    (Hashtbl.fold
       (fun key r acc -> (key, encode_oids (List.rev !r)) :: acc)
       groups [])

(* --- queries -------------------------------------------------------------- *)

(* An accepted entry's rows: its class is its one component's, as the
   classifier found it, and the slot, which a grouped plan does not
   test, filters its OID list. *)
let row plan (slot : Query.slot) sc _arity acc =
  let cls = Plan.comp_class plan 0 in
  List.fold_left
    (fun acc oid -> if Query.slot_matches slot oid then (cls, oid) :: acc else acc)
    acc
    (decode_oids (Btree.Scanner.value sc))

let query t (q : Query.t) =
  let slot =
    match q.comps with
    | [ c ] -> c.slot
    | _ -> invalid_arg "Grouped.query: single-component queries only"
  in
  let plan = Plan.compile ~grouped:true ~enc:t.enc ~ty:t.ty q in
  let stats = Pager.stats (Btree.pager t.tree) in
  let before = Stats.snapshot stats in
  let sc =
    Btree.Scanner.create t.tree
      ~read:(Pager.Cache.read (Btree.cached_read t.tree))
  in
  let rows, _ = Exec.scan ~skip:true t.tree sc plan (row plan slot) in
  (List.rev rows, (Stats.diff ~before ~after:(Stats.snapshot stats)).Stats.reads)

let entry_count t =
  let n = ref 0 in
  Btree.iter t.tree (fun e -> n := !n + (String.length (e.value ()) / 4));
  !n
