module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Store = Objstore.Store
module Pager = Storage.Pager
module Bu = Storage.Bytes_util
module Node = Btree.Node

let nil = 0xFFFFFFFF

type issue = { component : string; page : int option; detail : string }

type report = {
  ok : bool;
  checksums : bool;
  pages : int;
  node_pages : int;
  overflow_pages : int;
  free_pages : int;
  entries : int;
  issues : issue list;
}

(* Sorted-list difference: elements of [a] not in [b] (both sorted,
   deduplicated). *)
let rec diff_sorted a b =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: a', y :: b' ->
      let c = String.compare x y in
      if c = 0 then diff_sorted a' b'
      else if c < 0 then x :: diff_sorted a' b
      else diff_sorted a b'

let check ?(throttle = fun (_ : int) -> ()) ?store idx =
  let tree = Index.tree idx in
  let pager = Btree.pager tree in
  let enc = Index.encoding idx in
  let ty = Index.attr_ty idx in
  let schema = Encoding.schema enc in
  let hw = Pager.high_water pager in
  let issues = ref [] and n_issues = ref 0 in
  let issue ?page component fmt =
    Format.kasprintf
      (fun detail ->
        incr n_issues;
        (* cap the retained list: a shredded file can produce one issue
           per page/entry, and the report only needs a sample *)
        if !n_issues <= 1000 then issues := { component; page; detail } :: !issues)
      fmt
  in
  let record_exn fallback_component = function
    | Storage.Storage_error.Corruption { page; component; detail } ->
        issue ?page component "%s" detail
    | Invalid_argument detail | Failure detail ->
        issue fallback_component "%s" detail
    | e -> issue fallback_component "%s" (Printexc.to_string e)
  in
  (* --- pass 1: page reachability ---------------------------------- *)
  (* Every page of the pager must be exactly one of: free, B-tree node,
     overflow chunk.  Walk the tree from the root, claiming pages; a
     page claimed twice, referenced while freed, or live but never
     claimed is damage. *)
  let roles : (int, [ `Node | `Overflow ]) Hashtbl.t = Hashtbl.create 256 in
  let claim id role ~source =
    if Hashtbl.mem roles id then begin
      issue ~page:id "verify.reachability" "page %d reached twice (%s)" id
        source;
      false
    end
    else begin
      Hashtbl.add roles id role;
      true
    end
  in
  let read_page id ~source =
    if id < 0 || id >= hw then begin
      issue "verify.reachability" "reference to out-of-range page %d (%s)" id
        source;
      None
    end
    else begin
      (* the scrub's pacing point: one callback per page read, before
         the read, so a sleeping throttle spreads the IO out *)
      throttle id;
      match Pager.read pager id with
      | b -> Some b
      | exception e ->
          record_exn "verify.reachability" e;
          None
    end
  in
  let rec walk_node id ~source =
    if claim id `Node ~source then
      match read_page id ~source with
      | None -> ()
      | Some b -> (
          match Node.decode b with
          | exception (Invalid_argument d | Failure d) ->
              issue ~page:id "btree.node" "%s" d
          | Node.Internal { children; _ } ->
              Array.iter
                (fun c ->
                  walk_node c ~source:(Printf.sprintf "child of node %d" id))
                children
          | Node.Leaf { lvals; _ } ->
              Array.iter
                (function
                  | Node.Inline _ -> ()
                  | Node.Overflow { head; length } ->
                      walk_overflow head length ~owner:id)
                lvals)
  and walk_overflow head length ~owner =
    let source = Printf.sprintf "overflow chain of leaf %d" owner in
    let rec go id remaining =
      if id <> nil && id >= 0 then
        if remaining <= 0 then
          issue ~page:id "verify.reachability"
            "overflow chain of leaf %d exceeds its recorded length" owner
        else if claim id `Overflow ~source then
          match read_page id ~source with
          | None -> ()
          | Some b ->
              let next = Bu.get_u32 b 0 and clen = Bu.get_u16 b 4 in
              go next (remaining - max 1 clen)
    in
    go head length
  in
  walk_node (Btree.root tree) ~source:"root";
  let free = Pager.free_pages pager in
  List.iter
    (fun id ->
      if Hashtbl.mem roles id then
        issue ~page:id "verify.reachability"
          "page %d is both free and referenced by the tree" id)
    free;
  for id = 0 to hw - 1 do
    if Pager.is_live pager id && not (Hashtbl.mem roles id) then
      issue ~page:id "verify.reachability"
        "live page %d is not reachable from the tree (leaked)" id
  done;
  (* --- pass 2: structural invariants ------------------------------- *)
  (try Btree.check tree with e -> record_exn "btree.invariants" e);
  (* --- pass 3 and 4: entry decoding + store cross-reference -------- *)
  let entries = ref 0 in
  let live_keys = ref [] in
  let iter_ok =
    (* key comps are in ascending code order: target first, head last —
       the reverse of each path's declared head-first class list *)
    let declared_paths =
      List.map (fun (classes, _, _) -> List.rev classes) (Index.paths idx)
    in
    let fits comps declared =
      List.length comps = List.length declared
      && List.for_all2
           (fun (cls, _) decl -> Schema.is_subclass schema ~sub:cls ~super:decl)
           comps declared
    in
    try
      Btree.iter tree (fun e ->
          incr entries;
          live_keys := e.Btree.key :: !live_keys;
          match Ukey.decode ~enc ~ty e.Btree.key with
          | exception (Invalid_argument d | Failure d) ->
              issue "verify.entry" "undecodable entry key %S: %s" e.Btree.key d
          | dec ->
              if not (List.exists (fits dec.Ukey.comps) declared_paths) then
                issue "verify.entry"
                  "entry %S: COD chain matches no registered path" e.Btree.key;
              Option.iter
                (fun st ->
                  List.iter
                    (fun (cls, oid) ->
                      if not (Store.mem st oid) then
                        issue "verify.entry"
                          "entry %S references missing object %d" e.Btree.key
                          oid
                      else if Store.class_of st oid <> cls then
                        issue "verify.entry"
                          "entry %S records class %s for object %d, store says \
                           %s"
                          e.Btree.key
                          (Schema.name schema cls)
                          oid
                          (Schema.name schema (Store.class_of st oid)))
                    dec.Ukey.comps)
                store);
      true
    with e ->
      record_exn "verify.entry" e;
      false
  in
  (match store with
  | Some st when iter_ok ->
      (* the live entry set must equal a fresh rebuild from the store *)
      let expected = ref [] in
      Store.iter st (fun o ->
          expected := Index.entry_keys idx st o.Store.oid @ !expected);
      let live = List.sort_uniq String.compare !live_keys in
      let expected = List.sort_uniq String.compare !expected in
      let missing = diff_sorted expected live in
      let extra = diff_sorted live expected in
      List.iter
        (fun k -> issue "verify.store" "missing entry for store object: %S" k)
        missing;
      List.iter
        (fun k -> issue "verify.store" "entry with no store counterpart: %S" k)
        extra
  | _ -> ());
  let count role =
    Hashtbl.fold (fun _ r acc -> if r = role then acc + 1 else acc) roles 0
  in
  {
    ok = !n_issues = 0;
    checksums = Pager.checksums_enabled pager;
    pages = hw;
    node_pages = count `Node;
    overflow_pages = count `Overflow;
    free_pages = List.length free;
    entries = !entries;
    issues = List.rev !issues;
  }

let salvage ?config idx store pager =
  let fresh = Index.recreate ?config idx pager in
  Index.build fresh store;
  Index.sync fresh;
  fresh

let issue_to_json i =
  Obs.Json.Obj
    [
      ("component", Obs.Json.Str i.component);
      ("page", match i.page with Some p -> Obs.Json.Int p | None -> Obs.Json.Null);
      ("detail", Obs.Json.Str i.detail);
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("ok", Obs.Json.Bool r.ok);
      ("checksums", Obs.Json.Bool r.checksums);
      ("pages", Obs.Json.Int r.pages);
      ("node_pages", Obs.Json.Int r.node_pages);
      ("overflow_pages", Obs.Json.Int r.overflow_pages);
      ("free_pages", Obs.Json.Int r.free_pages);
      ("entries", Obs.Json.Int r.entries);
      ("issues", Obs.Json.List (List.map issue_to_json r.issues));
    ]

let pp ppf r =
  Format.fprintf ppf
    "@[<v>ok: %b@,pages: %d (%d nodes, %d overflow, %d free)@,entries: %d"
    r.ok r.pages r.node_pages r.overflow_pages r.free_pages r.entries;
  List.iter
    (fun i ->
      Format.fprintf ppf "@,%s%s: %s" i.component
        (match i.page with
        | Some p -> Printf.sprintf " (page %d)" p
        | None -> "")
        i.detail)
    r.issues;
  Format.fprintf ppf "@]"
