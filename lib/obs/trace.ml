type span = {
  name : string;
  mutable fields : (string * int) list;
  mutable children : span list;
}

let span ?(fields = []) name = { name; fields; children = [] }

let add_field sp k v =
  if List.mem_assoc k sp.fields then
    sp.fields <-
      List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) sp.fields
  else sp.fields <- sp.fields @ [ (k, v) ]

let add_child sp child = sp.children <- sp.children @ [ child ]
let add_children sp spans = sp.children <- sp.children @ spans

let field sp k = List.assoc_opt k sp.fields

let rec total sp k =
  let own = match field sp k with Some v -> v | None -> 0 in
  List.fold_left (fun acc c -> acc + total c k) own sp.children

(* --- bounded copies ------------------------------------------------------- *)

let max_children = 64

(* Adds every field of [sp]'s subtree into [acc] (an assoc list of refs in
   first-seen order, reversed) and returns the number of spans visited. *)
let rec fold_into acc sp =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k !acc with
      | Some r -> r := !r + v
      | None -> acc := (k, ref v) :: !acc)
    sp.fields;
  List.fold_left (fun n c -> n + fold_into acc c) 1 sp.children

let elided folded =
  let acc = ref [] in
  let n = List.fold_left (fun n sp -> n + fold_into acc sp) 0 folded in
  span ~fields:(("spans", n) :: List.rev_map (fun (k, r) -> (k, !r)) !acc) "elided"

(* Top-down: the folded tail of an over-wide node is summed once and never
   recursed into, and only the kept prefix is compacted further, so every
   span is visited once.  Nodes with nothing to fold come back physically
   unchanged. *)
let rec compact sp =
  let rec keep i = function
    | [] -> []
    | rest when i = max_children - 1 && List.compare_length_with rest 1 > 0 ->
        [ elided rest ]
    | c :: rest -> compact c :: keep (i + 1) rest
  in
  let children = keep 0 sp.children in
  if List.compare_lengths children sp.children = 0
     && List.for_all2 ( == ) children sp.children
  then sp
  else { sp with children }

(* --- sinks -------------------------------------------------------------- *)

(* A collector's span list lives in an [Atomic.t] pushed with CAS, so
   concurrent [emit]s from different domains interleave without losing
   spans.  The usual usage keeps collectors domain-local anyway (see
   [with_collector]), but the shared-global configuration must not
   corrupt the list either. *)
type sink = Null | Collector of span list Atomic.t

let null = Null
let collector () = Collector (Atomic.make [])
let collected = function Null -> [] | Collector r -> List.rev (Atomic.get r)
let enabled = function Null -> false | Collector _ -> true

let emit sink sp =
  match sink with
  | Null -> ()
  | Collector r ->
      let rec push () =
        let old = Atomic.get r in
        if not (Atomic.compare_and_set r old (sp :: old)) then push ()
      in
      push ()

(* The process-wide sink lives in an atomic slot; each domain can shadow
   it with a domain-local override (installed by [with_collector]) so
   worker domains trace concurrently without sharing one span list. *)
let global_sink = Atomic.make Null

let set_global s = Atomic.set global_sink s
let global () = Atomic.get global_sink

let domain_sink : sink option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () =
  match !(Domain.DLS.get domain_sink) with
  | Some s -> s
  | None -> Atomic.get global_sink

let scope () = match current () with Null -> None | s -> Some s

let with_collector f =
  let slot = Domain.DLS.get domain_sink in
  let prev = !slot in
  let c = collector () in
  slot := Some c;
  let finally () = slot := prev in
  let x = Fun.protect ~finally f in
  (x, collected c)

(* --- rendering ---------------------------------------------------------- *)

let pp ppf sp =
  let rec go depth sp =
    Format.fprintf ppf "%s%s" (String.make (2 * depth) ' ') sp.name;
    List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%d" k v) sp.fields;
    Format.fprintf ppf "@.";
    List.iter (go (depth + 1)) sp.children
  in
  go 0 sp

let rec to_json sp =
  Json.Obj
    (("name", Json.Str sp.name)
     :: List.map (fun (k, v) -> (k, Json.Int v)) sp.fields
    @
    match sp.children with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map to_json cs)) ])
