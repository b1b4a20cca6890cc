module Bu = Storage.Bytes_util

type t = string list

let sep = '\x02'
let lo_char = 'A'
let hi_char = 'z'
let component_end = "\x01"

let check_unit u =
  if u = "" then invalid_arg "Code: empty unit";
  String.iter
    (fun c ->
      if c < lo_char || c > hi_char then
        invalid_arg "Code: unit character outside 'A'..'z'")
    u;
  u

let root u = [ check_unit u ]
let child c u = c @ [ check_unit u ]
let units c = c
let depth = List.length

let parent c =
  match List.rev c with
  | [] | [ _ ] -> None
  | _ :: rev -> Some (List.rev rev)

let serialize c =
  let buf = Buffer.create 16 in
  List.iter
    (fun u ->
      Buffer.add_string buf u;
      Buffer.add_char buf sep)
    c;
  Buffer.contents buf

let of_serialized s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> sep then
    invalid_arg "Code.of_serialized: missing terminator";
  let rec split start acc =
    if start >= n then List.rev acc
    else
      match String.index_from_opt s start sep with
      | None -> invalid_arg "Code.of_serialized: missing terminator"
      | Some i ->
          if i = start then invalid_arg "Code.of_serialized: empty unit";
          split (i + 1) (check_unit (String.sub s start (i - start)) :: acc)
  in
  split 0 []

let compare a b = String.compare (serialize a) (serialize b)
let equal a b = a = b

let rec is_ancestor ~ancestor c =
  match (ancestor, c) with
  | [], _ -> true
  | _, [] -> false
  | a :: arest, b :: brest -> a = b && is_ancestor ~ancestor:arest brest

let serialized_subtree_interval lo =
  (* every descendant's serialization starts with [lo]; bumping the final
     separator byte gives the least key above all of them *)
  let hi = Bytes.of_string lo in
  Bytes.set hi (Bytes.length hi - 1) (Char.chr (Char.code sep + 1));
  (lo, Bytes.to_string hi)

let subtree_interval c = serialized_subtree_interval (serialize c)

let to_string c = String.concat "." c
let pp ppf c = Format.pp_print_string ppf (to_string c)

(* Single characters 'B'..'z' in order (never 'A', see unit_between), then
   'z'-prefixed recursion: B < C < ... < z < zB < zC < ... *)
let single_range = Char.code hi_char - Char.code lo_char (* 57: 'B'..'z' *)

let rec unit_of_rank i =
  if i < 0 then invalid_arg "Code.unit_of_rank: negative rank";
  if i < single_range then String.make 1 (Char.chr (Char.code lo_char + 1 + i))
  else String.make 1 hi_char ^ unit_of_rank (i - single_range)

let rec unit_between u v =
  (match v with
  | Some v ->
      if not (u = "" || String.compare u v < 0) then
        invalid_arg "Code.unit_between: bounds not ordered"
  | None -> ());
  match v with
  | None -> if u = "" then "M" else u ^ "M"
  | Some v ->
      let n = Bu.common_prefix_len u v in
      let prefix = String.sub v 0 n in
      let u' = String.sub u n (String.length u - n) in
      let v' = String.sub v n (String.length v - n) in
      (* v' is non-empty because u < v *)
      let x = if u' = "" then -1 else Char.code u'.[0] - Char.code lo_char in
      let y = Char.code v'.[0] - Char.code lo_char in
      if y - x >= 2 then begin
        let m = x + ((y - x) / 2) in
        let d = String.make 1 (Char.chr (Char.code lo_char + m)) in
        prefix ^ if m = 0 then d ^ "M" else d
      end
      else if x >= 0 then
        (* adjacent first characters: stay on [u]'s side and go deeper *)
        prefix ^ u' ^ "M"
      else begin
        (* u ended, v' starts with 'A': recurse below the rest of v *)
        let rest = String.sub v' 1 (String.length v' - 1) in
        if rest = "" then
          invalid_arg "Code.unit_between: no unit fits below a unit ending in 'A'";
        prefix ^ "A" ^ unit_between "" (Some rest)
      end
