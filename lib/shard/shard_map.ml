module Json = Obs.Json
module Endpoint = Uindex_server.Endpoint

type shard = {
  lo : string;
  hi : string option;
  file : string option;
  endpoint : Endpoint.t option;
}

type t = { arr : shard array }

let fail fmt = Printf.ksprintf invalid_arg ("Shard_map: " ^^ fmt)

let make shards =
  let arr = Array.of_list shards in
  let n = Array.length arr in
  if n = 0 then fail "empty map";
  if arr.(0).lo <> "" then fail "shard 0 must start at the bottom of the code space";
  for i = 0 to n - 1 do
    match arr.(i).hi with
    | None -> if i <> n - 1 then fail "shard %d is unbounded but not last" i
    | Some hi ->
        if i = n - 1 then fail "last shard must be unbounded above";
        if arr.(i).lo >= hi then fail "shard %d has an empty range" i;
        if arr.(i + 1).lo <> hi then
          fail "shard %d..%d: ranges are not contiguous" i (i + 1)
  done;
  { arr }

let shards t = t.arr
let count t = Array.length t.arr
let get t i = t.arr.(i)

let in_range s code =
  code >= s.lo && match s.hi with None -> true | Some hi -> code < hi

let locate t code =
  (* the cover is total: exactly one shard matches *)
  let rec go i = if in_range t.arr.(i) code then i else go (i + 1) in
  go 0

let intersects s (lo, hi) =
  lo < hi
  && hi > s.lo
  && match s.hi with None -> true | Some shi -> lo < shi

let intersecting t ivs =
  let ids = ref [] in
  for i = Array.length t.arr - 1 downto 0 do
    if List.exists (intersects t.arr.(i)) ivs then ids := i :: !ids
  done;
  !ids

(* --- serialization ----------------------------------------------------- *)

let opt_str = function None -> Json.Null | Some s -> Json.Str s
let opt_endpoint e = opt_str (Option.map Endpoint.to_string e)

let shard_json s =
  Json.Obj
    [
      ("lo", Json.Str s.lo);
      ("hi", opt_str s.hi);
      ("file", opt_str s.file);
      ("endpoint", opt_endpoint s.endpoint);
    ]

let to_json t =
  Json.Obj
    [
      ("shards", Json.List (Array.to_list (Array.map shard_json t.arr)));
    ]

let str_opt = function
  | Some (Json.Str s) -> Some s
  | Some Json.Null | None -> None
  | Some _ -> fail "expected string or null"

let shard_of_json i j =
  let lo =
    match Json.member "lo" j with
    | Some (Json.Str s) -> s
    | _ -> fail "shard without a \"lo\" bound"
  in
  let endpoint =
    Option.map
      (fun spec ->
        match Endpoint.of_string spec with
        | Ok e -> e
        | Error msg -> fail "shard %d: %s" i msg)
      (str_opt (Json.member "endpoint" j))
  in
  {
    lo;
    hi = str_opt (Json.member "hi" j);
    file = str_opt (Json.member "file" j);
    endpoint;
  }

let of_json j =
  match Json.member "shards" j with
  | Some (Json.List l) -> make (List.mapi shard_of_json l)
  | _ -> fail "document has no \"shards\" list"

let save t path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_multiline (to_json t)))

let load path =
  of_json (Json.of_string (In_channel.with_open_text path In_channel.input_all))

(* --- display ----------------------------------------------------------- *)

(* serialized codes are units over ['A'..'z'] terminated by 0x02; dots
   read better than escapes in health output *)
let printable code =
  String.concat "."
    (String.split_on_char '\x02'
       (if code <> "" && code.[String.length code - 1] = '\x02' then
          String.sub code 0 (String.length code - 1)
        else code))

let topology_json t =
  Json.List
    (Array.to_list
       (Array.mapi
          (fun i s ->
            Json.Obj
              [
                ("shard", Json.Int i);
                ("lo", Json.Str (printable s.lo));
                ( "hi",
                  match s.hi with
                  | None -> Json.Null
                  | Some hi -> Json.Str (printable hi) );
                ("file", opt_str s.file);
                ("endpoint", opt_endpoint s.endpoint);
              ])
          t.arr))
