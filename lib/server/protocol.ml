module Json = Obs.Json

let max_frame = 1 lsl 20

(* --- framing ---------------------------------------------------------- *)

(* read exactly [len] bytes; false on EOF before they all arrived *)
let rec read_full fd b off len =
  len = 0
  ||
  let n = Unix.read fd b off len in
  n > 0 && read_full fd b (off + n) (len - n)

let encode_frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.encode_frame: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

let write_all fd b off len =
  let rec go off len =
    if len > 0 then begin
      let w = Unix.write fd b off len in
      go (off + w) (len - w)
    end
  in
  go off len

let write_frame fd payload =
  let b = encode_frame payload in
  write_all fd b 0 (Bytes.length b)

type read_result =
  | Frame of string
  | Eof
  | Too_large of int
  | Truncated

let read_frame fd =
  let hdr = Bytes.create 4 in
  let n0 = Unix.read fd hdr 0 4 in
  if n0 = 0 then Eof
  else if not (read_full fd hdr n0 (4 - n0)) then Truncated
  else
    (* u32, so a hostile length can not read as negative *)
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xFFFFFFFF in
    if len > max_frame then Too_large len
    else
      let b = Bytes.create len in
      if read_full fd b 0 len then Frame (Bytes.to_string b) else Truncated

(* --- requests --------------------------------------------------------- *)

type request =
  | Query of { algo : [ `Parallel | `Forward ]; text : string }
  | Stats
  | Health
  | Slow_queries of int option
  | Ping
  | Quit

let is_hex c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let parse_trace_token tok =
  (* "@a1b2c3" — 1..16 hex digits after the '@' *)
  let n = String.length tok in
  if n < 2 || n > 17 then Error (Printf.sprintf "bad trace id %S" tok)
  else begin
    let ok = ref true in
    for i = 1 to n - 1 do
      if not (is_hex tok.[i]) then ok := false
    done;
    if not !ok then Error (Printf.sprintf "bad trace id %S" tok)
    else
      match int_of_string_opt ("0x" ^ String.sub tok 1 (n - 1)) with
      | Some id -> Ok id
      | None -> Error (Printf.sprintf "bad trace id %S" tok)
  end

let parse_line s =
  let s = String.trim s in
  (* optional client-propagated trace id: "@<hex> <command ...>" *)
  let trace_id, s =
    if String.length s > 0 && s.[0] = '@' then
      match String.index_opt s ' ' with
      | Some i -> (Some (String.sub s 0 i), String.trim
                     (String.sub s (i + 1) (String.length s - i - 1)))
      | None -> (Some s, "")
    else (None, s)
  in
  let parse_id k =
    match trace_id with
    | None -> k None
    | Some tok -> (
        match parse_trace_token tok with
        | Ok id -> k (Some id)
        | Error e -> Error e)
  in
  parse_id @@ fun trace_id ->
  let word, rest =
    match String.index_opt s ' ' with
    | Some i ->
        ( String.sub s 0 i,
          String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, "")
  in
  let req =
    match (String.lowercase_ascii word, rest) with
    | "ping", "" -> Ok Ping
    | "stats", "" -> Ok Stats
    | "health", "" -> Ok Health
    | "slow-queries", "" -> Ok (Slow_queries None)
    | "slow-queries", n -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> Ok (Slow_queries (Some n))
        | _ -> Error (Printf.sprintf "slow-queries: bad count %S" n))
    | "quit", "" -> Ok Quit
    | "query", "" -> Error "query: missing query text"
    | "query", text -> Ok (Query { algo = `Parallel; text })
    | "query-forward", "" -> Error "query-forward: missing query text"
    | "query-forward", text -> Ok (Query { algo = `Forward; text })
    | ("ping" | "stats" | "health" | "quit"), extra ->
        Error (Printf.sprintf "%s: unexpected argument %S" word extra)
    | "", _ -> Error "empty request"
    | w, _ -> Error (Printf.sprintf "unknown command %S" w)
  in
  Result.map (fun req -> (trace_id, req)) req

let parse_request s = Result.map snd (parse_line s)

let request_to_string = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Health -> "health"
  | Slow_queries None -> "slow-queries"
  | Slow_queries (Some n) -> Printf.sprintf "slow-queries %d" n
  | Quit -> "quit"
  | Query { algo = `Parallel; text } -> "query " ^ text
  | Query { algo = `Forward; text } -> "query-forward " ^ text

let line_to_string ?trace_id req =
  match trace_id with
  | None -> request_to_string req
  | Some id -> Printf.sprintf "@%x %s" id (request_to_string req)

(* --- responses -------------------------------------------------------- *)

type error_kind =
  | Bad_request
  | Parse_error
  | Unroutable
  | Timeout
  | Overloaded
  | Frame_too_large
  | Corrupt
  | Shard_failure
  | Internal

let error_kind_name = function
  | Bad_request -> "bad_request"
  | Parse_error -> "parse_error"
  | Unroutable -> "unroutable"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Frame_too_large -> "frame_too_large"
  | Corrupt -> "data_corruption"
  | Shard_failure -> "shard_failure"
  | Internal -> "internal"

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error ?(detail = "") kind =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("kind", Json.Str (error_kind_name kind));
            ("detail", Json.Str detail);
          ] );
    ]

let response_is_ok j = Json.member "ok" j = Some (Json.Bool true)

let response_error_kind j =
  match Json.member "error" j with
  | Some e -> Option.bind (Json.member "kind" e) Json.to_str
  | None -> None

(* --- the rows reply ----------------------------------------------------- *)

type rows = {
  rendered : string list;
  page_reads : int;
  pool_hits : int;
  entries_scanned : int;
}

let rows ~page_reads ~pool_hits ~entries_scanned rendered =
  {
    rendered = List.sort String.compare rendered;
    page_reads;
    pool_hits;
    entries_scanned;
  }

let merge_rows =
  List.fold_left
    (fun a r ->
      {
        rendered = List.merge String.compare a.rendered r.rendered;
        page_reads = a.page_reads + r.page_reads;
        pool_hits = a.pool_hits + r.pool_hits;
        entries_scanned = a.entries_scanned + r.entries_scanned;
      })
    (rows ~page_reads:0 ~pool_hits:0 ~entries_scanned:0 [])

type answer = Doc of Json.t | Rows of rows

(* the bytes [Json.to_string] gives the rows document, written without
   building it: the rows are already rendered, and each is copied once
   into a reply of exact size *)
let rows_to_string ?trace_id r =
  let n = List.length r.rendered in
  let head = Printf.sprintf {|{"ok":true,"type":"rows","count":%d,"rows":[|} n
  and tail =
    Printf.sprintf {|],"page_reads":%d,"pool_hits":%d,"entries_scanned":%d%s}|}
      r.page_reads r.pool_hits r.entries_scanned
      (match trace_id with
      | Some id -> Printf.sprintf {|,"trace_id":"%x"|} id
      | None -> "")
  in
  let size =
    List.fold_left
      (fun size s -> size + String.length s)
      (String.length head + max 0 (n - 1) + String.length tail)
      r.rendered
  in
  let b = Bytes.create size and pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  put head;
  List.iteri
    (fun i s ->
      if i > 0 then put ",";
      put s)
    r.rendered;
  put tail;
  Bytes.unsafe_to_string b

let answer_to_string ?trace_id ans =
  match (ans, trace_id) with
  | Rows r, _ -> rows_to_string ?trace_id r
  | Doc (Json.Obj kvs), Some id ->
      let echo = ("trace_id", Json.Str (Printf.sprintf "%x" id)) in
      Json.to_string (Json.Obj (kvs @ [ echo ]))
  | Doc j, _ -> Json.to_string j

let answer_of_reply j =
  let cost k =
    Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)
  in
  match (j, Json.member "type" j, Json.member "rows" j) with
  | _, Some (Json.Str "rows"), Some (Json.List l) when response_is_ok j ->
      Rows
        (rows ~page_reads:(cost "page_reads") ~pool_hits:(cost "pool_hits")
           ~entries_scanned:(cost "entries_scanned")
           (List.map Json.to_string l))
  | Json.Obj kvs, _, _ ->
      Doc (Json.Obj (List.filter (fun (k, _) -> k <> "trace_id") kvs))
  | j, _, _ -> Doc j
