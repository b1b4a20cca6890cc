type t = Unix_sock of string | Tcp of string * int

let ipv4 host =
  if String.contains host '\000' then None
  else
    match Unix.inet_addr_of_string host with
    | ip when Unix.domain_of_sockaddr (Unix.ADDR_INET (ip, 0)) = Unix.PF_INET
      ->
        Some ip
    | _ -> None
    | exception Failure _ -> None

let is_digit c = c >= '0' && c <= '9'

(* the one HOST:PORT rule: [None] when the spec does not have that form
   (a '/' anywhere, or not all digits after the last ':'), otherwise the
   checked endpoint *)
let host_port spec =
  match String.rindex_opt spec ':' with
  | Some i when not (String.contains spec '/') ->
      let host = String.sub spec 0 i
      and port = String.sub spec (i + 1) (String.length spec - i - 1) in
      let host = if host = "" then "127.0.0.1" else host in
      let bad why = Error (Printf.sprintf "bad endpoint %S: %s" spec why) in
      if port = "" || not (String.for_all is_digit port) then None
      else
        Some
          (match int_of_string_opt port with
          | Some p when p <= 65535 ->
              if ipv4 host <> None then Ok (Tcp (host, p))
              else
                bad
                  (Printf.sprintf "host %S is not a numeric IPv4 address" host)
          | _ -> bad "port is not in 0-65535")
  | _ -> None

let of_string spec =
  match host_port spec with
  | Some r -> r
  | None when spec = "" -> Error "empty endpoint"
  | None -> Ok (Unix_sock spec)

let tcp_of_string spec =
  match host_port spec with
  | Some r -> r
  | None -> Error (Printf.sprintf "bad endpoint %S: expected HOST:PORT" spec)

let to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let to_sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> (
      match ipv4 host with
      | Some ip -> Unix.ADDR_INET (ip, port)
      | None ->
          invalid_arg
            (Printf.sprintf "Endpoint: host %S is not a numeric IPv4 address"
               host))
