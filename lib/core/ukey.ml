module Bu = Storage.Bytes_util
module Schema = Oodb_schema.Schema
module Code = Oodb_schema.Code
module Encoding = Oodb_schema.Encoding
module Value = Objstore.Value

let sep = "\x01"

let component code oid = Code.serialize code ^ sep ^ Bu.encode_u32 oid

let value_prefix value = Value.encode value ^ sep

let entry_key ~value comps =
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        Code.compare a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  if not (sorted comps) then
    invalid_arg "Ukey.entry_key: components not in ascending code order";
  if comps = [] then invalid_arg "Ukey.entry_key: no components";
  value_prefix value
  ^ String.concat "" (List.map (fun (c, o) -> component c o) comps)

type decoded = {
  value : Value.t;
  comps : (Schema.class_id * Value.oid) list;
  comp_offsets : (int * int * int) list;
}

let decode ?(arity = max_int) ~enc ~ty key =
  let n = String.length key in
  let value, stop = Value.decode ~ty key 0 in
  if stop >= n || key.[stop] <> '\x01' then
    invalid_arg "Ukey.decode: missing value separator";
  let rec comps pos k acc offs =
    if pos >= n || k = 0 then (List.rev acc, List.rev offs)
    else begin
      (* the serialized code runs to the 0x01 component terminator *)
      let code_end =
        match String.index_from_opt key pos '\x01' with
        | Some i -> i
        | None -> invalid_arg "Ukey.decode: unterminated component code"
      in
      let ser = String.sub key pos (code_end - pos) in
      let cls =
        match Encoding.class_of_serialized enc ser with
        | Some c -> c
        | None ->
            invalid_arg
              (Printf.sprintf "Ukey.decode: unknown class code at offset %d"
                 pos)
      in
      let oid_start = code_end + 1 in
      if oid_start + 4 > n then invalid_arg "Ukey.decode: truncated oid";
      let oid = Bu.decode_u32 key oid_start in
      comps (oid_start + 4) (k - 1)
        ((cls, oid) :: acc)
        ((pos, oid_start, oid_start + 4) :: offs)
    end
  in
  let comps, comp_offsets = comps (stop + 1) arity [] [] in
  if comps = [] then invalid_arg "Ukey.decode: no components";
  { value; comps; comp_offsets }

let succ_prefix = Bu.succ_prefix
