module Bu = Storage.Bytes_util

type oid = int

type t = Null | Int of int | Str of string | Ref of oid | Ref_set of oid list

let equal a b = a = b

let rank = function
  | Null -> 0
  | Int _ -> 1
  | Str _ -> 2
  | Ref _ -> 3
  | Ref_set _ -> 4

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Ref x, Ref y -> Int.compare x y
  | Ref_set x, Ref_set y -> Stdlib.compare x y
  | Null, Null -> 0
  | _ -> Int.compare (rank a) (rank b)

let encode = function
  | Int x -> Bu.encode_int x
  | Str s -> Bu.check_text s
  | Null | Ref _ | Ref_set _ ->
      invalid_arg "Value.encode: only Int and Str values are indexable"

let decode ~ty s off =
  match ty with
  | Oodb_schema.Schema.Int ->
      if off < 0 || off + 8 > String.length s then
        invalid_arg
          (Printf.sprintf
             "Value.decode: truncated Int key (need 8 bytes at offset %d, \
              have %d)"
             off
             (String.length s - off));
      if not (Bu.int_fits (Bytes.unsafe_of_string s) off) then
        invalid_arg
          (Printf.sprintf "Value.decode: Int key out of range at offset %d" off);
      (Int (Bu.decode_int s off), off + 8)
  | Oodb_schema.Schema.String ->
      let stop =
        match String.index_from_opt s off '\x01' with
        | Some i -> i
        | None -> String.length s
      in
      (Str (String.sub s off (stop - off)), stop)
  | Oodb_schema.Schema.Ref _ | Oodb_schema.Schema.Ref_set _ ->
      invalid_arg "Value.decode: reference attributes are not key values"

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Int x -> Format.pp_print_int ppf x
  | Str s -> Format.fprintf ppf "%S" s
  | Ref o -> Format.fprintf ppf "@%d" o
  | Ref_set os ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           (fun ppf o -> Format.fprintf ppf "@%d" o))
        os
