(* The served row as the server printed it before rows were rendered from
   key bytes: the decoded binding built into a Json.t tree and printed.
   The renderer ([Uindex.Keyrow]) and the served replies are checked
   against it byte for byte. *)

module Json = Obs.Json
module Schema = Oodb_schema.Schema
module Value = Objstore.Value

let value_json = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Str s -> Json.Str s
  | Value.Ref o -> Json.Obj [ ("ref", Json.Int o) ]
  | Value.Ref_set os -> Json.List (List.map (fun o -> Json.Int o) os)

let binding_json schema (b : Uindex.Exec.binding) =
  Json.Obj
    [
      ("value", value_json b.value);
      ( "comps",
        Json.List
          (List.map
             (fun (cls, oid) ->
               Json.List [ Json.Str (Schema.name schema cls); Json.Int oid ])
             b.comps) );
    ]

let row schema b = Json.to_string (binding_json schema b)

(* the row of an entry key, through the decoding path *)
let key_row ~enc ~ty ~arity key =
  let d = Uindex.Ukey.decode ~arity ~enc ~ty key in
  row (Oodb_schema.Encoding.schema enc) { value = d.value; comps = d.comps }
