(* Tests for the composite-key encoding of U-index entries: clustering
   order, decode roundtrips, and the prefix-successor. *)

module Code = Oodb_schema.Code
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Value = Objstore.Value
module Ukey = Uindex.Ukey
module Ps = Workload.Paper_schema

let setup () =
  let b = Ps.base () in
  let code c = Encoding.code b.enc c in
  (b, code)

let test_entry_ordering () =
  let b, code = setup () in
  (* within one value, a class's entries precede its subclasses', which
     precede the next sibling's: Section 3.2.1's clustering *)
  let k cls oid = Ukey.entry_key ~value:(Value.Str "Red") [ (code cls, oid) ] in
  let veh = k b.vehicle 1 in
  let auto = k b.automobile 2 in
  let compact = k b.compact 3 in
  let truck = k b.truck 4 in
  Alcotest.(check bool) "vehicle < automobile" true (veh < auto);
  Alcotest.(check bool) "automobile < compact" true (auto < compact);
  Alcotest.(check bool) "compact < truck" true (compact < truck);
  (* values group first *)
  let blue = Ukey.entry_key ~value:(Value.Str "Blue") [ (code b.truck, 9) ] in
  Alcotest.(check bool) "Blue group before Red" true (blue < veh)

let test_path_entry_ordering () =
  let b, code = setup () in
  let k eoid coid void =
    Ukey.entry_key ~value:(Value.Int 50)
      [ (code b.employee, eoid); (code b.company, coid); (code b.vehicle, void) ]
  in
  (* same employee+company clusters, vehicles vary last *)
  Alcotest.(check bool) "vehicle varies last" true (k 1 2 3 < k 1 2 4);
  Alcotest.(check bool) "company groups" true (k 1 2 9 < k 1 3 1);
  Alcotest.(check bool) "employee groups" true (k 1 9 9 < k 2 1 1)

let test_component_order_enforced () =
  let b, code = setup () in
  Alcotest.check_raises "descending rejected"
    (Invalid_argument "Ukey.entry_key: components not in ascending code order")
    (fun () ->
      ignore
        (Ukey.entry_key ~value:(Value.Int 1)
           [ (code b.vehicle, 1); (code b.employee, 2) ]));
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Ukey.entry_key: no components") (fun () ->
      ignore (Ukey.entry_key ~value:(Value.Int 1) []))

let test_decode_roundtrip () =
  let b, code = setup () in
  let comps =
    [ (code b.employee, 7); (code b.company, 11); (code b.compact, 123456) ]
  in
  let key = Ukey.entry_key ~value:(Value.Int 50) comps in
  let d = Ukey.decode ~enc:b.enc ~ty:Schema.Int key in
  Alcotest.(check bool) "value" true (d.Ukey.value = Value.Int 50);
  Alcotest.(check (list (pair int int)))
    "components"
    [ (b.employee, 7); (b.company, 11); (b.compact, 123456) ]
    d.Ukey.comps;
  (* string-valued keys *)
  let key = Ukey.entry_key ~value:(Value.Str "Red") [ (code b.truck, 5) ] in
  let d = Ukey.decode ~enc:b.enc ~ty:Schema.String key in
  Alcotest.(check bool) "str value" true (d.Ukey.value = Value.Str "Red");
  Alcotest.(check (list (pair int int))) "str comps" [ (b.truck, 5) ] d.Ukey.comps

let test_decode_offsets () =
  let b, code = setup () in
  let comps = [ (code b.employee, 1); (code b.vehicle, 2) ] in
  let key = Ukey.entry_key ~value:(Value.Int 9) comps in
  let d = Ukey.decode ~enc:b.enc ~ty:Schema.Int key in
  List.iter2
    (fun (cs, os, oe) (c, _) ->
      (* the code region really serializes back to the component's class *)
      let ser = String.sub key cs (os - 1 - cs) in
      Alcotest.(check bool) "code slice" true
        (Encoding.class_of_serialized b.enc ser = Some c);
      Alcotest.(check int) "oid is 4 bytes" 4 (oe - os))
    d.Ukey.comp_offsets d.Ukey.comps;
  (* the final offset ends the key *)
  let _, _, last_end = List.nth d.Ukey.comp_offsets 1 in
  Alcotest.(check int) "covers whole key" (String.length key) last_end

let test_decode_malformed () =
  let b, _ = setup () in
  let raises s =
    match Ukey.decode ~enc:b.enc ~ty:Schema.Int s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected decode failure"
  in
  raises "";
  raises "short";
  raises (Value.encode (Value.Int 5));
  raises (Value.encode (Value.Int 5) ^ "\x01");
  raises (Value.encode (Value.Int 5) ^ "\x01ZZ\x02\x01\x00\x00")

let prop_roundtrip =
  let b, code = setup () in
  QCheck.Test.make ~count:500 ~name:"entry_key/decode roundtrip"
    QCheck.(pair (int_bound 1_000_000) (int_bound 0xFFFFFF))
    (fun (v, oid) ->
      let comps =
        [ (code b.employee, oid); (code b.company, oid + 1); (code b.vehicle, oid + 2) ]
      in
      let key = Ukey.entry_key ~value:(Value.Int v) comps in
      let d = Ukey.decode ~enc:b.enc ~ty:Schema.Int key in
      d.Ukey.value = Value.Int v
      && d.Ukey.comps
         = [ (b.employee, oid); (b.company, oid + 1); (b.vehicle, oid + 2) ])

(* --- rows from key bytes (Keyrow) against the decoding path ------------- *)

module Keyrow = Uindex.Keyrow

(* text values as the key format admits them (bytes >= 0x08): quotes,
   backslashes, the control bytes JSON escapes, UTF-8 and high bytes *)
let gen_text =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 8)
         (frequency
            [
              (4, map (String.make 1) (char_range ' ' '~'));
              (1, oneofl [ "\""; "\\"; "\x7f"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x9a\x97" ]);
              (1, map (fun c -> String.make 1 (Char.chr c)) (int_range 0x08 0x1f));
              (1, map (fun c -> String.make 1 (Char.chr c)) (int_range 0x80 0xff));
            ])))

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; -1; 1; min_int; max_int; min_int + 1; max_int - 1 ]);
        (2, int);
        (2, int_range (-1000) 1000);
      ])

let gen_oid =
  QCheck.Gen.(oneof [ oneofl [ 0; 9; 10; 0xFFFFFFFF ]; int_bound 0xFFFFFF; map (fun i -> i land 0xFFFFFFFF) int ])

(* a key of either value type over 1-4 distinct classes of the paper's
   schema, in ascending code order *)
let gen_key (b : Ps.t) =
  let classes = Oodb_schema.Schema.all_classes b.schema in
  QCheck.Gen.(
    let* value =
      oneof [ map (fun i -> Value.Int i) gen_int; map (fun s -> Value.Str s) gen_text ]
    in
    let* picked = shuffle_l classes >>= fun cs -> map (fun k -> List.filteri (fun i _ -> i < k) cs) (int_range 1 4) in
    let* oids = list_repeat (List.length picked) gen_oid in
    let comps =
      List.sort (fun (a, _) (c, _) -> Code.compare a c)
        (List.map2 (fun cls oid -> (Encoding.code b.enc cls, oid)) picked oids)
    in
    return (value, Ukey.entry_key ~value comps, List.length comps))

let ty_of = function Value.Int _ -> Schema.Int | _ -> Schema.String

let outcome f = match f () with s -> Ok s | exception e -> Error (Printexc.to_string e)

module Plan = Uindex.Plan
module Query = Uindex.Query

(* A plan whose [arity] components each admit every class (the union of
   the hierarchy roots' subtrees) with any value: it accepts exactly the
   keys that decode whole and have at least [arity] components. *)
let any_plan (b : Ps.t) ty arity =
  let every =
    Query.comp (P_union (List.map (fun r -> Query.P_subtree r) (Schema.roots b.schema)))
  in
  Plan.compile ~enc:b.enc ~ty { value = V_any; comps = List.init arity (fun _ -> every) }

(* Classifies a key, then renders it at the accepted arity from the
   plan's findings: [None] when the plan rejects it.  One plan and
   renderer per value type and arity for the whole run, so the
   classifier's shared-prefix memo and the renderer's value-group memo
   carry over from key to key; the key sits in a larger buffer whose
   tail must not be read. *)
let renderers (b : Ps.t) =
  let made = Hashtbl.create 8 in
  fun ty key ~arity ->
    let plan, r =
      match Hashtbl.find_opt made (ty, arity) with
      | Some pr -> pr
      | None ->
          let plan = any_plan b ty arity in
          let pr = (plan, Keyrow.create ~enc:b.enc plan) in
          Hashtbl.add made (ty, arity) pr;
          pr
    in
    let buf = Bytes.of_string (key ^ "\x01garbage") in
    match Plan.arity (Plan.classify_in_place plan ~skip:false buf (String.length key)) with
    | 0 -> None
    | a -> Some (outcome (fun () -> Keyrow.render r buf ~arity:a))

let prop_keyrow_oracle =
  let b, _ = setup () in
  let render = renderers b in
  QCheck.Test.make ~count:1000 ~name:"Keyrow.render = Json of Ukey.decode"
    (QCheck.make ~print:(fun (_, k, n) -> Printf.sprintf "%S (%d comps)" k n) (gen_key b))
    (fun (value, key, n) ->
      let ty = ty_of value in
      List.for_all
        (fun arity ->
          render ty key ~arity
          = Some (Ok (Row_oracle.key_row ~enc:b.enc ~ty ~arity key)))
        (List.init n (fun i -> i + 1)))

(* a byte replaced, dropped or inserted, or the key cut short: the
   classifier rejects the key, or the renderer prints the decoding
   path's row for it (so a key the classifier accepted but
   [Ukey.decode] rejects fails) *)
let prop_keyrow_malformed =
  let b, _ = setup () in
  let render = renderers b in
  QCheck.Test.make ~count:1000 ~name:"a damaged key is rejected, or renders as the oracle's row"
    (QCheck.make ~print:(fun (k, _, _) -> Printf.sprintf "%S" k)
       QCheck.Gen.(
         let* value, key, n = gen_key b in
         let* edit = int_bound 3 and* pos = nat and* c = char in
         let len = String.length key in
         let i = pos mod len in
         let key =
           match edit with
           | 0 -> String.mapi (fun k x -> if k = i then c else x) key
           | 1 -> String.sub key 0 i ^ String.sub key (i + 1) (len - i - 1)
           | 2 -> String.sub key 0 i ^ String.make 1 c ^ String.sub key i (len - i)
           | _ -> String.sub key 0 i
         in
         return (key, ty_of value, n)))
    (fun (key, ty, n) ->
      List.for_all
        (fun arity ->
          match render ty key ~arity with
          | None -> true
          | Some row ->
              let want = outcome (fun () -> Row_oracle.key_row ~enc:b.enc ~ty ~arity key) in
              Result.is_ok want && row = want)
        (List.init (n + 1) (fun i -> i + 1)))

(* A class added after a plan was compiled is none of its codes, so that
   plan rejects its keys; a plan compiled after it names the class, and
   a name that needs escaping prints escaped. *)
let test_keyrow_new_class () =
  let b, code = setup () in
  let row plan key =
    let buf = Bytes.of_string key in
    match Plan.arity (Plan.classify_in_place plan ~skip:false buf (Bytes.length buf)) with
    | 0 -> None
    | a -> Some (Keyrow.render (Keyrow.create ~enc:b.enc plan) buf ~arity:a)
  in
  let oracle ~arity key = Some (Row_oracle.key_row ~enc:b.enc ~ty:Schema.String ~arity key) in
  let known = Ukey.entry_key ~value:(Value.Str "Red") [ (code b.truck, 5) ] in
  Alcotest.(check (option string)) "known class" (oracle ~arity:1 known)
    (row (any_plan b Schema.String 1) known);
  let before = any_plan b Schema.String 2 in
  let odd =
    Oodb_schema.Schema.add_class b.schema ~parent:b.truck ~name:"Odd\"Truck\\\t" ~attrs:[]
  in
  Encoding.assign_new_class b.enc odd;
  let key =
    Ukey.entry_key ~value:(Value.Str "Re\"d") [ (code b.employee, 1); (code odd, 7) ]
  in
  Alcotest.(check (option string)) "compiled before the class" None (row before key);
  let expected = oracle ~arity:2 key in
  Alcotest.(check (option string)) "new class" expected (row (any_plan b Schema.String 2) key);
  Alcotest.(check (option string)) "escaped"
    (Some {|{"value":"Re\"d","comps":[["Employee",1],["Odd\"Truck\\\t",7]]}|}) expected

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_keyrow_oracle; prop_keyrow_malformed ]

let () =
  Alcotest.run "ukey"
    [
      ( "encoding",
        [
          Alcotest.test_case "class clustering" `Quick test_entry_ordering;
          Alcotest.test_case "path clustering" `Quick test_path_entry_ordering;
          Alcotest.test_case "component order" `Quick test_component_order_enforced;
          Alcotest.test_case "decode roundtrip" `Quick test_decode_roundtrip;
          Alcotest.test_case "decode offsets" `Quick test_decode_offsets;
          Alcotest.test_case "malformed keys" `Quick test_decode_malformed;
          Alcotest.test_case "rows for a class added later" `Quick
            test_keyrow_new_class;
        ] );
      ("properties", qsuite);
    ]
