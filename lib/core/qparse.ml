module Schema = Oodb_schema.Schema
module Value = Objstore.Value

exception Parse_error of string

(* --- lexer ----------------------------------------------------------------- *)

type token =
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Comma
  | Dash
  | Pipe
  | Star
  | Question
  | Underscore
  | At
  | Int of int
  | Word of string  (* bare identifier or quoted string *)
  | Quoted of string

let fail pos fmt =
  Format.kasprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" pos m))) fmt

let lex input =
  let n = String.length input in
  let out = ref [] in
  let i = ref 0 in
  let push t = out := (t, !i) :: !out in
  (* an optional sign at [!i], then the digits from [digits] on *)
  let int_literal digits =
    let rec stop j =
      if j < n && input.[j] >= '0' && input.[j] <= '9' then stop (j + 1) else j
    in
    let j = stop digits in
    let text = String.sub input !i (j - !i) in
    match int_of_string_opt text with
    | Some x ->
        push (Int x);
        i := j - 1
    | None -> fail !i "integer %s does not fit in %d bits" text Sys.int_size
  in
  while !i < n do
    let c = input.[!i] in
    (match c with
    | ' ' | '\t' | '\n' | '\r' -> ()
    | '(' -> push Lparen
    | ')' -> push Rparen
    | '[' -> push Lbracket
    | ']' -> push Rbracket
    | '{' -> push Lbrace
    | '}' -> push Rbrace
    | ',' -> push Comma
    | '|' -> push Pipe
    | '*' -> push Star
    | '?' -> push Question
    | '_' -> push Underscore
    | '@' -> push At
    | '"' ->
        let start = !i + 1 in
        let rec close j =
          if j >= n then fail start "unterminated string literal"
          else if input.[j] = '"' then j
          else close (j + 1)
        in
        let stop = close start in
        push (Quoted (String.sub input start (stop - start)));
        i := stop
    | '-' ->
        (* a dash is a sign only when a digit follows AND the previous
           token cannot end a scalar (so [5--3] parses) *)
        let prev_ends_scalar =
          match !out with
          | (Int _, _) :: _ | (Word _, _) :: _ | (Quoted _, _) :: _ -> true
          | (Rbrace, _) :: _ | (Rbracket, _) :: _ -> true
          | _ -> false
        in
        (* directly after '[' a dash is always the range separator, so
           [-50] means "open below"; a negative lower bound has no
           textual form *)
        let after_lbracket =
          match !out with (Lbracket, _) :: _ -> true | _ -> false
        in
        if
          (not prev_ends_scalar) && (not after_lbracket)
          && !i + 1 < n
          && input.[!i + 1] >= '0'
          && input.[!i + 1] <= '9'
        then int_literal (!i + 1)
        else push Dash
    | '0' .. '9' -> int_literal !i
    | ('A' .. 'Z' | 'a' .. 'z') ->
        let start = !i in
        let is_word_char c =
          (c >= 'A' && c <= 'Z')
          || (c >= 'a' && c <= 'z')
          || (c >= '0' && c <= '9')
          || c = '_'
        in
        let rec stop j = if j < n && is_word_char input.[j] then stop (j + 1) else j in
        let j = stop start in
        push (Word (String.sub input start (j - start)));
        i := j - 1
    | _ -> fail !i "unexpected character %C" c);
    incr i
  done;
  List.rev !out

(* --- parser ------------------------------------------------------------------ *)

(* [len]: the input's length, the position reported once the tokens run
   out *)
type state = { mutable toks : (token * int) list; len : int }

let peek st = match st.toks with [] -> None | (t, _) :: _ -> Some t

let pos st = match st.toks with [] -> st.len | (_, p) :: _ -> p

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st t what =
  match st.toks with
  | (t', _) :: rest when t' = t -> st.toks <- rest
  | _ -> fail (pos st) "expected %s" what

let scalar st =
  match peek st with
  | Some (Int x) ->
      advance st;
      Value.Int x
  | Some (Word w) ->
      advance st;
      Value.Str w
  | Some (Quoted s) ->
      advance st;
      Value.Str s
  | _ -> fail (pos st) "expected a value (integer, word or \"string\")"

let value_pred st =
  match peek st with
  | Some Star ->
      advance st;
      Query.V_any
  | Some Lbrace ->
      advance st;
      let rec items acc =
        let v = scalar st in
        match peek st with
        | Some Comma ->
            advance st;
            items (v :: acc)
        | _ ->
            expect st Rbrace "'}'";
            List.rev (v :: acc)
      in
      Query.V_in (items [])
  | Some Lbracket ->
      advance st;
      let lo =
        match peek st with
        | Some Dash -> None
        | _ -> Some (scalar st)
      in
      expect st Dash "'-'";
      let hi =
        match peek st with
        | Some Rbracket -> None
        | _ -> Some (scalar st)
      in
      expect st Rbracket "']'";
      if lo = None && hi = None then fail (pos st) "empty range bounds";
      Query.V_range (lo, hi)
  | _ -> Query.V_eq (scalar st)

let class_name schema st =
  match peek st with
  | Some (Word w) -> (
      advance st;
      match Schema.find schema w with
      | Some id -> id
      | None -> fail (pos st) "unknown class %S" w)
  | _ -> fail (pos st) "expected a class name"

let rec class_pat schema st =
  match peek st with
  | Some Lbracket ->
      advance st;
      let rec alts acc =
        let p = class_pat schema st in
        match peek st with
        | Some Pipe ->
            advance st;
            alts (p :: acc)
        | _ ->
            expect st Rbracket "']'";
            List.rev (p :: acc)
      in
      Query.P_union (alts [])
  | _ -> (
      let id = class_name schema st in
      match peek st with
      | Some Star ->
          advance st;
          Query.P_subtree id
      | _ -> Query.P_class id)

let slot st =
  match peek st with
  | Some Question | Some Underscore ->
      advance st;
      Query.S_any
  | Some At -> (
      advance st;
      match peek st with
      | Some (Int o) ->
          advance st;
          Query.S_oid o
      | Some Lbrace ->
          advance st;
          let rec oids acc =
            match peek st with
            | Some (Int o) -> (
                advance st;
                match peek st with
                | Some Comma ->
                    advance st;
                    oids (o :: acc)
                | _ ->
                    expect st Rbrace "'}'";
                    List.rev (o :: acc))
            | _ -> fail (pos st) "expected an OID"
          in
          Query.S_one_of (oids [])
      | _ -> fail (pos st) "expected an OID or '{' after '@'")
  | _ -> Query.S_any

let comp schema st =
  let pat = class_pat schema st in
  let slot = slot st in
  { Query.pat; slot }

let parse schema input =
  let st = { toks = lex input; len = String.length input } in
  expect st Lparen "'('";
  let value = value_pred st in
  let rec comps acc =
    match peek st with
    | Some Comma ->
        advance st;
        comps (comp schema st :: acc)
    | Some Rparen ->
        advance st;
        List.rev acc
    | _ -> fail (pos st) "expected ',' or ')'"
  in
  let comps = comps [] in
  if comps = [] then raise (Parse_error "query needs at least one class component");
  (match st.toks with
  | [] -> ()
  | (_, p) :: _ -> fail p "trailing input after query");
  { Query.value; comps }

(* --- printer ------------------------------------------------------------------ *)

let scalar_to_syntax = function
  | Value.Int x -> string_of_int x
  | Value.Str s ->
      let plain =
        s <> ""
        && String.for_all
             (fun c ->
               (c >= 'A' && c <= 'Z')
               || (c >= 'a' && c <= 'z')
               || (c >= '0' && c <= '9')
               || c = '_')
             s
        && not (s.[0] >= '0' && s.[0] <= '9')
      in
      if plain then s else Printf.sprintf "%S" s
  | Value.Null | Value.Ref _ | Value.Ref_set _ ->
      invalid_arg "Qparse.to_syntax: non-scalar value"

let value_to_syntax = function
  | Query.V_any
  | Query.V_range (None, None) (* an unbounded range is just "any" *) -> "*"
  | Query.V_eq v -> scalar_to_syntax v
  | Query.V_in vs ->
      "{" ^ String.concat ", " (List.map scalar_to_syntax vs) ^ "}"
  | Query.V_range (lo, hi) ->
      let b = function Some v -> scalar_to_syntax v | None -> "" in
      Printf.sprintf "[%s-%s]" (b lo) (b hi)

let rec pat_to_syntax schema = function
  | Query.P_class c -> Schema.name schema c
  | Query.P_subtree c -> Schema.name schema c ^ "*"
  | Query.P_union ps ->
      "[" ^ String.concat " | " (List.map (pat_to_syntax schema) ps) ^ "]"

let slot_to_syntax = function
  | Query.S_any -> ""
  | Query.S_oid o -> Printf.sprintf " @%d" o
  | Query.S_one_of os ->
      Printf.sprintf " @{%s}" (String.concat ", " (List.map string_of_int os))
  | Query.S_pred _ -> " ?"

let to_syntax schema (q : Query.t) =
  let comps =
    List.map
      (fun c -> pat_to_syntax schema c.Query.pat ^ slot_to_syntax c.Query.slot)
      q.comps
  in
  Printf.sprintf "(%s%s)" (value_to_syntax q.value)
    (String.concat "" (List.map (fun c -> ", " ^ c) comps))
