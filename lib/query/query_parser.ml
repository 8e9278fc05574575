exception Syntax_error of { pos : int; message : string }

type state = { src : string; mutable pos : int }

let error st message = raise (Syntax_error { pos = st.pos; message })
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      st.pos <- st.pos + 1;
      skip_ws st
  | _ -> ()

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected %C" c)

let is_word_char c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let word st =
  skip_ws st;
  let start = st.pos in
  while (match peek st with Some c when is_word_char c -> true | _ -> false) do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected a word";
  String.sub st.src start (st.pos - start)

(* Words are matched lazily: [try_word] only consumes on full match
   followed by a non-word character. *)
let try_word st w =
  skip_ws st;
  let n = String.length w in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = w
    && (st.pos + n = String.length st.src || not (is_word_char st.src.[st.pos + n]))
  then begin
    st.pos <- st.pos + n;
    true
  end
  else false

let string_lit st =
  skip_ws st;
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        st.pos <- st.pos + 1;
        Buffer.contents buf
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | Some (('"' | '\\') as c) ->
            Buffer.add_char buf c;
            st.pos <- st.pos + 1
        | _ -> error st "invalid escape");
        go ()
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ()

let pred st =
  skip_ws st;
  match peek st with
  | Some '*' ->
      st.pos <- st.pos + 1;
      Query_ast.Any
  | Some '~' ->
      st.pos <- st.pos + 1;
      Query_ast.Name_matches (string_lit st)
  | _ ->
      let w = word st in
      if String.equal w "atomic" then Query_ast.Atomic_only
      else if String.equal w "composite" then Query_ast.Composite_only
      else if String.equal w "I" then
        Query_ast.Module_is Wfpriv_workflow.Ids.input_module
      else if String.equal w "O" then
        Query_ast.Module_is Wfpriv_workflow.Ids.output_module
      else if
        String.length w >= 2
        && w.[0] = 'M'
        && String.for_all
             (fun c -> c >= '0' && c <= '9')
             (String.sub w 1 (String.length w - 1))
      then
        (* [Ids.m k] is [k + 1]: indices below 1, beyond [int] or at
           [max_int] have no module id. *)
        match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
        | Some k when k >= 1 && k < max_int ->
            Query_ast.Module_is (Wfpriv_workflow.Ids.m k)
        | _ -> error st (Printf.sprintf "module index out of range in %S" w)
      else error st (Printf.sprintf "unknown predicate %S" w)

let rec parse_or st =
  let left = parse_and st in
  if try_word st "or" then Query_ast.Or (left, parse_or st) else left

and parse_and st =
  let left = parse_unary st in
  if try_word st "and" then Query_ast.And (left, parse_and st) else left

and parse_unary st =
  if try_word st "not" then Query_ast.Not (parse_unary st)
  else parse_primary st

and parse_primary st =
  skip_ws st;
  match peek st with
  | Some '(' ->
      st.pos <- st.pos + 1;
      let q = parse_or st in
      expect st ')';
      q
  | _ ->
      let w = word st in
      let unary name build =
        ignore name;
        expect st '(';
        let p = pred st in
        expect st ')';
        build p
      in
      let binary build =
        expect st '(';
        let a = pred st in
        expect st ',';
        let b = pred st in
        expect st ')';
        build a b
      in
      if String.equal w "node" then unary w (fun p -> Query_ast.Node p)
      else if String.equal w "edge" then binary (fun a b -> Query_ast.Edge (a, b))
      else if String.equal w "before" then
        binary (fun a b -> Query_ast.Before (a, b))
      else if String.equal w "refines" then
        binary (fun a b -> Query_ast.Refines (a, b))
      else if String.equal w "inside" then begin
        expect st '(';
        let p = pred st in
        expect st ',';
        let wf = word st in
        expect st ')';
        Query_ast.Inside (p, wf)
      end
      else if String.equal w "carries" then begin
        expect st '(';
        let a = pred st in
        expect st ',';
        let b = pred st in
        expect st ',';
        let d = string_lit st in
        expect st ')';
        Query_ast.Carries (a, b, d)
      end
      else error st (Printf.sprintf "unknown query form %S" w)

let parse src =
  let st = { src; pos = 0 } in
  let q = parse_or st in
  skip_ws st;
  (match peek st with
  | Some c -> error st (Printf.sprintf "trailing input at %C" c)
  | None -> ());
  q

let parse_result src =
  match parse src with
  | q -> Ok q
  | exception Syntax_error { pos; message } ->
      Error (Printf.sprintf "at offset %d: %s" pos message)
