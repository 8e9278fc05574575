open Wfpriv_workflow

type witness = Module_witness of int | Data_witness of Ids.data_id

type match_info = {
  keyword : string;
  chosen : witness;
  required_prefix : Ids.workflow_id list;
}

type answer = { view : Exec_view.t; matches : match_info list }

(* Expansion workflow of a composite execution, looked up by process id. *)
let workflow_of_proc exec =
  let table = Hashtbl.create 8 in
  List.iter
    (fun n ->
      match Execution.node_kind exec n with
      | Execution.Begin_composite { proc; module_id } -> (
          match
            Module_def.expansion (Spec.find_module (Execution.spec exec) module_id)
          with
          | Some w -> Hashtbl.replace table proc w
          | None -> assert false)
      | _ -> ())
    (Execution.nodes exec);
  fun proc -> Hashtbl.find table proc

(* Enclosing scope whose expansion the witness needs; for begin/end nodes
   the node's own process id is dropped (a collapsed composite is still a
   visible witness for its module). *)
let node_requirement exec n =
  let scope = Execution.scope exec n in
  match Execution.node_kind exec n with
  | Execution.Begin_composite _ | Execution.End_composite _ -> (
      match List.rev scope with [] -> [] | _ :: outer -> List.rev outer)
  | _ -> scope

let common_prefix a b =
  let rec go a b acc =
    match (a, b) with
    | x :: a', y :: b' when x = y -> go a' b' (x :: acc)
    | _ -> List.rev acc
  in
  go a b []

let required_prefix exec w =
  let root = Spec.root (Execution.spec exec) in
  let wf_of = workflow_of_proc exec in
  let procs =
    match w with
    | Module_witness n -> node_requirement exec n
    | Data_witness d ->
        ignore (Execution.find_item exec d);
        (* The item is visible through whichever carrying edge crosses
           composite boundaries the shallowest. *)
        let carrying =
          Execution.fold_edges
            (fun u v ds acc ->
              if List.mem d ds then
                common_prefix (Execution.scope exec u) (Execution.scope exec v)
                :: acc
              else acc)
            exec []
        in
        (match
           List.sort (fun a b -> compare (List.length a) (List.length b)) carrying
         with
        | shallowest :: _ -> shallowest
        | [] ->
            (* An item on no edge (dead output): fall back to its
               producer's requirement. *)
            node_requirement exec (Execution.find_item exec d).Execution.producer)
  in
  List.sort_uniq compare (root :: List.map wf_of procs)

let keyword_matches_name keyword name =
  let keyword = String.lowercase_ascii keyword in
  let name = String.lowercase_ascii name in
  let n = String.length keyword and h = String.length name in
  n > 0
  &&
  let rec at i = i + n <= h && (String.sub name i n = keyword || at (i + 1)) in
  at 0

let witness_candidates exec keyword =
  (* Module hits through the raw-execution engine (I/O nodes have no
     module and never match); end nodes are dropped so a composite is
     witnessed by its begin node only. *)
  let engine = Engine.of_execution exec in
  let module_hits =
    List.filter
      (fun n ->
        match Execution.node_kind exec n with
        | Execution.End_composite _ -> false
        | _ -> true)
      (Engine.matching engine (Query_ast.Name_matches keyword))
  in
  let data_hits =
    List.filter_map
      (fun (it : Execution.item) ->
        if keyword_matches_name keyword it.Execution.name then
          Some it.Execution.data_id
        else None)
      (Execution.items exec)
  in
  List.map (fun n -> Module_witness n) module_hits
  @ List.map (fun d -> Data_witness d) data_hits

let search ?(restrict_to = fun _ -> true) exec keywords =
  if keywords = [] then invalid_arg "Exec_search.search: empty keyword list";
  let per_kw =
    List.map
      (fun kw ->
        (kw, List.filter restrict_to (witness_candidates exec kw)))
      keywords
  in
  if List.exists (fun (_, ws) -> ws = []) per_kw then None
  else begin
    let chosen =
      List.map
        (fun (kw, ws) ->
          let scored =
            List.map (fun w -> (List.length (required_prefix exec w), w)) ws
          in
          let best =
            List.fold_left
              (fun acc cand -> if cand < acc then cand else acc)
              (List.hd scored) (List.tl scored)
          in
          (kw, snd best))
        per_kw
    in
    let prefix =
      List.concat_map (fun (_, w) -> required_prefix exec w) chosen
      |> List.sort_uniq compare
    in
    let view = Exec_view.of_prefix exec prefix in
    let matches =
      List.map
        (fun (keyword, chosen) ->
          { keyword; chosen; required_prefix = required_prefix exec chosen })
        chosen
    in
    Some { view; matches }
  end
