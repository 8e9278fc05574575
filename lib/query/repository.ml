open Wfpriv_workflow
open Wfpriv_privacy

type entry = {
  name : string;
  spec : Spec.t;
  policy : Policy.t;
  executions : Execution.t list;
}

type t = { mutable entries : entry list }

let create () = { entries = [] }

(* Snapshot isolation for the live path: every write below builds a new
   list (and new entry records) instead of mutating in place, so an O(1)
   capture of the current list is a full immutable snapshot — readers on
   a pinned generation keep querying it while the writer moves on. *)
let freeze t = { entries = t.entries }

let find t name =
  match List.find_opt (fun e -> String.equal e.name name) t.entries with
  | Some e -> e
  | None -> raise Not_found

let add t ~name ~policy ?(executions = []) () =
  if List.exists (fun e -> String.equal e.name name) t.entries then
    invalid_arg (Printf.sprintf "Repository.add: duplicate entry %S" name);
  let spec = Policy.spec policy in
  List.iter
    (fun exec ->
      if Execution.spec exec != spec then
        invalid_arg "Repository.add: execution of a different spec")
    executions;
  t.entries <- t.entries @ [ { name; spec; policy; executions } ]

let add_execution t ~name exec =
  let e = find t name in
  if Execution.spec exec != e.spec then
    invalid_arg "Repository.add_execution: execution of a different spec";
  t.entries <-
    List.map
      (fun e' ->
        if String.equal e'.name name then
          { e' with executions = e'.executions @ [ exec ] }
        else e')
      t.entries

(* Erasure: drop a whole entry, or redact every stored value of one data
   name inside an entry. Both build fresh lists/records so frozen
   snapshots keep the pre-erasure state (pinned readers stay consistent
   until they re-pin a newer generation). *)
let erase t ~name data_name =
  ignore (find t name);
  match data_name with
  | None ->
      t.entries <-
        List.filter (fun e -> not (String.equal e.name name)) t.entries
  | Some dn ->
      t.entries <-
        List.map
          (fun e ->
            if String.equal e.name name then
              {
                e with
                executions =
                  List.map (fun x -> Execution.redact_named x dn) e.executions;
              }
            else e)
          t.entries

(* Reified repository writes. The durable storage engine journals values
   of this type before applying them; new kinds extend the log format
   without touching existing records. *)
type mutation =
  | Add_entry of {
      entry_name : string;
      policy : Policy.t;
      executions : Execution.t list;
    }
  | Add_execution of { entry_name : string; exec : Execution.t }
  | Erase of { entry_name : string; data_name : string option }

(* Check a mutation without applying it, raising as [apply] would. Lets a
   write-ahead log refuse a doomed mutation before journaling it, so a
   record that reached the log always replays cleanly. *)
let validate t = function
  | Add_entry { entry_name; policy; executions } ->
      if List.exists (fun e -> String.equal e.name entry_name) t.entries then
        invalid_arg
          (Printf.sprintf "Repository.add: duplicate entry %S" entry_name);
      let spec = Policy.spec policy in
      List.iter
        (fun exec ->
          if Execution.spec exec != spec then
            invalid_arg "Repository.add: execution of a different spec")
        executions
  | Add_execution { entry_name; exec } ->
      let e = find t entry_name in
      if Execution.spec exec != e.spec then
        invalid_arg "Repository.add_execution: execution of a different spec"
  | Erase { entry_name; data_name = _ } -> ignore (find t entry_name)

let apply t = function
  | Add_entry { entry_name; policy; executions } ->
      add t ~name:entry_name ~policy ~executions ()
  | Add_execution { entry_name; exec } -> add_execution t ~name:entry_name exec
  | Erase { entry_name; data_name } -> erase t ~name:entry_name data_name

let names t = List.map (fun e -> e.name) t.entries |> List.sort compare
let nb_entries t = List.length t.entries

let visible_terms entry level =
  let gate = Access_gate.of_policy entry.policy ~level in
  List.concat_map
    (fun m -> Module_def.terms (Spec.find_module entry.spec m))
    (View.visible_modules (Access_gate.spec_view gate))

let visible_corpus t ~level =
  Tfidf.build (List.map (fun e -> (e.name, visible_terms e level)) t.entries)

let index_entries t =
  List.map (fun e -> (e.name, e.spec, Policy.privilege e.policy)) t.entries

let search_index ?pool t = Index.build ?pool (index_entries t)

let keyword_topk ?index t ~level ~k keywords =
  let index = match index with Some i -> i | None -> search_index t in
  (* The compressed index scores every module at floor <= level — the
     witness-admissibility predicate — where [keyword_search] scores the
     access view's frontier; both agree on which entries match. *)
  Engine.run_search_indexed ~index ~level (Plan.compile_search ~top:k keywords)

type search_hit = {
  entry_name : string;
  answer : Keyword.answer;
  score : float;
}

let keyword_search t ~level ?strategy ?quantize_scores keywords =
  let corpus = visible_corpus t ~level in
  let hits =
    List.filter_map
      (fun e ->
        let gate = Access_gate.of_policy e.policy ~level in
        let visible m = Access_gate.sees_module gate m in
        match Keyword.search ?strategy ~restrict_to:visible e.spec keywords with
        | None -> None
        | Some answer ->
            (* Never show more than the access view allows. *)
            let capped = Access_gate.cap_view gate answer.Keyword.view in
            let answer = { answer with Keyword.view = capped } in
            Some
              {
                entry_name = e.name;
                answer;
                score = Tfidf.score corpus ~doc:e.name keywords;
              })
      t.entries
  in
  (* Ranking runs as a compiled search pipeline: lookup (the hit scores),
     optional quantization, rank. *)
  let plan = Plan.compile_search ?quantize:quantize_scores keywords in
  let ranked =
    Engine.run_search
      ~lookup:(fun _ ->
        List.map (fun h -> { Ranking.doc = h.entry_name; score = h.score }) hits)
      plan
  in
  List.filter_map
    (fun (r : Ranking.entry) ->
      Option.map
        (fun h -> { h with score = r.Ranking.score })
        (List.find_opt (fun h -> String.equal h.entry_name r.Ranking.doc) hits))
    ranked

type prov_hit = {
  prov_entry : string;
  run : int;
  prov_answer : Exec_search.answer;
}

let provenance_search t ~level keywords =
  List.concat_map
    (fun e ->
      let gate = Access_gate.of_policy e.policy ~level in
      List.concat
        (List.mapi
           (fun run exec ->
             let displayable w =
               (* The witness must be exposable within the access view,
                  or the capped answer could not show it. *)
               List.for_all
                 (Access_gate.allows_workflow gate)
                 (Exec_search.required_prefix exec w)
             in
             let admissible w =
               displayable w
               &&
               match w with
               | Exec_search.Module_witness n -> (
                   match Execution.module_of_node exec n with
                   | Some m -> Access_gate.sees_module gate m
                   | None -> true)
               | Exec_search.Data_witness d ->
                   let item = Execution.find_item exec d in
                   Access_gate.data_readable gate item.Execution.name
             in
             match Exec_search.search ~restrict_to:admissible exec keywords with
             | None -> []
             | Some answer ->
                 (* Cap the answer at the caller's access view. *)
                 let capped_prefix =
                   Access_gate.cap_prefix gate
                     (Exec_view.prefix answer.Exec_search.view)
                 in
                 let answer =
                   {
                     answer with
                     Exec_search.view = Exec_view.of_prefix exec capped_prefix;
                   }
                 in
                 [ { prov_entry = e.name; run; prov_answer = answer } ])
           e.executions))
    t.entries
  |> List.sort (fun a b -> compare (a.prov_entry, a.run) (b.prov_entry, b.run))

let structural_query ?cache t ~level name q =
  let e = find t name in
  let gate = Access_gate.of_policy e.policy ~level in
  let plan = Plan.compile q in
  List.mapi
    (fun run exec ->
      let ev = lazy (Access_gate.exec_view gate exec) in
      let engine =
        match cache with
        | None -> Engine.of_exec_view (Lazy.force ev)
        | Some c ->
            (* One prepared engine (and one memoized closure) per user
               group and run — Sec. 4's cached-information reuse. *)
            let key =
              Reach_cache.group_key ~entry:name ~run
                ~prefix:(Access_gate.allowed gate) ()
            in
            Reach_cache.engine c ~key ev
      in
      Query_eval.of_engine (Engine.run engine plan))
    e.executions
