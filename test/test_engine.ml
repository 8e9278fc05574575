(* Differential and leakage tests for the compiled query engine (PR 2).

   The engine must be a pure refactor: identical witnesses to the
   pre-refactor evaluator (kept verbatim as [Legacy_eval]) on every
   workload, at every privilege level, for every operator — and no plan
   operator may ever emit a node the gate's level cannot see. *)

open Wfpriv_workflow
open Wfpriv_privacy
open Wfpriv_query
module Disease = Wfpriv_workloads.Disease
module Clinical = Wfpriv_workloads.Clinical
module Synthetic = Wfpriv_workloads.Synthetic
module Rng = Wfpriv_workloads.Rng

let check = Alcotest.check
let intl = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Workload fixtures *)

(* Depth-based expansion levels (as the CLI demo uses) for workloads
   without a policy: deeper workflows need more privilege. *)
let depth_privilege spec =
  let h = Hierarchy.of_spec spec in
  Privilege.make spec
    (Spec.workflow_ids spec
    |> List.filter (fun w -> w <> Spec.root spec)
    |> List.map (fun w -> (w, Hierarchy.depth h w)))

let disease =
  lazy (Disease.spec, depth_privilege Disease.spec, Disease.run ())

let clinical =
  lazy (Clinical.spec, Policy.privilege Clinical.policy, Clinical.run ())

let synthetic =
  lazy
    (let rng = Rng.create 7 in
     let spec, exec = Synthetic.run rng Synthetic.default_params in
     (spec, depth_privilege spec, exec))

let workloads =
  [ ("disease", disease); ("clinical", clinical); ("synthetic", synthetic) ]

(* ------------------------------------------------------------------ *)
(* Query catalog: every Query_ast operator, with ids drawn from the
   spec under test so the same catalog exercises all three workloads. *)

let first_data_name spec =
  let names =
    List.concat_map
      (fun w -> (Spec.find_workflow spec w).Spec.edges)
      (Spec.workflow_ids spec)
    |> List.concat_map (fun (e : Spec.edge) -> e.Spec.data)
  in
  match names with d :: _ -> d | [] -> "no-data"

let catalog spec =
  let open Query_ast in
  let ms = Spec.module_ids spec in
  let nth k = List.nth ms (k mod List.length ms) in
  let m_a = nth 2 and m_b = nth (List.length ms - 2) in
  let ws = Spec.workflow_ids spec in
  let w_deep = List.nth ws (List.length ws - 1) in
  let data = first_data_name spec in
  [
    Node Any;
    Node Atomic_only;
    Node Composite_only;
    Node (Module_is m_a);
    Node (Name_matches "e");
    Node (Name_matches "zzz-no-such-module");
    Edge (Any, Any);
    Edge (Name_matches "a", Any);
    Edge (Module_is m_a, Module_is m_b);
    Carries (Any, Any, data);
    Carries (Name_matches "a", Any, data);
    Carries (Any, Any, "zzz-no-such-data");
    Before (Any, Any);
    Before (Module_is m_a, Module_is m_b);
    Before (Module_is m_b, Module_is m_a);
    Before (Name_matches "a", Name_matches "e");
    Inside (Any, w_deep);
    Inside (Atomic_only, w_deep);
    Inside (Module_is m_a, Spec.root spec);
    Inside (Any, "zzz-no-such-workflow");
    Refines (Composite_only, Any);
    Refines (Any, Atomic_only);
    Refines (Composite_only, Module_is m_a);
    And (Node Any, Before (Any, Any));
    And (Node (Name_matches "zzz"), Node Any);
    Or (Node (Module_is m_a), Node (Module_is m_b));
    Or (Node (Name_matches "zzz"), Node Any);
    Or (Node (Name_matches "zzz"), Node (Name_matches "yyy"));
    Not (Before (Module_is m_b, Module_is m_a));
    Not (Node (Name_matches "zzz"));
    And (Or (Node (Module_is m_a), Node (Module_is m_b)), Not (Edge (Any, Any)));
  ]

let preds spec =
  let open Query_ast in
  let ms = Spec.module_ids spec in
  [
    Any;
    Atomic_only;
    Composite_only;
    Module_is (List.hd ms);
    Module_is (List.nth ms (List.length ms / 2));
    Name_matches "a";
    Name_matches "e";
    Name_matches "zzz-no-such-module";
  ]

(* ------------------------------------------------------------------ *)
(* Tentpole differential: engine == legacy evaluator, everywhere *)

let test_differential (name, workload) () =
  let spec, privilege, exec = Lazy.force workload in
  List.iter
    (fun level ->
      let ctx fmt = Printf.sprintf "%s level %d: %s" name level fmt in
      let v = Privilege.access_view privilege level in
      let ev = Privilege.access_exec_view privilege level exec in
      List.iter
        (fun q ->
          let qs = Query_ast.to_string q in
          let ls = Legacy_eval.eval_spec v q in
          let ns = Query_eval.eval_spec v q in
          check Alcotest.bool (ctx ("spec holds " ^ qs)) ls.Legacy_eval.holds
            ns.Query_eval.holds;
          check intl (ctx ("spec nodes " ^ qs)) ls.Legacy_eval.nodes
            ns.Query_eval.nodes;
          let le = Legacy_eval.eval_exec ev q in
          let ne = Query_eval.eval_exec ev q in
          check Alcotest.bool (ctx ("exec holds " ^ qs)) le.Legacy_eval.holds
            ne.Query_eval.holds;
          check intl (ctx ("exec nodes " ^ qs)) le.Legacy_eval.nodes
            ne.Query_eval.nodes)
        (catalog spec);
      List.iter
        (fun p ->
          check intl (ctx "spec matching")
            (Legacy_eval.spec_nodes_matching v p)
            (Query_eval.spec_nodes_matching v p);
          check intl (ctx "exec matching")
            (Legacy_eval.exec_nodes_matching ev p)
            (Query_eval.exec_nodes_matching ev p);
          check intl (ctx "provenance of matches")
            (Legacy_eval.provenance_of_matches ev p)
            (Query_eval.provenance_of_matches ev p))
        (preds spec))
    (Privilege.levels privilege)

(* ------------------------------------------------------------------ *)
(* Leakage: no plan operator's intermediate output may contain a node
   above the gate's level, on either the spec or the execution side. *)

let test_leakage (name, workload) () =
  let spec, privilege, exec = Lazy.force workload in
  List.iter
    (fun level ->
      let gate = Access_gate.make privilege ~level in
      let ev = Access_gate.exec_view gate exec in
      let eng = Engine.of_exec_view ev in
      let seng = Engine.of_spec_view (Access_gate.spec_view gate) in
      List.iter
        (fun q ->
          let plan = Plan.compile q in
          let _, trace = Engine.run_trace eng plan in
          List.iter
            (fun (op, nodes) ->
              List.iter
                (fun n ->
                  match Exec_view.module_of_node ev n with
                  | None -> () (* execution input/output: public *)
                  | Some m ->
                      if not (Access_gate.sees_module gate m) then
                        Alcotest.failf
                          "%s level %d: exec node %d (module %d) above level \
                           in operator %s"
                          name level n m (Plan.to_string op))
                nodes)
            trace;
          let _, strace = Engine.run_trace seng plan in
          List.iter
            (fun (op, ms) ->
              List.iter
                (fun m ->
                  if not (Access_gate.sees_module gate m) then
                    Alcotest.failf
                      "%s level %d: spec module %d above level in operator %s"
                      name level m (Plan.to_string op))
                ms)
            strace)
        (catalog spec))
    (Privilege.levels privilege)

(* ------------------------------------------------------------------ *)
(* Satellite: deterministic zoom-out (deepest offender, lexicographic
   tie-break) *)

let test_deepest_offender_deterministic () =
  let spec, privilege, exec = Lazy.force disease in
  let gate = Access_gate.make privilege ~level:0 in
  let h = Hierarchy.of_spec spec in
  let expected prefix =
    (* Independent reimplementation of the documented rule. *)
    match Access_gate.offending gate prefix with
    | [] -> None
    | off ->
        Some
          (List.fold_left
             (fun best w ->
               let dw = Hierarchy.depth h w and db = Hierarchy.depth h best in
               if dw > db || (dw = db && w < best) then w else best)
             (List.hd off) (List.tl off))
  in
  let all = Spec.workflow_ids spec in
  let rec drive prefix acc =
    match Access_gate.deepest_offender gate prefix with
    | None -> List.rev acc
    | Some w ->
        check
          Alcotest.(option string)
          "deepest offender matches the documented rule" (expected prefix)
          (Some w);
        drive (Access_gate.collapse gate prefix w) (w :: acc)
  in
  let seq1 = drive all [] in
  let seq2 = drive all [] in
  check Alcotest.(list string) "collapse sequence is reproducible" seq1 seq2;
  check Alcotest.bool "level 0 collapses something" true (seq1 <> []);
  (* Depth ties are broken towards the lexicographically smallest id. *)
  List.iter
    (fun w ->
      let tied =
        List.filter
          (fun w' ->
            Hierarchy.depth h w' = Hierarchy.depth h w
            && Access_gate.offending gate [ w' ] <> [])
          all
      in
      List.iter (fun w' -> check Alcotest.bool "lex min among ties" true (w <= w'))
        (List.filter (fun w' -> List.mem w' (Access_gate.offending gate all)) tied
         |> List.filter (fun w' ->
                match Access_gate.deepest_offender gate all with
                | Some d -> Hierarchy.depth h w' = Hierarchy.depth h d && w = d
                | None -> false)))
    (Option.to_list (Access_gate.deepest_offender gate all));
  (* Zoom-out and on-the-fly still agree through the gate entry points. *)
  let q = Query_ast.before_by_name "Expand SNP" "OMIM" in
  let a = Secure_eval.gated_on_the_fly gate exec q in
  let b = Secure_eval.gated_zoom_out gate exec q in
  check Alcotest.bool "zoom-out agrees with on-the-fly" true
    (Secure_eval.agree a b);
  let b' = Secure_eval.gated_zoom_out gate exec q in
  check Alcotest.int "round count is deterministic" b.Secure_eval.collapse_count
    b'.Secure_eval.collapse_count

(* ------------------------------------------------------------------ *)
(* Search pipeline: the compiled search plan reproduces the ranking
   primitives it replaced, and repository rankings are deterministic. *)

let entry_l = Alcotest.(list (pair string (float 1e-9)))

let to_pairs = List.map (fun (e : Ranking.entry) -> (e.Ranking.doc, e.Ranking.score))

let test_search_pipeline () =
  let entries =
    [
      { Ranking.doc = "alpha"; score = 0.31 };
      { Ranking.doc = "beta"; score = 0.3 };
      { Ranking.doc = "gamma"; score = 0.7 };
      { Ranking.doc = "delta"; score = 0.31 };
    ]
  in
  let lookup _ = entries in
  let run ?quantize ?top () =
    Engine.run_search ~lookup (Plan.compile_search ?quantize ?top [ "kw" ])
  in
  check entry_l "plain rank" (to_pairs (Ranking.rank entries)) (to_pairs (run ()));
  check entry_l "quantized rank"
    (to_pairs (Ranking.rank (Ranking.quantize ~width:0.25 entries)))
    (to_pairs (run ~quantize:0.25 ()));
  check entry_l "top-k projection"
    (to_pairs (Ranking.top_k 2 (Ranking.rank entries)))
    (to_pairs (run ~top:2 ()))

let repo_fixture () =
  let _, _, _ = Lazy.force disease in
  let repo = Repository.create () in
  let disease_policy =
    let spec = Disease.spec in
    let h = Hierarchy.of_spec spec in
    Policy.make
      ~expand_levels:
        (Spec.workflow_ids spec
        |> List.filter (fun w -> w <> Spec.root spec)
        |> List.map (fun w -> (w, Hierarchy.depth h w)))
      spec
  in
  Repository.add repo ~name:"disease" ~policy:disease_policy
    ~executions:[ Disease.run () ] ();
  Repository.add repo ~name:"clinical" ~policy:Clinical.policy
    ~executions:[ Clinical.run () ] ();
  repo

let test_repository_ranking_deterministic () =
  let repo = repo_fixture () in
  List.iter
    (fun level ->
      List.iter
        (fun quantize_scores ->
          let run () =
            Repository.keyword_search repo ~level ?quantize_scores
              [ "patient"; "record" ]
            |> List.map (fun h ->
                   (h.Repository.entry_name, h.Repository.score))
          in
          let a = run () and b = run () in
          check entry_l "ranking is deterministic" a b;
          let scores = List.map snd a in
          check Alcotest.bool "descending scores" true
            (List.sort (fun x y -> compare y x) scores = scores);
          match quantize_scores with
          | None -> ()
          | Some w ->
              List.iter
                (fun s ->
                  let buckets = s /. w in
                  check Alcotest.bool "score on quantization grid" true
                    (Float.abs (buckets -. Float.round buckets) < 1e-6))
                scores)
        [ None; Some 0.1 ])
    [ 0; 1; 2; 3 ]

let test_structural_query_cache_differential () =
  let repo = repo_fixture () in
  let cache = Reach_cache.create () in
  let q = Query_ast.Before (Query_ast.Any, Query_ast.Any) in
  List.iter
    (fun level ->
      List.iter
        (fun name ->
          let plain = Repository.structural_query repo ~level name q in
          let cached = Repository.structural_query ~cache repo ~level name q in
          let strip = List.map (fun w -> (w.Query_eval.holds, w.Query_eval.nodes)) in
          check
            Alcotest.(list (pair bool intl))
            (Printf.sprintf "%s level %d cached == uncached" name level)
            (strip plain) (strip cached))
        [ "disease"; "clinical" ])
    [ 0; 1; 2; 3 ];
  check Alcotest.bool "cache was exercised" true (Reach_cache.hits cache > 0)

(* ------------------------------------------------------------------ *)
(* Session and cache engine reuse *)

let test_session_engine_reuse () =
  let _, privilege, exec = Lazy.force disease in
  let s = Session.start privilege ~level:2 exec in
  let e1 = Session.engine s in
  check Alcotest.bool "engine memoized per view" true (e1 == Session.engine s);
  let q = Query_ast.Before (Query_ast.Any, Query_ast.Any) in
  let w = Session.query s q in
  let direct = Query_eval.eval_exec (Session.current s) q in
  check Alcotest.bool "session query holds" direct.Query_eval.holds
    w.Query_eval.holds;
  check intl "session query nodes" direct.Query_eval.nodes w.Query_eval.nodes;
  ignore (Session.zoom_to_access_view s);
  check Alcotest.bool "engine rebuilt after zoom" true (e1 != Session.engine s)

let test_reach_cache_engine () =
  let _, privilege, exec = Lazy.force disease in
  let c = Reach_cache.create ~capacity:2 () in
  let ev = Privilege.access_exec_view privilege 1 exec in
  let e1 = Reach_cache.engine c ~key:"g1" (lazy ev) in
  check Alcotest.int "one miss" 1 (Reach_cache.misses c);
  let e2 = Reach_cache.engine c ~key:"g1" (lazy ev) in
  check Alcotest.int "one hit" 1 (Reach_cache.hits c);
  check Alcotest.bool "same prepared engine" true (e1 == e2);
  check Alcotest.int "one entry" 1 (Reach_cache.entries c);
  (* FIFO eviction under the capacity bound. *)
  ignore (Reach_cache.engine c ~key:"g2" (lazy ev));
  ignore (Reach_cache.engine c ~key:"g3" (lazy ev));
  let e1' = Reach_cache.engine c ~key:"g1" (lazy ev) in
  check Alcotest.bool "g1 was evicted and rebuilt" true (e1 != e1')

(* ------------------------------------------------------------------ *)
(* Plan compilation shapes *)

let test_plan_shapes () =
  let open Query_ast in
  let q = And (Before (Any, Atomic_only), Not (Node Any)) in
  (match Plan.compile q with
  | Plan.Guarded_and (Plan.Reach_join _, Plan.Complement (Plan.Node_scan _)) ->
      ()
  | p -> Alcotest.failf "unexpected plan %s" (Plan.to_string p));
  check Alcotest.int "operator count" 4 (Plan.operator_count (Plan.compile q));
  (match Plan.compile (Carries (Any, Any, "d")) with
  | Plan.Edge_join (_, _, Some "d") -> ()
  | p -> Alcotest.failf "unexpected plan %s" (Plan.to_string p));
  let s = Plan.compile_search ~quantize:0.25 ~top:3 [ "a"; "b" ] in
  check Alcotest.bool "search plan renders" true
    (String.length (Plan.search_to_string s) > 0);
  match s with
  | Plan.Project_top (3, Plan.Rank (Plan.Quantize (_, Plan.Keyword_lookup _)))
    ->
      ()
  | _ -> Alcotest.failf "unexpected search plan %s" (Plan.search_to_string s)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        List.map
          (fun wl ->
            Alcotest.test_case (fst wl) `Quick (test_differential wl))
          workloads );
      ( "leakage",
        List.map
          (fun wl -> Alcotest.test_case (fst wl) `Quick (test_leakage wl))
          workloads );
      ( "zoom",
        [
          Alcotest.test_case "deterministic deepest offender" `Quick
            test_deepest_offender_deterministic;
        ] );
      ( "search",
        [
          Alcotest.test_case "pipeline == ranking primitives" `Quick
            test_search_pipeline;
          Alcotest.test_case "repository ranking deterministic" `Quick
            test_repository_ranking_deterministic;
          Alcotest.test_case "structural query cache differential" `Quick
            test_structural_query_cache_differential;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "session engine" `Quick test_session_engine_reuse;
          Alcotest.test_case "reach cache engine" `Quick test_reach_cache_engine;
        ] );
      ("plan", [ Alcotest.test_case "shapes" `Quick test_plan_shapes ]);
    ]
