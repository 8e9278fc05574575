(* Tests for the extension layers: Reach_cache, Dp_count, Planner,
   Observed_table and Query_parser. *)

open Wfpriv_workflow
open Wfpriv_privacy
open Wfpriv_query
module Disease = Wfpriv_workloads.Disease
module Synthetic = Wfpriv_workloads.Synthetic
module Rng = Wfpriv_workloads.Rng
module Digraph = Wfpriv_graph.Digraph
module Reachability = Wfpriv_graph.Reachability

let check = Alcotest.check
let exec = Disease.run ()

(* ------------------------------------------------------------------ *)
(* Reach_cache *)

let test_cache_in_repository () =
  let policy = Policy.make ~expand_levels:[ ("W2", 1) ] Disease.spec in
  let repo = Repository.create () in
  Repository.add repo ~name:"disease" ~policy ~executions:[ exec ] ();
  let cache = Reach_cache.create () in
  let q = Query_ast.before_by_name "Genetic" "Disorder Risk" in
  let uncached = Repository.structural_query repo ~level:0 "disease" q in
  let cached = Repository.structural_query ~cache repo ~level:0 "disease" q in
  let cached2 = Repository.structural_query ~cache repo ~level:0 "disease" q in
  check Alcotest.bool "answers agree" true
    (List.map (fun w -> w.Query_eval.holds) uncached
    = List.map (fun w -> w.Query_eval.holds) cached
    && cached = cached2);
  check Alcotest.int "closure computed once" 1 (Reach_cache.misses cache);
  check Alcotest.bool "second query hit the cache" true
    (Reach_cache.hits cache > 0)

(* ------------------------------------------------------------------ *)
(* Dp_count *)

let runs =
  [ exec; Disease.run_with
      [
        ("snps", Data_value.Str "rs0");
        ("ethnicity", Data_value.Str "x");
        ("lifestyle", Data_value.Str "y");
        ("family_history", Data_value.Str "z");
        ("symptoms", Data_value.Str "w");
      ];
  ]

let test_exact_counts () =
  check Alcotest.int "M6 ran in both" 2
    (Dp_count.exact_count runs (Dp_count.Module_ran Disease.m6));
  check Alcotest.int "no module M99" 0
    (Dp_count.exact_count runs (Dp_count.Module_ran 200));
  check Alcotest.int "disorders flowed in both" 2
    (Dp_count.exact_count runs (Dp_count.Data_flowed "disorders"));
  check Alcotest.int "M3 before M6 in both" 2
    (Dp_count.exact_count runs (Dp_count.Ran_before (Disease.m3, Disease.m6)));
  check Alcotest.int "M6 never before M3" 0
    (Dp_count.exact_count runs (Dp_count.Ran_before (Disease.m6, Disease.m3)))

let test_laplace_properties () =
  let rng = Rng.create 77 in
  let uniform () = Rng.float rng 1.0 in
  let n = 20_000 in
  let scale = 2.0 in
  let samples = List.init n (fun _ -> Dp_count.laplace ~uniform ~scale) in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let mean_abs =
    List.fold_left (fun a x -> a +. Float.abs x) 0.0 samples /. float_of_int n
  in
  check Alcotest.bool "mean near 0" true (Float.abs mean < 0.1);
  check Alcotest.bool "E|X| near scale" true (Float.abs (mean_abs -. scale) < 0.1);
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Dp_count.laplace: scale <= 0") (fun () ->
      ignore (Dp_count.laplace ~uniform ~scale:0.0))

let test_noisy_count_accuracy () =
  let rng = Rng.create 5 in
  let uniform () = Rng.float rng 1.0 in
  let q = Dp_count.Module_ran Disease.m6 in
  let exact = float_of_int (Dp_count.exact_count runs q) in
  let trials = 2_000 in
  let err epsilon =
    let total =
      List.fold_left ( +. ) 0.0
        (List.init trials (fun _ ->
             Float.abs (Dp_count.noisy_count ~uniform ~epsilon runs q -. exact)))
    in
    total /. float_of_int trials
  in
  let e_tight = err 10.0 and e_loose = err 0.5 in
  check Alcotest.bool "higher epsilon, lower error" true (e_tight < e_loose);
  check Alcotest.bool "error tracks 1/epsilon (tight)" true
    (Float.abs (e_tight -. Dp_count.expected_absolute_error ~epsilon:10.0) < 0.05);
  check Alcotest.bool "error tracks 1/epsilon (loose)" true
    (Float.abs (e_loose -. Dp_count.expected_absolute_error ~epsilon:0.5) < 0.3)

(* ------------------------------------------------------------------ *)
(* Planner *)

let w3 = Spec.graph_of Disease.spec "W3"

let test_plan_single_extremes () =
  (* For M13⇝M11: deletion loses M12⇝M11 (1 collateral); clustering
     absorbs only the target (internal - 1 = 0) but fabricates M10⇝M14.
     alpha = 1 weighs concealment only -> clustering; alpha = 0 weighs
     fabrication only -> deletion. *)
  let p1 = Planner.plan ~alpha:1.0 w3 [ (Disease.m13, Disease.m11) ] in
  check Alcotest.bool "alpha=1 clusters" true
    ((List.hd p1.Planner.decisions).Planner.mechanism = Planner.Cluster);
  check Alcotest.bool "verified" true (Planner.verify w3 p1);
  check Alcotest.int "cluster absorbs only the target" 1 p1.Planner.facts_hidden;
  check Alcotest.int "cluster loses nothing external" 0 p1.Planner.facts_lost;
  let p0 = Planner.plan ~alpha:0.0 w3 [ (Disease.m13, Disease.m11) ] in
  check Alcotest.bool "alpha=0 deletes" true
    ((List.hd p0.Planner.decisions).Planner.mechanism = Planner.Delete);
  check Alcotest.bool "verified" true (Planner.verify w3 p0);
  check Alcotest.int "deletion fabricates nothing" 0 p0.Planner.facts_fabricated;
  (* Forcing overrides scoring. *)
  let pf = Planner.plan ~alpha:0.0 ~force:Planner.Cluster w3 [ (Disease.m13, Disease.m11) ] in
  check Alcotest.bool "forced cluster" true
    (List.for_all
       (fun (d : Planner.decision) -> d.Planner.mechanism = Planner.Cluster)
       pf.Planner.decisions);
  check Alcotest.bool "forced plan verified" true (Planner.verify w3 pf)

let test_plan_multiple_targets () =
  let targets = [ (Disease.m13, Disease.m11); (Disease.m9, Disease.m14) ] in
  let p = Planner.plan ~alpha:0.5 w3 targets in
  check Alcotest.bool "all targets hidden" true (Planner.verify w3 p);
  check Alcotest.int "decision per target" 2 (List.length p.Planner.decisions);
  (* The clustering (if any) must be disjoint and convex. *)
  List.iter
    (fun c ->
      check Alcotest.bool "convex" true
        (Structural_privacy.convex_closure w3 c = List.sort compare c))
    p.Planner.clustering

let test_plan_validation () =
  (match Planner.plan w3 [ (Disease.m10, Disease.m14) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of non-fact");
  (match Planner.plan w3 [ (Disease.m13, Disease.m11); (Disease.m13, Disease.m11) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of duplicates");
  match Planner.plan ~alpha:2.0 w3 [ (Disease.m13, Disease.m11) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of bad alpha"

let prop_plan_always_hides =
  QCheck.Test.make ~name:"planner hides every target (random DAGs)" ~count:40
    (QCheck.triple (QCheck.int_bound 10_000) (QCheck.int_bound 10)
       (QCheck.float_range 0.0 1.0))
    (fun (seed, shift, alpha) ->
      let rng = Rng.create seed in
      let g = Synthetic.random_dag rng ~nodes:12 ~edge_probability:0.3 in
      let facts =
        Reachability.closure_facts (Reachability.closure g)
      in
      if facts = [] then true
      else begin
        let targets =
          List.filteri (fun i _ -> i mod 5 = shift mod 5) facts
          |> List.filteri (fun i _ -> i < 3)
        in
        if targets = [] then true
        else begin
          let p = Planner.plan ~alpha g targets in
          Planner.verify g p
        end
      end)

(* ------------------------------------------------------------------ *)
(* Observed_table *)

let test_observed_rows_atomic () =
  match Observed_table.rows_of_run exec Disease.m3 with
  | [ row ] ->
      check
        Alcotest.(list string)
        "input names" [ "ethnicity"; "snps" ]
        (List.map fst row.Observed_table.inputs);
      check
        Alcotest.(list string)
        "output names" [ "expanded_snps" ]
        (List.map fst row.Observed_table.outputs)
  | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))

let test_observed_rows_composite () =
  match Observed_table.rows_of_run exec Disease.m1 with
  | [ row ] ->
      check
        Alcotest.(list string)
        "composite consumes the workflow inputs" [ "ethnicity"; "snps" ]
        (List.map fst row.Observed_table.inputs);
      check
        Alcotest.(list string)
        "composite emits disorders" [ "disorders" ]
        (List.map fst row.Observed_table.outputs)
  | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))

let test_observed_across_runs () =
  let rows = Observed_table.of_runs runs Disease.m3 in
  check Alcotest.int "two distinct patients, two rows" 2 (List.length rows);
  check Alcotest.bool "consistent with a function" true
    (Observed_table.functional rows);
  check (Alcotest.float 0.0001) "revealed fraction" 0.5
    (Observed_table.revealed_fraction ~domain_size:4 rows);
  (* Inconsistent observations are detected. *)
  let fake =
    [
      { Observed_table.inputs = [ ("x", Data_value.Int 0) ];
        outputs = [ ("y", Data_value.Int 1) ] };
      { Observed_table.inputs = [ ("x", Data_value.Int 0) ];
        outputs = [ ("y", Data_value.Int 2) ] };
    ]
  in
  check Alcotest.bool "conflict flagged" false (Observed_table.functional fake)

(* ------------------------------------------------------------------ *)
(* Query_parser *)

let test_parser_basics () =
  let cases =
    [
      "node(*)";
      "node(~\"OMIM\")";
      "node(atomic)";
      "edge(M5, M6)";
      "before(~\"Expand SNP Set\", ~\"Query OMIM\")";
      "carries(*, M9, \"disorders\")";
      "not node(composite)";
      "inside(~\"OMIM\", W4)";
      "refines(M2, ~\"Update\")";
      "(node(*) and node(atomic)) or not edge(I, O)";
    ]
  in
  List.iter
    (fun src ->
      match Query_parser.parse_result src with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (src ^ " -> " ^ e))
    cases

let test_parser_roundtrip () =
  let q =
    Query_ast.And
      ( Query_ast.Before
          (Query_ast.Name_matches "Expand SNP Set", Query_ast.Name_matches "Query OMIM"),
        Query_ast.Not (Query_ast.Node (Query_ast.Module_is Disease.m5)) )
  in
  let printed = Query_ast.to_string q in
  check Alcotest.string "parse ∘ to_string = id" printed
    (Query_ast.to_string (Query_parser.parse printed))

let test_parser_semantics () =
  let v = View.full Disease.spec in
  let q = Query_parser.parse "before(~\"Expand SNP\", ~\"OMIM\")" in
  check Alcotest.bool "parsed query evaluates" true (Query_eval.holds_spec v q);
  let q2 = Query_parser.parse "node(M5) and carries(M8, M9, \"disorders\")" in
  check Alcotest.bool "module refs and carries" true (Query_eval.holds_spec v q2)

let test_parser_errors () =
  List.iter
    (fun src ->
      match Query_parser.parse_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected error: " ^ src))
    [ ""; "node("; "node(*) and"; "frobnicate(*)"; "node(*) node(*)";
      "before(*)"; "node(~unquoted)" ]

let prop_parser_roundtrip =
  (* Random ASTs print to text that parses back to the same AST. *)
  let open QCheck.Gen in
  let pred_gen =
    oneof
      [
        return Query_ast.Any;
        return Query_ast.Atomic_only;
        return Query_ast.Composite_only;
        map (fun n -> Query_ast.Module_is (Ids.m (1 + n))) (int_bound 14);
        map
          (fun s -> Query_ast.Name_matches s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
      ]
  in
  let ast =
    sized_size (int_bound 3)
      (fix (fun self n ->
           if n = 0 then map (fun p -> Query_ast.Node p) pred_gen
           else
             oneof
               [
                 map (fun p -> Query_ast.Node p) pred_gen;
                 map2 (fun a b -> Query_ast.Edge (a, b)) pred_gen pred_gen;
                 map2 (fun a b -> Query_ast.Before (a, b)) pred_gen pred_gen;
                 map2
                   (fun (a, b) d -> Query_ast.Carries (a, b, d))
                   (pair pred_gen pred_gen)
                   (string_size ~gen:(char_range 'a' 'z') (int_range 1 5));
                 map2 (fun a b -> Query_ast.And (a, b)) (self (n - 1)) (self (n - 1));
                 map2 (fun a b -> Query_ast.Or (a, b)) (self (n - 1)) (self (n - 1));
                 map (fun a -> Query_ast.Not a) (self (n - 1));
               ]))
  in
  QCheck.Test.make ~name:"query parser inverts to_string" ~count:200
    (QCheck.make ast) (fun q ->
      Query_parser.parse (Query_ast.to_string q) = q)

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "extensions"
    [
      ( "reach_cache",
        [
          Alcotest.test_case "repository integration" `Quick
            test_cache_in_repository;
        ] );
      ( "dp_count",
        [
          Alcotest.test_case "exact counts" `Quick test_exact_counts;
          Alcotest.test_case "laplace sampler" `Quick test_laplace_properties;
          Alcotest.test_case "noisy count accuracy" `Quick
            test_noisy_count_accuracy;
        ] );
      ( "planner",
        [
          Alcotest.test_case "alpha extremes" `Quick test_plan_single_extremes;
          Alcotest.test_case "multiple targets" `Quick test_plan_multiple_targets;
          Alcotest.test_case "validation" `Quick test_plan_validation;
        ]
        @ qtests [ prop_plan_always_hides ] );
      ( "observed_table",
        [
          Alcotest.test_case "atomic rows" `Quick test_observed_rows_atomic;
          Alcotest.test_case "composite rows" `Quick test_observed_rows_composite;
          Alcotest.test_case "across runs" `Quick test_observed_across_runs;
        ] );
      ( "query_parser",
        [
          Alcotest.test_case "accepts the grammar" `Quick test_parser_basics;
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "evaluates" `Quick test_parser_semantics;
          Alcotest.test_case "rejects junk" `Quick test_parser_errors;
        ]
        @ qtests [ prop_parser_roundtrip ] );
    ]
