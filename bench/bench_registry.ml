(* Bechamel micro-benchmarks: one Test.make per experiment id, measuring
   the hot operation behind that experiment (monotonic clock, ns/run).
   Invoked via `bench/main.exe bechamel`; complements the macro tables. *)

open Bechamel
open Toolkit
open Wfpriv_workflow
open Wfpriv_privacy
open Wfpriv_query
module Pool = Wfpriv_parallel.Pool
module Bitset = Wfpriv_graph.Bitset
module Rng = Wfpriv_workloads.Rng
module Synthetic = Wfpriv_workloads.Synthetic
module Disease = Wfpriv_workloads.Disease

let disease_exec = lazy (Disease.run ())

let synthetic =
  lazy
    (let rng = Rng.create 11 in
     let spec, exec = Synthetic.run rng Synthetic.default_params in
     let privilege =
       Privilege.make spec
         (Spec.workflow_ids spec
         |> List.filter (fun w -> w <> Spec.root spec)
         |> List.mapi (fun i w -> (w, 1 + (i mod 3))))
     in
     (spec, exec, privilege))

let gamma_table =
  lazy
    (let rng = Rng.create 3 in
     Synthetic.random_table rng ~n_inputs:3 ~n_outputs:2 ~domain_size:2)

let tests () =
  let spec, exec, privilege = Lazy.force synthetic in
  let table = Lazy.force gamma_table in
  let entries = [ ("synthetic", spec, privilege) ] in
  let index = Index.build entries in
  let q = Query_ast.Before (Query_ast.Atomic_only, Query_ast.Atomic_only) in
  [
    Test.make ~name:"F1.spec-view-full"
      (Staged.stage (fun () -> View.full Disease.spec));
    Test.make ~name:"F2.exec-view-collapse"
      (Staged.stage (fun () -> Exec_view.coarsest (Lazy.force disease_exec)));
    Test.make ~name:"F3.hierarchy-prefixes"
      (Staged.stage (fun () ->
           Hierarchy.all_prefixes (Hierarchy.of_spec Disease.spec)));
    Test.make ~name:"F4.execute-disease"
      (Staged.stage (fun () -> Disease.run ()));
    Test.make ~name:"F5.keyword-search"
      (Staged.stage (fun () ->
           Keyword.search ~strategy:`Specific Disease.spec
             [ "database"; "disorder risk" ]));
    Test.make ~name:"E1.gamma-level"
      (Staged.stage (fun () ->
           Module_privacy.privacy_level table ~hidden:[ "x0"; "y0" ]));
    Test.make ~name:"E2.greedy-hiding"
      (Staged.stage (fun () -> Module_privacy.greedy_hiding table ~gamma:2));
    Test.make ~name:"E3.min-cut"
      (Staged.stage
         (let g = Spec.graph_of Disease.spec "W3" in
          fun () ->
            Structural_privacy.hide_by_deletion g (Disease.m13, Disease.m11)));
    Test.make ~name:"E4.soundness-check"
      (Staged.stage
         (let g = Spec.graph_of Disease.spec "W3" in
          fun () -> Soundness.check g [ [ Disease.m11; Disease.m13 ] ]));
    Test.make ~name:"E5.on-the-fly-eval"
      (Staged.stage (fun () -> Secure_eval.on_the_fly privilege ~level:1 exec q));
    Test.make ~name:"E5.zoom-out-eval"
      (Staged.stage (fun () -> Secure_eval.zoom_out privilege ~level:1 exec q));
    Test.make ~name:"E6.index-lookup"
      (Staged.stage (fun () -> Index.lookup index ~level:2 "align"));
    Test.make ~name:"E7.rank-and-infer"
      (Staged.stage (fun () ->
           Ranking.infer_masked_tf ~target_base:0.0
             ~others:[ ("d1", 3.0); ("d2", 7.0) ]
             ~idf:1.0 ~max_tf:10 ~ranking:[ "d2"; "t"; "d1" ] ~target:"t"));
    Test.make ~name:"E8.adversary-assess"
      (Staged.stage
         (let inputs = List.map fst (Module_privacy.rows table) in
          fun () ->
            Audit.assess table (Audit.observe table ~hidden:[ "y0" ] inputs)));
    Test.make ~name:"E9.noisy-count"
      (Staged.stage
         (let rng = Rng.create 1 in
          let uniform () = Rng.float rng 1.0 in
          let runs = [ Lazy.force disease_exec ] in
          fun () ->
            Dp_count.noisy_count ~uniform ~epsilon:1.0 runs
              (Dp_count.Module_ran Disease.m6)));
    Test.make ~name:"E10.plan-two-targets"
      (Staged.stage
         (let g = Spec.graph_of Disease.spec "W3" in
          fun () ->
            Planner.plan g
              [ (Disease.m13, Disease.m11); (Disease.m9, Disease.m14) ]));
    Test.make ~name:"E11.materialize"
      (Staged.stage
         (let repo = Repository.create () in
          let () =
            Repository.add repo ~name:"d"
              ~policy:(Policy.make ~expand_levels:[ ("W2", 1) ] Disease.spec)
              ~executions:[ Lazy.force disease_exec ] ()
          in
          fun () -> Materialized.materialize repo ~levels:[ 0; 1 ]));
    Test.make ~name:"S.session-zoom"
      (Staged.stage (fun () ->
           let s =
             Session.start
               (Privilege.make Disease.spec [ ("W2", 1) ])
               ~level:1 (Lazy.force disease_exec)
           in
           Session.zoom_to_access_view s));
    Test.make ~name:"E12.possible-worlds-gamma"
      (Staged.stage
         (let table =
            Module_privacy.of_function
              ~inputs:[ Module_privacy.int_attr "s" 2 ]
              ~outputs:[ Module_privacy.int_attr "t" 2 ]
              (fun x -> [| x.(0) |])
          in
          let table2 =
            Module_privacy.of_function
              ~inputs:[ Module_privacy.int_attr "t" 2 ]
              ~outputs:[ Module_privacy.int_attr "z" 2 ]
              (fun x -> [| x.(0) |])
          in
          let p =
            Workflow_privacy.make ~t_sources:[ "s" ]
              [
                { Workflow_privacy.w_id = Disease.m1; w_table = table;
                  w_visibility = Workflow_privacy.Private };
                { Workflow_privacy.w_id = Disease.m2; w_table = table2;
                  w_visibility = Workflow_privacy.Public };
              ]
          in
          fun () -> Workflow_privacy.gamma p ~hidden:[ "t" ]));
    Test.make ~name:"Q.path-query-nfa"
      (Staged.stage
         (let view = Wfpriv_workflow.View.full Disease.spec in
          let pattern =
            Path_query.(
              Seq ( Atom (Query_ast.Module_is Wfpriv_workflow.Ids.input_module),
                    Seq (anything,
                         Atom (Query_ast.Module_is Wfpriv_workflow.Ids.output_module))))
          in
          fun () ->
            Path_query.matches_spec view pattern
              ~src:Wfpriv_workflow.Ids.input_module
              ~dst:Wfpriv_workflow.Ids.output_module));
    Test.make ~name:"S.wal-frame-roundtrip"
      (Staged.stage
         (let module Wal = Wfpriv_durable.Wal in
          let record =
            { Wal.lsn = 42; tag = 1; payload = String.make 256 'x' }
          in
          fun () -> Wal.records_of_string (Wal.encode record)));
    Test.make ~name:"S.repo-store-roundtrip"
      (Staged.stage
         (let repo = Repository.create () in
          let () =
            Repository.add repo ~name:"d"
              ~policy:(Policy.make Disease.spec)
              ~executions:[ Lazy.force disease_exec ] ()
          in
          let doc = Wfpriv_store.Repo_store.to_string repo in
          fun () -> Wfpriv_store.Repo_store.of_string doc));
    Test.make ~name:"E15.pool-roundtrip"
      (Staged.stage
         (* Full pool lifetime: spawn 4 domains, map, park, join — the
            fixed cost a short-lived parallel section must amortize. *)
         (let xs = Array.init 1000 (fun i -> i) in
          fun () ->
            let p = Pool.create ~jobs:4 in
            Fun.protect
              ~finally:(fun () -> Pool.shutdown p)
              (fun () -> Pool.parallel_map p (fun x -> x * x) xs)));
    Test.make ~name:"E15.bitset-iter-sparse"
      (Staged.stage
         (* Word-skipping iteration over a 1-in-500 populated bitset. *)
         (let b = Bitset.create 50_000 in
          let () =
            let i = ref 0 in
            while !i < 50_000 do
              Bitset.add b !i;
              i := !i + 500
            done
          in
          fun () ->
            let acc = ref 0 in
            Bitset.iter (fun i -> acc := !acc + i) b;
            !acc));
  ]

let run () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let grouped = Test.make_grouped ~name:"wfpriv" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Util.heading "Bechamel micro-benchmarks (monotonic clock)";
  Hashtbl.iter
    (fun measure per_test ->
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some (x :: _) -> Printf.sprintf "%.1f" x
              | _ -> "-"
            in
            (name, est) :: acc)
          per_test []
        |> List.sort compare
        |> List.map (fun (n, e) -> [ n; e ])
      in
      Printf.printf "measure: %s (ns/run)\n" measure;
      Util.print_table [ "benchmark"; "ns/run" ] rows)
    merged

(* ------------------------------------------------------------------ *)
(* The experiment table: every macro experiment the harness can run,
   keyed by its DESIGN.md id. Lives here (not in [Main]) so both the
   dispatcher and error messages share one source of truth. *)

let experiments =
  [
    ("f1", Exp_figures.f1);
    ("f2", Exp_figures.f2);
    ("f3", Exp_figures.f3);
    ("f4", Exp_figures.f4);
    ("f5", Exp_figures.f5);
    ("e1", Exp_privacy.e1);
    ("e2", Exp_privacy.e2);
    ("e3", Exp_privacy.e3);
    ("e4", Exp_privacy.e4);
    ("e5", Exp_query.e5);
    ("e6", Exp_query.e6);
    ("e7", Exp_query.e7);
    ("e8", Exp_privacy.e8);
    ("e9", Exp_extensions.e9);
    ("e10", Exp_extensions.e10);
    ("e11", Exp_extensions.e11);
    ("e12", Exp_extensions.e12);
    ("e13", Exp_durable.e13);
    ("e14", Exp_engine.e14);
    ("e15", Exp_parallel.e15);
    ("e16", Exp_obs.e16);
    ("e17", Exp_query.e17);
    ("e18", Exp_server.e18);
    ("e19", Exp_live.e19);
    ("e20", Exp_shard.e20);
    ("e21", Exp_durable.e21);
    ("e22", Exp_flat.e22);
    ("a1", Exp_extensions.a1);
    ("a2", Exp_extensions.a2);
    ("a3", Exp_extensions.a3);
    ("bechamel", run);
  ]

let ids () = List.map fst experiments
let find id = List.assoc_opt id experiments
