(* Tests for Query_ast, Query_eval, Keyword (incl. the paper's Fig. 5),
   Tfidf, Ranking (incl. the leakage attack) and Index. *)

open Wfpriv_workflow
open Wfpriv_privacy
open Wfpriv_query
module Disease = Wfpriv_workloads.Disease

let check = Alcotest.check
let intl = Alcotest.(list int)
let strl = Alcotest.(list string)
let spec = Disease.spec
let exec = Disease.run ()

(* ------------------------------------------------------------------ *)
(* Query_ast *)

let test_ast_printing () =
  let q = Query_ast.before_by_name "Expand SNP Set" "Query OMIM" in
  check Alcotest.string "to_string"
    "before(~\"Expand SNP Set\", ~\"Query OMIM\")"
    (Query_ast.to_string q);
  check Alcotest.int "size" 1 (Query_ast.size q);
  check Alcotest.int "size of composite" 4
    (Query_ast.size (Query_ast.And (q, Query_ast.Not (Query_ast.Node Query_ast.Any))))

(* ------------------------------------------------------------------ *)
(* Query_eval on specification views *)

let test_spec_eval_full () =
  let v = View.full spec in
  (* The paper's example: Expand SNP Set executed before Query OMIM. *)
  check Alcotest.bool "M3 before M6 in full view" true
    (Query_eval.holds_spec v (Query_ast.before_by_name "Expand SNP" "OMIM"));
  check Alcotest.bool "OMIM not before M3" false
    (Query_eval.holds_spec v (Query_ast.before_by_name "OMIM" "Expand SNP"));
  check intl "nodes matching 'PubMed'"
    [ Disease.m7; Disease.m12 ]
    (Query_eval.spec_nodes_matching v (Query_ast.Name_matches "PubMed"));
  check Alcotest.bool "edge M5 -> M6" true
    (Query_eval.holds_spec v
       (Query_ast.Edge (Query_ast.Name_matches "Generate Database", Query_ast.Name_matches "OMIM")));
  check Alcotest.bool "carries disorders" true
    (Query_eval.holds_spec v
       (Query_ast.Carries (Query_ast.Any, Query_ast.Name_matches "Generate Queries", "disorders")))

let test_spec_eval_coarse_hides () =
  let v = View.coarsest spec in
  (* M3 and M6 are invisible at the coarsest view: the query fails. *)
  check Alcotest.bool "hidden modules do not match" false
    (Query_eval.holds_spec v (Query_ast.before_by_name "Expand SNP" "OMIM"));
  (* But their composite ancestors still answer coarser queries. *)
  check Alcotest.bool "M1 before M2" true
    (Query_eval.holds_spec v
       (Query_ast.before_by_name "Genetic Susceptibility" "Disorder Risk"))

let test_spec_eval_connectives () =
  let v = View.full spec in
  let q1 = Query_ast.Node (Query_ast.Name_matches "PubMed") in
  let q2 = Query_ast.Node (Query_ast.Name_matches "nonexistent") in
  check Alcotest.bool "and" false (Query_eval.holds_spec v (Query_ast.And (q1, q2)));
  check Alcotest.bool "or" true (Query_eval.holds_spec v (Query_ast.Or (q2, q1)));
  check Alcotest.bool "not" true (Query_eval.holds_spec v (Query_ast.Not q2));
  check Alcotest.bool "composite_only finds none in full view" false
    (Query_eval.holds_spec v (Query_ast.Node Query_ast.Composite_only));
  check Alcotest.bool "composite_only in coarse view" true
    (Query_eval.holds_spec (View.coarsest spec) (Query_ast.Node Query_ast.Composite_only))

let test_spec_eval_tau_predicates () =
  let full = View.full spec in
  (* Inside is a τ-edge predicate: which visible modules live under W3? *)
  check intl "modules inside W3"
    [ Disease.m9; Disease.m10; Disease.m11; Disease.m12; Disease.m13;
      Disease.m14; Disease.m15 ]
    (Query_eval.eval_spec full (Query_ast.Inside (Query_ast.Any, "W3"))).Query_eval.nodes;
  check Alcotest.bool "PubMed module inside W4" true
    (Query_eval.holds_spec full
       (Query_ast.Inside (Query_ast.Name_matches "PubMed", "W4")));
  (* M12 'Search PubMed Central' is inside W3, not W4. *)
  check intl "only M7 is the W4 PubMed module" [ Disease.m7 ]
    (Query_eval.eval_spec full
       (Query_ast.Inside (Query_ast.Name_matches "PubMed", "W4"))).Query_eval.nodes;
  check Alcotest.bool "unknown workflow matches nothing" false
    (Query_eval.holds_spec full (Query_ast.Inside (Query_ast.Any, "W9")));
  (* Inside under W2 includes W4's modules (descendant workflow). *)
  check Alcotest.bool "descendants included" true
    (Query_eval.holds_spec full
       (Query_ast.Inside (Query_ast.Name_matches "OMIM", "W2")))

(* ------------------------------------------------------------------ *)
(* Query_eval on execution views *)

let test_exec_eval () =
  let full = Exec_view.full exec in
  check Alcotest.bool "M3 before M6 in execution" true
    (Query_eval.holds_exec full (Query_ast.before_by_name "Expand SNP" "OMIM"));
  let coarse = Exec_view.coarsest exec in
  check Alcotest.bool "hidden in coarse execution view" false
    (Query_eval.holds_exec coarse (Query_ast.before_by_name "Expand SNP" "OMIM"));
  (* Collapsed composites match through their module. *)
  check Alcotest.bool "S1:M1 matches Genetic Susceptibility" true
    (Query_eval.holds_exec coarse
       (Query_ast.Node (Query_ast.Name_matches "Genetic Susceptibility")));
  check Alcotest.bool "carries prognosis into O" true
    (Query_eval.holds_exec coarse
       (Query_ast.Carries (Query_ast.Name_matches "Disorder Risk", Query_ast.Any, "prognosis")))

let test_exec_eval_refines () =
  let full = Exec_view.full exec in
  (* M1 begin/end coexist with its internals in the full execution view:
     refines sees τ-descendancy. *)
  check Alcotest.bool "M1 refines to Query OMIM" true
    (Query_eval.holds_exec full
       (Query_ast.Refines
          (Query_ast.Name_matches "Genetic Susceptibility", Query_ast.Name_matches "OMIM")));
  check Alcotest.bool "M2 does not refine to OMIM" false
    (Query_eval.holds_exec full
       (Query_ast.Refines
          (Query_ast.Name_matches "Disorder Risk", Query_ast.Name_matches "OMIM")));
  check Alcotest.bool "M2 refines to the private-DB update" true
    (Query_eval.holds_exec full
       (Query_ast.Refines
          (Query_ast.Name_matches "Disorder Risk", Query_ast.Name_matches "Update Private")));
  (* Collapsed composites hide their internals from refines. *)
  let coarse = Exec_view.coarsest exec in
  check Alcotest.bool "coarse view hides the refinement" false
    (Query_eval.holds_exec coarse
       (Query_ast.Refines
          (Query_ast.Name_matches "Genetic Susceptibility", Query_ast.Name_matches "OMIM")));
  (* Inside works on executions too (the collapsed M2 is owned by W1). *)
  check Alcotest.bool "inside W1 on coarse view" true
    (Query_eval.holds_exec coarse (Query_ast.Inside (Query_ast.Any, "W1")));
  check Alcotest.bool "inside W3 invisible on coarse view" false
    (Query_eval.holds_exec coarse (Query_ast.Inside (Query_ast.Any, "W3")))

let test_exec_provenance_of_matches () =
  let full = Exec_view.full exec in
  let prov =
    Query_eval.provenance_of_matches full (Query_ast.Name_matches "Query OMIM")
  in
  let labels = List.map (Exec_view.node_label full) prov in
  check strl "provenance of Query OMIM"
    [ "I"; "S1:M1 begin"; "S2:M3"; "S3:M4 begin"; "S4:M5"; "S5:M6" ]
    (List.sort compare labels)

(* ------------------------------------------------------------------ *)
(* Keyword search: the paper's Fig. 5 *)

let test_fig5_specific_strategy () =
  match Keyword.search ~strategy:`Specific spec [ "database"; "disorder risk" ] with
  | None -> Alcotest.fail "query should match"
  | Some a ->
      check strl "prefix expands W1, W2, W4 but not W3" [ "W1"; "W2"; "W4" ]
        (View.prefix a.Keyword.view);
      (* Fig. 5's visible modules: I, O, M2 (collapsed), M3, M5..M8. *)
      check intl "visible modules"
        (List.sort compare
           [
             Ids.input_module; Ids.output_module; Disease.m2; Disease.m3;
             Disease.m5; Disease.m6; Disease.m7; Disease.m8;
           ])
        (Keyword.answer_modules a);
      (* M2 witnesses "disorder risk" while staying collapsed. *)
      let disorder = List.nth a.Keyword.matches 1 in
      check intl "disorder-risk witness is M2" [ Disease.m2 ]
        disorder.Keyword.witnesses

let test_minimal_strategy () =
  match Keyword.search ~strategy:`Minimal spec [ "database"; "disorder risk" ] with
  | None -> Alcotest.fail "query should match"
  | Some a ->
      (* M4 "Consult External Databases" witnesses "database" at depth 1:
         the minimal view only expands W2. *)
      check strl "minimal prefix" [ "W1"; "W2" ] (View.prefix a.Keyword.view)

let test_keyword_no_match () =
  check Alcotest.bool "unmatchable keyword" true
    (Keyword.search spec [ "database"; "quantum" ] = None)

let test_keyword_restriction () =
  (* Restricting away every module matching "database" below level:
     simulates privacy, forcing None. *)
  let deny m = not (Module_def.matches (Spec.find_module spec m) "database") in
  check Alcotest.bool "restricted search fails" true
    (Keyword.search ~restrict_to:deny spec [ "database" ] = None);
  (* Restriction that only kills the deep witnesses flips the minimal
     answer to a shallower one. *)
  match
    Keyword.search ~strategy:`Minimal
      ~restrict_to:(fun m -> m <> Disease.m4)
      spec [ "database" ]
  with
  | None -> Alcotest.fail "still matchable via W4 modules"
  | Some a ->
      check strl "forced into W4" [ "W1"; "W2"; "W4" ] (View.prefix a.Keyword.view)

let test_keyword_empty_rejected () =
  Alcotest.check_raises "empty keyword list"
    (Invalid_argument "Keyword.search: empty keyword list") (fun () ->
      ignore (Keyword.search spec []))

(* ------------------------------------------------------------------ *)
(* Tfidf *)

let corpus =
  Tfidf.build
    [
      ("doc1", [ "snp"; "snp"; "disorder" ]);
      ("doc2", [ "snp"; "pathway" ]);
      ("doc3", [ "pathway"; "pathway"; "pathway" ]);
    ]

let test_tfidf_basics () =
  check Alcotest.int "tf" 2 (Tfidf.tf corpus ~doc:"doc1" "snp");
  check Alcotest.int "tf case-insensitive" 2 (Tfidf.tf corpus ~doc:"doc1" "SNP");
  check Alcotest.int "tf missing" 0 (Tfidf.tf corpus ~doc:"doc3" "snp");
  check Alcotest.int "docs" 3 (Tfidf.nb_docs corpus);
  check Alcotest.bool "rarer term has higher idf" true
    (Tfidf.idf corpus "disorder" > Tfidf.idf corpus "snp");
  check Alcotest.bool "score favors doc1 for snp" true
    (Tfidf.score corpus ~doc:"doc1" [ "snp" ]
    > Tfidf.score corpus ~doc:"doc2" [ "snp" ]);
  check Alcotest.bool "unknown term scores 0" true
    (Tfidf.score corpus ~doc:"doc1" [ "quantum" ] = 0.0)

(* ------------------------------------------------------------------ *)
(* Ranking and the leakage attack *)

let test_rank_deterministic () =
  let entries =
    [
      { Ranking.doc = "b"; score = 1.0 };
      { Ranking.doc = "a"; score = 1.0 };
      { Ranking.doc = "c"; score = 2.0 };
    ]
  in
  check strl "order" [ "c"; "a"; "b" ]
    (List.map (fun (e : Ranking.entry) -> e.Ranking.doc) (Ranking.rank entries));
  check strl "top 2" [ "c"; "a" ]
    (List.map (fun (e : Ranking.entry) -> e.Ranking.doc) (Ranking.top_k 2 entries));
  check (Alcotest.option Alcotest.int) "position" (Some 2)
    (Ranking.position (Ranking.rank entries) "b")

let test_quantize () =
  let entries = [ { Ranking.doc = "a"; score = 3.7 } ] in
  match Ranking.quantize ~width:2.0 entries with
  | [ e ] -> check (Alcotest.float 0.0001) "floored to bucket" 2.0 e.Ranking.score
  | _ -> Alcotest.fail "unexpected"

let test_quantize_negative () =
  (* -3.7 belongs to bucket [-4, -2): flooring gives -4; truncation
     toward zero would misfile it at -2. *)
  match Ranking.quantize ~width:2.0 [ { Ranking.doc = "a"; score = -3.7 } ] with
  | [ e ] ->
      check (Alcotest.float 0.0001) "negative score floored" (-4.0)
        e.Ranking.score
  | _ -> Alcotest.fail "unexpected"

let test_leakage_attack_exact () =
  (* Target doc t with base 0; competitor d has known score 5; idf 1.
     Published ranking [t; d] implies tf > 5 (and tf <= 10): interval
     [6, 10]. *)
  let i =
    Ranking.infer_masked_tf ~target_base:0.0
      ~others:[ ("d", 5.0) ]
      ~idf:1.0 ~max_tf:10 ~ranking:[ "t"; "d" ] ~target:"t"
  in
  check Alcotest.int "lo" 6 i.Ranking.lo;
  check Alcotest.int "hi" 10 i.Ranking.hi;
  check Alcotest.int "width" 5 (Ranking.width i);
  (* Reverse order bounds from above (ties break toward 'd' < 't'). *)
  let j =
    Ranking.infer_masked_tf ~target_base:0.0
      ~others:[ ("d", 5.0) ]
      ~idf:1.0 ~max_tf:10 ~ranking:[ "d"; "t" ] ~target:"t"
  in
  check Alcotest.int "upper bound" 5 j.Ranking.hi;
  check Alcotest.int "lower bound 0" 0 j.Ranking.lo

let test_leakage_attack_quantized () =
  (* True tf = 7 against a competitor at 5, idf 1. The exact system
     publishes [t; d] (7 > 5); the quantised system (width 4) buckets
     both to 4 and publishes [d; t] by the tie rule. Compare what each
     published ranking lets the adversary conclude. *)
  let others = [ ("d", 5.0) ] in
  let exact =
    Ranking.infer_masked_tf ~target_base:0.0 ~others ~idf:1.0 ~max_tf:10
      ~ranking:[ "t"; "d" ] ~target:"t"
  in
  check Alcotest.int "exact lo" 6 exact.Ranking.lo;
  check Alcotest.int "exact width" 5 (Ranking.width exact);
  let fuzzy =
    Ranking.infer_masked_tf_quantized ~bucket_width:4.0 ~target_base:0.0
      ~others ~idf:1.0 ~max_tf:10 ~ranking:[ "d"; "t" ] ~target:"t"
  in
  (* bucket(s) <= 4 (tie resolves d-first): tf in [0, 7]. *)
  check Alcotest.int "quantised lo" 0 fuzzy.Ranking.lo;
  check Alcotest.int "quantised hi" 7 fuzzy.Ranking.hi;
  check Alcotest.bool "true tf feasible in both" true
    (exact.Ranking.lo <= 7 && 7 <= exact.Ranking.hi
    && fuzzy.Ranking.lo <= 7 && 7 <= fuzzy.Ranking.hi);
  check Alcotest.bool "quantised interval wider" true
    (Ranking.width fuzzy > Ranking.width exact)

let prop_true_tf_always_feasible =
  QCheck.Test.make ~name:"the true tf always lies in the inferred interval"
    ~count:100
    QCheck.(triple (int_bound 10) (int_bound 20) (int_bound 20))
    (fun (tf, s1, s2) ->
      let idf = 1.5 in
      let target_score = float_of_int tf *. idf in
      let others = [ ("d1", float_of_int s1); ("d2", float_of_int s2) ] in
      let entries =
        { Ranking.doc = "t"; score = target_score }
        :: List.map (fun (d, s) -> { Ranking.doc = d; score = s }) others
      in
      let ranking =
        List.map (fun (e : Ranking.entry) -> e.Ranking.doc) (Ranking.rank entries)
      in
      let i =
        Ranking.infer_masked_tf ~target_base:0.0 ~others ~idf ~max_tf:10
          ~ranking ~target:"t"
      in
      i.Ranking.lo <= tf && tf <= i.Ranking.hi)

let prop_quantized_leaks_less =
  QCheck.Test.make
    ~name:"quantised ranking never narrows the adversary's interval"
    ~count:100
    QCheck.(triple (int_bound 10) (int_bound 20) (pair (int_bound 20) (int_bound 3)))
    (fun (tf, s1, (s2, wsel)) ->
      let idf = 1.0 in
      let bucket_width = float_of_int (wsel + 2) in
      let others = [ ("d1", float_of_int s1); ("d2", float_of_int s2) ] in
      let quantized_entries =
        Ranking.quantize ~width:bucket_width
          ({ Ranking.doc = "t"; score = float_of_int tf *. idf }
          :: List.map (fun (d, s) -> { Ranking.doc = d; score = s }) others)
      in
      let ranking =
        List.map
          (fun (e : Ranking.entry) -> e.Ranking.doc)
          (Ranking.rank quantized_entries)
      in
      let fuzzy =
        Ranking.infer_masked_tf_quantized ~bucket_width ~target_base:0.0 ~others
          ~idf ~max_tf:10 ~ranking ~target:"t"
      in
      fuzzy.Ranking.lo <= tf && tf <= fuzzy.Ranking.hi)

(* ------------------------------------------------------------------ *)
(* Index *)

let privilege = Privilege.make spec [ ("W2", 1); ("W3", 2); ("W4", 3) ]
let entries = [ ("disease", spec, privilege) ]
let index = Index.build entries

let test_index_lookup_levels () =
  (* "omim" lives on M6 inside W4: requires level 3. *)
  check Alcotest.int "hidden at level 0" 0
    (List.length (Index.lookup index ~level:0 "omim"));
  check Alcotest.int "visible at level 3" 1
    (List.length (Index.lookup index ~level:3 "omim"));
  (* "risk" is on M2 at the top level: public. *)
  check Alcotest.int "public posting" 1
    (List.length (Index.lookup index ~level:0 "risk"));
  check Alcotest.bool "posting carries module id" true
    (match Index.lookup index ~level:3 "omim" with
    | [ p ] -> p.Index.module_id = Disease.m6
    | _ -> false)

let test_index_matches_scan () =
  List.iter
    (fun level ->
      List.iter
        (fun term ->
          let a = Index.lookup index ~level term in
          let b = Index.lookup_scan entries ~level term in
          check Alcotest.int
            (Printf.sprintf "scan agrees on %S at %d" term level)
            (List.length b) (List.length a))
        [ "omim"; "risk"; "pubmed"; "private"; "query"; "nonexistent" ])
    [ 0; 1; 2; 3 ]

(* Satellite property (PR 2): whatever partitions a lookup merges, the
   result is strictly sorted by (doc, module) — i.e. sorted and
   deduplicated — and identical to the index-free scan. *)
let prop_index_merge_sorted_dedup =
  let clinical_spec = Wfpriv_workloads.Clinical.spec in
  let random_privilege spec levels =
    let ws =
      List.filter (fun w -> w <> Spec.root spec) (Spec.workflow_ids spec)
    in
    Privilege.make spec
      (List.mapi (fun i w -> (w, levels.(i mod Array.length levels))) ws)
  in
  let all_terms =
    List.sort_uniq compare
      (List.concat_map
         (fun s ->
           List.concat_map
             (fun m -> Module_def.terms (Spec.find_module s m))
             (Spec.module_ids s))
         [ spec; clinical_spec ])
  in
  let rec strictly_sorted = function
    | a :: (b :: _ as tl) ->
        compare
          (a.Index.doc, a.Index.module_id)
          (b.Index.doc, b.Index.module_id)
        < 0
        && strictly_sorted tl
    | _ -> true
  in
  QCheck.Test.make
    ~name:"index merges stay sorted, deduplicated and scan-equal" ~count:100
    QCheck.(
      triple
        (array_of_size (Gen.return 6) (int_bound 3))
        (int_bound 4) small_nat)
    (fun (levels, level, ti) ->
      QCheck.assume (Array.length levels > 0);
      let entries =
        [
          ("disease", spec, random_privilege spec levels);
          ("clinical", clinical_spec, random_privilege clinical_spec levels);
        ]
      in
      let index = Index.build entries in
      let term = List.nth all_terms (ti mod List.length all_terms) in
      let merged = Index.lookup index ~level term in
      strictly_sorted merged
      && merged = Index.lookup_scan entries ~level term)

let test_per_level_index () =
  let pl = Index.build_per_level ~levels:[ 0; 1; 2; 3 ] entries in
  check Alcotest.int "same answers as shared index" 1
    (List.length (Index.lookup_per_level pl ~level:3 "omim"));
  check Alcotest.int "level 0 index hides omim" 0
    (List.length (Index.lookup_per_level pl ~level:0 "omim"));
  (* The strawman's cost: materialised postings far exceed the shared
     index's. *)
  check Alcotest.bool "space overhead" true
    (Index.per_level_postings pl > Index.nb_postings index)

(* ------------------------------------------------------------------ *)
(* Compressed postings: cursors, conjunctions and block-max WAND over
   random raw corpora, checked differentially against index-free
   references at every privilege level. *)

let doc_pool =
  [| "alpha"; "beta"; "delta"; "gamma"; "kappa"; "omega"; "sigma"; "zeta" |]

let term_pool = [| "t0"; "t1"; "t2"; "t3"; "t4"; "t5" |]

(* A raw corpus from a list of small int quadruples; duplicates are
   frequencies, exactly as Module_def.terms duplicates are. *)
let raw_corpus quads =
  List.map
    (fun (t, d, m, l) ->
      ( term_pool.(t mod Array.length term_pool),
        {
          Index.doc = doc_pool.(d mod Array.length doc_pool);
          module_id = m mod 7;
          min_level = l mod 4;
        } ))
    quads

let raw_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 60)
      (quad (int_bound 7) (int_bound 7) (int_bound 6) (int_bound 3)))

let scan_raw raw ~level term =
  List.filter_map
    (fun (t, p) ->
      if String.equal t term && p.Index.min_level <= level then Some p
      else None)
    raw
  |> List.sort (fun a b ->
         compare
           (a.Index.doc, a.Index.module_id, a.Index.min_level)
           (b.Index.doc, b.Index.module_id, b.Index.min_level))

let prop_cursor_roundtrip =
  QCheck.Test.make
    ~name:"compressed lookups and cursors round-trip the raw scan" ~count:200
    raw_gen
    (fun quads ->
      let raw = raw_corpus quads in
      let index = Index.build_postings raw in
      List.for_all
        (fun level ->
          Array.for_all
            (fun term ->
              let scan = scan_raw raw ~level term in
              (* Multiset-and-order equality, duplicates included. *)
              Index.lookup index ~level term = scan
              &&
              (* The cursor streams (doc, total frequency) ascending. *)
              let expect =
                List.fold_left
                  (fun acc p ->
                    match acc with
                    | (d, n) :: tl when String.equal d p.Index.doc ->
                        (d, n + 1) :: tl
                    | _ -> (p.Index.doc, 1) :: acc)
                  [] scan
                |> List.rev
              in
              let rec drain c acc =
                match Index.cursor_next c with
                | None -> List.rev acc
                | Some x -> drain c (x :: acc)
              in
              drain (Index.cursor index ~level term) [] = expect)
            term_pool)
        [ 0; 1; 2; 3; 4 ])

let prop_matching_docs =
  QCheck.Test.make
    ~name:"galloping conjunctive intersection equals the naive conjunction"
    ~count:200
    QCheck.(pair raw_gen (list_of_size (Gen.int_range 1 3) (int_bound 7)))
    (fun (quads, tidx) ->
      let raw = raw_corpus quads in
      let index = Index.build_postings raw in
      let terms = List.map (fun i -> term_pool.(i mod Array.length term_pool)) tidx in
      List.for_all
        (fun level ->
          let naive =
            Array.to_list doc_pool |> List.sort compare
            |> List.filter (fun d ->
                   List.for_all
                     (fun t ->
                       List.exists
                         (fun p -> String.equal p.Index.doc d)
                         (scan_raw raw ~level t))
                     terms)
          in
          Index.matching_docs index ~level terms = naive)
        [ 0; 1; 2; 3 ])

let prop_wand_differential =
  QCheck.Test.make
    ~name:"top_k_wand returns exactly Ranking.top_k at all k and levels"
    ~count:200
    QCheck.(pair raw_gen (list_of_size (Gen.int_range 1 4) (int_bound 7)))
    (fun (quads, tidx) ->
      let raw = raw_corpus quads in
      let index = Index.build_postings raw in
      let terms = List.map (fun i -> term_pool.(i mod Array.length term_pool)) tidx in
      List.for_all
        (fun level ->
          let exhaustive = Index.score_entries index ~level terms in
          List.for_all
            (fun k ->
              Index.top_k index ~level ~k terms = Ranking.top_k k exhaustive)
            [ 0; 1; 2; 3; 5; 10 ])
        [ 0; 1; 2; 3; 4 ])

(* Block-max WAND across a block boundary. "x" fills a whole posting
   block with one document ("d00", 128 modules) and opens its second
   block at "d10"; "y" (rarer, so heavier) sits alone on "d05", and
   "d01" holds neither. Once "d00" is ranked, x's lower bound is the
   undecoded block's floor ("d01") while its real next document is
   "d10", past y's "d05": the ranker must not score "d10" first and
   seek y beyond "d05". The generated corpora of
   [prop_wand_differential] never reach a second block. *)
let test_wand_multi_block () =
  let posting doc module_id = { Index.doc; module_id; min_level = 0 } in
  let raw =
    List.init 128 (fun m -> ("x", posting "d00" (m + 2)))
    @ [ ("x", posting "d10" 2); ("y", posting "d05" 2) ]
    @ List.map (fun d -> ("z", posting d 2)) [ "d01"; "f0"; "f1"; "f2"; "f3" ]
  in
  let index = Index.build_postings raw in
  let terms = [ "x"; "y" ] in
  let exhaustive = Index.score_entries index ~level:0 terms in
  check strl "d05 outranks d10" [ "d00"; "d05"; "d10" ]
    (List.map (fun e -> e.Ranking.doc) (Ranking.rank exhaustive));
  List.iter
    (fun k ->
      check
        Alcotest.(list (pair string (float 0.0)))
        (Printf.sprintf "k=%d" k)
        (List.map (fun e -> (e.Ranking.doc, e.Ranking.score))
           (Ranking.top_k k exhaustive))
        (List.map
           (fun e -> (e.Ranking.doc, e.Ranking.score))
           (Index.top_k index ~level:0 ~k terms)))
    [ 1; 2; 3 ]

(* The spec-built index agrees with the TF/IDF model it claims to
   implement: per level, the corpus of every module whose privilege
   floor is <= the level (the witness-admissibility predicate). *)
let test_index_scores_match_corpus () =
  let entries2 =
    [
      ("disease", spec, privilege);
      ( "clinical",
        Wfpriv_workloads.Clinical.spec,
        Privilege.make Wfpriv_workloads.Clinical.spec [] );
    ]
  in
  let idx = Index.build entries2 in
  List.iter
    (fun level ->
      let corpus =
        Tfidf.build
          (List.map
             (fun (name, spec, privilege) ->
               let floor = Access_gate.module_floors privilege in
               ( name,
                 List.concat_map
                   (fun m ->
                     if floor m <= level then
                       Module_def.terms (Spec.find_module spec m)
                     else [])
                   (Spec.module_ids spec) ))
             entries2)
      in
      List.iter
        (fun term ->
          List.iter
            (fun (e : Ranking.entry) ->
              check (Alcotest.float 1e-12)
                (Printf.sprintf "score of %s for %S at %d" e.Ranking.doc term
                   level)
                (Tfidf.score corpus ~doc:e.Ranking.doc [ term ])
                e.Ranking.score)
            (Index.score_entries idx ~level [ term ]))
        [ "risk"; "omim"; "patient"; "database" ])
    [ 0; 1; 2; 3 ]

let () =
  Alcotest.run "query"
    [
      ("ast", [ Alcotest.test_case "printing/size" `Quick test_ast_printing ]);
      ( "spec_eval",
        [
          Alcotest.test_case "full view" `Quick test_spec_eval_full;
          Alcotest.test_case "coarse view hides" `Quick
            test_spec_eval_coarse_hides;
          Alcotest.test_case "connectives" `Quick test_spec_eval_connectives;
          Alcotest.test_case "tau predicates (inside)" `Quick
            test_spec_eval_tau_predicates;
        ] );
      ( "exec_eval",
        [
          Alcotest.test_case "execution views" `Quick test_exec_eval;
          Alcotest.test_case "refines / inside" `Quick test_exec_eval_refines;
          Alcotest.test_case "provenance of matches" `Quick
            test_exec_provenance_of_matches;
        ] );
      ( "keyword",
        [
          Alcotest.test_case "Fig. 5 via `Specific" `Quick
            test_fig5_specific_strategy;
          Alcotest.test_case "`Minimal prefers M4" `Quick test_minimal_strategy;
          Alcotest.test_case "no match" `Quick test_keyword_no_match;
          Alcotest.test_case "privacy restriction" `Quick test_keyword_restriction;
          Alcotest.test_case "empty rejected" `Quick test_keyword_empty_rejected;
        ] );
      ("tfidf", [ Alcotest.test_case "basics" `Quick test_tfidf_basics ]);
      ( "ranking",
        [
          Alcotest.test_case "deterministic rank" `Quick test_rank_deterministic;
          Alcotest.test_case "quantize" `Quick test_quantize;
          Alcotest.test_case "leakage attack (exact)" `Quick
            test_leakage_attack_exact;
          Alcotest.test_case "leakage attack (quantised)" `Quick
            test_leakage_attack_quantized;
          Alcotest.test_case "quantize negative" `Quick test_quantize_negative;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_true_tf_always_feasible; prop_quantized_leaks_less ] );
      ( "index",
        [
          Alcotest.test_case "level filtering" `Quick test_index_lookup_levels;
          Alcotest.test_case "matches linear scan" `Quick test_index_matches_scan;
          Alcotest.test_case "per-level strawman" `Quick test_per_level_index;
          Alcotest.test_case "scores match corpus" `Quick
            test_index_scores_match_corpus;
          Alcotest.test_case "WAND across a block boundary" `Quick
            test_wand_multi_block;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_index_merge_sorted_dedup;
              prop_cursor_roundtrip;
              prop_matching_docs;
              prop_wand_differential;
            ] );
    ]
