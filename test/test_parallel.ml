(* The multicore runtime must be invisible: parallel and sequential
   paths return identical answers everywhere — closure rows, index
   postings, batched query witnesses at every privilege level — and the
   pool degrades gracefully (order-preserving merge, deterministic
   exception propagation, sequential fallback). *)

open Wfpriv_workflow
open Wfpriv_privacy
open Wfpriv_query
module Pool = Wfpriv_parallel.Pool
module Shard = Wfpriv_parallel.Shard
module Bitset = Wfpriv_graph.Bitset
module Disease = Wfpriv_workloads.Disease
module Clinical = Wfpriv_workloads.Clinical
module Synthetic = Wfpriv_workloads.Synthetic
module Rng = Wfpriv_workloads.Rng

let check = Alcotest.check
let intl = Alcotest.(list int)

(* One shared 4-way pool for the whole suite (spawn-once contract); a
   couple of tests build their own to pin other sizes. *)
let pool4 = lazy (Pool.create ~jobs:4)

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_pool_map_order () =
  let p = Lazy.force pool4 in
  List.iter
    (fun n ->
      let xs = Array.init n (fun i -> i) in
      List.iter
        (fun chunk ->
          let out = Pool.parallel_map ~chunk p (fun x -> (2 * x) + 1) xs in
          check intl
            (Printf.sprintf "map order n=%d chunk=%d" n chunk)
            (Array.to_list (Array.map (fun x -> (2 * x) + 1) xs))
            (Array.to_list out))
        [ 1; 3; 7; 64 ])
    [ 0; 1; 5; 100; 1000 ]

let test_pool_map_order_qcheck =
  QCheck.Test.make ~name:"parallel_map preserves order for any chunking"
    ~count:60
    QCheck.(pair (small_list small_int) (int_range 1 23))
    (fun (xs, chunk) ->
      let p = Lazy.force pool4 in
      let expect = List.map (fun x -> x * x) xs in
      Pool.parallel_map_list ~chunk p (fun x -> x * x) xs = expect)

let test_pool_exception () =
  let p = Lazy.force pool4 in
  (* Lowest failing index wins, deterministically, chunks uncancelled. *)
  (try
     Pool.parallel_for ~chunk:1 p 100 (fun i ->
         if i >= 37 then failwith (string_of_int i));
     Alcotest.fail "expected an exception"
   with Failure msg -> check Alcotest.string "lowest failing chunk" "37" msg);
  (* The pool survives a failed job. *)
  let out = Pool.parallel_map p (fun x -> x + 1) (Array.init 50 (fun i -> i)) in
  check Alcotest.int "pool alive after exception" 50 (Array.length out);
  check Alcotest.int "values intact" 50 out.(49)

let test_pool_sequential_fallback () =
  let p1 = Pool.create ~jobs:1 in
  let out = Pool.parallel_map_list p1 (fun x -> x * 3) [ 1; 2; 3 ] in
  check intl "jobs=1 pool maps sequentially" [ 3; 6; 9 ] out;
  Pool.shutdown p1;
  (* Nested loops on one pool run inline instead of deadlocking. *)
  let p = Lazy.force pool4 in
  let out =
    Pool.parallel_map_list ~chunk:1 p
      (fun x ->
        Pool.parallel_map_list ~chunk:1 p (fun y -> x + y) [ 10; 20 ])
      [ 1; 2; 3; 4 ]
  in
  check
    Alcotest.(list intl)
    "nested parallelism"
    [ [ 11; 21 ]; [ 12; 22 ]; [ 13; 23 ]; [ 14; 24 ] ]
    out;
  (* Loops after shutdown degrade to sequential. *)
  let p' = Pool.create ~jobs:3 in
  Pool.shutdown p';
  let out = Pool.parallel_map_list p' (fun x -> x - 1) [ 5; 6 ] in
  check intl "shutdown pool still answers" [ 4; 5 ] out

let test_shard_partition () =
  let buckets = Shard.partition ~shards:3 ~hash:(fun x -> x) [ 0; 1; 2; 3; 4; 5; 6 ] in
  check intl "bucket 0" [ 0; 3; 6 ] buckets.(0);
  check intl "bucket 1" [ 1; 4 ] buckets.(1);
  check intl "bucket 2" [ 2; 5 ] buckets.(2);
  let p = Lazy.force pool4 in
  let total =
    Shard.map_merge p ~shards:5 ~hash:Hashtbl.hash
      ~map:(List.fold_left ( + ) 0)
      ~merge:( + ) ~init:0
      (List.init 100 (fun i -> i))
  in
  check Alcotest.int "map_merge sums" 4950 total

(* ------------------------------------------------------------------ *)
(* Bitset fast paths vs. the naive bit-by-bit reference *)

let naive_elements words cap =
  let out = ref [] in
  for i = cap - 1 downto 0 do
    let w = i / 63 and b = i mod 63 in
    if words.(w) land (1 lsl b) <> 0 then out := i :: !out
  done;
  !out

let bitset_of_elems cap elems = Bitset.of_list cap elems

let test_bitset_qcheck =
  QCheck.Test.make ~name:"Bitset iter/fold/pop_count == naive loop" ~count:300
    QCheck.(pair (int_range 0 200) (small_list (int_range 0 10_000)))
    (fun (cap, raw) ->
      let elems = List.filter (fun i -> i < cap) raw |> List.sort_uniq compare in
      let s = bitset_of_elems cap elems in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      List.rev !via_iter = elems
      && Bitset.fold (fun i acc -> i :: acc) s [] = List.rev elems
      && Bitset.pop_count s = List.length elems
      && Bitset.cardinal s = List.length elems
      && Bitset.elements s = elems)

let test_bitset_word_edges () =
  (* Capacities and members straddling 63-bit word boundaries. *)
  List.iter
    (fun cap ->
      let elems =
        List.filter (fun i -> i >= 0 && i < cap) [ 0; 62; 63; 64; 125; 126; 127; cap - 1 ]
        |> List.sort_uniq compare
      in
      let s = bitset_of_elems cap elems in
      check intl
        (Printf.sprintf "elements at cap %d" cap)
        elems (Bitset.elements s);
      check Alcotest.int
        (Printf.sprintf "pop_count at cap %d" cap)
        (List.length elems) (Bitset.pop_count s);
      let words = Array.make ((cap + 62) / 63) 0 in
      List.iter (fun i -> words.(i / 63) <- words.(i / 63) lor (1 lsl (i mod 63))) elems;
      check intl "naive agrees" (naive_elements words cap) (Bitset.elements s))
    [ 1; 62; 63; 64; 126; 127; 200 ]

(* ------------------------------------------------------------------ *)
(* Workload fixtures (as test_engine.ml) *)

let depth_privilege spec =
  let h = Hierarchy.of_spec spec in
  Privilege.make spec
    (Spec.workflow_ids spec
    |> List.filter (fun w -> w <> Spec.root spec)
    |> List.map (fun w -> (w, Hierarchy.depth h w)))

let disease = lazy (Disease.spec, depth_privilege Disease.spec, Disease.run ())
let clinical = lazy (Clinical.spec, Policy.privilege Clinical.policy, Clinical.run ())

let synthetic =
  lazy
    (let rng = Rng.create 7 in
     let spec, exec = Synthetic.run rng Synthetic.default_params in
     (spec, depth_privilege spec, exec))

(* Big enough to cross the engine's sequential-fallback threshold, so
   the stratum-parallel sweep really runs. *)
let synthetic_large =
  lazy
    (let rng = Rng.create 14 in
     Synthetic.run rng
       {
         Synthetic.default_params with
         levels = 2;
         atomics_per_workflow = 140;
         edge_probability = 0.05;
       })

let workloads =
  [ ("disease", disease); ("clinical", clinical); ("synthetic", synthetic) ]

let catalog spec =
  let open Query_ast in
  let ms = Spec.module_ids spec in
  let nth k = List.nth ms (k mod List.length ms) in
  let m_a = nth 2 and m_b = nth (List.length ms - 2) in
  let ws = Spec.workflow_ids spec in
  let w_deep = List.nth ws (List.length ws - 1) in
  [
    Node Any;
    Node Atomic_only;
    Node (Module_is m_a);
    Node (Name_matches "e");
    Edge (Any, Any);
    Edge (Module_is m_a, Module_is m_b);
    Before (Any, Any);
    Before (Module_is m_a, Module_is m_b);
    Before (Module_is m_b, Module_is m_a);
    Before (Name_matches "a", Name_matches "e");
    Inside (Any, w_deep);
    Refines (Composite_only, Any);
    And (Node Any, Before (Any, Any));
    Or (Node (Name_matches "zzz"), Node Any);
    Not (Before (Module_is m_b, Module_is m_a));
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: parallel closure == sequential closure, row by row *)

let test_closure_rows_identical () =
  let _, exec = Lazy.force synthetic_large in
  let ev = Exec_view.full exec in
  let seq_pool = Pool.create ~jobs:1 in
  let par = Lazy.force pool4 in
  let e_seq = Engine.of_exec_view ev in
  let e_par = Engine.of_exec_view ev in
  Engine.materialize_closure ~pool:seq_pool e_seq;
  Engine.materialize_closure ~pool:par e_par;
  check Alcotest.bool "large enough to exercise the parallel sweep" true
    (Engine.nb_nodes e_par >= 512);
  List.iter
    (fun u ->
      check intl
        (Printf.sprintf "closure row of node %d" u)
        (Engine.reachable_set e_seq u)
        (Engine.reachable_set e_par u))
    (Engine.nodes e_par);
  Pool.shutdown seq_pool

(* ------------------------------------------------------------------ *)
(* Determinism: parallel index build == sequential index build *)

let all_terms specs =
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun m -> Module_def.terms (Spec.find_module spec m))
        (Spec.module_ids spec))
    specs
  |> List.map String.lowercase_ascii
  |> List.sort_uniq compare

let posting_triple (p : Index.posting) = (p.Index.doc, p.Index.module_id, p.Index.min_level)

let test_index_identical () =
  let dspec, dpriv, _ = Lazy.force disease in
  let cspec, cpriv, _ = Lazy.force clinical in
  let sspec, spriv, _ = Lazy.force synthetic in
  let entries =
    [ ("disease", dspec, dpriv); ("clinical", cspec, cpriv); ("synthetic", sspec, spriv) ]
  in
  let seq_pool = Pool.create ~jobs:1 in
  let i_seq = Index.build ~pool:seq_pool entries in
  let i_par = Index.build ~pool:(Lazy.force pool4) entries in
  Pool.shutdown seq_pool;
  check Alcotest.int "same term count" (Index.nb_terms i_seq) (Index.nb_terms i_par);
  check Alcotest.int "same posting count" (Index.nb_postings i_seq)
    (Index.nb_postings i_par);
  let terms = all_terms [ dspec; cspec; sspec ] in
  check Alcotest.bool "some terms" true (terms <> []);
  List.iter
    (fun level ->
      List.iter
        (fun term ->
          check
            Alcotest.(list (triple string int int))
            (Printf.sprintf "postings for %S at level %d" term level)
            (List.map posting_triple (Index.lookup i_seq ~level term))
            (List.map posting_triple (Index.lookup i_par ~level term)))
        terms)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Determinism + leakage: batched evaluation at every privilege level *)

let test_batch (name, workload) () =
  let spec, privilege, exec = Lazy.force workload in
  let qs = catalog spec in
  let plans = List.map Plan.compile qs in
  List.iter
    (fun level ->
      let gate = Access_gate.make privilege ~level in
      Access_gate.prepare gate;
      let ev = Access_gate.exec_view gate exec in
      let engine = Engine.of_exec_view ev in
      let sequential = List.map (Engine.run engine) plans in
      let batched = Engine.run_batch ~pool:(Lazy.force pool4) engine plans in
      List.iteri
        (fun i (s, b) ->
          let ctx what =
            Printf.sprintf "%s level %d plan %d: %s" name level i what
          in
          check Alcotest.bool (ctx "holds") s.Engine.holds b.Engine.holds;
          check intl (ctx "nodes") s.Engine.nodes b.Engine.nodes;
          (* Leakage: batched answers never emit a node above the gate. *)
          List.iter
            (fun n ->
              match Exec_view.module_of_node ev n with
              | None -> ()
              | Some m ->
                  if not (Access_gate.sees_module gate m) then
                    Alcotest.failf
                      "%s level %d: batched node %d (module %d) above level"
                      name level n m)
            b.Engine.nodes)
        (List.combine sequential batched))
    (Privilege.levels privilege)

let test_session_batch () =
  let _, privilege, exec = Lazy.force disease in
  let s = Session.start privilege ~level:2 exec in
  ignore (Session.zoom_to_access_view s);
  let qs = catalog Disease.spec in
  let one_by_one = List.map (Session.query s) qs in
  let batched = Session.query_batch ~pool:(Lazy.force pool4) s qs in
  List.iteri
    (fun i (a, b) ->
      check Alcotest.bool
        (Printf.sprintf "query %d holds" i)
        a.Query_eval.holds b.Query_eval.holds;
      check intl (Printf.sprintf "query %d nodes" i) a.Query_eval.nodes
        b.Query_eval.nodes)
    (List.combine one_by_one batched)

(* ------------------------------------------------------------------ *)
(* Reach_cache: LRU recency and stats *)

let test_reach_cache_lru () =
  let _, privilege, exec = Lazy.force disease in
  let ev = Privilege.access_exec_view privilege 1 exec in
  let c = Reach_cache.create ~capacity:2 () in
  let ea = Reach_cache.engine c ~key:"a" (lazy ev) in
  ignore (Reach_cache.engine c ~key:"b" (lazy ev));
  (* Touch [a]: it becomes most-recently-used, so inserting [c] must
     evict [b], not [a] — the FIFO cache got this wrong. *)
  let ea' = Reach_cache.engine c ~key:"a" (lazy ev) in
  check Alcotest.bool "hit returns the cached engine" true (ea == ea');
  ignore (Reach_cache.engine c ~key:"c" (lazy ev));
  check Alcotest.int "one eviction" 1 (Reach_cache.evictions c);
  let ea'' = Reach_cache.engine c ~key:"a" (lazy ev) in
  check Alcotest.bool "recently-used survivor" true (ea == ea'');
  let stats = Reach_cache.stats c in
  check Alcotest.int "stats hits" (Reach_cache.hits c) stats.Reach_cache.hits;
  check Alcotest.int "stats misses" (Reach_cache.misses c) stats.Reach_cache.misses;
  check Alcotest.int "stats evictions" 1 stats.Reach_cache.evictions;
  check Alcotest.int "stats entries" 2 stats.Reach_cache.entries;
  Reach_cache.clear c;
  let z = Reach_cache.stats c in
  check Alcotest.int "cleared hits" 0 z.Reach_cache.hits;
  check Alcotest.int "cleared entries" 0 z.Reach_cache.entries

(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          qcheck test_pool_map_order_qcheck;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "sequential fallback" `Quick
            test_pool_sequential_fallback;
          Alcotest.test_case "shard partition/merge" `Quick test_shard_partition;
        ] );
      ( "bitset",
        [
          qcheck test_bitset_qcheck;
          Alcotest.test_case "word-boundary edges" `Quick test_bitset_word_edges;
        ] );
      ( "determinism",
        Alcotest.test_case "closure rows parallel == sequential" `Quick
          test_closure_rows_identical
        :: Alcotest.test_case "index parallel == sequential" `Quick
             test_index_identical
        :: Alcotest.test_case "session batch == one-by-one" `Quick
             test_session_batch
        :: List.map
             (fun wl ->
               Alcotest.test_case ("batch " ^ fst wl) `Quick (test_batch wl))
             workloads );
      ( "reach-cache",
        [ Alcotest.test_case "LRU + stats" `Quick test_reach_cache_lru ] );
    ]
