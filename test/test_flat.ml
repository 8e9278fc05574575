(* Differential acceptance for the flat (Bigarray CSR) data plane:

   - engine closure rows and witnesses against the boxed Digraph
     baseline (Reachability) on random synthetic executions, at
     jobs {1,4} and shards {1,3};
   - snapshot-sidecar recovery: an execution rehydrated through
     [Exec_codec.decode_with_plane] is indistinguishable — digest,
     closure rows, witnesses, observer counters — from the Builder
     rebuild;
   - the sidecar codec and [Snapshot.load] survive every-byte
     truncation of the CSR section by falling back to the rebuild;
   - PR 9 follow-on: durable erasure under a pinned session leaves the
     pinned generation's structure and closure memo bit-identical while
     the new generation never reaches the erased entry. *)

open Wfpriv_query
open Wfpriv_workflow
module Csr = Wfpriv_graph.Csr
module Reachability = Wfpriv_graph.Reachability
module Pool = Wfpriv_parallel.Pool
module Frontier = Wfpriv_shard.Frontier
module Csr_section = Wfpriv_serial.Csr_section
module Exec_codec = Wfpriv_serial.Exec_codec
module Snapshot = Wfpriv_durable.Snapshot
module Durable_repo = Wfpriv_durable.Durable_repo
module Live_repo = Wfpriv_durable.Live_repo
module Rng = Wfpriv_workloads.Rng
module Synthetic = Wfpriv_workloads.Synthetic
module Policy = Wfpriv_privacy.Policy
module Obs = Wfpriv_obs

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let in_tmp_dir f =
  let path = Filename.temp_file "wfpriv-flat-test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let small_params =
  {
    Synthetic.default_params with
    levels = 1;
    composites_per_workflow = 1;
    atomics_per_workflow = 3;
  }

let structural_queries =
  Query_ast.
    [
      Node Any;
      Node Atomic_only;
      Node Composite_only;
      Before (Any, Any);
      Before (Atomic_only, Composite_only);
      Edge (Any, Any);
      And (Node Atomic_only, Before (Any, Atomic_only));
      Not (Before (Composite_only, Composite_only));
    ]

let probe eng =
  List.map (fun q -> Engine.run eng (Engine.compile q)) structural_queries

let closure_rows eng = List.map (Engine.reachable_set eng) (Engine.nodes eng)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

(* ------------------------------------------------------------------ *)
(* Flat engine vs the boxed Digraph baseline *)

let prop_closure_vs_boxed =
  QCheck.Test.make ~name:"flat closure rows = boxed DFS, jobs 1 and 4"
    ~count:12 seed_gen (fun seed ->
      let _, exec = Synthetic.run (Rng.create seed) small_params in
      let g = Execution.graph exec in
      let digests =
        List.map
          (fun jobs ->
            with_pool jobs @@ fun pool ->
            let eng = Engine.of_execution exec in
            Engine.materialize_closure ~pool eng;
            List.iter
              (fun n ->
                if
                  Engine.reachable_set eng n
                  <> Reachability.reachable_from g n
                then
                  QCheck.Test.fail_reportf "jobs=%d: row %d diverges" jobs n)
              (Engine.nodes eng);
            Engine.digest eng)
          [ 1; 4 ]
      in
      match digests with
      | [ a; b ] -> a = b
      | _ -> false)

let prop_plane_vs_digraph_rows =
  QCheck.Test.make ~name:"execution csr plane rows = Digraph rows" ~count:20
    seed_gen (fun seed ->
      let _, exec = Synthetic.run (Rng.create seed) small_params in
      let g = Execution.graph exec in
      let plane = Execution.csr_plane exec in
      Csr.nb_nodes plane = Execution.nb_nodes exec
      && List.for_all
           (fun i ->
             Array.to_list (Csr.succ_array plane i)
             = List.sort compare (Wfpriv_graph.Digraph.succ g i))
           (Execution.nodes exec))

(* ------------------------------------------------------------------ *)
(* Collapsed views: the CSR quotient vs the boxed Digraph construction *)

(* The Digraph-based [Exec_view.of_prefix] the quotient replaced, kept
   verbatim as the oracle (reading the execution through its boxed
   rendering): representative map, collapsed set and per-edge items in
   hashtables, the quotient as a Digraph; a view collapsing nothing is
   the execution itself. *)
type oracle = {
  o_graph : Wfpriv_graph.Digraph.t;
  o_rep : int -> int;
  o_collapsed : int -> bool;
  o_items : int -> int -> Ids.data_id list;
}

let oracle_of_prefix exec ws =
  let module Digraph = Wfpriv_graph.Digraph in
  let spec = Execution.spec exec in
  let hierarchy = Hierarchy.of_spec spec in
  let prefix = Hierarchy.normalize_prefix hierarchy ws in
  let composite_info = Hashtbl.create 8 in
  List.iter
    (fun n ->
      match Execution.node_kind exec n with
      | Execution.Begin_composite { proc; module_id } ->
          let w =
            match Module_def.expansion (Spec.find_module spec module_id) with
            | Some w -> w
            | None -> assert false
          in
          Hashtbl.replace composite_info proc (n, w)
      | _ -> ())
    (Execution.nodes exec);
  let all_expanded =
    Hashtbl.fold
      (fun _ (_, w) acc -> acc && List.mem w prefix)
      composite_info true
  in
  if all_expanded then
    {
      o_graph = Execution.graph exec;
      o_rep =
        (fun n ->
          if n >= 0 && n < Execution.nb_nodes exec then n else raise Not_found);
      o_collapsed = (fun _ -> false);
      o_items = Execution.edge_items exec;
    }
  else begin
    let rep = Hashtbl.create 32 in
    let collapsed = Hashtbl.create 8 in
    List.iter
      (fun n ->
        let collapse_at =
          List.find_opt
            (fun proc ->
              let _, w = Hashtbl.find composite_info proc in
              not (List.mem w prefix))
            (Execution.scope exec n)
        in
        match collapse_at with
        | Some proc ->
            let bnode, _ = Hashtbl.find composite_info proc in
            Hashtbl.replace rep n bnode;
            Hashtbl.replace collapsed bnode ()
        | None -> Hashtbl.replace rep n n)
      (Execution.nodes exec);
    let graph = Digraph.create () in
    let edge_items = Hashtbl.create 32 in
    List.iter
      (fun n -> Digraph.add_node graph (Hashtbl.find rep n))
      (Execution.nodes exec);
    let base = Execution.graph exec in
    Digraph.iter_edges
      (fun u v ->
        let ru = Hashtbl.find rep u and rv = Hashtbl.find rep v in
        if ru <> rv then begin
          Digraph.add_edge graph ru rv;
          let items = Execution.edge_items exec u v in
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt edge_items (ru, rv))
          in
          Hashtbl.replace edge_items (ru, rv)
            (List.sort_uniq compare (existing @ items))
        end)
      base;
    {
      o_graph = graph;
      o_rep =
        (fun n ->
          match Hashtbl.find_opt rep n with
          | Some r -> r
          | None -> raise Not_found);
      o_collapsed = Hashtbl.mem collapsed;
      o_items =
        (fun u v ->
          Option.value ~default:[] (Hashtbl.find_opt edge_items (u, v)));
    }
  end

(* Hierarchy shapes: one composite, a wide two-level tree, a deep
   chain, and a tree whose leaves hold a single atomic module. *)
let view_shapes =
  [
    small_params;
    { Synthetic.default_params with atomics_per_workflow = 3 };
    {
      Synthetic.default_params with
      levels = 3;
      composites_per_workflow = 1;
      edge_probability = 0.5;
    };
    {
      Synthetic.default_params with
      composites_per_workflow = 3;
      atomics_per_workflow = 1;
      edge_probability = 0.6;
    };
  ]

let check_quotient exec ws =
  let module Digraph = Wfpriv_graph.Digraph in
  let fail fmt =
    QCheck.Test.fail_reportf
      ("prefix {%s}: " ^^ fmt)
      (String.concat "," ws)
  in
  let o = oracle_of_prefix exec ws in
  let v = Exec_view.of_prefix exec ws in
  let og = o.o_graph in
  let onodes = Digraph.nodes og in
  if Exec_view.nodes v <> onodes then fail "nodes differ";
  if Digraph.edges (Exec_view.graph v) <> Digraph.edges og then
    fail "edges differ";
  List.iter
    (fun u ->
      List.iter
        (fun w ->
          if Exec_view.edge_items v u w <> o.o_items u w then
            fail "items of %d -> %d differ" u w)
        onodes)
    onodes;
  let visible =
    List.concat_map (fun (u, w) -> o.o_items u w) (Digraph.edges og)
    |> List.sort_uniq compare
  in
  if Exec_view.visible_items v <> visible then fail "visible items differ";
  let hidden =
    List.filter_map
      (fun (it : Execution.item) ->
        if List.mem it.Execution.data_id visible then None
        else Some it.Execution.data_id)
      (Execution.items exec)
  in
  if Exec_view.hidden_items v <> hidden then fail "hidden items differ";
  let eng = Engine.of_exec_view v in
  if Engine.nodes eng <> onodes then fail "engine nodes differ";
  List.iter
    (fun n ->
      if Exec_view.representative v n <> o.o_rep n then
        fail "representative of %d differs" n;
      if Exec_view.is_collapsed v n <> o.o_collapsed n then
        fail "is_collapsed %d differs" n;
      if List.mem n onodes then begin
        if Engine.succ eng n <> Digraph.succ og n then
          fail "engine succ of %d differs" n;
        if Engine.reachable_set eng n <> Reachability.reachable_from og n then
          fail "engine reachable set of %d differs" n
      end
      else if Engine.mem eng n then fail "hidden node %d known to engine" n)
    (Execution.nodes exec);
  true

let prop_quotient_vs_digraph =
  QCheck.Test.make
    ~name:"collapsed view quotient = Digraph oracle at every prefix"
    ~count:20
    QCheck.(pair seed_gen (make Gen.(int_bound (List.length view_shapes - 1))))
    (fun (seed, shape) ->
      let spec, exec =
        Synthetic.run (Rng.create seed) (List.nth view_shapes shape)
      in
      List.for_all (check_quotient exec)
        (Hierarchy.all_prefixes (Hierarchy.of_spec spec)))

(* ------------------------------------------------------------------ *)
(* Sidecar rehydration vs the Builder rebuild *)

let counters_snapshot () = Obs.Registry.observer_counters ~level:0

let with_obs f =
  Obs.Config.set_enabled true;
  Obs.Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Config.set_enabled false;
      Obs.Registry.reset ())
    f

let prop_plane_decode_differential =
  QCheck.Test.make
    ~name:"decode_with_plane engine = Builder engine (digest, rows, \
           witnesses, counters; shards 1 and 3)" ~count:8 seed_gen (fun seed ->
      let spec, exec = Synthetic.run (Rng.create seed) small_params in
      let j = Exec_codec.encode exec in
      let via_builder = Exec_codec.decode_with_spec spec j in
      let via_plane =
        Exec_codec.decode_with_plane ~plane:(Execution.csr_plane exec) spec j
      in
      let run_all exec =
        with_obs @@ fun () ->
        let eng = Engine.of_execution exec in
        let ws = probe eng in
        (Engine.digest eng, closure_rows eng, ws, counters_snapshot ())
      in
      let a = run_all via_builder and b = run_all via_plane in
      if a <> b then QCheck.Test.fail_report "plane and builder paths differ";
      (* Sharded planner answers are representation-blind too. *)
      let gate9 policy exec =
        Wfpriv_query.Access_gate.exec_view
          (Wfpriv_query.Access_gate.of_policy policy ~level:9)
          exec
      in
      let policy = Policy.make spec in
      with_pool 4 @@ fun pool ->
      List.for_all
        (fun shards ->
          let wa =
            probe
              (Frontier.engine_of_exec_view ~pool ~shards
                 (gate9 policy via_builder))
          in
          let wb =
            probe
              (Frontier.engine_of_exec_view ~pool ~shards
                 (gate9 policy via_plane))
          in
          wa = wb
          &&
          let _, _, plain, _ = a in
          wa = plain)
        [ 1; 3 ])

let test_plane_decode_rejects_mismatch () =
  let spec, exec = Synthetic.run (Rng.create 7) small_params in
  let j = Exec_codec.encode exec in
  let n = Execution.nb_nodes exec in
  (* A plane with one edge dropped (or added) must be refused, not
     silently served. *)
  let rows = Csr.to_rows (Execution.csr_plane exec) in
  let dropped =
    Array.map Array.copy rows |> fun r ->
    (try
       Array.iteri
         (fun i row ->
           if Array.length row > 0 then begin
             r.(i) <- Array.sub row 1 (Array.length row - 1);
             raise Exit
           end)
         r
     with Exit -> ());
    Csr.of_rows r
  in
  (match Exec_codec.decode_with_plane ~plane:dropped spec j with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dropped-edge plane must be refused");
  let padded =
    let r = Array.append (Array.map Array.copy rows) [| [||] |] in
    ignore n;
    Csr.of_rows r
  in
  match Exec_codec.decode_with_plane ~plane:padded spec j with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong-size plane must be refused"

(* ------------------------------------------------------------------ *)
(* Sidecar codec truncation *)

let test_csr_section_truncation () =
  let _, e1 = Synthetic.run (Rng.create 31) small_params in
  let _, e2 = Synthetic.run (Rng.create 32) small_params in
  let sections =
    [
      ("alpha", 0, Execution.csr_plane e1);
      ("alpha", 1, Execution.csr_plane e2);
      ("beta", 0, Execution.csr_plane e1);
    ]
  in
  let s = Csr_section.encode sections in
  (match Csr_section.decode_opt s with
  | None -> Alcotest.fail "pristine sidecar must decode"
  | Some back ->
      check Alcotest.int "section count" 3 (List.length back);
      List.iter2
        (fun (n1, i1, p1) (n2, i2, p2) ->
          check Alcotest.string "key name" n1 n2;
          check Alcotest.int "key idx" i1 i2;
          check Alcotest.bool "plane equal" true (Csr.equal p1 p2))
        sections back);
  for len = 0 to String.length s - 1 do
    match Csr_section.decode_opt (String.sub s 0 len) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation to %d bytes decoded" len
  done;
  check (Alcotest.option Alcotest.unit) "trailing bytes rejected" None
    (Option.map ignore (Csr_section.decode_opt (s ^ "\000")))

(* ------------------------------------------------------------------ *)
(* Snapshot recovery with a damaged sidecar *)

let add_syn_entry name seed =
  let spec, exec = Synthetic.run (Rng.create seed) small_params in
  Repository.Add_entry
    { entry_name = name; policy = Policy.make spec; executions = [ exec ] }

let repo_digests repo =
  List.concat_map
    (fun name ->
      List.map
        (fun exec -> Engine.digest (Engine.of_execution exec))
        (Repository.find repo name).Repository.executions)
    (Repository.names repo)

let test_snapshot_sidecar_fallback () =
  in_tmp_dir @@ fun dir ->
  let t = Durable_repo.init dir in
  Fun.protect ~finally:(fun () -> Durable_repo.close t) @@ fun () ->
  ignore (Durable_repo.append t (add_syn_entry "alpha" 41));
  ignore (Durable_repo.append t (add_syn_entry "beta" 42));
  let lsn = Durable_repo.checkpoint t in
  let side = Snapshot.csr_path dir lsn in
  check Alcotest.bool "sidecar written" true (Sys.file_exists side);
  let side_bytes = read_file side in
  check Alcotest.int "one section per stored execution" 2
    (match Csr_section.decode_opt side_bytes with
    | Some sections -> List.length sections
    | None -> -1);
  (* The baseline is the pure JSON rebuild (sidecar absent). *)
  Sys.remove side;
  let base = Durable_repo.repo t in
  let base_image = Wfpriv_store.Repo_store.to_string base in
  let base_digests = repo_digests base in
  let check_load msg =
    let r = Snapshot.load dir ~lsn in
    check Alcotest.string (msg ^ ": repository image") base_image
      (Wfpriv_store.Repo_store.to_string r);
    check
      Alcotest.(list string)
      (msg ^ ": engine digests")
      base_digests (repo_digests r)
  in
  check_load "no sidecar";
  write_file side side_bytes;
  check_load "intact sidecar";
  (* Every-byte truncation of the sidecar falls back to the rebuild. *)
  for len = 0 to String.length side_bytes - 1 do
    write_file side (String.sub side_bytes 0 len);
    check_load (Printf.sprintf "sidecar truncated to %d bytes" len)
  done;
  write_file side side_bytes;
  check_load "sidecar restored"

(* ------------------------------------------------------------------ *)
(* PR 9 follow-on: erasure under a pinned session *)

let victim_exec g =
  match
    (Repository.find g.Live_repo.gen_repo "victim").Repository.executions
  with
  | exec :: _ -> exec
  | [] -> Alcotest.fail "victim entry lost its execution"

let test_erase_under_pinned_session () =
  List.iter
    (fun jobs ->
      with_pool jobs @@ fun pool ->
      in_tmp_dir @@ fun dir ->
      let t = Durable_repo.init dir in
      Fun.protect ~finally:(fun () -> Durable_repo.close t) @@ fun () ->
      ignore (Durable_repo.append t (add_syn_entry "keep" 51));
      ignore (Durable_repo.append t (add_syn_entry "victim" 52));
      let live = Live_repo.of_store ~pool t in
      let msg s = Printf.sprintf "jobs=%d: %s" jobs s in
      let g0 = Live_repo.pin live in
      (* The pinned session's engine, with its closure memo filled. *)
      let eng0 = Engine.of_execution (victim_exec g0) in
      Engine.materialize_closure ~pool eng0;
      let before = probe eng0 in
      let digest0 = Engine.digest eng0 in
      let rows0 = closure_rows eng0 in
      let keep_digest g =
        match
          (Repository.find g.Live_repo.gen_repo "keep").Repository.executions
        with
        | exec :: _ -> Engine.digest (Engine.of_execution exec)
        | [] -> Alcotest.fail "keep entry lost its execution"
      in
      let keep0 = keep_digest g0 in
      (* Phase 1: redact one data item. Structure — and therefore every
         structural answer and the closure memo — must be untouched in
         the new generation, and values must be masked there. *)
      let item_name =
        match Execution.items (victim_exec g0) with
        | it :: _ -> it.Execution.name
        | [] -> Alcotest.fail "synthetic execution carries no items"
      in
      ignore
        (Live_repo.erase ~pool live
           (Repository.Erase
              { entry_name = "victim"; data_name = Some item_name }));
      let g1 = Live_repo.pin live in
      let eng1 = Engine.of_execution (victim_exec g1) in
      Engine.materialize_closure ~pool eng1;
      check Alcotest.string (msg "redaction preserves the digest") digest0
        (Engine.digest eng1);
      check Alcotest.bool (msg "redaction preserves witnesses") true
        (probe eng1 = before);
      check Alcotest.bool (msg "redaction preserves closure rows") true
        (closure_rows eng1 = rows0);
      check Alcotest.bool (msg "new generation masks the value") true
        (List.for_all
           (fun (it : Execution.item) ->
             it.Execution.name <> item_name
             || Data_value.is_masked it.Execution.value)
           (Execution.items (victim_exec g1)));
      check Alcotest.bool (msg "pinned generation keeps the raw value") true
        (List.exists
           (fun (it : Execution.item) ->
             it.Execution.name = item_name
             && not (Data_value.is_masked it.Execution.value))
           (Execution.items (victim_exec g0)));
      (* Phase 2: remove the whole entry while the session stays pinned. *)
      ignore
        (Live_repo.erase ~pool live
           (Repository.Erase { entry_name = "victim"; data_name = None }));
      let g2 = Live_repo.pin live in
      (match Repository.find g2.Live_repo.gen_repo "victim" with
      | exception Not_found -> ()
      | _ ->
          Alcotest.fail (msg "new generation still reaches the erased entry"));
      check Alcotest.string (msg "surviving entry unchanged") keep0
        (keep_digest g2);
      (* The pinned session — memoized engine and a fresh rebuild from
         the pinned generation alike — serves pre-erase structure
         bit-identically. *)
      check Alcotest.string (msg "pinned digest stable") digest0
        (Engine.digest eng0);
      check Alcotest.bool (msg "pinned witnesses stable") true
        (probe eng0 = before);
      check Alcotest.bool (msg "pinned closure memo stable") true
        (closure_rows eng0 = rows0);
      let eng0' = Engine.of_execution (victim_exec g0) in
      Engine.materialize_closure ~pool eng0';
      check Alcotest.string (msg "pinned rebuild digest") digest0
        (Engine.digest eng0');
      check Alcotest.bool (msg "pinned rebuild witnesses") true
        (probe eng0' = before);
      (* On disk, pruning left exactly one snapshot and one sidecar. *)
      let csrs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".csr")
      in
      check Alcotest.int (msg "one sidecar after erase-prune") 1
        (List.length csrs);
      check Alcotest.bool (msg "sidecar matches the surviving snapshot") true
        (List.for_all
           (fun f ->
             Snapshot.csr_lsn_of_filename f
             = Some (Durable_repo.snapshot_lsn t))
           csrs))
    [ 1; 4 ]

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          Alcotest.test_case "plane decode rejects mismatch" `Quick
            test_plane_decode_rejects_mismatch;
        ]
        @ List.map qcheck
            [
              prop_closure_vs_boxed;
              prop_plane_vs_digraph_rows;
              prop_plane_decode_differential;
              prop_quotient_vs_digraph;
            ] );
      ( "sidecar",
        [
          Alcotest.test_case "section truncation" `Quick
            test_csr_section_truncation;
          Alcotest.test_case "snapshot fallback" `Quick
            test_snapshot_sidecar_fallback;
        ] );
      ( "erasure",
        [
          Alcotest.test_case "erase under pinned session" `Quick
            test_erase_under_pinned_session;
        ] );
    ]
