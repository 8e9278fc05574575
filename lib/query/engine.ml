open Wfpriv_workflow
module Digraph = Wfpriv_graph.Digraph
module Csr = Wfpriv_graph.Csr
module Bitset = Wfpriv_graph.Bitset
module Pool = Wfpriv_parallel.Pool
module Obs = Wfpriv_obs

(* Engine metrics are operator-scope: a prepared view serves whatever
   gate built it, so per-level attribution happens one layer up (the
   gate's own counters). [run] itself never reads the clock — its only
   instrumentation is counter bumps — which keeps the null-sink overhead
   of a hot query loop to a few atomic adds. *)
let m_prepares = Obs.Registry.counter "engine.prepares"
let m_runs = Obs.Registry.counter "engine.runs"
let m_rows = Obs.Registry.counter "engine.rows"
let m_batches = Obs.Registry.counter "engine.batches"
let m_batch_plans = Obs.Registry.counter "engine.batch_plans"
let m_closure_builds = Obs.Registry.counter "engine.closure_builds"
let m_closure_rows = Obs.Registry.counter "engine.closure_rows"
let m_extends = Obs.Registry.counter "engine.extends"
let m_extend_rows = Obs.Registry.counter "engine.extend_rows"
let h_compile_ns = Obs.Registry.histogram "engine.compile_ns"
let h_closure_ns = Obs.Registry.histogram "engine.closure_build_ns"

type io = Io_input | Io_output | Io_none

(* External id -> dense index: none for dense execution ids, else one
   array indexed by external id, trusted only where [node_of] maps back
   (a collapsed view's class array, whose hidden nodes stay unknown). *)
type lookup = Identity | Remap of int array

type t = {
  e_spec : Spec.t;
  hierarchy : Hierarchy.t Lazy.t;
  n : int;
  node_of : int array; (* dense index -> external node id *)
  lookup : lookup; (* external node id -> dense index *)
  graph : Csr.t; (* dense adjacency, rows ascending — the flat plane *)
  modules : int array; (* dense -> module id, [-1] for none (exec I/O) *)
  by_module : (Ids.module_id, int array) Hashtbl.t;
      (* sorted dense indices per module id: [Module_is] is the hot
         predicate of selective structural batches, and a lookup beats
         re-scanning all n nodes on every query. Buckets are the
         engine's own — never mutated, never handed out. *)
  io_kind : io array;
  carries : string list array Lazy.t;
      (* plane edge index -> data names. Lazy: the build walks every
         edge naming its carried items — a large share of preparation on
         big graphs — yet only carry-constrained edge joins ever read
         it. [run_batch] forces it before fanning out (Lazy is not
         domain-safe), like the hierarchy. *)
  reaches_override : (int -> int -> bool) option; (* over external ids *)
  closure : Bitset.t array option Atomic.t;
      (* the one mutable cell of a prepared view: written exactly once,
         under [closure_lock], through the Atomic so concurrent readers
         in a batch see fully-built rows or nothing. Rows are views into
         one arena — the whole matrix is a single GC-invisible block. *)
  closure_lock : Mutex.t;
}

type witness = { holds : bool; nodes : int list }

(* ------------------------------------------------------------------ *)
(* Preparation *)

let lookup_find lookup node_of u =
  match lookup with
  | Identity -> if u >= 0 && u < Array.length node_of then Some u else None
  | Remap map ->
      if u < 0 || u >= Array.length map then None
      else
        let i = Array.unsafe_get map u in
        if i >= 0 && i < Array.length node_of && node_of.(i) = u then Some i
        else None

let build_lookup node_of =
  let identity = ref true in
  Array.iteri (fun i u -> if u <> i then identity := false) node_of;
  if !identity then Identity
  else begin
    let hi = Array.fold_left max (-1) node_of in
    let map = Array.make (hi + 1) (-1) in
    Array.iteri
      (fun i u ->
        if u < 0 then invalid_arg "Engine: negative node id";
        map.(u) <- i)
      node_of;
    Remap map
  end

(* Sorted dense-index buckets per module id, sized exactly: two counting
   passes, zero conses. *)
let index_modules modules =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun m ->
      if m >= 0 then
        Hashtbl.replace counts m
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
    modules;
  let buckets = Hashtbl.create (max 16 (Hashtbl.length counts)) in
  Hashtbl.iter (fun m c -> Hashtbl.replace buckets m (Array.make c 0)) counts;
  let fill = Hashtbl.create (max 16 (Hashtbl.length counts)) in
  Array.iteri
    (fun i m ->
      if m >= 0 then begin
        let k = Option.value ~default:0 (Hashtbl.find_opt fill m) in
        (Hashtbl.find buckets m).(k) <- i;
        Hashtbl.replace fill m (k + 1)
      end)
    modules;
  buckets

let make ~spec ~node_of ~lookup ~graph ~modules ~io_kind ~carries ?reaches () =
  Obs.Counter.incr_op m_prepares;
  {
    e_spec = spec;
    hierarchy = lazy (Hierarchy.of_spec spec);
    n = Array.length node_of;
    node_of;
    lookup;
    graph;
    modules;
    by_module = index_modules modules;
    io_kind;
    carries;
    reaches_override = reaches;
    closure = Atomic.make None;
    closure_lock = Mutex.create ();
  }

(* Spec-sized preparation: the nodes are module ids (sorted, so the
   renumbering is monotone and rows stay ascending), each its own
   module; every edge's carried data is named once. *)
let of_digraph ?reaches spec g ~carry_names =
  let node_of = Array.of_list (Digraph.nodes g) in
  let n = Array.length node_of in
  let lookup = build_lookup node_of in
  let dense u = Option.get (lookup_find lookup node_of u) in
  let graph =
    Csr.build ~n
      ~degree:(fun i -> Digraph.out_degree g node_of.(i))
      ~iter_row:(fun i f ->
        Digraph.iter_succ (fun v -> f (dense v)) g node_of.(i))
      ~sorted:true ()
  in
  let carries =
    lazy
      (let a = Array.make (Csr.nb_edges graph) [] in
       for i = 0 to n - 1 do
         for e = Csr.row_start graph i to Csr.row_stop graph i - 1 do
           a.(e) <- carry_names node_of.(i) node_of.(Csr.target graph e)
         done
       done;
       a)
  in
  make ~spec ~node_of ~lookup ~graph ~modules:node_of
    ~io_kind:(Array.make n Io_none) ~carries ?reaches ()

let of_spec_view view =
  of_digraph (View.spec view) (View.graph view)
    ~carry_names:(View.edge_data view)

let exec_io exec n =
  match Execution.node_kind exec n with
  | Execution.Input -> Io_input
  | Execution.Output -> Io_output
  | _ -> Io_none

let exec_module exec n =
  match Execution.node_kind exec n with
  | Execution.Input | Execution.Output -> -1
  | Execution.Atomic_exec { module_id; _ }
  | Execution.Begin_composite { module_id; _ }
  | Execution.End_composite { module_id; _ } ->
      module_id

(* The one dense constructor of execution engines: the plane (the
   execution's own, or a view's quotient) is taken as is — no Digraph
   round-trip, no renumbering — with per-node arrays read off the
   execution at each dense index's node id and per-edge data items by
   plane edge index. This is the preparation fast path a recovered
   snapshot rides to its first answer. *)
let of_plane ?reaches exec ~dense ~plane ~edge_items =
  let node_of, lookup =
    match dense with
    | None -> (Array.init (Execution.nb_nodes exec) Fun.id, Identity)
    | Some { Exec_view.ids; classes } -> (ids, Remap classes)
  in
  let names e =
    List.map
      (fun d -> (Execution.find_item exec d).Execution.name)
      (edge_items e)
  in
  make ~spec:(Execution.spec exec) ~node_of ~lookup ~graph:plane
    ~modules:(Array.map (exec_module exec) node_of)
    ~io_kind:(Array.map (exec_io exec) node_of)
    ~carries:(lazy (Array.init (Csr.nb_edges plane) names))
    ?reaches ()

let of_execution exec =
  of_plane exec ~dense:None ~plane:(Execution.csr_plane exec)
    ~edge_items:(Execution.edge_items_at exec)

let of_exec_view ?reaches ev =
  of_plane ?reaches (Exec_view.exec ev) ~dense:(Exec_view.dense ev)
    ~plane:(Exec_view.plane ev)
    ~edge_items:(Exec_view.plane_edge_items ev)

let of_spec ?reaches spec =
  (* Module universe: every module (composites included), edges from the
     union of the per-workflow dataflow graphs. *)
  let edge_data = Hashtbl.create 64 in
  List.iter
    (fun w ->
      List.iter
        (fun (e : Spec.edge) ->
          Hashtbl.replace edge_data (e.Spec.src, e.Spec.dst) e.Spec.data)
        (Spec.find_workflow spec w).Spec.edges)
    (Spec.workflow_ids spec);
  let g = Digraph.create () in
  List.iter (Digraph.add_node g) (Spec.module_ids spec);
  Hashtbl.iter (fun (u, v) _ -> Digraph.add_edge g u v) edge_data;
  of_digraph ?reaches spec g ~carry_names:(fun u v ->
      Option.value ~default:[] (Hashtbl.find_opt edge_data (u, v)))

(* ------------------------------------------------------------------ *)
(* Accessors and predicate matching *)

let spec t = t.e_spec
let nb_nodes t = t.n
let nodes t = Array.to_list t.node_of
let find_dense t u = lookup_find t.lookup t.node_of u
let mem t u = find_dense t u <> None

(* Structural digest of the prepared view: nodes, modules and adjacency
   (closure state excluded — it is derived). Equal views digest equally
   no matter how they were prepared, so a cache layer can assert that
   entries keyed by one access-view fingerprint were all computed
   against one and the same prepared graph. *)
let digest t =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i u ->
      Buffer.add_string buf (string_of_int u);
      (if t.modules.(i) >= 0 then begin
         Buffer.add_char buf ':';
         Buffer.add_string buf (string_of_int t.modules.(i))
       end);
      Buffer.add_char buf '[';
      Csr.iter_succ t.graph i (fun j ->
          Buffer.add_string buf (string_of_int t.node_of.(j));
          Buffer.add_char buf ',');
      Buffer.add_char buf ']')
    t.node_of;
  Printf.sprintf "%d:%08x" t.n
    (Wfpriv_serial.Crc32.digest (Buffer.contents buf))

let dense_graph t = (t.node_of, t.graph)

let graph_bytes t =
  (* Resident footprint of the prepared structure: the flat plane, the
     three per-node attribute arrays, the module buckets and the id
     lookaside. Closure rows are accounted separately — they are
     derived, demand-built state. *)
  let bucket_bytes =
    Hashtbl.fold (fun _ a acc -> acc + (8 * Array.length a) + 24) t.by_module 0
  in
  let lookup_bytes =
    match t.lookup with Identity -> 0 | Remap map -> 8 * Array.length map
  in
  Csr.bytes t.graph + (8 * 3 * t.n) + bucket_bytes + lookup_bytes

let closure_bytes t =
  match Atomic.get t.closure with
  | None -> 0
  | Some rows -> Array.fold_left (fun acc r -> acc + Bitset.bytes r) 0 rows

let with_reaches t f =
  {
    t with
    reaches_override = Some f;
    closure = Atomic.make None;
    closure_lock = Mutex.create ();
  }

let succ t u =
  match find_dense t u with
  | None -> []
  | Some i ->
      let acc = ref [] in
      Csr.iter_succ t.graph i (fun j -> acc := t.node_of.(j) :: !acc);
      List.rev !acc

let module_of t u =
  match find_dense t u with
  | None -> None
  | Some i -> if t.modules.(i) >= 0 then Some t.modules.(i) else None

let module_pred spec pred m =
  let md = Spec.find_module spec m in
  match pred with
  | Query_ast.Any -> true
  | Query_ast.Name_matches s -> Module_def.matches md s
  | Query_ast.Module_is m' -> m = m'
  | Query_ast.Atomic_only -> md.Module_def.kind = Module_def.Atomic
  | Query_ast.Composite_only -> Module_def.is_composite md

let dense_matches t i pred =
  let m = t.modules.(i) in
  if m >= 0 then module_pred t.e_spec pred m else pred = Query_ast.Any

let dense_matches_io t i pred =
  match pred with
  | Query_ast.Module_is m when t.modules.(i) < 0 -> (
      match t.io_kind.(i) with
      | Io_input -> m = Ids.input_module
      | Io_output -> m = Ids.output_module
      | Io_none -> false)
  | _ -> dense_matches t i pred

let matching_dense t pred =
  match pred with
  | Query_ast.Module_is m -> (
      (* Indexed fast path; [dense_matches] would reject every node whose
         module differs and every io node, which is exactly the index.
         The bucket is shared engine state — callers only read it. *)
      match Hashtbl.find_opt t.by_module m with Some a -> a | None -> [||])
  | _ ->
      let buf = Array.make (max t.n 1) 0 in
      let k = ref 0 in
      for i = 0 to t.n - 1 do
        if dense_matches t i pred then begin
          buf.(!k) <- i;
          incr k
        end
      done;
      Array.sub buf 0 !k

let externalize t dense =
  Array.fold_right (fun i acc -> t.node_of.(i) :: acc) dense []

let matching t pred = externalize t (matching_dense t pred)

let node_matches t u pred =
  match find_dense t u with
  | None -> false
  | Some i -> dense_matches t i pred

let node_matches_io t u pred =
  match find_dense t u with
  | None -> false
  | Some i -> dense_matches_io t i pred

(* ------------------------------------------------------------------ *)
(* Memoized bitset closure *)

(* Reverse topological order of the dense graph via Kahn's algorithm;
   [None] when the graph has a cycle (never a view, but stay total).
   In-degrees come straight off the plane's transpose. *)
let rev_topo_order t =
  let indeg =
    Array.init (max t.n 1) (fun i ->
        if i < t.n then Csr.in_degree t.graph i else 0)
  in
  let queue = Queue.create () in
  for i = 0 to t.n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let rev_topo = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    rev_topo := i :: !rev_topo;
    Csr.iter_succ t.graph i (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
  done;
  if !seen = t.n then Some !rev_topo else None

(* Group rows into strata by height above the sinks: stratum [k] holds
   the nodes all of whose successors live in strata [< k]. Within one
   stratum the closure rows are mutually independent — each unions only
   rows of strictly lower strata — so a stratum can be filled by several
   domains, each owning disjoint row indices, with no locking. *)
let strata_of t rev_topo =
  let height = Array.make t.n 0 in
  let max_h = ref 0 in
  List.iter
    (fun i ->
      let h = ref 0 in
      Csr.iter_succ t.graph i (fun j ->
          if height.(j) + 1 > !h then h := height.(j) + 1);
      height.(i) <- !h;
      if !h > !max_h then max_h := !h)
    rev_topo;
  let counts = Array.make (!max_h + 1) 0 in
  Array.iter (fun h -> counts.(h) <- counts.(h) + 1) height;
  let strata = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (!max_h + 1) 0 in
  (* Ascending dense index within each stratum: deterministic layout. *)
  for i = 0 to t.n - 1 do
    let h = height.(i) in
    strata.(h).(fill.(h)) <- i;
    fill.(h) <- fill.(h) + 1
  done;
  strata

let fill_row_from_succs t rows i =
  Bitset.add rows.(i) i;
  Csr.iter_succ t.graph i (fun j -> Bitset.union_into ~dst:rows.(i) rows.(j))

(* Per-node DFS with the row itself as the visited set (cyclic fallback);
   rows are mutually independent, so this parallelizes per row. *)
let fill_row_dfs t rows i =
  let stack = ref [ i ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        if not (Bitset.mem rows.(i) u) then begin
          Bitset.add rows.(i) u;
          Csr.iter_succ t.graph u (fun v -> stack := v :: !stack)
        end
  done

(* Small graphs chunk poorly and the rows fill in microseconds; below
   this node count the parallel path is pure overhead. *)
let min_parallel_nodes = 512

let compute_rows pool t =
  (* One arena, one allocation: the whole closure matrix is a single
     GC-invisible block, and each row is a view into it. *)
  let arena = Bitset.Arena.create ~rows:t.n ~cap:t.n in
  let rows = Bitset.Arena.all_rows arena in
  let parallel = Pool.jobs pool > 1 && t.n >= min_parallel_nodes in
  (match rev_topo_order t with
  | Some rev_topo when not parallel ->
      (* Reverse topological order: every successor's row is complete
         before it is merged into its predecessors'. *)
      List.iter (fill_row_from_succs t rows) rev_topo
  | Some rev_topo ->
      (* Stratum-parallel sweep. The barrier at the end of each
         range loop publishes the stratum's rows to every domain
         before any higher stratum reads them. *)
      Array.iter
        (fun stratum ->
          Pool.parallel_for_ranges pool (Array.length stratum) (fun lo hi ->
              for k = lo to hi - 1 do
                fill_row_from_succs t rows stratum.(k)
              done))
        (strata_of t rev_topo)
  | None when not parallel ->
      for i = 0 to t.n - 1 do
        fill_row_dfs t rows i
      done
  | None -> Pool.parallel_for pool t.n (fun i -> fill_row_dfs t rows i));
  rows

let closure_rows_with pool t =
  match Atomic.get t.closure with
  | Some rows -> rows
  | None ->
      Mutex.lock t.closure_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.closure_lock)
        (fun () ->
          match Atomic.get t.closure with
          | Some rows -> rows
          | None ->
              let rows =
                Obs.Histogram.time h_closure_ns (fun () ->
                    compute_rows pool t)
              in
              Obs.Counter.incr_op m_closure_builds;
              Obs.Counter.add_op m_closure_rows t.n;
              Atomic.set t.closure (Some rows);
              rows)

let closure_rows t = closure_rows_with (Pool.global ()) t

let materialize_closure ?pool t =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  ignore (closure_rows_with pool t)

let reachable_set t u =
  match find_dense t u with
  | None -> []
  | Some i ->
      Bitset.fold (fun j acc -> t.node_of.(j) :: acc) (closure_rows t).(i) []
      |> List.rev

let reaches t u v =
  match t.reaches_override with
  | Some f -> f u v
  | None -> (
      match (find_dense t u, find_dense t v) with
      | Some i, Some j -> Bitset.mem (closure_rows t).(i) j
      | _ -> false)

let co_reachable_of_matches t pred =
  let dsts = matching_dense t pred in
  if Array.length dsts = 0 then []
  else begin
    let rows = closure_rows t in
    let mask = Bitset.create t.n in
    Array.iter (Bitset.add mask) dsts;
    (* One scratch row reused across all n sources (assign, not copy). *)
    let scratch = Bitset.create t.n in
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      Bitset.assign ~dst:scratch rows.(i);
      Bitset.inter_into ~dst:scratch mask;
      if not (Bitset.is_empty scratch) then acc := t.node_of.(i) :: !acc
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Incremental extension: appended descendants *)

(* Fill the appended region's rows. Appended edges all end in the region,
   so it is closed under successors: a local Kahn order suffices, with a
   per-row DFS fallback should the appended nodes ever form a cycle. The
   list built by prepending pops sinks first, i.e. reverse topological —
   every successor's row is complete before it is merged. *)
let fill_new_rows graph rows ~lo ~hi =
  let k = hi - lo in
  let indeg = Array.make (max k 1) 0 in
  for i = lo to hi - 1 do
    Csr.iter_succ graph i (fun j -> indeg.(j - lo) <- indeg.(j - lo) + 1)
  done;
  let queue = Queue.create () in
  Array.iteri (fun d c -> if c = 0 && d < k then Queue.add (lo + d) queue) indeg;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    order := i :: !order;
    Csr.iter_succ graph i (fun j ->
        let d = j - lo in
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add j queue)
  done;
  if !seen = k then
    List.iter
      (fun i ->
        Bitset.add rows.(i) i;
        Csr.iter_succ graph i (fun j ->
            Bitset.union_into ~dst:rows.(i) rows.(j)))
      !order
  else
    for i = lo to hi - 1 do
      let stack = ref [ i ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            if not (Bitset.mem rows.(i) u) then begin
              Bitset.add rows.(i) u;
              Csr.iter_succ graph u (fun v -> stack := v :: !stack)
            end
      done
    done

let extend ?(carry_names = fun _ _ -> []) t ~nodes ~edges =
  if t.reaches_override <> None then
    invalid_arg "Engine.extend: engine carries a reachability override";
  let k = List.length nodes in
  let n' = t.n + k in
  let node_of = Array.append t.node_of (Array.of_list (List.map fst nodes)) in
  (* Reject duplicates against the old universe and among the appended
     ids before rebuilding the lookup. *)
  List.iter
    (fun (u, _) ->
      if find_dense t u <> None then
        invalid_arg "Engine.extend: node id already present")
    nodes;
  let appended = Hashtbl.create (max k 1) in
  List.iteri
    (fun i (u, _) ->
      if Hashtbl.mem appended u then
        invalid_arg "Engine.extend: node id already present";
      Hashtbl.replace appended u (t.n + i))
    nodes;
  let lookup = build_lookup node_of in
  let dense_edges =
    List.map
      (fun (u, v) ->
        let dense w =
          match lookup_find lookup node_of w with
          | Some i -> i
          | None -> invalid_arg "Engine.extend: edge endpoint unknown"
        in
        let i = dense u and j = dense v in
        if j < t.n then invalid_arg "Engine.extend: edge into the frozen region";
        (i, j))
      edges
  in
  let extra = Array.make (max n' 1) [] in
  List.iter
    (fun (i, j) ->
      if not (List.mem j extra.(i)) then extra.(i) <- j :: extra.(i))
    dense_edges;
  let extra = Array.map (fun js -> Array.of_list (List.sort compare js)) extra in
  let graph =
    (* Old targets are all [< t.n] and ascending; appended targets all
       [>= t.n] — appending the sorted new ones keeps rows ascending. *)
    Csr.build ~n:n'
      ~degree:(fun i ->
        (if i < t.n then Csr.out_degree t.graph i else 0)
        + Array.length extra.(i))
      ~iter_row:(fun i f ->
        if i < t.n then Csr.iter_succ t.graph i f;
        Array.iter f extra.(i))
      ~sorted:true ()
  in
  let carries =
    lazy
      (let old = Lazy.force t.carries in
       let a = Array.make (Csr.nb_edges graph) [] in
       for i = 0 to n' - 1 do
         (* Each row is its old edges (same order), then the appended. *)
         let e = ref (Csr.row_start graph i) in
         if i < t.n then
           for e_old = Csr.row_start t.graph i to Csr.row_stop t.graph i - 1 do
             a.(!e) <- old.(e_old);
             incr e
           done;
         Array.iter
           (fun j ->
             a.(!e) <- carry_names node_of.(i) node_of.(j);
             incr e)
           extra.(i)
       done;
       a)
  in
  (* Incremental closure maintenance. Appended edges only ever point into
     the appended region (descendants), so an existing closed row can
     only gain members of the new range — it is never invalidated. Widen
     every old row, fill the appended rows, then sweep the old region in
     reverse topological order unioning the (complete) rows of dirty
     successors: only ancestors of an attach point are touched. *)
  let closure =
    match Atomic.get t.closure with
    | None -> Atomic.make None
    | Some rows -> (
        match rev_topo_order t with
        | None ->
            (* Cyclic frozen region (never a view): recompute on demand. *)
            Atomic.make None
        | Some old_rev_topo ->
            let rows' =
              Array.init n' (fun i ->
                  if i < t.n then Bitset.widen rows.(i) n'
                  else Bitset.create n')
            in
            fill_new_rows graph rows' ~lo:t.n ~hi:n';
            let dirty = Array.make (max n' 1) false in
            for i = t.n to n' - 1 do
              dirty.(i) <- true
            done;
            List.iter
              (fun i ->
                let touched = ref false in
                Csr.iter_succ graph i (fun j ->
                    if dirty.(j) then begin
                      Bitset.union_into ~dst:rows'.(i) rows'.(j);
                      touched := true
                    end);
                if !touched then dirty.(i) <- true)
              old_rev_topo;
            Obs.Counter.add_op m_extend_rows k;
            Atomic.make (Some rows'))
  in
  Obs.Counter.incr_op m_extends;
  let modules' =
    Array.append t.modules
      (Array.of_list
         (List.map
            (fun (_, m) -> match m with Some m -> m | None -> -1)
            nodes))
  in
  {
    e_spec = t.e_spec;
    hierarchy = t.hierarchy;
    n = n';
    node_of;
    lookup;
    graph;
    modules = modules';
    by_module = index_modules modules';
    io_kind = Array.append t.io_kind (Array.make (max k 0) Io_none);
    carries;
    reaches_override = None;
    closure;
    closure_lock = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Plan execution *)

let pair_nodes pairs =
  List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) pairs)

let rec eval t trace plan =
  let record w =
    (match trace with Some acc -> acc := (plan, w.nodes) :: !acc | None -> ());
    w
  in
  match plan with
  | Plan.Node_scan p ->
      let ns = matching t p in
      record { holds = ns <> []; nodes = ns }
  | Plan.Edge_join (pa, pb, carry) ->
      let pairs = ref [] in
      Array.iter
        (fun i ->
          for e = Csr.row_start t.graph i to Csr.row_stop t.graph i - 1 do
            let j = Csr.target t.graph e in
            let ok_carry =
              match carry with
              | None -> true
              | Some d -> List.mem d (Lazy.force t.carries).(e)
            in
            if ok_carry && dense_matches t j pb then
              pairs := (t.node_of.(i), t.node_of.(j)) :: !pairs
          done)
        (matching_dense t pa);
      record { holds = !pairs <> []; nodes = pair_nodes !pairs }
  | Plan.Reach_join (pa, pb) ->
      let srcs = matching_dense t pa and dsts = matching_dense t pb in
      if Array.length srcs = 0 || Array.length dsts = 0 then
        record { holds = false; nodes = [] }
      else begin
        match t.reaches_override with
        | Some f ->
            let pairs = ref [] in
            Array.iter
              (fun i ->
                Array.iter
                  (fun j ->
                    if i <> j && f t.node_of.(i) t.node_of.(j) then
                      pairs := (t.node_of.(i), t.node_of.(j)) :: !pairs)
                  dsts)
              srcs;
            record { holds = !pairs <> []; nodes = pair_nodes !pairs }
        | None ->
            let rows = closure_rows t in
            let dst_mask = Bitset.create t.n in
            Array.iter (Bitset.add dst_mask) dsts;
            let hit_dsts = Bitset.create t.n in
            (* One scratch row reused across sources: assign + intersect
               in place of a fresh copy per source. *)
            let scratch = Bitset.create t.n in
            let hit_srcs = ref [] in
            Array.iter
              (fun i ->
                Bitset.assign ~dst:scratch rows.(i);
                Bitset.inter_into ~dst:scratch dst_mask;
                Bitset.remove scratch i;
                (* strict: a node does not precede itself *)
                if not (Bitset.is_empty scratch) then begin
                  hit_srcs := t.node_of.(i) :: !hit_srcs;
                  Bitset.union_into ~dst:hit_dsts scratch
                end)
              srcs;
            let ns =
              Bitset.fold
                (fun j acc -> t.node_of.(j) :: acc)
                hit_dsts !hit_srcs
              |> List.sort_uniq compare
            in
            record { holds = !hit_srcs <> []; nodes = ns }
      end
  | Plan.Inside_scan (p, w) -> (
      match Hierarchy.descendants (Lazy.force t.hierarchy) w with
      | exception Not_found -> record { holds = false; nodes = [] }
      | desc ->
          let inside =
            Array.fold_right
              (fun i acc ->
                let m = t.modules.(i) in
                if m >= 0 && List.mem (Spec.owner t.e_spec m) desc then
                  t.node_of.(i) :: acc
                else acc)
              (matching_dense t p) []
          in
          record { holds = inside <> []; nodes = inside })
  | Plan.Refine_join (pa, pb) ->
      let hierarchy = Lazy.force t.hierarchy in
      let pairs = ref [] in
      Array.iter
        (fun i ->
          let m = t.modules.(i) in
          if m >= 0 && Module_def.is_composite (Spec.find_module t.e_spec m)
          then
            match Module_def.expansion (Spec.find_module t.e_spec m) with
            | None -> ()
            | Some w ->
                let desc = Hierarchy.descendants hierarchy w in
                for j = t.n - 1 downto 0 do
                  let mb = t.modules.(j) in
                  if
                    mb >= 0
                    && module_pred t.e_spec pb mb
                    && List.mem (Spec.owner t.e_spec mb) desc
                  then pairs := (t.node_of.(i), t.node_of.(j)) :: !pairs
                done)
        (matching_dense t pa);
      record { holds = !pairs <> []; nodes = pair_nodes !pairs }
  | Plan.Guarded_and (a, b) ->
      let wa = eval t trace a in
      if not wa.holds then record { holds = false; nodes = [] }
      else begin
        let wb = eval t trace b in
        if wb.holds then
          record
            {
              holds = true;
              nodes = List.sort_uniq compare (wa.nodes @ wb.nodes);
            }
        else record { holds = false; nodes = [] }
      end
  | Plan.Union (a, b) ->
      let wa = eval t trace a in
      if wa.holds then record wa else record (eval t trace b)
  | Plan.Complement a ->
      let wa = eval t trace a in
      record { holds = not wa.holds; nodes = [] }

let run t plan =
  let w = eval t None plan in
  Obs.Counter.incr_op m_runs;
  Obs.Counter.add_op m_rows (List.length w.nodes);
  w

let compile q = Obs.Histogram.time h_compile_ns (fun () -> Plan.compile q)
let run_query t q = run t (compile q)

let run_trace t plan =
  let acc = ref [] in
  let w = eval t (Some acc) plan in
  (w, List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Batched evaluation *)

let rec plan_needs_closure = function
  | Plan.Reach_join _ -> true
  | Plan.Guarded_and (a, b) | Plan.Union (a, b) ->
      plan_needs_closure a || plan_needs_closure b
  | Plan.Complement a -> plan_needs_closure a
  | Plan.Node_scan _ | Plan.Edge_join _ | Plan.Inside_scan _
  | Plan.Refine_join _ ->
      false

let rec plan_needs_carries = function
  | Plan.Edge_join (_, _, Some _) -> true
  | Plan.Guarded_and (a, b) | Plan.Union (a, b) ->
      plan_needs_carries a || plan_needs_carries b
  | Plan.Complement a -> plan_needs_carries a
  | Plan.Node_scan _ | Plan.Edge_join (_, _, None) | Plan.Reach_join _
  | Plan.Inside_scan _ | Plan.Refine_join _ ->
      false

let run_batch ?pool t plans =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  Obs.Trace.with_span "engine.run_batch"
    ~attrs:(fun () ->
      [
        ("plans", string_of_int (List.length plans));
        ("nodes", string_of_int t.n);
      ])
    (fun () ->
      (* Freeze the two lazily-materialized pieces of the prepared view
         before fanning out, so every domain only ever reads them: the
         hierarchy (Lazy is not safe to force concurrently) and the
         closure (published once, under the lock). *)
      ignore (Lazy.force t.hierarchy);
      if List.exists plan_needs_carries plans then
        ignore (Lazy.force t.carries);
      if t.reaches_override = None && List.exists plan_needs_closure plans
      then ignore (closure_rows_with pool t);
      let ws =
        match t.reaches_override with
        | Some _ ->
            (* An external reachability oracle may memoize internally
               (e.g. a Reach_cache); without a thread-safety contract on
               it, evaluate in the caller's domain. Answers are identical
               either way. *)
            List.map (fun p -> eval t None p) plans
        | None ->
            Pool.parallel_map_list ~chunk:1 pool (fun p -> eval t None p)
              plans
      in
      (* Recorded after the join, in the caller's domain, so worker
         domains never touch the registry. *)
      Obs.Counter.incr_op m_batches;
      Obs.Counter.add_op m_batch_plans (List.length plans);
      List.iter
        (fun w -> Obs.Counter.add_op m_rows (List.length w.nodes))
        ws;
      ws)

let rec run_search ~lookup = function
  | Plan.Keyword_lookup kws -> lookup kws
  | Plan.Rank s -> Ranking.rank (run_search ~lookup s)
  | Plan.Quantize (w, s) -> Ranking.quantize ~width:w (run_search ~lookup s)
  | Plan.Project_top (k, s) -> Ranking.top_k k (run_search ~lookup s)

let run_search_indexed ~index ~level plan =
  match plan with
  | Plan.Project_top (k, Plan.Rank (Plan.Keyword_lookup kws)) ->
      (* The canonical top-k pipeline short-circuits into block-max WAND
         — same floats, same tie-break, early termination. Quantized
         pipelines fall through: bucketing changes tie behaviour, so
         they must rank the exhaustive scores. *)
      Index.top_k index ~level ~k kws
  | plan ->
      run_search ~lookup:(fun kws -> Index.score_entries index ~level kws) plan

let run_searches ?pool ~index ~level plans =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  (* The index is immutable after build and cursors are per-call, so
     search pipelines fan out like query plans; counters are atomic. *)
  Pool.parallel_map_list ~chunk:1 pool (run_search_indexed ~index ~level) plans

let run_search_live ~view ~level plan =
  match plan with
  | Plan.Project_top (k, Plan.Rank (Plan.Keyword_lookup kws)) ->
      (* Same canonical-pipeline dispatch as {!run_search_indexed}; the
         LSM view's top-k equals the frozen index's by construction. *)
      Live_index.top_k view ~level ~k kws
  | plan ->
      run_search
        ~lookup:(fun kws -> Live_index.score_entries view ~level kws)
        plan

let run_searches_live ?pool ~view ~level plans =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  (* A pinned view is immutable (snapshot isolation), so search pipelines
     fan out exactly like the frozen-index batch. *)
  Pool.parallel_map_list ~chunk:1 pool (run_search_live ~view ~level) plans
