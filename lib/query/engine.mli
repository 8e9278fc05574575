(** The compiled query engine: one prepared, dense representation of a
    view that every evaluator executes plans against (paper Sec. 4 —
    efficient search under access views).

    An engine holds a view as one CSR plane over dense indices [0..n-1]
    with per-node module/io arrays and per-edge carried data names.
    Execution views arrive dense ({!Exec_view.plane}) and are taken as
    is; spec-sized views are renumbered once. The transitive closure is
    computed on first demand as {!Wfpriv_graph.Bitset} rows (reverse
    topological propagation, DFS fallback on cycles) and memoized in the
    prepared value, so repeated structural queries against the same view
    — a session, a cached user group — pay for reachability once. Privacy never appears here:
    engines are built from {e views}, which already are the privacy
    boundary ({!Access_gate}). *)

open Wfpriv_workflow

type t
(** A prepared view. Cheap to build (linear in nodes + edges); holds the
    memoized closure. *)

type witness = { holds : bool; nodes : int list }
(** Same contract as {!Query_eval.witness}: nodes involved in making the
    plan true, sorted; empty when [holds = false]. *)

(** {2 Preparation} *)

val of_spec_view : View.t -> t
(** Nodes are visible module ids. *)

val of_exec_view : ?reaches:(int -> int -> bool) -> Exec_view.t -> t
(** Nodes are representative execution node ids; an execution node
    hidden inside a collapsed composite is not a node ({!mem} is
    [false]). The view's plane is shared, not copied. [reaches]
    overrides the reachability oracle (e.g. a sharded frontier exchange)
    instead of the engine's own closure. *)

val of_execution : Execution.t -> t
(** The raw provenance graph (no collapsing), sharing the execution's
    plane — candidate enumeration for {!Exec_search}. *)

val of_spec : ?reaches:(int -> int -> bool) -> Spec.t -> t
(** The module universe itself: every module of every workflow (composites
    included, unlike any flat view), with each workflow's internal
    dataflow edges. Candidate enumeration for {!Keyword}. [reaches]
    overrides the reachability oracle as in {!of_exec_view} — the hook a
    sharded scatter/gather planner plugs its frontier exchange into. *)

val extend :
  ?carry_names:(int -> int -> string list) ->
  t ->
  nodes:(int * Ids.module_id option) list ->
  edges:(int * int) list ->
  t
(** Incremental preparation for a live view: a new engine over the old
    graph plus the appended [nodes] (fresh external ids, with optional
    modules) and [edges]. Every appended edge must end in an appended
    node — DAG appends only add {e descendants} — so an already-memoized
    closure is maintained incrementally instead of invalidated: old rows
    are widened (they can only gain appended members, never lose any),
    the appended region's rows are filled by a local reverse-topological
    sweep, and one sweep over the old region unions the rows of dirty
    successors — touching only ancestors of an attach point. Answers are
    identical to a from-scratch preparation of the extended graph (the
    differential suite pins rows and witnesses, sequential and
    parallel). Raises [Invalid_argument] on a duplicate or negative node
    id, an unknown edge endpoint, an edge into the frozen region, or an
    engine carrying a [reaches] override (the oracle cannot be
    extended). Ids index a lookup array, so keep them small. *)

(** {2 Prepared-view accessors} *)

val spec : t -> Spec.t
val nb_nodes : t -> int

val nodes : t -> int list
(** External node ids, sorted. *)

val mem : t -> int -> bool

val digest : t -> string
(** Structural digest of the prepared view — nodes, modules, adjacency;
    derived state (the memoized closure) excluded. Two engines prepared
    from equal views digest equally, so a result cache can assert that
    every entry filed under one access-view fingerprint was computed
    against the same graph. *)

val succ : t -> int -> int list
(** Successors of an external node id, sorted; [[]] for unknown nodes. *)

val dense_graph : t -> int array * Wfpriv_graph.Csr.t
(** The prepared view's dense adjacency, [(node_of, csr)]:
    [node_of.(i)] is the external id at dense index [i] (ascending) and
    the CSR plane holds successors as dense indices. The array is the
    engine's own — callers must not mutate it. Exposed so a sharded
    planner can partition an already-prepared graph without paying a
    second preparation pass. *)

val graph_bytes : t -> int
(** Resident bytes of the prepared structure: the flat CSR plane
    (transpose included), the per-node attribute arrays, module buckets
    and id lookaside. Excludes the demand-built closure (see
    {!closure_bytes}) — the number a capacity planner compares against a
    boxed adjacency representation. *)

val closure_bytes : t -> int
(** Resident bytes of the memoized closure rows; [0] before the first
    reachability query materializes them. *)

val with_reaches : t -> (int -> int -> bool) -> t
(** A view sharing this engine's prepared graph (nodes, adjacency,
    module index, carries) but answering reachability joins through the
    given oracle over external node ids, with its own unmaterialized
    closure cell. The base engine is unaffected. *)

val module_of : t -> int -> Ids.module_id option

val matching : t -> Query_ast.node_pred -> int list
(** Nodes whose module satisfies the predicate, sorted (nodes with no
    module — execution I/O — match only [Any]). *)

val node_matches : t -> int -> Query_ast.node_pred -> bool

val node_matches_io : t -> int -> Query_ast.node_pred -> bool
(** Like {!node_matches} but I/O nodes additionally answer
    [Module_is Ids.input_module] / [Module_is Ids.output_module] — the
    path-query addressing rule. *)

val reaches : t -> int -> int -> bool
(** Reflexive-transitive reachability from the memoized closure (or the
    override). First call on a prepared view builds the closure. *)

val materialize_closure : ?pool:Wfpriv_parallel.Pool.t -> t -> unit
(** Build and memoize the bitset closure now (no-op when already built).
    With a pool of more than one domain and enough nodes, rows are
    filled stratum-parallel: nodes are grouped by height above the
    sinks, each stratum's rows only union rows of strictly lower strata,
    and each domain owns disjoint row indices — so no locking, and the
    resulting rows are identical to the sequential sweep's. Defaults to
    {!Wfpriv_parallel.Pool.global}, which is sequential unless
    [WFPRIV_JOBS] (or [set_default_jobs]) says otherwise. The memo is
    published once through an [Atomic] under a mutex: concurrent callers
    see either nothing or fully-built rows. *)

val reachable_set : t -> int -> int list
(** External node ids reachable from the given node (itself included),
    ascending; [[]] for unknown nodes. Exposes one closure row — the
    determinism suite compares parallel and sequential rows through
    this. *)

val co_reachable_of_matches : t -> Query_ast.node_pred -> int list
(** Nodes that can reach some match of the predicate (matches included),
    sorted — provenance of a match set, answered from closure rows. *)

(** {2 Plan execution} *)

val run : t -> Plan.t -> witness

val compile : Query_ast.t -> Plan.t
(** {!Plan.compile} timed into the [engine.compile_ns] histogram (a
    plain call when observability is off). *)

val run_query : t -> Query_ast.t -> witness
(** [run t (compile q)]. *)

val run_trace : t -> Plan.t -> witness * (Plan.t * int list) list
(** Like {!run} but also returns every operator's output node set, inner
    operators first — the hook for the leakage test: every intermediate
    node is a node of the prepared view, hence visible. *)

val run_batch : ?pool:Wfpriv_parallel.Pool.t -> t -> Plan.t list -> witness list
(** Evaluate a batch of compiled plans against one prepared view, plans
    distributed across the pool's domains; results in input order,
    identical to [List.map (run t) plans]. Before fanning out, the
    hierarchy and (when some plan contains a [Reach_join]) the closure
    are materialized, after which evaluation only reads the prepared
    view. Engines carrying a [reaches] override evaluate sequentially —
    the override has no thread-safety contract. Defaults to the global
    pool. *)

val run_search :
  lookup:(string list -> Ranking.entry list) -> Plan.search -> Ranking.entry list
(** Execute a search pipeline; [lookup] scores documents for the keyword
    set (the engine owns ranking, quantization and projection). *)

val run_search_indexed :
  index:Index.t ->
  level:Wfpriv_privacy.Privilege.level ->
  Plan.search ->
  Ranking.entry list
(** {!run_search} against a compressed index: the canonical
    [Project_top (k, Rank (Keyword_lookup _))] pipeline dispatches to
    block-max WAND ({!Index.top_k}), everything else (in particular
    quantized pipelines, whose bucketing changes tie behaviour) ranks
    the exhaustive {!Index.score_entries}. Answers are identical either
    way — the WAND differential property pins it. *)

val run_searches :
  ?pool:Wfpriv_parallel.Pool.t ->
  index:Index.t ->
  level:Wfpriv_privacy.Privilege.level ->
  Plan.search list ->
  Ranking.entry list list
(** A batch of search pipelines against one immutable index, distributed
    across the pool's domains; results in input order, identical to
    mapping {!run_search_indexed}. Defaults to the global pool. *)

val run_search_live :
  view:Live_index.view ->
  level:Wfpriv_privacy.Privilege.level ->
  Plan.search ->
  Ranking.entry list
(** {!run_search_indexed} against a pinned LSM view ({!Live_index}):
    the canonical top-k pipeline dispatches to the view's top-k (WAND on
    a single source, merged exhaustive scores otherwise), everything
    else ranks {!Live_index.score_entries}. Answers are identical to
    running against {!Live_index.to_index} of the same view. *)

val run_searches_live :
  ?pool:Wfpriv_parallel.Pool.t ->
  view:Live_index.view ->
  level:Wfpriv_privacy.Privilege.level ->
  Plan.search list ->
  Ranking.entry list list
(** Batched {!run_search_live} over one pinned (hence immutable) view;
    results in input order. Defaults to the global pool. *)
