(** Workflow executions — provenance graphs (paper, Sec. 2, Fig. 4).

    An execution is a DAG whose nodes are module executions. Following
    common practice, a composite module execution is represented by a
    {e begin} and an {e end} node bracketing its sub-workflow's
    executions. Every module execution carries a unique process id
    ([S1], [S2], ...) assigned in scheduling order; a composite's begin
    and end share one process id.

    Edges are annotated with the {e data items} that flow over them. Each
    data item is produced by exactly one node, has a unique id ([d0], ...)
    assigned in creation order, a name (the dataflow label from the
    specification), a value, and the list of items it was derived from
    (fine-grained lineage, used by {!Provenance}).

    Executions are produced by {!Executor.run}; this module is the
    read-only structure plus its (internal) builder. *)

type node_kind =
  | Input
  | Output
  | Atomic_exec of { proc : Ids.process_id; module_id : Ids.module_id }
  | Begin_composite of { proc : Ids.process_id; module_id : Ids.module_id }
  | End_composite of { proc : Ids.process_id; module_id : Ids.module_id }

type item = {
  data_id : Ids.data_id;
  name : string;
  value : Data_value.t;
  producer : int;  (** node id of the producing module execution *)
  derived_from : Ids.data_id list;  (** items consumed to produce this one *)
}

type t

val spec : t -> Spec.t

val csr_plane : t -> Wfpriv_graph.Csr.t
(** The execution DAG as a flat CSR plane — the only adjacency an
    execution holds, built once by {!Builder.finish} or handed to
    {!of_plane}. Node ids are the dense indices themselves. *)

val graph : t -> Wfpriv_graph.Digraph.t
(** A fresh boxed rendering of the plane, for the paper's graph
    algorithms ({!Provenance}, dominators) and tests. Cold paths only:
    it allocates the whole graph. *)

val nb_nodes : t -> int

val nodes : t -> int list
(** Sorted node ids — always [0 .. nb_nodes - 1]. *)

val node_kind : t -> int -> node_kind
(** Raises [Not_found]. *)

val node_label : t -> int -> string
(** ["I"], ["O"], ["S1:M1 begin"], ["S2:M3"], ... (Fig. 4's labels). *)

val module_of_node : t -> int -> Ids.module_id option
(** The module a node executes; [None] for [Input]/[Output]. *)

val scope : t -> int -> Ids.process_id list
(** Process ids of the composite executions enclosing a node, outermost
    first. A composite's begin/end nodes include their own process id as
    the last element. Empty for top-level nodes. *)

val nodes_of_module : t -> Ids.module_id -> int list
(** All executions of a module (begin nodes for composites), sorted. *)

val node_of_process : t -> Ids.process_id -> int
(** The node carrying this process id (the begin node for composites).
    Raises [Not_found]. *)

val edge_items : t -> int -> int -> Ids.data_id list
(** Data items annotated on an edge, sorted; [[]] when absent. *)

val edge_items_at : t -> int -> Ids.data_id list
(** Data items on the plane edge at an edge index ({!Wfpriv_graph.Csr}
    numbering), sorted. *)

val fold_edges : (int -> int -> Ids.data_id list -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every edge with its items ([[]] when unannotated), in
    ascending [(src, dst)] order. *)

val items : t -> item list
(** All data items in id order. *)

val nb_items : t -> int

val find_item : t -> Ids.data_id -> item
(** Raises [Not_found]. *)

val items_named : t -> string -> item list
(** Items whose name matches, in id order. *)

val redact_named : t -> string -> t
(** A copy whose items of the given name carry {!Data_value.masked}
    instead of their value — the erasure primitive. Structure (graph,
    lineage, edge annotations, ids) is untouched and the [spec] pointer
    is shared, so the result is interchangeable with the original for
    every structural operation. *)

val output_items : t -> item list
(** Items flowing into the [Output] node (the workflow results). *)

val of_plane :
  spec:Spec.t ->
  plane:Wfpriv_graph.Csr.t ->
  kinds:node_kind array ->
  scopes:Ids.process_id list array ->
  edge_items:((int * int) * Ids.data_id list) list ->
  items:item list ->
  t
(** Rehydrate an execution directly from its flat adjacency plane — the
    snapshot-recovery fast path (no [Digraph], no builder). Validates
    kind/scope array lengths, acyclicity, that annotations sit on edges,
    and that item ids are dense with in-range producers; raises
    [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
(** Edge listing in the style of Fig. 4. *)

(** Mutable builder used by {!Executor}; not intended for direct use. *)
module Builder : sig
  type exec = t
  type t

  val create : Spec.t -> t

  val add_node : t -> scope:Ids.process_id list -> node_kind -> int
  val fresh_process : t -> Ids.process_id

  val add_item :
    t ->
    name:string ->
    value:Data_value.t ->
    producer:int ->
    derived_from:Ids.data_id list ->
    item

  val connect : t -> src:int -> dst:int -> Ids.data_id list -> unit
  (** Add an edge (or extend its annotation). *)

  val finish : t -> exec
  (** Freeze into the CSR plane; checks the graph is a DAG and every
      item's producer exists. Raises [Invalid_argument] otherwise. *)
end
