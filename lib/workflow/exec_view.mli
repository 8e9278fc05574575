(** Views of executions (paper, Sec. 2, Fig. 2).

    A hierarchy prefix applied to an execution collapses every composite
    module execution whose defining workflow is outside the prefix into a
    single node: its begin/end pair and all enclosed executions merge, and
    only the data crossing the composite's boundary stays visible. Under
    prefix [{W1}], the paper's Fig. 4 execution becomes Fig. 2:
    [I -> S1:M1 -> S8:M2 -> O] with items [d0,d1 / d2,d3,d4 / d10 / d19].

    The nodes of a view are represented by the execution node id of the
    collapsed composite's begin node (or the original node id when not
    collapsed), so view nodes can be traced back to the execution.

    A view that collapses nothing is the execution's own CSR plane; a
    collapsing view is that plane's {e quotient} by the view nodes,
    built in one pass, each quotient edge carrying the union of the
    items of the execution edges it absorbs. *)

type t

val of_prefix : Execution.t -> Ids.workflow_id list -> t
(** Raises [Invalid_argument] when the list is not a prefix of the spec's
    expansion hierarchy. *)

val full : Execution.t -> t
(** Identity view (every workflow expanded). *)

val coarsest : Execution.t -> t

val exec : t -> Execution.t
val prefix : t -> Ids.workflow_id list

val is_full : t -> bool
(** [true] iff the view collapses nothing — it is structurally the
    execution itself (same nodes, edges and annotations) and shares the
    execution's plane instead of building a quotient. *)

(** {2 The flat plane} *)

val plane : t -> Wfpriv_graph.Csr.t
(** The view's adjacency over dense indices, rows ascending: the
    execution's own plane for a full view (dense index = node id), the
    quotient plane otherwise (dense index = rank among the view's node
    ids). Shared — read-only. *)

val plane_edge_items : t -> int -> Ids.data_id list
(** Items on the {!plane} edge at an edge index, sorted. *)

type dense = {
  ids : int array;  (** dense index -> view node id, ascending *)
  classes : int array;
      (** execution node -> dense index of the view node standing for
          it; an id [u] is a view node iff [ids.(classes.(u)) = u] *)
}

val dense : t -> dense option
(** The id maps of a collapsing view; [None] for a full view, whose
    dense indices are the execution's node ids. The arrays are the
    view's own — callers must not mutate them. *)

val graph : t -> Wfpriv_graph.Digraph.t
(** A fresh boxed rendering of the view, over representative node ids —
    for the paper-sized algorithms and tests. *)

val nodes : t -> int list
(** Sorted representative node ids. *)

val representative : t -> int -> int
(** View node standing for an execution node. *)

val is_collapsed : t -> int -> bool
(** Whether the view node hides a composite's internals. *)

val node_label : t -> int -> string
(** ["S1:M1"] for a collapsed composite (no begin/end suffix), otherwise
    the execution's own label. *)

val module_of_node : t -> int -> Ids.module_id option

val edge_items : t -> int -> int -> Ids.data_id list
(** Items annotated on a view edge — only data crossing collapse
    boundaries survives. *)

val visible_items : t -> Ids.data_id list
(** Items appearing on at least one view edge, sorted. *)

val hidden_items : t -> Ids.data_id list
(** Items of the execution absent from every view edge, sorted. *)

val visible_lineage : t -> Ids.data_id -> Ids.data_id list
(** The item's fine-grained ancestry ({!Provenance.lineage}) filtered to
    items visible in this view — what a user at this granularity can
    learn about where a result came from. The queried item itself need
    not be visible. Sorted; raises [Not_found] on unknown ids. *)

val to_dot : t -> string
val pp : Format.formatter -> t -> unit
