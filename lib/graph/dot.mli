(** Graphviz DOT rendering for digraphs.

    Callers provide naming and styling callbacks so the same renderer
    serves workflow specifications, views and execution (provenance)
    graphs. Output is deterministic (nodes and edges emitted in sorted
    order) so goldens can be tested. *)

type node_style = {
  label : string;
  shape : string;  (** e.g. ["box"], ["ellipse"], ["doubleoctagon"] *)
  fill : string option;  (** X11 color name; [None] = unfilled *)
}

val default_node_style : int -> node_style
(** Box labelled with the node id. *)

val render :
  ?name:string ->
  ?node_style:(int -> node_style) ->
  ?edge_label:(int -> int -> string option) ->
  Digraph.t ->
  string
(** [render g] is a complete [digraph { ... }] document. String labels are
    escaped. *)

val render_edges :
  ?name:string ->
  ?node_style:(int -> node_style) ->
  ?edge_label:(int -> int -> string option) ->
  nodes:int list ->
  (int * int) list ->
  string
(** {!render} over explicit node and edge lists, emitted in the order
    given — for graphs held in another representation (a CSR plane). *)
