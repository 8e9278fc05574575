module Digraph = Wfpriv_graph.Digraph
module Csr = Wfpriv_graph.Csr
module Topo = Wfpriv_graph.Topo

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
  producer : int;
  derived_from : Ids.data_id list;
}

(* Node ids are dense [0..nb-1] (the builder assigns them sequentially),
   so per-node attributes live in flat arrays and the adjacency is the
   {!Csr} plane itself — the only adjacency an execution holds. Edge
   annotations sit beside it, one list per plane edge index. *)
type t = {
  spec : Spec.t;
  plane : Csr.t;
  kinds : node_kind array;
  scopes : Ids.process_id list array;
  edge_data : Ids.data_id list array; (* plane edge index -> items, sorted *)
  items : item array;
}

let spec t = t.spec
let csr_plane t = t.plane
let nb_nodes t = Csr.nb_nodes t.plane
let nodes t = List.init (nb_nodes t) Fun.id

let node_kind t n =
  if n < 0 || n >= nb_nodes t then raise Not_found else t.kinds.(n)

let node_label t n =
  match node_kind t n with
  | Input -> "I"
  | Output -> "O"
  | Atomic_exec { proc; module_id } ->
      Printf.sprintf "%s:%s" (Ids.process_name proc) (Ids.module_name module_id)
  | Begin_composite { proc; module_id } ->
      Printf.sprintf "%s:%s begin" (Ids.process_name proc)
        (Ids.module_name module_id)
  | End_composite { proc; module_id } ->
      Printf.sprintf "%s:%s end" (Ids.process_name proc)
        (Ids.module_name module_id)

let module_of_node t n =
  match node_kind t n with
  | Input | Output -> None
  | Atomic_exec { module_id; _ }
  | Begin_composite { module_id; _ }
  | End_composite { module_id; _ } ->
      Some module_id

let scope t n =
  if n < 0 || n >= nb_nodes t then raise Not_found else t.scopes.(n)

let nodes_of_module t m =
  List.filter
    (fun n ->
      match node_kind t n with
      | Atomic_exec { module_id; _ } | Begin_composite { module_id; _ } ->
          module_id = m
      | Input | Output | End_composite _ -> false)
    (nodes t)

let node_of_process t p =
  let found =
    List.find_opt
      (fun n ->
        match node_kind t n with
        | Atomic_exec { proc; _ } | Begin_composite { proc; _ } -> proc = p
        | Input | Output | End_composite _ -> false)
      (nodes t)
  in
  match found with Some n -> n | None -> raise Not_found

let edge_items t u v =
  match Csr.find_edge t.plane u v with Some e -> t.edge_data.(e) | None -> []

let edge_items_at t e = t.edge_data.(e)

let fold_edges f t init =
  let acc = ref init in
  for u = 0 to nb_nodes t - 1 do
    for e = Csr.row_start t.plane u to Csr.row_stop t.plane u - 1 do
      acc := f u (Csr.target t.plane e) t.edge_data.(e) !acc
    done
  done;
  !acc

let graph t =
  let g = Digraph.create ~initial_capacity:(max 16 (nb_nodes t)) () in
  List.iter (Digraph.add_node g) (nodes t);
  fold_edges (fun u v _ () -> Digraph.add_edge g u v) t ();
  g

let items t = Array.to_list t.items
let nb_items t = Array.length t.items

let find_item t d =
  if d < 0 || d >= Array.length t.items then raise Not_found else t.items.(d)

let items_named t name =
  List.filter (fun it -> String.equal it.name name) (items t)

let redact_named t name =
  (* Shares plane/kind/scope/annotation structure (read-only after
     construction) and keeps the same [spec] pointer: stores compare
     specs physically. *)
  {
    t with
    items =
      Array.map
        (fun it ->
          if String.equal it.name name then { it with value = Data_value.masked }
          else it)
        t.items;
  }

let of_plane ~spec ~plane ~kinds ~scopes ~edge_items ~items =
  let n = Csr.nb_nodes plane in
  if Array.length kinds <> n then
    invalid_arg "Execution.of_plane: kinds length mismatch";
  if Array.length scopes <> n then
    invalid_arg "Execution.of_plane: scopes length mismatch";
  if not (Csr.is_dag plane) then
    invalid_arg "Execution.of_plane: execution graph is cyclic";
  let edge_data = Array.make (Csr.nb_edges plane) [] in
  List.iter
    (fun ((u, v), ds) ->
      match Csr.find_edge plane u v with
      | Some e -> edge_data.(e) <- List.sort_uniq compare ds
      | None -> invalid_arg "Execution.of_plane: items annotate a non-edge")
    edge_items;
  let items = Array.of_list items in
  Array.iteri
    (fun d it ->
      if it.data_id <> d then
        invalid_arg "Execution.of_plane: item ids must be dense and sorted";
      if it.producer < 0 || it.producer >= n then
        invalid_arg "Execution.of_plane: item with unknown producer")
    items;
  { spec; plane; kinds; scopes; edge_data; items }

let output_items t =
  let out_node = List.find_opt (fun n -> node_kind t n = Output) (nodes t) in
  match out_node with
  | None -> []
  | Some o ->
      let acc = ref [] in
      Csr.iter_pred t.plane o (fun p ->
          acc := List.rev_append (edge_items t p o) !acc);
      List.sort_uniq compare !acc |> List.map (find_item t)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  fold_edges
    (fun u v ds () ->
      Format.fprintf ppf "%s -> %s [%s]@," (node_label t u) (node_label t v)
        (String.concat "," (List.map Ids.data_name ds)))
    t ();
  Format.fprintf ppf "@]"

module Builder = struct
  type exec = t

  type t = {
    b_spec : Spec.t;
    b_graph : Digraph.t;
    b_kinds : (int, node_kind) Hashtbl.t;
    b_scopes : (int, Ids.process_id list) Hashtbl.t;
    b_edges : (int * int, Ids.data_id list) Hashtbl.t;
    mutable b_items : item list; (* reversed *)
    mutable next_node : int;
    mutable next_proc : int;
    mutable next_data : int;
  }

  let create spec =
    {
      b_spec = spec;
      b_graph = Digraph.create ();
      b_kinds = Hashtbl.create 32;
      b_scopes = Hashtbl.create 32;
      b_edges = Hashtbl.create 32;
      b_items = [];
      next_node = 0;
      next_proc = 1;
      next_data = 0;
    }

  let add_node b ~scope kind =
    let n = b.next_node in
    b.next_node <- n + 1;
    Digraph.add_node b.b_graph n;
    Hashtbl.replace b.b_kinds n kind;
    Hashtbl.replace b.b_scopes n scope;
    n

  let fresh_process b =
    let p = b.next_proc in
    b.next_proc <- p + 1;
    p

  let add_item b ~name ~value ~producer ~derived_from =
    let d = b.next_data in
    b.next_data <- d + 1;
    let it = { data_id = d; name; value; producer; derived_from } in
    b.b_items <- it :: b.b_items;
    it

  let connect b ~src ~dst ds =
    Digraph.add_edge b.b_graph src dst;
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt b.b_edges (src, dst))
    in
    Hashtbl.replace b.b_edges (src, dst) (List.sort_uniq compare (existing @ ds))

  let finish b =
    if not (Topo.is_dag b.b_graph) then
      invalid_arg "Execution.Builder.finish: execution graph is cyclic";
    let n = b.next_node in
    (* [add_edge] adds endpoints implicitly; an endpoint never declared
       through [add_node] would have no kind — refuse it here rather
       than raise from an accessor later. *)
    if Digraph.nb_nodes b.b_graph > n then
      invalid_arg "Execution.Builder.finish: edge endpoint is not a node";
    let items = Array.of_list (List.rev b.b_items) in
    Array.iter
      (fun it ->
        if it.producer < 0 || it.producer >= n then
          invalid_arg "Execution.Builder.finish: item with unknown producer")
      items;
    (* [iter_succ] visits ascending ids, so rows arrive sorted. *)
    let g = b.b_graph in
    let plane =
      Csr.build ~n
        ~degree:(fun i -> Digraph.out_degree g i)
        ~iter_row:(fun i f -> Digraph.iter_succ f g i)
        ~sorted:true ()
    in
    let edge_data = Array.make (Csr.nb_edges plane) [] in
    for u = 0 to n - 1 do
      for e = Csr.row_start plane u to Csr.row_stop plane u - 1 do
        match Hashtbl.find_opt b.b_edges (u, Csr.target plane e) with
        | Some ds -> edge_data.(e) <- ds
        | None -> ()
      done
    done;
    {
      spec = b.b_spec;
      plane;
      kinds = Array.init n (fun i -> Hashtbl.find b.b_kinds i);
      scopes = Array.init n (fun i -> Hashtbl.find b.b_scopes i);
      edge_data;
      items;
    }
end
