module Digraph = Wfpriv_graph.Digraph
module Csr = Wfpriv_graph.Csr
module Dot = Wfpriv_graph.Dot

type dense = { ids : int array; classes : int array }

(* A view with a full prefix (every composite expanded) is structurally
   the execution itself: [Full] shares the execution's plane and edge
   annotations. A collapsing view is the quotient of that plane by the
   view-node classes, built in one pass, over dense view indices. *)
type body =
  | Full
  | Collapsed of {
      dense : dense;
      collapsed : bool array; (* dense index -> hides a composite *)
      plane : Csr.t; (* quotient adjacency over dense indices *)
      items : Ids.data_id list array; (* quotient edge index -> items *)
    }

type t = { exec : Execution.t; prefix : Ids.workflow_id list; body : body }

let quotient exec runs =
  let n = Execution.nb_nodes exec in
  (* The outermost enclosing collapsed run absorbs a node; the view
     nodes, ascending, get the dense indices. *)
  let rep u =
    match List.find_map (Hashtbl.find_opt runs) (Execution.scope exec u) with
    | Some b -> b
    | None -> u
  in
  let reps = Array.init n rep in
  let ids =
    Array.of_list (List.filter (fun u -> reps.(u) = u) (Execution.nodes exec))
  in
  let classes = Array.make n 0 in
  Array.iteri (fun i u -> classes.(u) <- i) ids;
  Array.iteri (fun u r -> classes.(u) <- classes.(r)) reps;
  let collapsed =
    Array.map
      (fun u ->
        match Execution.node_kind exec u with
        | Execution.Begin_composite { proc; _ } ->
            Hashtbl.find_opt runs proc = Some u
        | _ -> false)
      ids
  in
  (* Every crossing execution edge, filed under its source class; each
     row is then grouped by target class and each quotient edge's items
     merged once. *)
  let base = Execution.csr_plane exec in
  let out = Array.make (Array.length ids) [] in
  for u = 0 to n - 1 do
    for e = Csr.row_start base u to Csr.row_stop base u - 1 do
      let c = classes.(u) and d = classes.(Csr.target base e) in
      if c <> d then out.(c) <- (d, Execution.edge_items_at exec e) :: out.(c)
    done
  done;
  let group row =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) row
    |> List.fold_left
         (fun acc (d, ds) ->
           match acc with
           | (d', dss) :: tl when d' = d -> (d, ds :: dss) :: tl
           | _ -> (d, [ ds ]) :: acc)
         []
    |> List.rev_map (fun (d, dss) ->
           match dss with
           | [ ds ] -> (d, ds)
           | _ -> (d, List.sort_uniq compare (List.concat dss)))
    |> Array.of_list
  in
  let rows = Array.map group out in
  Collapsed
    {
      dense = { ids; classes };
      collapsed;
      plane =
        Csr.build ~n:(Array.length ids)
          ~degree:(fun c -> Array.length rows.(c))
          ~iter_row:(fun c f -> Array.iter (fun (d, _) -> f d) rows.(c))
          ~sorted:true ();
      items = Array.concat (Array.to_list (Array.map (Array.map snd) rows));
    }

let of_prefix exec ws =
  let spec = Execution.spec exec in
  let prefix = Hierarchy.normalize_prefix (Hierarchy.of_spec spec) ws in
  let in_prefix = Hashtbl.create 16 in
  List.iter (fun w -> Hashtbl.replace in_prefix w ()) prefix;
  (* Begin node of every composite run whose expansion lies outside the
     prefix, by process id. *)
  let runs = Hashtbl.create 8 in
  for n = 0 to Execution.nb_nodes exec - 1 do
    match Execution.node_kind exec n with
    | Execution.Begin_composite { proc; module_id } -> (
        match Module_def.expansion (Spec.find_module spec module_id) with
        | Some w ->
            if not (Hashtbl.mem in_prefix w) then Hashtbl.replace runs proc n
        | None -> assert false)
    | _ -> ()
  done;
  let body = if Hashtbl.length runs = 0 then Full else quotient exec runs in
  { exec; prefix; body }

let full exec = of_prefix exec (Spec.workflow_ids (Execution.spec exec))
let coarsest exec = of_prefix exec [ Spec.root (Execution.spec exec) ]
let exec t = t.exec
let prefix t = t.prefix
let is_full t = match t.body with Full -> true | Collapsed _ -> false

let plane t =
  match t.body with Full -> Execution.csr_plane t.exec | Collapsed c -> c.plane

let plane_edge_items t e =
  match t.body with
  | Full -> Execution.edge_items_at t.exec e
  | Collapsed c -> c.items.(e)

let dense t = match t.body with Full -> None | Collapsed c -> Some c.dense

let node_id t i =
  match t.body with Full -> i | Collapsed c -> c.dense.ids.(i)

(* Dense index of a view node; [None] for ids that are no view node
   (out of range, or hidden inside a collapsed composite). *)
let dense_index t u =
  if u < 0 || u >= Execution.nb_nodes t.exec then None
  else
    match t.body with
    | Full -> Some u
    | Collapsed { dense = { ids; classes }; _ } ->
        let i = classes.(u) in
        if ids.(i) = u then Some i else None

let fold_edges f t init =
  let p = plane t in
  let acc = ref init in
  for i = 0 to Csr.nb_nodes p - 1 do
    for e = Csr.row_start p i to Csr.row_stop p i - 1 do
      acc :=
        f (node_id t i) (node_id t (Csr.target p e)) (plane_edge_items t e) !acc
    done
  done;
  !acc

let edges t = List.rev (fold_edges (fun u v _ acc -> (u, v) :: acc) t [])

let nodes t =
  match t.body with
  | Full -> Execution.nodes t.exec
  | Collapsed c -> Array.to_list c.dense.ids

let graph t =
  let n = Csr.nb_nodes (plane t) in
  let g = Digraph.create ~initial_capacity:(max 16 n) () in
  List.iter (Digraph.add_node g) (nodes t);
  fold_edges (fun u v _ () -> Digraph.add_edge g u v) t ();
  g

let representative t n =
  if n < 0 || n >= Execution.nb_nodes t.exec then raise Not_found
  else
    match t.body with
    | Full -> n
    | Collapsed { dense = { ids; classes }; _ } -> ids.(classes.(n))

let is_collapsed t n =
  match (t.body, dense_index t n) with
  | Collapsed c, Some i -> c.collapsed.(i)
  | _ -> false

let node_label t n =
  if is_collapsed t n then
    match Execution.node_kind t.exec n with
    | Execution.Begin_composite { proc; module_id } ->
        Printf.sprintf "%s:%s" (Ids.process_name proc)
          (Ids.module_name module_id)
    | _ -> Execution.node_label t.exec n
  else Execution.node_label t.exec n

let module_of_node t n = Execution.module_of_node t.exec n

let edge_items t u v =
  match (dense_index t u, dense_index t v) with
  | Some i, Some j -> (
      match Csr.find_edge (plane t) i j with
      | Some e -> plane_edge_items t e
      | None -> [])
  | _ -> []

let visible_items t =
  let p = plane t in
  let acc = ref [] in
  for e = 0 to Csr.nb_edges p - 1 do
    acc := List.rev_append (plane_edge_items t e) !acc
  done;
  List.sort_uniq compare !acc

let hidden_items t =
  let visible = visible_items t in
  List.filter_map
    (fun (it : Execution.item) ->
      if List.mem it.Execution.data_id visible then None
      else Some it.Execution.data_id)
    (Execution.items t.exec)

let visible_lineage t d =
  let visible = visible_items t in
  List.filter (fun a -> List.mem a visible) (Provenance.lineage t.exec d)

let to_dot t =
  let style n =
    if is_collapsed t n then
      { Dot.label = node_label t n; shape = "box3d"; fill = Some "lightyellow" }
    else
      match Execution.node_kind t.exec n with
      | Execution.Input | Execution.Output ->
          { Dot.label = node_label t n; shape = "ellipse"; fill = Some "gray90" }
      | _ -> { Dot.label = node_label t n; shape = "box"; fill = None }
  in
  let edge_label u v =
    match edge_items t u v with
    | [] -> None
    | ds -> Some (String.concat "," (List.map Ids.data_name ds))
  in
  Dot.render_edges ~name:"execution-view" ~node_style:style ~edge_label
    ~nodes:(nodes t) (edges t)

let pp ppf t =
  Format.fprintf ppf "@[<v>execution view prefix {%s}@,"
    (String.concat ", " t.prefix);
  fold_edges
    (fun u v ds () ->
      Format.fprintf ppf "%s -> %s [%s]@," (node_label t u) (node_label t v)
        (String.concat "," (List.map Ids.data_name ds)))
    t ();
  Format.fprintf ppf "@]"
