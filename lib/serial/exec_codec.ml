open Wfpriv_workflow

let rec encode_value = function
  | Data_value.Unit -> Json.Obj [ ("t", Json.str "unit") ]
  | Data_value.Bool b -> Json.Obj [ ("t", Json.str "bool"); ("v", Json.Bool b) ]
  | Data_value.Int i -> Json.Obj [ ("t", Json.str "int"); ("v", Json.int i) ]
  | Data_value.Str s -> Json.Obj [ ("t", Json.str "str"); ("v", Json.str s) ]
  | Data_value.List xs ->
      Json.Obj [ ("t", Json.str "list"); ("v", Json.Arr (List.map encode_value xs)) ]
  | Data_value.Record fields ->
      Json.Obj
        [
          ("t", Json.str "record");
          ( "v",
            Json.Obj (List.map (fun (k, v) -> (k, encode_value v)) fields) );
        ]

let rec decode_value j =
  match Json.get_string (Json.member "t" j) with
  | "unit" -> Data_value.Unit
  | "bool" -> Data_value.Bool (Json.get_bool (Json.member "v" j))
  | "int" -> Data_value.Int (Json.get_int (Json.member "v" j))
  | "str" -> Data_value.Str (Json.get_string (Json.member "v" j))
  | "list" ->
      Data_value.List (List.map decode_value (Json.to_list (Json.member "v" j)))
  | "record" -> (
      match Json.member "v" j with
      | Json.Obj fields ->
          Data_value.record (List.map (fun (k, v) -> (k, decode_value v)) fields)
      | _ -> invalid_arg "Exec_codec: record value must be an object")
  | other -> invalid_arg (Printf.sprintf "Exec_codec: unknown value tag %S" other)

let encode_node exec n =
  let base =
    [
      ("id", Json.int n);
      ( "scope",
        Json.Arr (List.map Json.int (Execution.scope exec n)) );
    ]
  in
  let rest =
    match Execution.node_kind exec n with
    | Execution.Input -> [ ("kind", Json.str "input") ]
    | Execution.Output -> [ ("kind", Json.str "output") ]
    | Execution.Atomic_exec { proc; module_id } ->
        [
          ("kind", Json.str "atomic");
          ("proc", Json.int proc);
          ("module", Json.int module_id);
        ]
    | Execution.Begin_composite { proc; module_id } ->
        [
          ("kind", Json.str "begin");
          ("proc", Json.int proc);
          ("module", Json.int module_id);
        ]
    | Execution.End_composite { proc; module_id } ->
        [
          ("kind", Json.str "end");
          ("proc", Json.int proc);
          ("module", Json.int module_id);
        ]
  in
  Json.Obj (base @ rest)

let encode exec =
  Json.Obj
    [
      ("spec", Spec_codec.encode (Execution.spec exec));
      ("nodes", Json.Arr (List.map (encode_node exec) (Execution.nodes exec)));
      ( "edges",
        Json.Arr
          (Execution.fold_edges
             (fun u v ds acc ->
               Json.Obj
                 [
                   ("src", Json.int u);
                   ("dst", Json.int v);
                   ("items", Json.Arr (List.map Json.int ds));
                 ]
               :: acc)
             exec []
          |> List.rev) );
      ( "items",
        Json.Arr
          (List.map
             (fun (it : Execution.item) ->
               Json.Obj
                 [
                   ("id", Json.int it.Execution.data_id);
                   ("name", Json.str it.Execution.name);
                   ("value", encode_value it.Execution.value);
                   ("producer", Json.int it.Execution.producer);
                   ( "derived_from",
                     Json.Arr (List.map Json.int it.Execution.derived_from) );
                 ])
             (Execution.items exec)) );
    ]

let decode_kind j =
  let proc () = Json.get_int (Json.member "proc" j) in
  let module_id () = Json.get_int (Json.member "module" j) in
  match Json.get_string (Json.member "kind" j) with
  | "input" -> Execution.Input
  | "output" -> Execution.Output
  | "atomic" -> Execution.Atomic_exec { proc = proc (); module_id = module_id () }
  | "begin" ->
      Execution.Begin_composite { proc = proc (); module_id = module_id () }
  | "end" -> Execution.End_composite { proc = proc (); module_id = module_id () }
  | other -> invalid_arg (Printf.sprintf "Exec_codec: unknown node kind %S" other)

let decode_with_spec spec j =
  let b = Execution.Builder.create spec in
  let nodes = Json.to_list (Json.member "nodes" j) in
  (* Builder assigns node ids sequentially; the encoder emits nodes in id
     order, so feeding them back in document order preserves ids —
     asserted here rather than assumed. *)
  List.iter
    (fun nj ->
      let declared = Json.get_int (Json.member "id" nj) in
      let scope =
        List.map Json.get_int (Json.to_list (Json.member "scope" nj))
      in
      let id = Execution.Builder.add_node b ~scope (decode_kind nj) in
      if id <> declared then
        invalid_arg
          (Printf.sprintf
             "Exec_codec: node ids must be dense and sorted (expected %d, \
              declared %d)"
             id declared))
    nodes;
  List.iter
    (fun ij ->
      let declared = Json.get_int (Json.member "id" ij) in
      let item =
        Execution.Builder.add_item b
          ~name:(Json.get_string (Json.member "name" ij))
          ~value:(decode_value (Json.member "value" ij))
          ~producer:(Json.get_int (Json.member "producer" ij))
          ~derived_from:
            (List.map Json.get_int (Json.to_list (Json.member "derived_from" ij)))
      in
      if item.Execution.data_id <> declared then
        invalid_arg "Exec_codec: item ids must be dense and sorted")
    (Json.to_list (Json.member "items" j));
  List.iter
    (fun ej ->
      Execution.Builder.connect b
        ~src:(Json.get_int (Json.member "src" ej))
        ~dst:(Json.get_int (Json.member "dst" ej))
        (List.map Json.get_int (Json.to_list (Json.member "items" ej))))
    (Json.to_list (Json.member "edges" j));
  Execution.Builder.finish b

(* Rehydrate an execution from its JSON document plus a pre-decoded flat
   adjacency plane (a snapshot sidecar section): no Builder, no Digraph,
   no per-edge [connect]. The plane must agree exactly with the JSON's
   edge list — every JSON edge present in the plane, counts equal, no
   duplicates — or the decode refuses; callers fall back to
   [decode_with_spec], which rebuilds adjacency from the JSON alone. *)
let decode_with_plane ~plane spec j =
  let module Csr = Wfpriv_graph.Csr in
  let nodes = Json.to_list (Json.member "nodes" j) in
  let n = List.length nodes in
  if Csr.nb_nodes plane <> n then
    invalid_arg "Exec_codec: plane node count mismatch";
  let kinds = Array.make (max n 1) Execution.Input in
  let scopes = Array.make (max n 1) [] in
  List.iteri
    (fun i nj ->
      if Json.get_int (Json.member "id" nj) <> i then
        invalid_arg "Exec_codec: node ids must be dense and sorted";
      kinds.(i) <- decode_kind nj;
      scopes.(i) <-
        List.map Json.get_int (Json.to_list (Json.member "scope" nj)))
    nodes;
  let items =
    List.mapi
      (fun i ij ->
        if Json.get_int (Json.member "id" ij) <> i then
          invalid_arg "Exec_codec: item ids must be dense and sorted";
        {
          Execution.data_id = i;
          name = Json.get_string (Json.member "name" ij);
          value = decode_value (Json.member "value" ij);
          producer = Json.get_int (Json.member "producer" ij);
          derived_from =
            List.map Json.get_int
              (Json.to_list (Json.member "derived_from" ij));
        })
      (Json.to_list (Json.member "items" j))
  in
  (* Every JSON edge must be a distinct plane edge; equal counts then
     force the two edge sets to coincide. *)
  let nnz = Csr.nb_edges plane in
  let seen = Bytes.make (max nnz 1) '\000' in
  let edge_count = ref 0 in
  let edge_items =
    List.filter_map
      (fun ej ->
        let u = Json.get_int (Json.member "src" ej) in
        let v = Json.get_int (Json.member "dst" ej) in
        (match Csr.find_edge plane u v with
        | None -> invalid_arg "Exec_codec: edge absent from the plane"
        | Some e ->
            if Bytes.get seen e <> '\000' then
              invalid_arg "Exec_codec: duplicate edge";
            Bytes.set seen e '\001';
            incr edge_count);
        match
          List.map Json.get_int (Json.to_list (Json.member "items" ej))
        with
        | [] -> None
        | ds -> Some ((u, v), ds))
      (Json.to_list (Json.member "edges" j))
  in
  if !edge_count <> nnz then
    invalid_arg "Exec_codec: plane edge count mismatch";
  Execution.of_plane ~spec ~plane ~kinds:(Array.sub kinds 0 n)
    ~scopes:(Array.sub scopes 0 n) ~edge_items ~items

let decode j = decode_with_spec (Spec_codec.decode (Json.member "spec" j)) j

let to_string ?(pretty = false) exec =
  let j = encode exec in
  if pretty then Json.to_string_pretty j else Json.to_string j

let of_string s = decode (Json.parse s)
