type node_style = { label : string; shape : string; fill : string option }

let default_node_style id =
  { label = string_of_int id; shape = "box"; fill = None }

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_edges ?(name = "g") ?(node_style = default_node_style) ?edge_label
    ~nodes edges =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (escape name));
  Buffer.add_string buf "  rankdir=TB;\n";
  List.iter
    (fun u ->
      let st = node_style u in
      let fill =
        match st.fill with
        | Some c -> Printf.sprintf ", style=filled, fillcolor=\"%s\"" (escape c)
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s%s];\n" u
           (escape st.label) st.shape fill))
    nodes;
  List.iter
    (fun (u, v) ->
      let lbl =
        match edge_label with
        | Some f -> (
            match f u v with
            | Some s -> Printf.sprintf " [label=\"%s\"]" (escape s)
            | None -> "")
        | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" u v lbl))
    edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let render ?name ?node_style ?edge_label g =
  render_edges ?name ?node_style ?edge_label ~nodes:(Digraph.nodes g)
    (Digraph.edges g)
