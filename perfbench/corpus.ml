(* Seeded inputs: synthetic corpora, their policies, and well-formed
   query traffic built over each specification's real module ids. *)

open Wfpriv_workflow
open Wfpriv_privacy
module Q = Wfpriv_query
module Synthetic = Wfpriv_workloads.Synthetic
module Rng = Wfpriv_workloads.Rng

type entry = { name : string; policy : Policy.t; exec : Execution.t }

(* Every non-root workflow gets an expansion floor of 1, 2 or 3 by
   position, so level 0 sees the coarsest view, levels 1 and 2 partial
   (collapsed) views and levels 3 and above the full execution. *)
let tiered_policy spec =
  let subs = List.filter (fun w -> w <> Spec.root spec) (Spec.workflow_ids spec) in
  Policy.make ~expand_levels:(List.mapi (fun j w -> (w, (j mod 3) + 1)) subs) spec

let collapsed_levels = [ 0; 1; 2 ]
let full_levels = [ 3; 9 ]

(* Thirteen workflows (root, 3 composites, 9 below them) holding
   [atomics] atomic modules each: ~13 * atomics provenance nodes. *)
let large_params atomics =
  {
    Synthetic.default_params with
    levels = 2;
    composites_per_workflow = 3;
    atomics_per_workflow = atomics;
    edge_probability = 0.01;
  }

let large_entry ~seed ~atomics name =
  let spec, exec = Synthetic.run (Rng.create seed) (large_params atomics) in
  { name; policy = tiered_policy spec; exec }

(* A wide vocabulary keeps keyword queries selective over many small
   entries, so top-k answers differ and mostly miss the result cache. *)
let wide_vocab = List.init 400 (Printf.sprintf "kw%03d")

let small_params =
  {
    Synthetic.default_params with
    levels = 1;
    composites_per_workflow = 1;
    atomics_per_workflow = 4;
    keyword_vocabulary = wide_vocab;
  }

let small_entry ~seed name =
  let spec, exec = Synthetic.run (Rng.create seed) small_params in
  { name; policy = tiered_policy spec; exec }

let add_mutation e =
  Q.Repository.Add_entry
    { entry_name = e.name; policy = e.policy; executions = [ e.exec ] }

(* The entries of the ingest workload: the synthetic workload of
   [wfpriv serve]'s appender, under tiered policies so that appended
   entries also have collapsed views. *)
let ingest_entry ~seed name =
  let spec, exec = Synthetic.run (Rng.create seed) Synthetic.default_params in
  { name; policy = tiered_policy spec; exec }

(* The server's appender: materializes an [Append] frame, deterministic
   in the frame's seed, so a reference can regenerate the entry. *)
let appender ~entry ~workload ~seed =
  (match workload with
  | None | Some "synthetic" -> ()
  | Some w -> invalid_arg (Printf.sprintf "unknown workload %S" w));
  add_mutation (ingest_entry ~seed entry)

(* {2 Query traffic} *)

let module_array spec = Array.of_list (Spec.module_ids spec)

(* Structural queries over module ids: node, edge, before and a
   conjunction. Witness sets stay small, so a cached answer costs about
   the same whatever query the seed draws. *)
let random_query rng mods =
  let m () = Q.Query_ast.Module_is mods.(Rng.int rng (Array.length mods)) in
  match Rng.int rng 5 with
  | 0 -> Q.Query_ast.Node (m ())
  | 1 -> Q.Query_ast.Edge (m (), Q.Query_ast.Any)
  | 2 | 3 -> Q.Query_ast.Before (m (), m ())
  | _ ->
      let a = m () in
      Q.Query_ast.And (Q.Query_ast.Node a, Q.Query_ast.Before (a, m ()))

exception Malformed_traffic of string

(* Rendered with the printer the CLI uses (pseudo-modules print as [I]
   and [O]); a query that does not parse back to itself is a defect of
   the generator or the parser, and stops the run before any timing. *)
let render q =
  let s = Q.Query_ast.to_string q in
  match Q.Query_parser.parse s with
  | q' when q' = q -> s
  | _ -> raise (Malformed_traffic ("does not round-trip: " ^ s))
  | exception e ->
      raise
        (Malformed_traffic
           (Printf.sprintf "does not parse: %s (%s)" s (Printexc.to_string e)))

let random_queries rng spec =
  let mods = module_array spec in
  List.init (1 + Rng.int rng 2) (fun _ -> render (random_query rng mods))

let random_keywords rng vocab =
  List.sort_uniq compare (List.init (1 + Rng.int rng 2) (fun _ -> Rng.pick rng vocab))

(* Zipf(s) ranks over [n] items: popularity falls off as rank^-s. *)
let zipf rng ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  fun () ->
    let u = Rng.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
