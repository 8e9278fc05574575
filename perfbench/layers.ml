(* Per-layer numbers of the traced run. Layers that run inside
   [Server.cycle] cannot be timed from outside, so the traced run times
   the same public call on the same input beside a sample of requests
   (with Obs off, so the side calls do not count as server work), and
   reads from Obs.Registry how often the server did that work. *)

open Wfpriv_workflow
module Obs = Wfpriv_obs
module Q = Wfpriv_query
module D = Wfpriv_durable
module Wire = Wfpriv_server.Wire
module Rng = Wfpriv_workloads.Rng

let counter name = Obs.Counter.total (Obs.Registry.counter name)

let hist_mean name =
  let h = Obs.Registry.histogram name in
  let n = Obs.Histogram.count h in
  if n = 0 then nan else float_of_int (Obs.Histogram.sum h) /. float_of_int n

(* Counter values over a stretch of the run. *)
let delta names f =
  let before = List.map (fun n -> (n, counter n)) names in
  let r = f () in
  (r, fun n -> counter n - List.assoc n before)

let observed : (string, float list) Hashtbl.t = Hashtbl.create 32

let observe name v =
  Hashtbl.replace observed name
    (v :: Option.value ~default:[] (Hashtbl.find_opt observed name))

let observations name = Option.value ~default:[] (Hashtbl.find_opt observed name)

let quiet f =
  let was = Obs.Config.enabled () in
  Obs.Config.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Config.set_enabled was) f

let timed name scale f =
  let r, dt = Stats.time f in
  observe name (dt *. scale);
  r

(* Side samples per kind of work, so every kind is measured a few times
   whatever the traffic mix; [candidates] bounds the side work. *)
let quota =
  Hashtbl.of_seq
    (List.to_seq
       [ ("view.build_ms.full", 12); ("view.build_ms.collapsed", 12); ("topk", 10); ("zoom", 4) ])

let candidates = ref 80

let take kind =
  match Hashtbl.find_opt quota kind with
  | Some k when k > 0 ->
      Hashtbl.replace quota kind (k - 1);
      true
  | _ -> false

(* Side calls for one answered frame. [lookup] resolves an entry to its
   policy and execution, [prepare] builds the engine the server's
   backing builds, [topk] returns the top-k call the backing runs. *)
let beside ~repo ~lookup ~prepare ~topk (f : Wire.req_frame) =
  if !candidates > 0 then begin
  decr candidates;
  quiet @@ fun () ->
  let level = f.level in
  (* Time the gate and view, keep them if their kind still has quota. *)
  let view_of ?(kind = fun v -> if Exec_view.is_full v then "view.build_ms.full" else "view.build_ms.collapsed") entry run =
    let reps = 10 in
    let (), find_s =
      Stats.time (fun () ->
          for _ = 1 to reps do
            ignore (Q.Repository.find (repo ()) entry)
          done)
    in
    let policy, exec = lookup entry run in
    let gate, gate_s =
      Stats.time (fun () ->
          let g = Q.Access_gate.of_policy policy ~level in
          Q.Access_gate.prepare g;
          g)
    in
    let view, view_s = Stats.time (fun () -> Q.Access_gate.exec_view gate exec) in
    if take (kind view) then begin
      observe "repository.find_us" (find_s /. float_of_int reps *. 1e6);
      observe "gate.prepare_us" (gate_s *. 1e6);
      observe
        (if Exec_view.is_full view then "view.build_ms.full"
         else "view.build_ms.collapsed")
        (view_s *. 1e3);
      Some view
    end
    else None
  in
  match f.req with
  | Wire.Query { entry; run; queries } ->
      Option.iter (fun view ->
      let eng = timed "engine.prepare_ms" 1e3 (fun () -> prepare view) in
      observe "engine.graph_mb" (float_of_int (Q.Engine.graph_bytes eng) /. 1e6);
      let plans =
        List.map (fun q -> Q.Engine.compile (Q.Query_parser.parse q)) queries
      in
      timed "engine.closure_ms" 1e3 (fun () -> Q.Engine.materialize_closure eng);
      observe "engine.closure_mb" (float_of_int (Q.Engine.closure_bytes eng) /. 1e6);
      ignore (timed "engine.eval_us" 1e6 (fun () -> Q.Engine.run_batch eng plans)))
      (view_of entry run)
  | Wire.Zoom_out { entry; run } -> ignore (view_of ~kind:(fun _ -> "zoom") entry run)
  | Wire.Topk { k; keywords } ->
      if take "topk" then
        let run = topk ~level ~k keywords in
        timed "index.topk_us" 1e6 run
  | Wire.Append _ | Wire.Erase _ | Wire.Stats _ -> ()
  end

(* {2 Size sweep}

   The layer calls of each workload at three sizes, reduced to a fitted
   growth exponent, so a quadratic shows even where one corpus size
   would hide it. *)

let median_time ~reps f = Stats.median (List.init reps (fun _ -> snd (Stats.time f)))

let sweep_views ~seed ~sizes =
  let pts =
    List.map
      (fun atomics ->
        let e = Corpus.large_entry ~seed ~atomics "sweep" in
        let collapsed = Q.Access_gate.of_policy e.policy ~level:1 in
        let full = Q.Access_gate.of_policy e.policy ~level:3 in
        let n = float_of_int (Execution.nb_nodes e.exec) in
        let view_s =
          median_time ~reps:3 (fun () -> Q.Access_gate.exec_view collapsed e.exec)
        in
        let fv = Q.Access_gate.exec_view full e.exec in
        let closure_s =
          median_time ~reps:3 (fun () ->
              Q.Engine.materialize_closure (Q.Engine.of_exec_view fv))
        in
        (n, view_s, closure_s))
      sizes
  in
  ( Stats.growth_exponent (List.map (fun (n, v, _) -> (n, v)) pts),
    Stats.growth_exponent (List.map (fun (n, _, c) -> (n, c)) pts) )

let sweep_find ~seed ~sizes =
  let e = Corpus.small_entry ~seed "sweep" in
  let rng = Rng.create seed in
  Stats.growth_exponent
    (List.map
       (fun n ->
         let repo = Q.Repository.create () in
         for i = 0 to n - 1 do
           Q.Repository.add repo ~name:(Printf.sprintf "s%06d" i) ~policy:e.policy
             ~executions:[ e.exec ] ()
         done;
         let names = Array.init 2000 (fun _ -> Printf.sprintf "s%06d" (Rng.int rng n)) in
         let _, dt =
           Stats.time (fun () -> Array.iter (fun s -> ignore (Q.Repository.find repo s)) names)
         in
         (float_of_int n, dt /. 2000.0))
       sizes)

(* Appends into a live store already holding [n] entries. *)
let sweep_append ~seed ~sizes ~dir =
  let max_n = List.fold_left max 0 sizes in
  let base =
    Array.init (max_n + 20) (fun i ->
        Corpus.appender ~entry:(Printf.sprintf "b%06d" i) ~workload:None ~seed:(seed + i))
  in
  Stats.growth_exponent
    (List.map
       (fun n ->
         Stats.rm_rf dir;
         let store = D.Durable_repo.init dir in
         Fun.protect ~finally:(fun () -> D.Durable_repo.close store) @@ fun () ->
         ignore (D.Durable_repo.append_streaming store (Array.to_list (Array.sub base 0 n)));
         let live = D.Live_repo.of_store store in
         let per =
           List.init 20 (fun i ->
               snd
                 (Stats.time (fun () ->
                      ignore (D.Live_repo.append_streaming live [ base.(n + i) ]))))
         in
         (float_of_int n, Stats.median per))
       sizes)
