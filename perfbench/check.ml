(* Answer checks: served responses against a fresh evaluation that
   shares no cache with the server. Any mismatch fails the run. *)

open Wfpriv_workflow
open Wfpriv_privacy
module Q = Wfpriv_query
module Wire = Wfpriv_server.Wire

let mismatches = ref []

(* Self-test: perturb the first reference answer, which must then be
   reported as a mismatch. *)
let tamper = ref false

let tampered = function
  | Wire.Witnesses ((holds, nodes) :: rest) when !tamper ->
      tamper := false;
      Wire.Witnesses ((not holds, nodes) :: rest)
  | Wire.Hits ((doc, score) :: rest) when !tamper ->
      tamper := false;
      Wire.Hits ((doc, score +. 1.0) :: rest)
  | r -> r
let checked = ref 0

let expect ~what ok =
  incr checked;
  if not ok then mismatches := what :: !mismatches

let rid_of = function Wire.Result { rid; _ } | Wire.Error { rid; _ } -> rid

let describe (f : Wire.req_frame) = String.trim (Wire.encode_request Wire.Json f)

(* Structural queries and zoom-outs, grouped by (entry, run, level) so
   each group builds one fresh gate and engine:
   [Access_gate.of_policy] + [Engine.of_exec_view] + [Engine.run_batch]. *)
let queries ~lookup (samples : (Wire.req_frame * Wire.response) list) =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun ((f : Wire.req_frame), resp) ->
      let key =
        match f.req with
        | Wire.Query { entry; run; _ } | Wire.Zoom_out { entry; run } ->
            (entry, run, f.level)
        | _ -> invalid_arg "Check.queries: not a query or zoom frame"
      in
      Hashtbl.replace groups key
        ((f, resp) :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    samples;
  Hashtbl.iter
    (fun (entry, run, level) items ->
      let (policy : Policy.t), (exec : Execution.t) = lookup entry run in
      let gate = Q.Access_gate.of_policy policy ~level in
      let view = Q.Access_gate.exec_view gate exec in
      let eng = lazy (Q.Engine.of_exec_view view) in
      List.iter
        (fun ((f : Wire.req_frame), resp) ->
          let expected =
            match f.req with
            | Wire.Query { queries; _ } ->
                let plans =
                  List.map (fun q -> Q.Engine.compile (Q.Query_parser.parse q)) queries
                in
                Wire.Witnesses
                  (List.map
                     (fun (w : Q.Engine.witness) -> (w.holds, w.nodes))
                     (Q.Engine.run_batch (Lazy.force eng) plans))
            | _ ->
                Wire.View
                  {
                    view_prefix = Exec_view.prefix view;
                    view_nodes = List.length (Exec_view.nodes view);
                  }
          in
          expect
            ~what:("wrong answer to " ^ describe f)
            (resp = Wire.Result { rid = f.rid; result = tampered expected }))
        items)
    groups

(* Program defects seen in a reference path, which do not make a served
   answer wrong: reported, not failed. *)
let defects = ref []

let hits_of l = List.map (fun (e : Q.Ranking.entry) -> (e.doc, e.score)) l

(* Top-k frames against exhaustive scoring of a fresh index of the
   generation that answered them: [Ranking.top_k k (Index.score_entries)],
   which [Repository.keyword_topk] is specified to equal. Where
   [keyword_topk] (block-max WAND) disagrees with it, that is reported
   as a defect of [keyword_topk]. *)
let topk repo (samples : (Wire.req_frame * Wire.response) list) =
  if samples <> [] then begin
    let index = Q.Repository.search_index repo in
    List.iter
      (fun ((f : Wire.req_frame), resp) ->
        match f.req with
        | Wire.Topk { k; keywords } ->
            let exhaustive =
              hits_of (Q.Ranking.top_k k (Q.Index.score_entries index ~level:f.level keywords))
            in
            let wand = hits_of (Q.Repository.keyword_topk ~index repo ~level:f.level ~k keywords) in
            if wand <> exhaustive then
              defects :=
                Printf.sprintf "Repository.keyword_topk differs from exhaustive scoring on %s"
                  (describe f)
                :: !defects;
            let expected = Wire.Result { rid = f.rid; result = tampered (Wire.Hits exhaustive) } in
            expect
              ~what:
                (Printf.sprintf "wrong answer to %s: served %s expected %s" (describe f)
                   (String.trim (Wire.encode_response Wire.Json resp))
                   (String.trim (Wire.encode_response Wire.Json expected)))
              (resp = expected)
        | _ -> invalid_arg "Check.topk: not a top-k frame")
      samples
  end

let unknown_entry (f : Wire.req_frame) resp =
  expect
    ~what:("erased entry still answers " ^ describe f)
    (match resp with
    | Wire.Error { code = Wire.Unknown_entry; rid; _ } -> rid = f.rid
    | _ -> false)

let same_after_recovery (f : Wire.req_frame) ~before ~after =
  expect
    ~what:("first answer after recovery differs for " ^ describe f)
    (match (before, after) with
    | Wire.Result { result = a; _ }, Wire.Result { result = b; _ } -> a = b
    | _ -> false)

(* A seeded sample: every [every]-th frame, at most [cap]. *)
let sampler ~every ~cap =
  let n = ref 0 and kept = ref [] and count = ref 0 in
  let add x =
    incr n;
    if !n mod every = 0 && !count < cap then begin
      incr count;
      kept := x :: !kept
    end
  in
  (add, fun () -> List.rev !kept)
