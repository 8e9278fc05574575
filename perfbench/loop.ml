(* The load generator: drives a server through the per-frame path of
   [wfpriv serve] —

     Wire.encode_request -> Wire.decode_request
       -> Server.submit / Server.cycle -> Wire.encode_response

   — from one thread. Closed-loop readers each keep one frame in
   flight; an optional open-loop writer submits frames on a fixed
   schedule and its latency is timed from when each frame was due. *)

module Wire = Wfpriv_server.Wire
module Server = Wfpriv_server.Server
module Obs = Wfpriv_obs

type op = Query | Zoom | Topk | Append | Erase

let ops = [ Query; Zoom; Topk; Append; Erase ]

let op_name = function
  | Query -> "query"
  | Zoom -> "zoom"
  | Topk -> "topk"
  | Append -> "append"
  | Erase -> "erase"

let op_of (r : Wire.request) =
  match r with
  | Wire.Query _ -> Query
  | Wire.Zoom_out _ -> Zoom
  | Wire.Topk _ -> Topk
  | Wire.Append _ -> Append
  | Wire.Erase _ -> Erase
  | Wire.Stats _ -> invalid_arg "Loop.op_of: stats frames are not generated"

(* Generating a frame is the clients' work, not the server's: it runs
   off the clock. *)
type source = {
  readers : int;  (** closed-loop clients, one frame in flight each *)
  read : unit -> int * Wire.request;  (** next reader frame: level, request *)
  write_rate : float;  (** open-loop writer frames per second; 0 = none *)
  write : unit -> int * Wire.request;  (** next writer frame *)
  epoch : unit -> int;  (** the server's current generation *)
  on_response : stable:bool -> Wire.req_frame -> Wire.response -> unit;
      (** called once per answered frame, off the clock; [stable] when
          the generation did not change while the frame was in flight *)
}

(* Everything a timed phase observed. Latencies are in ms. *)
type result = {
  lat : (op, (float * float) list) Hashtbl.t;
      (** (seconds into the phase when answered, latency) per answer *)
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;
  mutable failures : string list;  (** first few error messages *)
  mutable elapsed : float;  (** on-clock seconds, drain included *)
  mutable late : float list;  (** open-loop submission lateness, ms *)
  mutable decode_s : float;
  mutable encode_s : float;
  mutable resp_bytes : int;
  mutable submit_s : float;
  mutable submits : int;
  mutable rejected : int;  (** answered at admission with over-capacity *)
  mutable cycles : (float * int) list;  (** (seconds, frames answered) *)
  (* Throughput split by whether Obs was on, for the tracing overhead. *)
  mutable ok_traced : int;
  mutable s_traced : float;
  mutable ok_plain : int;
  mutable s_plain : float;
  mutable minor_words : float;
  mutable major_collections : int;
}

let new_result () =
  {
    lat = Hashtbl.create 8;
    attempted = 0;
    ok = 0;
    failed = 0;
    failures = [];
    elapsed = 0.0;
    late = [];
    decode_s = 0.0;
    encode_s = 0.0;
    resp_bytes = 0;
    submit_s = 0.0;
    submits = 0;
    rejected = 0;
    cycles = [];
    ok_traced = 0;
    s_traced = 0.0;
    ok_plain = 0;
    s_plain = 0.0;
    minor_words = 0.0;
    major_collections = 0;
  }

let timed_latencies r op = Option.value ~default:[] (Hashtbl.find_opt r.lat op)
let latencies r op = List.map snd (timed_latencies r op)

exception Escaped of string

(* An exception out of the server is a defect of the program: the run
   stops and names the frames it was serving. *)
let guard frames f =
  try f ()
  with e ->
    let frames = frames () in
    let names =
      String.concat "; "
        (List.map
           (fun (f : Wire.req_frame) ->
             String.trim (Wire.encode_request Wire.Json f))
           frames)
    in
    raise
      (Escaped
         (Printf.sprintf "%s escaped the server on frame(s): %s"
            (Printexc.to_string e) names))

type pending = {
  p_frame : Wire.req_frame;
  p_op : op;
  p_start : float;
  p_client : int;
  p_epoch : int;
}

let writer_client = 1_000_000

(* [slices > 0] splits the phase into [slices] stretches with Obs off
   and on in the order off, on, on, off, ... — balanced against a
   throughput that drifts as the corpus grows — and calls [beside] on
   every [beside_every]-th answered frame of an Obs-on stretch, off the
   clock. *)
let run ?(slices = 0) ?(beside = fun _ -> ()) ?(beside_every = 1) ~server
    ~src ~seconds () =
  let r = new_result () in
  let pending = Hashtbl.create 64 in
  let idle = Queue.create () in
  for c = 0 to src.readers - 1 do
    Queue.add c idle
  done;
  let mode_of c = if c mod 2 = 0 then Wire.Json else Wire.Binary in
  let rid = ref 0 in
  let t0 = Stats.clock () in
  let t_end = t0 +. seconds in
  let slice_len = if slices > 0 then seconds /. float_of_int slices else seconds in
  let traced = ref false in
  let slice_start = ref t0 in
  let set_traced on =
    let now = Stats.clock () in
    if !traced then r.s_traced <- r.s_traced +. (now -. !slice_start)
    else r.s_plain <- r.s_plain +. (now -. !slice_start);
    slice_start := now;
    traced := on;
    Obs.Config.set_enabled on
  in
  let answered = ref 0 in
  let complete (p : pending) mode (resp : Wire.response) =
    let t = Stats.now () in
    let bytes = Wire.encode_response mode resp in
    let done_at = Stats.clock () in
    r.encode_s <- r.encode_s +. (Stats.now () -. t);
    r.resp_bytes <- r.resp_bytes + String.length bytes;
    Hashtbl.remove pending p.p_frame.Wire.rid;
    if p.p_client <> writer_client then Queue.add p.p_client idle;
    (match resp with
    | Wire.Result { rid; _ } when rid = p.p_frame.rid ->
        r.ok <- r.ok + 1;
        if !traced then r.ok_traced <- r.ok_traced + 1
        else r.ok_plain <- r.ok_plain + 1;
        let l = (done_at -. p.p_start) *. 1000.0 in
        Hashtbl.replace r.lat p.p_op ((done_at -. t0, l) :: timed_latencies r p.p_op)
    | Wire.Result { rid; _ } ->
        raise
          (Escaped
             (Printf.sprintf "response rid %d answered frame rid %d" rid
                p.p_frame.rid))
    | Wire.Error { code; message; _ } ->
        r.failed <- r.failed + 1;
        if code = Wire.Over_capacity then r.rejected <- r.rejected + 1;
        if List.length r.failures < 5 then
          r.failures <-
            Printf.sprintf "%s rid %d: %s (%s)" (op_name p.p_op) p.p_frame.rid
              (Wire.error_code_string code) message
            :: r.failures);
    Stats.off_clock (fun () ->
        src.on_response ~stable:(p.p_epoch = src.epoch ()) p.p_frame resp;
        incr answered;
        if !traced && !answered mod beside_every = 0 then beside p.p_frame)
  in
  let submit client start (level, req) =
    incr rid;
    let f = { Wire.rid = !rid; level; deadline_ms = 0; req } in
    let mode = if client = writer_client then Wire.Binary else mode_of client in
    let p =
      {
        p_frame = f;
        p_op = op_of req;
        p_start = start;
        p_client = client;
        p_epoch = src.epoch ();
      }
    in
    r.attempted <- r.attempted + 1;
    let frame = Wire.encode_request mode f in
    let t = Stats.now () in
    let decoded =
      match Wire.decode_request frame with
      | Wire.Frame (d, n) when n = String.length frame -> d
      | _ -> raise (Escaped ("undecodable frame: " ^ String.trim frame))
    in
    let t1 = Stats.now () in
    r.decode_s <- r.decode_s +. (t1 -. t);
    Hashtbl.replace pending f.rid p;
    let imm =
      guard (fun () -> [ f ]) (fun () -> Server.submit server ~client ~mode decoded)
    in
    r.submit_s <- r.submit_s +. (Stats.now () -. t1);
    r.submits <- r.submits + 1;
    match imm with Some resp -> complete p mode resp | None -> ()
  in
  let gc0 = Gc.quick_stat () in
  let interval = if src.write_rate > 0.0 then 1.0 /. src.write_rate else infinity in
  let next_due = ref (if src.write_rate > 0.0 then t0 else infinity) in
  let next_slice = ref (t0 +. slice_len) and slice = ref 0 in
  if slices > 0 then set_traced false;
  let serve_cycle () =
    let t = Stats.now () in
    let frames () =
      Hashtbl.fold (fun _ (p : pending) acc -> p.p_frame :: acc) pending []
    in
    let rs = guard frames (fun () -> Server.cycle server) in
    r.cycles <- (Stats.now () -. t, List.length rs) :: r.cycles;
    List.iter
      (fun (_, mode, (resp : Wire.response)) ->
        let rid = match resp with Wire.Result { rid; _ } | Wire.Error { rid; _ } -> rid in
        match Hashtbl.find_opt pending rid with
        | Some p -> complete p mode resp
        | None ->
            raise (Escaped (Printf.sprintf "response for unknown rid %d" rid)))
      rs;
    rs
  in
  while Stats.clock () < t_end do
    let now = Stats.clock () in
    if slices > 0 && now >= !next_slice then begin
      incr slice;
      set_traced (!slice mod 4 = 1 || !slice mod 4 = 2);
      next_slice := !next_slice +. slice_len
    end;
    while !next_due <= Stats.clock () && !next_due < t_end do
      r.late <- ((Stats.clock () -. !next_due) *. 1000.0) :: r.late;
      let req = Stats.off_clock src.write in
      submit writer_client !next_due req;
      next_due := !next_due +. interval
    done;
    for _ = 1 to Queue.length idle do
      let c = Queue.pop idle in
      let req = Stats.off_clock src.read in
      submit c (Stats.clock ()) req
    done;
    if serve_cycle () = [] && Hashtbl.length pending = 0 then
      (* Only an open-loop writer is left and nothing is due yet. *)
      Unix.sleepf (Float.max 0.0 (Float.min (!next_due -. Stats.clock ()) 0.001))
  done;
  while Hashtbl.length pending > 0 do
    if serve_cycle () = [] then
      raise (Escaped "frames left pending after the scheduler drained")
  done;
  if slices > 0 then set_traced false;
  Obs.Config.set_enabled false;
  r.elapsed <- Stats.clock () -. t0;
  let gc1 = Gc.quick_stat () in
  r.minor_words <- gc1.Gc.minor_words -. gc0.Gc.minor_words;
  r.major_collections <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  r
