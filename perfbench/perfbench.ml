(* End-to-end serving benchmark. One workload per process, one thread,
   one engine domain. Prints one [metric NAME VALUE UNIT N] line per
   measured metric and a closing [result] line; exits non-zero on any
   wrong answer or escaped exception. perfbench/run.py builds this
   program, runs it and turns its lines into the benchmark's JSON. *)

open Wfpriv_workflow
module Q = Wfpriv_query
module D = Wfpriv_durable
module Sh = Wfpriv_shard
module Server = Wfpriv_server.Server
module Wire = Wfpriv_server.Wire
module Obs = Wfpriv_obs
module Rng = Wfpriv_workloads.Rng
module Synthetic = Wfpriv_workloads.Synthetic

(* {2 Sizes} *)

type size = {
  large_entries : int;
  large_atomics : int;  (** ~13x provenance nodes per large execution *)
  large_hot : int;  (** popular query frames of serve_large_runs *)
  many : int;  (** entries of serve_many_entries *)
  ingest0 : int;  (** entries before ingest_while_serving starts *)
  append_rate : float;  (** open-loop append frames per second *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  sweep_atomics : int list;
  sweep_entries : int list;
  sweep_live : int list;
}

let full =
  {
    large_entries = 3;
    large_atomics = 770;
    large_hot = 240;
    many = 5000;
    ingest0 = 500;
    append_rate = 7.0;
    setups = 3;
    sweep_atomics = [ 190; 385; 770 ];
    sweep_entries = [ 1000; 2000; 4000 ];
    sweep_live = [ 200; 400; 800 ];
  }

let tiny =
  {
    large_entries = 3;
    large_atomics = 30;
    large_hot = 48;
    many = 60;
    ingest0 = 20;
    append_rate = 10.0;
    setups = 2;
    sweep_atomics = [ 10; 20; 40 ];
    sweep_entries = [ 50; 100; 200 ];
    sweep_live = [ 10; 20; 40 ];
  }

let readers = 4
let cold_every = 50
let zoom_every = 33
let shards = 2

(* {2 Output} *)

let emit ?(n = 1) name unit value =
  Printf.printf "metric %s %.17g %s %d\n" name value unit n

let emit_mean name unit xs =
  if xs <> [] then emit ~n:(List.length xs) name unit (Stats.mean xs)

let work_root = ".perfbench-work"
let work name = Filename.concat work_root name

(* One frame through the frame path outside the timed phase: warm-up,
   post-run checks, recovery probes. *)
let rid = ref 1_000_000_000

let serve_one server ~level req =
  incr rid;
  let f = { Wire.rid = !rid; level; deadline_ms = 0; req } in
  let frame = Wire.encode_request Wire.Json f in
  let d =
    match Wire.decode_request frame with
    | Wire.Frame (d, _) -> d
    | _ -> raise (Loop.Escaped ("undecodable frame: " ^ String.trim frame))
  in
  let resp =
    Loop.guard
      (fun () -> [ f ])
      (fun () ->
        match Server.submit server ~client:0 d with
        | Some r -> r
        | None -> (
            match
              List.find_opt
                (fun (_, _, r) -> Check.rid_of r = f.rid)
                (Server.drain_all server)
            with
            | Some (_, _, r) -> r
            | None -> raise (Loop.Escaped "frame left unanswered")))
  in
  ignore (Wire.encode_response Wire.Json resp);
  (f, resp)

(* Frames submitted together and drained: the scheduler fuses adjacent
   queries on one execution and level into one batch. *)
let serve_burst server frames =
  List.iteri
    (fun i (level, req) ->
      incr rid;
      let f = { Wire.rid = !rid; level; deadline_ms = 0; req } in
      match Loop.guard (fun () -> [ f ]) (fun () -> Server.submit server ~client:i f) with
      | Some (Wire.Error { message; _ }) -> raise (Loop.Escaped ("warm-up refused: " ^ message))
      | Some _ | None -> ())
    frames;
  ignore (Loop.guard (fun () -> []) (fun () -> Server.drain_all server))

(* Run [setup] [reps] times, tearing each instance down before the
   next; keep the last. *)
let repeated_setup ~reps setup =
  let times = ref [] in
  let rec go i prev =
    Option.iter (fun (_, teardown) -> teardown ()) prev;
    Gc.compact ();
    let inst, dt = Stats.time setup in
    times := dt :: !times;
    if i < reps then go (i + 1) (Some inst) else inst
  in
  let inst = go 1 None in
  (inst, !times)

(* {2 Shared reporting} *)

(* The timed phase is cut into one-second stretches, and the gated
   throughput and tail latency are medians over them: a stall that
   fills a few stretches (an erase rewriting the store, an LSM merge, a
   burst of preemption on a shared host) does not move them. Frames
   answered in the drain after the phase count in the totals only. *)
let by_second ~seconds samples =
  let b = Array.make (max 1 (int_of_float seconds)) [] in
  List.iter
    (fun (t, x) ->
      let i = int_of_float t in
      if i < Array.length b then b.(i) <- x :: b.(i))
    samples;
  Array.to_list b

let report_phase ~seconds (r : Loop.result) =
  let ops = List.filter (fun op -> Loop.latencies r op <> []) Loop.ops in
  List.iter
    (fun op ->
      let name = Loop.op_name op in
      let a = Stats.sorted (Loop.latencies r op) in
      let n = Array.length a in
      emit ~n (name ^ "_p50_ms") "ms" (Stats.pct a 0.5);
      (* The highest percentile with at least ten samples beyond it. *)
      if n >= 1000 then
        emit ~n (name ^ "_p99_ms") "ms"
          (Stats.median
             (List.map
                (fun xs -> Stats.pct (Stats.sorted xs) 0.99)
                (by_second ~seconds (Loop.timed_latencies r op))))
      else if n >= 100 then emit ~n (name ^ "_p90_ms") "ms" (Stats.pct a 0.9))
    ops;
  let answered = List.concat_map (Loop.timed_latencies r) ops in
  emit ~n:r.ok "req_per_s" "1/s"
    (Stats.median
       (List.map (fun xs -> float_of_int (List.length xs)) (by_second ~seconds answered)));
  emit ~n:r.ok "req_per_s.whole" "1/s" (float_of_int r.ok /. r.elapsed);
  emit ~n:r.attempted "failed_ratio" "ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter (fun m -> Printf.printf "failure %s\n" m) (List.rev r.failures)

let level_cache_counters =
  [ "server.cache_hits"; "server.cache_misses"; "server.cache_evictions" ]

let traced_counters =
  level_cache_counters
  @ [
      "gate.views";
      "engine.prepares";
      "engine.closure_builds";
      "cache.hits";
      "cache.misses";
      "wal.appends";
      "wal.bytes";
      "live_index.seals";
      "live_index.merges";
      "live_repo.publishes";
      "shard.frontier_rounds";
      "shard.frontier_queries";
      "shard.topk_pruned";
      "shard.topk_scanned";
      "index.blocks_decoded";
      "index.blocks_skipped";
    ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let report_layers (r : Loop.result) d =
  let n = r.ok_traced in
  emit ~n:r.submits "wire.decode_us" "us" (r.decode_s /. float_of_int r.submits *. 1e6);
  emit ~n:(r.ok + r.failed) "wire.encode_us" "us"
    (r.encode_s /. float_of_int (r.ok + r.failed) *. 1e6);
  emit ~n:(r.ok + r.failed) "wire.resp_bytes" "B"
    (float_of_int r.resp_bytes /. float_of_int (r.ok + r.failed));
  emit ~n:r.submits "server.submit_us" "us" (r.submit_s /. float_of_int r.submits *. 1e6);
  let busy = List.filter (fun (_, k) -> k > 0) r.cycles in
  emit ~n:(List.length busy) "server.cycle_ms" "ms"
    (Stats.mean (List.map fst busy) *. 1e3);
  emit ~n:(List.length busy) "sched.frames_per_cycle" "count"
    (Stats.mean (List.map (fun (_, k) -> float_of_int k) busy));
  emit ~n:r.attempted "server.rejected_ratio" "ratio" (ratio r.rejected r.attempted);
  let hits = d "server.cache_hits" and misses = d "server.cache_misses" in
  emit ~n:(hits + misses) "level_cache.hit_ratio" "ratio" (ratio hits (hits + misses));
  emit ~n "level_cache.evictions" "count" (float_of_int (d "server.cache_evictions"));
  let rh = d "cache.hits" and rm = d "cache.misses" in
  if rh + rm > 0 then
    emit ~n:(rh + rm) "reach_cache.hit_ratio" "ratio" (ratio rh (rh + rm));
  emit ~n "gate.views_per_req" "count" (ratio (d "gate.views") n);
  emit ~n "engine.prepares_per_req" "count" (ratio (d "engine.prepares") n);
  emit ~n "engine.closure_builds_per_req" "count" (ratio (d "engine.closure_builds") n);
  List.iter
    (fun (name, unit) -> emit_mean name unit (Layers.observations name))
    [
      ("repository.find_us", "us");
      ("gate.prepare_us", "us");
      ("view.build_ms.full", "ms");
      ("view.build_ms.collapsed", "ms");
      ("engine.prepare_ms", "ms");
      ("engine.graph_mb", "MB");
      ("engine.closure_ms", "ms");
      ("engine.closure_mb", "MB");
      ("engine.eval_us", "us");
      ("index.topk_us", "us");
    ];
  (* Side cost times how often the server paid it, per request. *)
  let share name count =
    let xs =
      Layers.observations (name ^ ".full") @ Layers.observations (name ^ ".collapsed")
      @ Layers.observations name
    in
    if xs <> [] then
      emit ~n (name ^ "_per_req_ms") "ms" (Stats.mean xs *. ratio count n)
  in
  (* Every engine lookup of a query batch follows one view build; the
     lookups are counted by the engine cache (frozen and live backings). *)
  if rh + rm > 0 then emit ~n "view.builds_per_req" "count" (ratio (rh + rm) n);
  share "view.build_ms" (rh + rm);
  share "engine.prepare_ms" (d "engine.prepares");
  share "engine.closure_ms" (d "engine.closure_builds");
  let kb = d "index.blocks_decoded" and ks = d "index.blocks_skipped" in
  if kb + ks > 0 then
    emit ~n:(kb + ks) "index.blocks_skipped_ratio" "ratio" (ratio ks (kb + ks));
  let sq = d "shard.frontier_queries" in
  if sq > 0 then
    emit ~n:sq "shard.frontier_rounds_per_query" "count"
      (ratio (d "shard.frontier_rounds") sq);
  let sp = d "shard.topk_pruned" and ss = d "shard.topk_scanned" in
  if sp + ss > 0 then emit ~n:(sp + ss) "shard.topk_pruned_ratio" "ratio" (ratio sp (sp + ss));
  let appends = d "wal.appends" in
  if appends > 0 then begin
    emit ~n:appends "wal.append_us" "us" (Layers.hist_mean "wal.append_ns" /. 1e3);
    emit ~n:appends "wal.bytes_per_append" "B" (ratio (d "wal.bytes") appends)
  end;
  let publishes = d "live_repo.publishes" in
  if publishes > 0 then begin
    emit ~n:publishes "live_repo.publishes" "count" (float_of_int publishes);
    emit ~n:publishes "live_index.seals" "count" (float_of_int (d "live_index.seals"));
    emit ~n:publishes "live_index.merges" "count" (float_of_int (d "live_index.merges"))
  end;
  List.iter
    (fun (hist, name) ->
      let h = Obs.Registry.histogram hist in
      if Obs.Histogram.count h > 0 then
        emit ~n:(Obs.Histogram.count h) name "ms" (Layers.hist_mean hist /. 1e6))
    [ ("server.latency_ns.append", "server.append_batch_ms"); ("server.latency_ns.erase", "durable.erase_ms") ];
  emit ~n "gc.minor_mb_per_req" "MB"
    (r.minor_words *. float_of_int (Sys.word_size / 8) /. 1e6 /. float_of_int (max 1 r.ok));
  emit ~n "gc.major_collections" "count" (float_of_int r.major_collections);
  emit ~n "trace.overhead_req_per_s" "1/s"
    ((float_of_int r.ok_plain /. r.s_plain) -. (float_of_int r.ok_traced /. r.s_traced))

(* {2 Per-workload plumbing} *)

type ctx = { seed : int; seconds : float; traced : bool; sz : size }

(* A workload after set-up: its server, traffic, and what the checks and
   the recovery measurement need. *)
type prepared = {
  server : Server.t;
  src : Loop.source;
  lookup : string -> int -> Wfpriv_privacy.Policy.t * Execution.t;
  prepare : Exec_view.t -> Q.Engine.t;
  topk : level:int -> k:int -> string list -> unit -> unit;
  recovery : ((int * Wire.request) * (unit -> Server.t * (unit -> unit))) option;
      (** a probe frame, and how to close the store, reopen it and serve
          again (returning the new server and its teardown) *)
  finish : Server.t -> unit;  (** post-run checks against the old server *)
  store : string option;  (** the store directory, if any *)
}

(* Time a store checkpoint inside a set-up. *)
let checkpoint_s = ref 0.0

let checkpoint f =
  let (), dt = Stats.time f in
  checkpoint_s := dt

let add_sample, query_samples = Check.sampler ~every:7 ~cap:60

(* Untimed traffic of the same workload before the timed phase, so the
   caches and the heap reach their steady state: without it throughput
   on serve_many_entries climbs by a quarter over the first seconds. *)
let warmup_s = 3.0

let run_workload ctx ~setup_s (p : prepared) =
  ignore (Loop.run ~server:p.server ~src:p.src ~seconds:(Float.min warmup_s ctx.seconds) ());
  let beside =
    Layers.beside ~repo:(fun () -> Server.repo p.server) ~lookup:p.lookup ~prepare:p.prepare
      ~topk:p.topk
  in
  let r, d =
    Layers.delta traced_counters (fun () ->
        Loop.run
          ~slices:(if ctx.traced then 8 else 0)
          ~beside ~beside_every:5 ~server:p.server ~src:p.src ~seconds:ctx.seconds ())
  in
  emit ~n:(List.length setup_s) "setup_s" "s" (Stats.median setup_s);
  emit "peak_rss_mb" "MB" (Stats.peak_rss_mb ());
  report_phase ~seconds:ctx.seconds r;
  if ctx.traced then begin
    report_layers r d;
    Option.iter
      (fun dir ->
        emit "store.bytes_per_live_byte" "ratio"
          (float_of_int (Stats.dir_bytes dir) /. float_of_int (Stats.snapshot_bytes dir)))
      p.store
  end;
  Check.queries ~lookup:p.lookup (query_samples ());
  p.finish p.server;
  (* Recovery: answer the probe, close, reopen, answer it again. *)
  Option.iter
    (fun ((level, req), reopen) ->
      let f, before = serve_one p.server ~level req in
      let before_scanned = Layers.counter "recovery.bytes_scanned" in
      Obs.Config.set_enabled ctx.traced;
      let (server', teardown), open_s = Stats.time reopen in
      let (_, after), first_s = Stats.time (fun () -> serve_one server' ~level req) in
      Obs.Config.set_enabled false;
      Check.same_after_recovery f ~before ~after;
      teardown ();
      emit "recover_s" "s" (open_s +. first_s);
      if ctx.traced then begin
        emit "durable.checkpoint_ms" "ms" (!checkpoint_s *. 1e3);
        emit "recovery.reopen_ms" "ms" (open_s *. 1e3);
        emit "recovery.first_answer_ms" "ms" (first_s *. 1e3);
        emit "recovery.bytes_scanned" "B"
          (float_of_int (Layers.counter "recovery.bytes_scanned" - before_scanned))
      end)
    p.recovery;
  r

let sweep ctx =
  let seed = ctx.seed in
  let view_exp, closure_exp = Layers.sweep_views ~seed ~sizes:ctx.sz.sweep_atomics in
  emit ~n:3 "view.build_exp" "exponent" view_exp;
  emit ~n:3 "engine.closure_exp" "exponent" closure_exp;
  emit ~n:3 "repository.find_exp" "exponent"
    (Layers.sweep_find ~seed ~sizes:ctx.sz.sweep_entries);
  let dir = work "sweep" in
  emit ~n:3 "ingest.append_exp" "exponent"
    (Layers.sweep_append ~seed ~sizes:ctx.sz.sweep_live ~dir);
  Stats.rm_rf dir

(* {2 serve_large_runs} *)

let serve_large_runs ctx =
  let sz = ctx.sz in
  let rng = Rng.create ctx.seed in
  (* The executions are the same for every seed (their shapes set the
     cost of each view rebuild); the seed draws the traffic. *)
  let entries =
    Array.init sz.large_entries (fun i ->
        Corpus.large_entry ~seed:(1000 + i) ~atomics:sz.large_atomics (Printf.sprintf "run%d" i))
  in
  let by_name = Hashtbl.create 8 in
  Array.iter (fun (e : Corpus.entry) -> Hashtbl.replace by_name e.name e) entries;
  let lookup name _run =
    let e : Corpus.entry = Hashtbl.find by_name name in
    (e.policy, e.exec)
  in
  let level () =
    if Rng.bool rng then Rng.pick rng Corpus.collapsed_levels
    else Rng.pick rng Corpus.full_levels
  in
  let frame e queries = Wire.Query { entry = e.Corpus.name; run = 0; queries } in
  let spec_of (e : Corpus.entry) = Wfpriv_privacy.Policy.spec e.policy in
  (* Popular frames, answered from the level cache once warm. *)
  let hot =
    Array.init sz.large_hot (fun _ ->
        let e = entries.(Rng.int rng sz.large_entries) in
        (level (), frame e (Corpus.random_queries rng (spec_of e))))
  in
  let popular = Corpus.zipf rng ~n:sz.large_hot ~s:0.6 in
  (* Every [cold_every]-th frame comes from the unpopular tail: a query
     seen once, cycling over entries and levels, so the level cache
     misses at a fixed rate and each miss rebuilds the view. *)
  let levels = Array.of_list (Corpus.collapsed_levels @ Corpus.full_levels) in
  let n = ref 0 in
  let read () =
    incr n;
    if !n mod cold_every = 0 then begin
      let k = !n / cold_every in
      let e = entries.(k mod sz.large_entries) in
      (levels.(k mod Array.length levels), frame e (Corpus.random_queries rng (spec_of e)))
    end
    else if !n mod zoom_every = 0 then
      (level (), Wire.Zoom_out { entry = entries.(Rng.int rng sz.large_entries).name; run = 0 })
    else hot.(popular ())
  in
  let warm server =
    Array.iter
      (fun (e : Corpus.entry) ->
        List.iter
          (fun level ->
            ignore
              (serve_one server ~level
                 (Wire.Query { entry = e.name; run = 0; queries = [ "before(I, O)" ] }));
            ignore (serve_one server ~level (Wire.Zoom_out { entry = e.name; run = 0 })))
          (Corpus.collapsed_levels @ Corpus.full_levels))
      entries;
    (* Sorted, so each batch serves one execution at one level. *)
    serve_burst server (List.sort compare (Array.to_list hot))
  in
  let setup () =
    let repo = Q.Repository.create () in
    Array.iter
      (fun (e : Corpus.entry) ->
        Q.Repository.add repo ~name:e.name ~policy:e.policy ~executions:[ e.exec ] ())
      entries;
    let server = Server.create repo in
    warm server;
    (server, fun () -> ())
  in
  let (server, _), setup_s = repeated_setup ~reps:sz.setups setup in
  let p =
    {
      server;
      src =
        {
          Loop.readers;
          read;
          write_rate = 0.0;
          write = (fun () -> invalid_arg "no writer");
          epoch = (fun () -> 0);
          on_response =
            (fun ~stable:_ f r ->
              match f.Wire.req with
              | Wire.Query _ | Wire.Zoom_out _ -> add_sample (f, r)
              | _ -> ());
        };
      lookup;
      prepare = (fun v -> Q.Engine.of_exec_view v);
      topk = (fun ~level:_ ~k:_ _ () -> ());
      recovery = None;
      store = None;
      finish = (fun _ -> ());
    }
  in
  run_workload ctx ~setup_s p

(* {2 serve_many_entries} *)

let serve_many_entries ctx =
  let sz = ctx.sz in
  let rng = Rng.create ctx.seed in
  let base = Rng.int rng 1_000_000_000 in
  let entries =
    Array.init sz.many (fun i -> Corpus.small_entry ~seed:(base + i) (Printf.sprintf "e%06d" i))
  in
  let mods = Array.map (fun (e : Corpus.entry) -> Wfpriv_privacy.Policy.spec e.policy) entries in
  let index_of name = int_of_string (String.sub name 1 (String.length name - 1)) in
  let lookup name _run =
    let e = entries.(index_of name) in
    (e.policy, e.exec)
  in
  let vocab = Corpus.wide_vocab in
  let add_topk, topk_samples = Check.sampler ~every:11 ~cap:40 in
  let read () =
    let level = Rng.int rng 4 in
    if Rng.int rng 100 < 10 then
      (level, Wire.Topk { k = Rng.pick rng [ 5; 10 ]; keywords = Corpus.random_keywords rng vocab })
    else
      let i = Rng.int rng sz.many in
      ( level,
        Wire.Query
          {
            entry = entries.(i).name;
            run = 0;
            queries = [ Corpus.render (Corpus.random_query rng (Corpus.module_array mods.(i))) ];
          } )
  in
  let dir = work "many" in
  let store = ref None in
  let setup () =
    Stats.rm_rf dir;
    let sr = Sh.Sharded_repo.init ~shards dir in
    ignore (Sh.Sharded_repo.append_streaming sr (Array.to_list (Array.map Corpus.add_mutation entries)));
    checkpoint (fun () -> ignore (Sh.Sharded_repo.checkpoint sr));
    let server = Server.create_sharded sr in
    ignore (serve_one server ~level:2 (Wire.Topk { k = 5; keywords = [ List.hd vocab ] }));
    for i = 0 to min 255 (sz.many - 1) do
      ignore
        (serve_one server ~level:(i mod 4)
           (Wire.Query { entry = entries.(i).name; run = 0; queries = [ "before(I, O)" ] }))
    done;
    store := Some sr;
    ( server,
      fun () ->
        Sh.Sharded_repo.close sr;
        Stats.rm_rf dir )
  in
  let (server, _), setup_s = repeated_setup ~reps:sz.setups setup in
  let sr () = Option.get !store in
  let sindex =
    lazy (Layers.timed "shard.index_build_ms" 1e3 (fun () -> Sh.Sharded_repo.index (sr ())))
  in
  let topk ~level ~k keywords =
    let six = Lazy.force sindex in
    fun () -> ignore (Sh.Sharded_index.top_k six ~level ~k keywords)
  in
  let p =
    {
      server;
      src =
        {
          Loop.readers;
          read;
          write_rate = 0.0;
          write = (fun () -> invalid_arg "no writer");
          epoch = (fun () -> 0);
          on_response =
            (fun ~stable:_ f r ->
              match f.Wire.req with
              | Wire.Query _ -> add_sample (f, r)
              | Wire.Topk _ -> add_topk (f, r)
              | _ -> ());
        };
      lookup;
      prepare = Sh.Frontier.engine_of_exec_view ~shards;
      topk;
      store = Some dir;
      recovery =
        Some
        ( (1, Wire.Query { entry = entries.(sz.many - 1).name; run = 0; queries = [ "before(I, O)" ] }),
        fun () ->
          Sh.Sharded_repo.close (sr ());
          let sr' = Sh.Sharded_repo.open_dir dir in
          ( Server.create_sharded sr',
            fun () ->
              Sh.Sharded_repo.close sr';
              Stats.rm_rf dir ) );
      finish =
        (fun _ ->
          (* The reference repository is built from the generated
             entries, not read back from the store. *)
          let repo = Q.Repository.create () in
          Array.iter
            (fun (e : Corpus.entry) ->
              Q.Repository.add repo ~name:e.name ~policy:e.policy ~executions:[ e.exec ] ())
            entries;
          Check.topk repo (topk_samples ()));
    }
  in
  let r = run_workload ctx ~setup_s p in
  if ctx.traced then emit_mean "shard.index_build_ms" "ms" (Layers.observations "shard.index_build_ms");
  r

(* {2 ingest_while_serving} *)

let ingest_while_serving ctx =
  let sz = ctx.sz in
  let rng = Rng.create ctx.seed in
  let base = Rng.int rng 1_000_000_000 in
  let initial =
    Array.init sz.ingest0 (fun i -> Corpus.ingest_entry ~seed:(base + i) (Printf.sprintf "base%05d" i))
  in
  (* Appended entries: name -> seed, and their module ids once committed. *)
  let seeds = Hashtbl.create 256 in
  Array.iteri (fun i (e : Corpus.entry) -> Hashtbl.replace seeds e.name (base + i)) initial;
  let mods = Hashtbl.create 256 in
  Array.iter
    (fun (e : Corpus.entry) ->
      Hashtbl.replace mods e.name (Corpus.module_array (Wfpriv_privacy.Policy.spec e.policy)))
    initial;
  let committed = ref [||] and ncommitted = ref 0 in
  let push name =
    if !ncommitted = Array.length !committed then
      committed := Array.append !committed (Array.make (max 16 !ncommitted) "");
    !committed.(!ncommitted) <- name;
    incr ncommitted
  in
  let next_erase = ref 0 and erased = ref [] in
  let lookup name _run =
    let e = Corpus.ingest_entry ~seed:(Hashtbl.find seeds name) name in
    (e.policy, e.exec)
  in
  let vocab = Synthetic.default_params.Synthetic.keyword_vocabulary in
  let writes = ref 0 in
  let write () =
    incr writes;
    if !writes mod 50 = 0 && !next_erase < !ncommitted - 32 then begin
      let victim = !committed.(!next_erase) in
      incr next_erase;
      (9, Wire.Erase { entry = victim; data = None })
    end
    else begin
      let name = Printf.sprintf "ing%06d" !writes in
      let seed = base + sz.ingest0 + !writes in
      Hashtbl.replace seeds name seed;
      (9, Wire.Append { entry = name; workload = None; seed })
    end
  in
  let fresh () =
    if !ncommitted = 0 then initial.(Rng.int rng sz.ingest0).name
    else !committed.(!ncommitted - 1 - Rng.int rng (min 16 !ncommitted))
  in
  let read () =
    let level = Rng.int rng 4 in
    if Rng.int rng 100 < 10 then
      (level, Wire.Topk { k = 5; keywords = Corpus.random_keywords rng vocab })
    else
      let entry = fresh () in
      ( level,
        Wire.Query
          {
            entry;
            run = 0;
            queries = [ Corpus.render (Corpus.random_query rng (Hashtbl.find mods entry)) ];
          } )
  in
  let dir = work "ingest" in
  let store = ref None and live_ref = ref None in
  let setup () =
    Stats.rm_rf dir;
    let st = D.Durable_repo.init dir in
    ignore (D.Durable_repo.append_streaming st (Array.to_list (Array.map Corpus.add_mutation initial)));
    checkpoint (fun () -> ignore (D.Durable_repo.checkpoint st));
    let live = D.Live_repo.of_store st in
    live_ref := Some live;
    let server = Server.create_live ~appender:Corpus.appender live in
    ignore (serve_one server ~level:2 (Wire.Topk { k = 5; keywords = [ List.hd vocab ] }));
    Array.iteri
      (fun i (e : Corpus.entry) ->
        if i < 64 then
          ignore
            (serve_one server ~level:(i mod 4)
               (Wire.Query { entry = e.name; run = 0; queries = [ "before(I, O)" ] })))
      initial;
    store := Some st;
    ( server,
      fun () ->
        D.Durable_repo.close st;
        Stats.rm_rf dir )
  in
  let (server, _), setup_s = repeated_setup ~reps:sz.setups setup in
  let topk_checks = ref 0 in
  let on_response ~stable (f : Wire.req_frame) (r : Wire.response) =
    match (f.req, r) with
    | Wire.Append { entry; _ }, Wire.Result { result = Wire.Committed _; _ } ->
        let e = Corpus.ingest_entry ~seed:(Hashtbl.find seeds entry) entry in
        Hashtbl.replace mods entry (Corpus.module_array (Wfpriv_privacy.Policy.spec e.policy));
        push entry
    | Wire.Erase { entry; _ }, Wire.Result { result = Wire.Committed _; _ } ->
        erased := entry :: !erased
    | Wire.Query _, _ -> add_sample (f, r)
    | Wire.Topk _, _ when stable && !topk_checks < 12 && f.rid mod 9 = 0 ->
        (* Checked against the generation that answered it. *)
        incr topk_checks;
        Check.topk (Server.repo server) [ (f, r) ]
    | _ -> ()
  in
  let probe () =
    let entry = fresh () in
    (3, Wire.Query { entry; run = 0; queries = [ "before(I, O)"; "node(atomic)" ] })
  in
  let st () = Option.get !store in
  let p =
    {
      server;
      src =
        {
          Loop.readers;
          read;
          write_rate = sz.append_rate;
          write;
          epoch = (fun () -> Server.generation server);
          on_response;
        };
      lookup;
      prepare = (fun v -> Q.Engine.of_exec_view v);
      topk =
        (fun ~level ~k keywords ->
          let g = D.Live_repo.pin (Option.get !live_ref) in
          fun () -> ignore (Q.Live_index.top_k g.D.Live_repo.gen_view ~level ~k keywords));
      store = Some dir;
      recovery =
        Some
        ( probe (),
        fun () ->
          D.Durable_repo.close (st ());
          let st' = D.Durable_repo.open_dir dir in
          ( Server.create_live ~appender:Corpus.appender (D.Live_repo.of_store st'),
            fun () ->
              D.Durable_repo.close st';
              Stats.rm_rf dir ) );
      finish =
        (fun server ->
          List.iter
            (fun entry ->
              let f, r =
                serve_one server ~level:9
                  (Wire.Query { entry; run = 0; queries = [ "node(*)" ] })
              in
              Check.unknown_entry f r)
            !erased);
    }
  in
  let r = run_workload ctx ~setup_s p in
  let appends = Loop.latencies r Loop.Append in
  emit ~n:(List.length appends) "appends_committed" "count" (float_of_int (List.length appends));
  emit ~n:(List.length !erased) "erases_committed" "count" (float_of_int (List.length !erased));
  if r.late <> [] then begin
    let a = Stats.sorted r.late in
    emit ~n:(Array.length a) "loadgen.late_ms" "ms" (Stats.pct a 0.99)
  end;
  r

(* {2 Main} *)

let workloads =
  [
    ("serve_large_runs", serve_large_runs);
    ("serve_many_entries", serve_many_entries);
    ("ingest_while_serving", ingest_while_serving);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny_run = ref false and tamper = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed phase length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tiny", Arg.Set tiny_run, " tiny corpora (self-test)");
      ("--tamper", Arg.Set tamper, " check against a tampered reference (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  Wfpriv_parallel.Pool.set_default_jobs 1;
  Obs.Config.set_enabled false;
  Check.tamper := !tamper;
  let ctx =
    {
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      sz = (if !tiny_run then tiny else full);
    }
  in
  Printf.printf "env nproc=%d domains=%d readers=%d append_rate=%g/s store=%s\n"
    (Domain.recommended_domain_count ())
    (Wfpriv_parallel.Pool.default_jobs ())
    readers ctx.sz.append_rate work_root;
  Stats.rm_rf work_root;
  Sys.mkdir work_root 0o755;
  let code =
    match
      Fun.protect
        ~finally:(fun () -> Stats.rm_rf work_root)
        (fun () ->
          let r = run ctx in
          if ctx.traced then sweep ctx;
          r)
    with
    | r ->
        List.iter (fun m -> Printf.printf "defect %s\n" m) (List.rev !Check.defects);
        List.iter (fun m -> Printf.printf "mismatch %s\n" m) (List.rev !Check.mismatches);
        let correct = !Check.mismatches = [] in
        Printf.printf "result attempted=%d failed=%d checked=%d defects=%d correct=%b\n"
          r.attempted r.failed !Check.checked (List.length !Check.defects) correct;
        if correct then 0 else 1
    | exception (Loop.Escaped msg | Corpus.Malformed_traffic msg) ->
        Printf.printf "abort %s\n" msg;
        3
    | exception e ->
        Printf.printf "abort benchmark error: %s\n" (Printexc.to_string e);
        3
  in
  exit code
