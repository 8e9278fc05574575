module Q = Wfpriv_query
module D = Wfpriv_durable
module W = Wfpriv_workflow
module Sh = Wfpriv_shard
module Obs = Wfpriv_obs

(* Request volume and privilege denials are privilege-partitioned
   counters; per-endpoint latency is operator-facing (histograms). *)
let m_requests = Obs.Registry.counter "server.requests"
let m_denied = Obs.Registry.counter "server.denied"
let h_lat_query = Obs.Registry.histogram "server.latency_ns.query"
let h_lat_topk = Obs.Registry.histogram "server.latency_ns.topk"
let h_lat_zoom = Obs.Registry.histogram "server.latency_ns.zoom_out"
let h_lat_stats = Obs.Registry.histogram "server.latency_ns.stats"
let h_lat_append = Obs.Registry.histogram "server.latency_ns.append"
let h_lat_erase = Obs.Registry.histogram "server.latency_ns.erase"

type config = {
  max_level : int;
  cache : bool;
  cache_capacity : int;
  engine_capacity : int;
  sched : Scheduler.config;
}

let default_config =
  {
    max_level = 9;
    cache = true;
    cache_capacity = 1024;
    engine_capacity = 256;
    sched = Scheduler.default_config;
  }

(* What sits in the scheduler queues: the frame plus the framing its
   answer must use. *)
type job = { jm : Wire.mode; jf : Wire.req_frame }

(* A frozen repository (immutable while serving — the degenerate
   single-generation case), a live one whose writer publishes a new
   generation per committed append batch, or a sharded store served
   read-only (appends to a sharded store go through the CLI offline;
   the serving loop reopens nothing). Readers always execute against
   the pinned current generation, never mid-batch state. *)
type backing =
  | Frozen of Q.Repository.t
  | Live of D.Live_repo.t
  | Sharded of Sh.Sharded_repo.t

type appender =
  entry:string -> workload:string option -> seed:int -> Q.Repository.mutation

type t = {
  cfg : config;
  backing : backing;
  appender : appender option;
  cache : Level_cache.t option;
  rcache : Q.Reach_cache.t; (* prepared engines, shared across levels
                               with equal access prefixes *)
  sched : job Scheduler.t;
  gates : (string * int, Q.Access_gate.t * string) Hashtbl.t;
      (* (entry, level) -> prepared gate + fingerprint. Entries are
         append-only and a policy never changes, so gates (and the
         engines below) stay valid across generations and need no
         epoch in their key. *)
  mutable index : Q.Index.t option; (* built on first top-k (frozen) *)
  mutable sindex : (int * Sh.Sharded_index.t) option;
      (* sharded top-k index, keyed by the generation it was built at *)
  sengines : (string, Q.Engine.t) Hashtbl.t;
      (* frontier-backed engines per user group (sharded backing only;
         keys carry the shard topology via Reach_cache.group_key) *)
  mutable served : int;
}

let make ?(config = default_config) ?(now = Unix.gettimeofday) ?appender
    backing =
  if config.max_level < 0 || config.cache_capacity < 1 || config.engine_capacity < 1
  then invalid_arg "Server.create: bad config";
  {
    cfg = config;
    backing;
    appender;
    cache =
      (if config.cache then
         Some (Level_cache.create ~capacity:config.cache_capacity ())
       else None);
    rcache = Q.Reach_cache.create ~capacity:config.engine_capacity ();
    sched = Scheduler.create ~config:config.sched ~now ();
    gates = Hashtbl.create 32;
    index = None;
    sindex = None;
    sengines = Hashtbl.create 32;
    served = 0;
  }

let create ?config ?now repo = make ?config ?now (Frozen repo)

let create_live ?config ?now ?appender live =
  make ?config ?now ?appender (Live live)

let create_sharded ?config ?now sr = make ?config ?now (Sharded sr)

let repo t =
  match t.backing with
  | Frozen r -> r
  | Live lr -> (D.Live_repo.pin lr).D.Live_repo.gen_repo
  | Sharded sr -> Sh.Sharded_repo.repo sr

let generation t =
  match t.backing with
  | Frozen _ -> 0
  | Live lr -> D.Live_repo.generation lr
  | Sharded sr -> Sh.Sharded_repo.generation sr

let shards t =
  match t.backing with Sharded sr -> Sh.Sharded_repo.shards sr | _ -> 1

let cache_stats t =
  match t.cache with
  | Some c -> Level_cache.stats c
  | None -> { Level_cache.hits = 0; misses = 0; evictions = 0; entries = 0 }

let cache_keys t =
  match t.cache with Some c -> Level_cache.keys c | None -> []

let served t = t.served

let respond t r =
  t.served <- t.served + 1;
  r

(* {2 Shared lookups} *)

let gate_for t (e : Q.Repository.entry) level =
  match Hashtbl.find_opt t.gates (e.name, level) with
  | Some g -> g
  | None ->
      (* Gates carry the backing's shard topology so every fingerprint
         — hence every Level_cache key — partitions by layout as well
         as by visibility; unsharded backings keep the historical
         strings (shards 1 adds nothing). *)
      let gate = Q.Access_gate.of_policy ~shards:(shards t) e.policy ~level in
      Q.Access_gate.prepare gate;
      let g = (gate, Q.Access_gate.fingerprint gate) in
      Hashtbl.replace t.gates (e.name, level) g;
      g

let engine_for t gate ~entry ~run exec =
  (* The view is determined by the access prefix alone, so levels with
     equal prefixes share one prepared engine — Reach_cache's user-group
     sharing. Results stay level-partitioned in the level cache. The
     gate's allowed prefix is sorted and duplicate-free, hence equal to
     the view's normalized prefix: the key needs no view, and a hit
     builds none. *)
  let view = lazy (Q.Access_gate.exec_view gate exec) in
  let prefix = Q.Access_gate.allowed gate in
  match t.backing with
  | Sharded sr -> (
      (* Frontier-backed engines: reachability by cross-shard exchange,
         bit-identical to the memoized closure (the differential suite
         pins it). Reach_cache cannot host these — it prepares its own
         plain engines — so they memoize here, keyed with the topology
         suffix so no group key ever collides with an unsharded one. *)
      let nshards = Sh.Sharded_repo.shards sr in
      let key =
        Q.Reach_cache.group_key ~shards:nshards ~entry ~run ~prefix ()
      in
      match Hashtbl.find_opt t.sengines key with
      | Some eng -> eng
      | None ->
          let eng =
            Sh.Frontier.engine_of_exec_view ~shards:nshards (Lazy.force view)
          in
          Hashtbl.replace t.sengines key eng;
          eng)
  | Frozen _ | Live _ ->
      let key = Q.Reach_cache.group_key ~entry ~run ~prefix () in
      Q.Reach_cache.engine t.rcache ~key view

let index_for t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = Q.Repository.search_index (repo t) in
      t.index <- Some ix;
      ix

let sindex_for t sr =
  let g = Sh.Sharded_repo.generation sr in
  match t.sindex with
  | Some (g', six) when g' = g -> six
  | _ ->
      let six = Sh.Sharded_repo.index sr in
      t.sindex <- Some (g, six);
      six

(* Stands in for the key of a frame that never reaches the cache. *)
let no_key = Level_cache.key ~fingerprint:"" ~request:""

let cache_find t ~level key =
  match t.cache with
  | None -> None
  | Some c -> Level_cache.find c ~level key

let cache_add t key v =
  match t.cache with None -> () | Some c -> Level_cache.add c key v

let digest_of (f : Wire.req_frame) =
  match Wire.request_digest f.req with
  | Some d -> d
  | None -> invalid_arg "Server: uncacheable request digested"

(* {2 Error responses} *)

let bad rid message =
  Wire.Error
    { rid; code = Wire.Bad_request; retryable = false; floor = None; message }

let unknown_entry rid entry =
  Wire.Error
    {
      rid;
      code = Wire.Unknown_entry;
      retryable = false;
      floor = None;
      message = "unknown entry: " ^ entry;
    }

(* {2 Endpoint execution}

   Every path audits from the {e result} (node counts, hit counts), so
   the audit trail is identical whether the result came from the cache
   or from evaluation — a cache hit is unobservable in every channel a
   client or auditor can read. *)

let audit_witnesses gate asts = function
  | Wire.Witnesses ws when List.length ws = List.length asts ->
      List.iter2
        (fun ast (_, nodes) ->
          Q.Access_gate.audit_query gate ast ~nodes:(List.length nodes))
        asts ws
  | _ -> ()

type q_state =
  | Q_err of Wire.response
  | Q_hit of Q.Query_ast.t list * Wire.result
  | Q_miss of Q.Query_ast.t list

let exec_query_group t ~level ~entry ~run frames =
  match Q.Repository.find (repo t) entry with
  | exception Not_found ->
      List.map (fun (f : Wire.req_frame) -> unknown_entry f.rid entry) frames
  | e -> (
      match List.nth_opt e.executions run with
      | None ->
          List.map
            (fun (f : Wire.req_frame) ->
              bad f.rid (Printf.sprintf "run %d out of range for %s" run entry))
            frames
      | Some exec ->
          let gate, fp = gate_for t e level in
          let states =
            List.map
              (fun (f : Wire.req_frame) ->
                match f.req with
                | Wire.Query { queries; _ } -> (
                    match List.map Q.Query_parser.parse queries with
                    | asts -> (
                        let key =
                          Level_cache.key ~fingerprint:fp
                            ~request:(digest_of f)
                        in
                        match cache_find t ~level key with
                        | Some r -> (f, key, Q_hit (asts, r))
                        | None -> (f, key, Q_miss asts))
                    | exception Q.Query_parser.Syntax_error { pos; message } ->
                        ( f,
                          no_key,
                          Q_err
                            (bad f.rid
                               (Printf.sprintf "syntax error at %d: %s" pos
                                  message)) ))
                | _ -> (f, no_key, Q_err (bad f.rid "mixed batch")))
              frames
          in
          let miss_plans =
            List.concat_map
              (fun (_, _, st) ->
                match st with
                | Q_miss asts -> List.map Q.Engine.compile asts
                | _ -> [])
              states
          in
          let miss_witnesses =
            if miss_plans = [] then []
            else
              let eng = engine_for t gate ~entry ~run exec in
              Q.Engine.run_batch eng miss_plans
          in
          let rem = ref miss_witnesses in
          let take n =
            let rec go n acc =
              if n = 0 then List.rev acc
              else
                match !rem with
                | [] -> List.rev acc
                | w :: tl ->
                    rem := tl;
                    go (n - 1) (w :: acc)
            in
            go n []
          in
          List.map
            (fun ((f : Wire.req_frame), key, st) ->
              match st with
              | Q_err r -> r
              | Q_hit (asts, result) ->
                  audit_witnesses gate asts result;
                  Wire.Result { rid = f.rid; result }
              | Q_miss asts ->
                  let ws = take (List.length asts) in
                  let result =
                    Wire.Witnesses
                      (List.map
                         (fun (w : Q.Engine.witness) -> (w.holds, w.nodes))
                         ws)
                  in
                  cache_add t key result;
                  audit_witnesses gate asts result;
                  Wire.Result { rid = f.rid; result })
            states)

let audit_topk ~level keywords = function
  | Wire.Hits hits ->
      Obs.Audit_log.record ~op:"server.topk" ~level
        ~query:(String.concat " " keywords)
        ~nodes:(List.length hits) Obs.Audit_log.Allowed
  | _ -> ()

type t_state =
  | T_err of Wire.response
  | T_hit of string list * Wire.result
  | T_miss of int * string list

(* Top-k answers depend on the whole visible corpus, so their cache
   fingerprint carries the pinned generation (entry-scoped results do
   not: an execution's DAG never changes once stored) and, on a sharded
   backing, the shard topology (its generation counter only means
   something within one layout). Generation 0 with one shard keeps the
   frozen byte format. *)
let topk_fingerprint t ~level =
  let g = generation t in
  let epoch = if g = 0 then "" else Printf.sprintf "g%d/" g in
  let s = shards t in
  let topology = if s <= 1 then "" else Printf.sprintf "s%d/" s in
  Printf.sprintf "l%d/%s%stopk" level epoch topology

(* The canonical top-k pipeline dispatches to the sharded global merge
   (per-shard WAND under global weights, upper-bound pruning);
   everything else — in particular quantized pipelines — ranks the
   exhaustive merged scores. The same dispatch rule as the frozen and
   LSM paths, so answers are bit-identical across all three. *)
let run_search_sharded ~sindex ~level plan =
  match plan with
  | Q.Plan.Project_top (k, Q.Plan.Rank (Q.Plan.Keyword_lookup kws)) ->
      Sh.Sharded_index.top_k sindex ~level ~k kws
  | plan ->
      Q.Engine.run_search
        ~lookup:(fun kws -> Sh.Sharded_index.score_entries sindex ~level kws)
        plan

let run_searches t ~level plans =
  match t.backing with
  | Frozen _ -> Q.Engine.run_searches ~index:(index_for t) ~level plans
  | Live lr ->
      Q.Engine.run_searches_live
        ~view:(D.Live_repo.pin lr).D.Live_repo.gen_view ~level plans
  | Sharded sr ->
      let sindex = sindex_for t sr in
      List.map (run_search_sharded ~sindex ~level) plans

let exec_topk_group t ~level frames =
  let fp = topk_fingerprint t ~level in
  let states =
    List.map
      (fun (f : Wire.req_frame) ->
        match f.req with
        | Wire.Topk { k; keywords } -> (
            if k <= 0 then (f, no_key, T_err (bad f.rid "k must be positive"))
            else
              let key =
                Level_cache.key ~fingerprint:fp ~request:(digest_of f)
              in
              match cache_find t ~level key with
              | Some r -> (f, key, T_hit (keywords, r))
              | None -> (f, key, T_miss (k, keywords)))
        | _ -> (f, no_key, T_err (bad f.rid "mixed batch")))
      frames
  in
  let searches =
    List.filter_map
      (fun (_, _, st) ->
        match st with
        | T_miss (k, kw) -> Some (Q.Plan.compile_search ~top:k kw)
        | _ -> None)
      states
  in
  let results =
    if searches = [] then [] else run_searches t ~level searches
  in
  let rem = ref results in
  List.map
    (fun ((f : Wire.req_frame), key, st) ->
      match st with
      | T_err r -> r
      | T_hit (kw, result) ->
          audit_topk ~level kw result;
          Wire.Result { rid = f.rid; result }
      | T_miss (_, kw) ->
          let entries =
            match !rem with
            | e :: tl ->
                rem := tl;
                e
            | [] -> []
          in
          let result =
            Wire.Hits
              (List.map
                 (fun (en : Q.Ranking.entry) -> (en.doc, en.score))
                 entries)
          in
          cache_add t key result;
          audit_topk ~level kw result;
          Wire.Result { rid = f.rid; result })
    states

let exec_zoom t ~level (f : Wire.req_frame) =
  match f.req with
  | Wire.Zoom_out { entry; run } -> (
      match Q.Repository.find (repo t) entry with
      | exception Not_found -> unknown_entry f.rid entry
      | e -> (
          match List.nth_opt e.executions run with
          | None ->
              bad f.rid (Printf.sprintf "run %d out of range for %s" run entry)
          | Some exec ->
              let gate, fp = gate_for t e level in
              let key =
                Level_cache.key ~fingerprint:fp ~request:(digest_of f)
              in
              let result =
                match cache_find t ~level key with
                | Some r -> r
                | None ->
                    let view = Q.Access_gate.exec_view gate exec in
                    let r =
                      Wire.View
                        {
                          view_prefix = W.Exec_view.prefix view;
                          view_nodes = List.length (W.Exec_view.nodes view);
                        }
                    in
                    cache_add t key r;
                    r
              in
              (match result with
               | Wire.View { view_nodes; _ } ->
                   Q.Access_gate.audit_view gate ~op:"server.zoom_out"
                     ~nodes:view_nodes
               | _ -> ());
              Wire.Result { rid = f.rid; result }))
  | _ -> bad f.rid "mixed batch"

(* {2 Streaming ingestion}

   All [Append] frames of one scheduler batch commit as a single
   {!D.Live_repo.append_streaming} call — one WAL batch, one fsync'd
   commit record, one published generation. Frames whose mutation
   cannot apply (duplicate entry, unknown workload) are answered
   individually with [bad-request] after a dry run on a scratch
   snapshot, so one bad frame never poisons the batch. *)

type a_state = A_err of Wire.response | A_ok of Q.Repository.mutation

let exec_append_group t ~level frames =
  match (t.backing, t.appender) with
  | Frozen _, _ ->
      List.map
        (fun (f : Wire.req_frame) ->
          bad f.rid "repository is frozen: no live store mounted")
        frames
  | Sharded _, _ ->
      List.map
        (fun (f : Wire.req_frame) ->
          bad f.rid "sharded store is served read-only: append via the CLI")
        frames
  | Live _, None ->
      List.map
        (fun (f : Wire.req_frame) -> bad f.rid "server accepts no appends")
        frames
  | Live lr, Some make_mutation ->
      let scratch =
        Q.Repository.freeze (D.Durable_repo.repo (D.Live_repo.store lr))
      in
      let states =
        List.map
          (fun (f : Wire.req_frame) ->
            match f.req with
            | Wire.Append { entry; workload; seed } -> (
                match
                  let m = make_mutation ~entry ~workload ~seed in
                  Q.Repository.validate scratch m;
                  Q.Repository.apply scratch m;
                  m
                with
                | m -> (f, A_ok m)
                | exception Invalid_argument msg -> (f, A_err (bad f.rid msg)))
            | _ -> (f, A_err (bad f.rid "mixed batch")))
          frames
      in
      let muts =
        List.filter_map
          (fun (_, st) -> match st with A_ok m -> Some m | A_err _ -> None)
          states
      in
      let committed =
        if muts = [] then None
        else
          match D.Live_repo.append_streaming lr muts with
          | g -> Some (Ok g)
          | exception Invalid_argument msg -> Some (Error msg)
      in
      (match committed with
      | Some (Ok _) ->
          Obs.Audit_log.record ~op:"server.append" ~level
            ~nodes:(List.length muts) Obs.Audit_log.Allowed
      | _ -> ());
      List.map
        (fun ((f : Wire.req_frame), st) ->
          match (st, committed) with
          | A_err r, _ -> r
          | A_ok _, Some (Ok g) ->
              Wire.Result
                {
                  rid = f.rid;
                  result =
                    Wire.Committed
                      {
                        generation = g.D.Live_repo.gen_id;
                        lsn = g.D.Live_repo.gen_lsn;
                      };
                }
          | A_ok _, Some (Error msg) -> bad f.rid msg
          | A_ok _, None -> bad f.rid "empty batch")
        states

(* {2 Durable erasure}

   Each erase is a full history rewrite — journal, checkpoint, compact,
   prune, plus the LSM segment rewrite — so frames execute one at a
   time, live backing only. Erasure is governed by the entry policy's
   audit level (the level that sees everything the policy mentions): a
   caller below it is refused with only that floor recorded, the same
   claimed-floor discipline every other denial follows. *)

let exec_erase t ~level (f : Wire.req_frame) =
  match f.req with
  | Wire.Erase { entry; data } -> (
      match t.backing with
      | Frozen _ -> bad f.rid "repository is frozen: no live store mounted"
      | Sharded _ ->
          bad f.rid "sharded store is served read-only: erase via the CLI"
      | Live lr -> (
          match Q.Repository.find (repo t) entry with
          | exception Not_found -> unknown_entry f.rid entry
          | e ->
              let floor = Wfpriv_privacy.Policy.audit_level e.policy in
              if level < floor then begin
                Obs.Counter.incr m_denied ~at:level;
                Obs.Audit_log.record ~op:"server.erase" ~level
                  (Obs.Audit_log.Denied { floor });
                Wire.Error
                  {
                    rid = f.rid;
                    code = Wire.Privilege;
                    retryable = false;
                    floor = Some floor;
                    message = "erasure requires the entry's audit level";
                  }
              end
              else
                let mutation =
                  Q.Repository.Erase { entry_name = entry; data_name = data }
                in
                (match D.Live_repo.erase lr mutation with
                | report ->
                    Obs.Audit_log.record ~op:"server.erase" ~level ~query:entry
                      ~nodes:report.D.Durable_repo.er_dropped_segments
                      Obs.Audit_log.Allowed;
                    (* The frozen-path index (if one was built) may hold
                       the erased entry; drop it so the next top-k
                       rebuilds from the surviving corpus. *)
                    t.index <- None;
                    Wire.Result
                      {
                        rid = f.rid;
                        result =
                          Wire.Committed
                            {
                              generation = report.D.Durable_repo.er_generation;
                              lsn = (D.Live_repo.pin lr).D.Live_repo.gen_lsn;
                            };
                      }
                | exception Invalid_argument msg -> bad f.rid msg)))
  | _ -> bad f.rid "mixed batch"

let exec_stats _t ~level (f : Wire.req_frame) =
  match f.req with
  | Wire.Stats { prefix } ->
      let counters =
        match prefix with
        | None -> Obs.Registry.observer_counters ~level
        | Some p -> Obs.Registry.observer_counters_prefixed ~prefix:p ~level
      in
      Wire.Result { rid = f.rid; result = Wire.Counters counters }
  | _ -> bad f.rid "mixed batch"

(* All frames of a batch share a batch key, hence a kind (and for
   queries an entry and run). Responses in input order. *)
let exec_frames t ~level frames =
  match (List.hd frames : Wire.req_frame).req with
  | Wire.Query { entry; run; _ } ->
      Obs.Histogram.time h_lat_query (fun () ->
          exec_query_group t ~level ~entry ~run frames)
  | Wire.Topk _ ->
      Obs.Histogram.time h_lat_topk (fun () -> exec_topk_group t ~level frames)
  | Wire.Zoom_out _ ->
      Obs.Histogram.time h_lat_zoom (fun () ->
          List.map (exec_zoom t ~level) frames)
  | Wire.Stats _ ->
      Obs.Histogram.time h_lat_stats (fun () ->
          List.map (exec_stats t ~level) frames)
  | Wire.Append _ ->
      Obs.Histogram.time h_lat_append (fun () ->
          exec_append_group t ~level frames)
  | Wire.Erase _ ->
      Obs.Histogram.time h_lat_erase (fun () ->
          List.map (exec_erase t ~level) frames)

(* {2 Admission} *)

(* A privilege denial records only the required floor (the claimed
   level), never what was asked — and is filed at the server's ceiling
   so the trail itself stays below it. *)
let validate t (f : Wire.req_frame) =
  if f.level < 0 then Some (bad f.rid "negative privilege level")
  else if f.level > t.cfg.max_level then begin
    Obs.Counter.incr m_denied ~at:t.cfg.max_level;
    Obs.Audit_log.record ~op:"server.denied" ~level:t.cfg.max_level
      (Obs.Audit_log.Denied { floor = f.level });
    Some
      (Wire.Error
         {
           rid = f.rid;
           code = Wire.Privilege;
           retryable = false;
           floor = Some f.level;
           message = "privilege level above server ceiling";
         })
  end
  else None

let audit_shed ~level =
  Obs.Audit_log.record ~op:"server.shed" ~level
    (Obs.Audit_log.Denied { floor = level })

let handle t ~client:_ (f : Wire.req_frame) =
  match validate t f with
  | Some r -> respond t r
  | None ->
      Obs.Counter.incr m_requests ~at:f.level;
      respond t (List.hd (exec_frames t ~level:f.level [ f ]))

let submit t ~client ?(mode = Wire.Json) (f : Wire.req_frame) =
  match validate t f with
  | Some r -> Some (respond t r)
  | None -> (
      Obs.Counter.incr m_requests ~at:f.level;
      match f.req with
      | Wire.Stats _ ->
          (* Stats reads live counters: answered immediately, never
             queued, never cached. *)
          Some
            (respond t
               (Obs.Histogram.time h_lat_stats (fun () ->
                    exec_stats t ~level:f.level f)))
      | _ -> (
          let cost =
            match f.req with
            | Wire.Zoom_out _ | Wire.Append _ | Wire.Erase _ ->
                Scheduler.Expensive
            | _ -> Scheduler.Cheap
          in
          match
            Scheduler.admit t.sched ~client ~level:f.level ~cost
              ~deadline_ms:f.deadline_ms { jm = mode; jf = f }
          with
          | Ok _ -> None
          | Error reject ->
              let message =
                match reject with
                | Scheduler.Queue_full -> "queue full; retry later"
                | Scheduler.Inflight_exceeded ->
                    "client in-flight cap exceeded; retry later"
              in
              audit_shed ~level:f.level;
              Some
                (respond t
                   (Wire.Error
                      {
                        rid = f.rid;
                        code = Wire.Over_capacity;
                        retryable = true;
                        floor = None;
                        message;
                      }))))

let batch_key (j : job) =
  match j.jf.req with
  | Wire.Query { entry; run; _ } -> Printf.sprintf "q/%s/%d" entry run
  | Wire.Topk _ -> "t"
  | Wire.Zoom_out { entry; run } -> Printf.sprintf "z/%s/%d" entry run
  | Wire.Stats _ -> "s"
  | Wire.Append _ -> "a" (* the whole batch commits as one generation *)
  | Wire.Erase _ -> "e" (* grouped for ordering; executed one at a time *)

let cycle t =
  (* One LSM merge step per cycle: background maintenance rides the
     serving loop without a thread, bounded so a deep merge backlog
     cannot stall the queues. No-op when nothing is pending (and always
     on a frozen backing). *)
  (match t.backing with
  | Live lr -> ignore (D.Live_repo.maintain lr)
  | Frozen _ | Sharded _ -> ());
  let events = Scheduler.drain t.sched ~batch_key () in
  List.concat_map
    (fun ev ->
      match ev with
      | Scheduler.Shed (item : job Scheduler.item) ->
          Scheduler.finish t.sched item;
          audit_shed ~level:item.level;
          [
            ( item.client,
              item.payload.jm,
              respond t
                (Wire.Error
                   {
                     rid = item.payload.jf.rid;
                     code = Wire.Deadline_exceeded;
                     retryable = true;
                     floor = None;
                     message = "deadline exceeded in queue; retry later";
                   }) );
          ]
      | Scheduler.Batch items ->
          let frames =
            List.map (fun (it : job Scheduler.item) -> it.payload.jf) items
          in
          let responses =
            exec_frames t
              ~level:(List.hd items : job Scheduler.item).level
              frames
          in
          List.iter (Scheduler.finish t.sched) items;
          List.map2
            (fun (it : job Scheduler.item) r ->
              (it.client, it.payload.jm, respond t r))
            items responses)
    events

let drain_all t =
  let rec go acc =
    match cycle t with [] -> List.concat (List.rev acc) | rs -> go (rs :: acc)
  in
  go []

(* Idle-time LSM maintenance: burn down the merge backlog while the
   serving loop has nothing else to do (the select-timeout path of
   {!serve_tcp}), bounded per call so a newly arrived request never
   waits behind more than [max_steps] merge steps. *)
let maintain_idle ?(max_steps = 4) t =
  match t.backing with
  | Live lr ->
      let steps = ref 0 in
      while !steps < max_steps && D.Live_repo.maintain lr do
        incr steps
      done;
      !steps
  | Frozen _ | Sharded _ -> 0

(* {2 Front-ends} *)

(* Parse every complete frame of [buf], submit each; immediate
   responses go through [emit]. Returns [Some message] on a corrupt
   frame (the caller answers once and stops reading). The unconsumed
   tail stays in [buf]. *)
let feed t ~client buf emit =
  let s = Buffer.contents buf in
  let pos = ref 0 in
  let corrupt = ref None in
  let continue = ref true in
  while !continue do
    if !pos >= String.length s || !corrupt <> None then continue := false
    else
      match Wire.decode_request ~pos:!pos s with
      | Wire.Need_more -> continue := false
      | Wire.Corrupt m -> corrupt := Some m
      | Wire.Frame (f, used) ->
          let mode = Wire.mode_at ~pos:!pos s in
          pos := !pos + used;
          (match submit t ~client ~mode f with
           | Some r -> emit mode r
           | None -> ())
  done;
  let rest = String.sub s !pos (String.length s - !pos) in
  Buffer.clear buf;
  Buffer.add_string buf rest;
  !corrupt

let corrupt_response message =
  Wire.Error
    {
      rid = 0;
      code = Wire.Bad_request;
      retryable = false;
      floor = None;
      message;
    }

let serve_channels t ic oc =
  let written = ref 0 in
  let emit mode r =
    output_string oc (Wire.encode_response mode r);
    incr written
  in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let stop = ref false in
  while not !stop do
    match input ic chunk 0 (Bytes.length chunk) with
    | 0 -> stop := true
    | exception End_of_file -> stop := true
    | n -> (
        Buffer.add_subbytes buf chunk 0 n;
        match feed t ~client:0 buf (emit) with
        | None -> ()
        | Some m ->
            emit Wire.Json (respond t (corrupt_response m));
            stop := true)
  done;
  List.iter (fun (_, mode, r) -> emit mode r) (drain_all t);
  flush oc;
  !written

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string; (* encoded responses not yet written *)
  mutable closing : bool; (* EOF or corrupt: flush out, then close *)
}

let serve_tcp t ~port ?port_file ?max_requests ?timeout_s () =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen lsock 64;
  Unix.set_nonblock lsock;
  (match (Unix.getsockname lsock, port_file) with
  | Unix.ADDR_INET (_, p), Some file ->
      write_atomic file (string_of_int p ^ "\n")
  | _ -> ());
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_client = ref 0 in
  let produced = ref 0 (* quota: responses routed, even to gone clients *) in
  let written = ref 0 in
  let deadline =
    match timeout_s with
    | Some s -> Unix.gettimeofday () +. s
    | None -> infinity
  in
  let enqueue c mode r =
    c.out <- c.out ^ Wire.encode_response mode r;
    incr produced;
    incr written
  in
  let quota_met () =
    match max_requests with Some m -> !produced >= m | None -> false
  in
  let stop = ref false in
  while not !stop do
    if Unix.gettimeofday () > deadline then stop := true
    else begin
      let rds =
        lsock
        :: Hashtbl.fold
             (fun _ c acc -> if c.closing then acc else c.fd :: acc)
             conns []
      in
      let wrs =
        Hashtbl.fold
          (fun _ c acc -> if c.out <> "" then c.fd :: acc else acc)
          conns []
      in
      let tick = if Scheduler.pending t.sched > 0 then 0.0 else 0.05 in
      let r, w, _ =
        try Unix.select rds wrs [] tick
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (* Select timed out with nothing to read, write, or schedule: the
         loop is idle, so spend the lull on background LSM merges
         instead of sleeping through the backlog. *)
      if r = [] && w = [] && Scheduler.pending t.sched = 0 then
        ignore (maintain_idle t);
      if List.mem lsock r then begin
        let rec accept_all () =
          match Unix.accept lsock with
          | fd, _ ->
              Unix.set_nonblock fd;
              incr next_client;
              Hashtbl.replace conns !next_client
                { fd; inbuf = Buffer.create 1024; out = ""; closing = false };
              accept_all ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all ()
        in
        accept_all ()
      end;
      let chunk = Bytes.create 4096 in
      Hashtbl.iter
        (fun id c ->
          if (not c.closing) && List.mem c.fd r then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> c.closing <- true
            | n -> (
                Buffer.add_subbytes c.inbuf chunk 0 n;
                match feed t ~client:id c.inbuf (enqueue c) with
                | None -> ()
                | Some m ->
                    enqueue c Wire.Json (respond t (corrupt_response m));
                    c.closing <- true)
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error (_, _, _) -> c.closing <- true)
        conns;
      List.iter
        (fun (client, mode, resp) ->
          match Hashtbl.find_opt conns client with
          | Some c -> enqueue c mode resp
          | None -> incr produced (* client gone; drop the bytes *))
        (cycle t);
      Hashtbl.iter
        (fun _ c ->
          if c.out <> "" && List.mem c.fd w then
            let b = Bytes.of_string c.out in
            match Unix.write c.fd b 0 (Bytes.length b) with
            | n -> c.out <- String.sub c.out n (String.length c.out - n)
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error (_, _, _) ->
                c.out <- "";
                c.closing <- true)
        conns;
      let dead =
        Hashtbl.fold
          (fun id c acc ->
            if c.closing && c.out = "" then (id, c) :: acc else acc)
          conns []
      in
      List.iter
        (fun (id, c) ->
          (try Unix.close c.fd with Unix.Unix_error _ -> ());
          Hashtbl.remove conns id)
        dead;
      if
        quota_met ()
        && Scheduler.pending t.sched = 0
        && Hashtbl.fold (fun _ c acc -> acc && c.out = "") conns true
      then stop := true
    end
  done;
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  !written
