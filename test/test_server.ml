(* Serving-layer tests (PR 6).

   Three suites:
   - wire: QCheck round-trip of request/response frames through both
     framings, plus rejection of truncated and oversized frames;
   - leakage, the PR's acceptance bar: responses are bit-identical with
     the result cache on and off, every cache key is partitioned by
     privilege level by construction, and traffic at one level never
     changes what another level is answered;
   - backpressure: floods of expensive zoom-outs are shed with
     retryable errors while cheap lookups keep draining, and the
     admission caps (queue bound, per-client in-flight) reject with
     retryable errors. *)

open Wfpriv_privacy
module Obs = Wfpriv_obs
module Server = Wfpriv_server.Server
module Scheduler = Wfpriv_server.Scheduler
module Wire = Wfpriv_server.Wire
module Repository = Wfpriv_query.Repository
module Durable_repo = Wfpriv_durable.Durable_repo
module Live_repo = Wfpriv_durable.Live_repo
module Disease = Wfpriv_workloads.Disease
module Clinical = Wfpriv_workloads.Clinical
module Synthetic = Wfpriv_workloads.Synthetic
module Rng = Wfpriv_workloads.Rng

let check = Alcotest.check

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir () =
  let path = Filename.temp_file "wfpriv-server-test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let with_obs f =
  Obs.Config.set_enabled true;
  Obs.Registry.reset ();
  Obs.Audit_log.reset ();
  Fun.protect ~finally:(fun () -> Obs.Config.set_enabled false) f

let disease_policy =
  Policy.make
    ~expand_levels:[ ("W2", 1); ("W3", 2); ("W4", 3) ]
    ~data_levels:[ ("disorders", 2); ("prognosis", 1) ]
    Disease.spec

let demo_repo () =
  let repo = Repository.create () in
  Repository.add repo ~name:"disease-susceptibility" ~policy:disease_policy
    ~executions:[ Disease.run () ] ();
  Repository.add repo ~name:"clinical-trial" ~policy:Clinical.policy
    ~executions:[ Clinical.run () ] ();
  repo

let frame ?(rid = 1) ?(deadline_ms = 0) ~level req =
  { Wire.rid; level; deadline_ms; req }

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let gen_request =
  let open QCheck.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let query = oneofl [ "node(*)"; "node(~\"risk\")"; "before(*, *)" ] in
  oneof
    [
      map3
        (fun entry run queries -> Wire.Query { entry; run; queries })
        word (int_bound 3)
        (list_size (int_range 1 4) query);
      map2 (fun k kws -> Wire.Topk { k; keywords = kws }) (int_range 1 10)
        (list_size (int_range 1 4) word);
      map2 (fun entry run -> Wire.Zoom_out { entry; run }) word (int_bound 3);
      map (fun p -> Wire.Stats { prefix = p }) (opt word);
      map3
        (fun entry workload seed -> Wire.Append { entry; workload; seed })
        word (opt word) (int_bound 1_000);
    ]

let gen_req_frame =
  let open QCheck.Gen in
  map3
    (fun rid level (deadline_ms, req) -> { Wire.rid; level; deadline_ms; req })
    (int_bound 1_000_000) (int_bound 9)
    (pair (int_bound 10_000) gen_request)

let gen_result =
  let open QCheck.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  oneof
    [
      map
        (fun ws -> Wire.Witnesses ws)
        (list_size (int_bound 4)
           (pair bool (list_size (int_bound 5) (int_bound 1000))));
      map
        (fun hs -> Wire.Hits hs)
        (list_size (int_bound 4) (pair word (float_bound_inclusive 10.0)));
      map2
        (fun p n -> Wire.View { view_prefix = p; view_nodes = n })
        (list_size (int_bound 4) word)
        (int_bound 100);
      map
        (fun cs -> Wire.Counters cs)
        (list_size (int_bound 4) (pair word (int_bound 10_000)));
      map2
        (fun generation lsn -> Wire.Committed { generation; lsn })
        (int_bound 10_000) (int_bound 10_000);
    ]

let gen_response =
  let open QCheck.Gen in
  let code =
    oneofl
      [
        Wire.Bad_request; Wire.Unknown_entry; Wire.Over_capacity;
        Wire.Deadline_exceeded; Wire.Privilege;
      ]
  in
  oneof
    [
      map2 (fun rid result -> Wire.Result { rid; result }) (int_bound 1_000_000)
        gen_result;
      map3
        (fun rid (code, retryable) (floor, message) ->
          Wire.Error { rid; code; retryable; floor; message })
        (int_bound 1_000_000) (pair code bool)
        (pair (opt (int_bound 9))
           (string_size ~gen:(char_range ' ' 'z') (int_bound 30)));
    ]

let gen_mode = QCheck.Gen.oneofl [ Wire.Binary; Wire.Json ]

let roundtrip_request =
  QCheck.Test.make ~name:"request survives both framings" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_mode gen_req_frame))
    (fun (mode, f) ->
      let s = Wire.encode_request mode f in
      match Wire.decode_request s with
      | Wire.Frame (f', used) -> f' = f && used = String.length s
      | _ -> false)

let roundtrip_response =
  QCheck.Test.make ~name:"response survives both framings" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_mode gen_response))
    (fun (mode, r) ->
      let s = Wire.encode_response mode r in
      match Wire.decode_response s with
      | Wire.Frame (r', used) -> r' = r && used = String.length s
      | _ -> false)

let truncation_needs_more =
  QCheck.Test.make ~name:"every strict prefix reports Need_more" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_mode gen_req_frame))
    (fun (mode, f) ->
      let s = Wire.encode_request mode f in
      let ok = ref true in
      for len = 0 to String.length s - 1 do
        match Wire.decode_request (String.sub s 0 len) with
        | Wire.Need_more -> ()
        | _ -> ok := false
      done;
      !ok)

let test_frame_rejection () =
  let oversized =
    (* magic, version 1, u32 length = max_frame + 1 *)
    let b = Bytes.create 6 in
    Bytes.set b 0 '\xf7';
    Bytes.set b 1 '\x01';
    let plen = Wire.max_frame + 1 in
    for i = 0 to 3 do
      Bytes.set b (2 + i) (Char.chr ((plen lsr (8 * i)) land 0xff))
    done;
    Bytes.to_string b
  in
  (match Wire.decode_request oversized with
  | Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized frame not rejected");
  let bad_version = "\xf7\x09\x00\x00\x00\x00" in
  (match Wire.decode_request bad_version with
  | Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad version not rejected");
  let f = frame ~level:1 (Wire.Topk { k = 2; keywords = [ "snp" ] }) in
  let enc = Wire.encode_request Wire.Binary f in
  (* Extend the declared payload with garbage: trailing bytes must be
     rejected, not silently ignored. *)
  let plen = String.length enc - 6 + 1 in
  let b = Bytes.of_string (enc ^ "X") in
  for i = 0 to 3 do
    Bytes.set b (2 + i) (Char.chr ((plen lsr (8 * i)) land 0xff))
  done;
  (match Wire.decode_request (Bytes.to_string b) with
  | Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "trailing payload bytes not rejected");
  match Wire.decode_request "{\"v\":1,\"rid\":oops}\n" with
  | Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "malformed JSON line not rejected"

(* A query naming a module index with no module id (below 1, or past
   [int]) is a per-frame bad-request: the server keeps answering, on the
   synchronous path and through a channel pair alike. *)
let bad_module_queries = [ "node(M0)"; "node(M99999999999999999999)" ]

let query_frame ~rid q =
  frame ~rid ~level:2
    (Wire.Query { entry = "disease-susceptibility"; run = 0; queries = [ q ] })

let good_query = "node(~\"risk\")"

let expect_bad_request what = function
  | Wire.Error { code = Wire.Bad_request; retryable = false; _ } -> ()
  | r ->
      Alcotest.failf "%s: expected bad-request, got %s" what
        (Wire.encode_response Wire.Json r)

let expect_answered what = function
  | Wire.Result { result = Wire.Witnesses [ (true, _ :: _) ]; _ } -> ()
  | r ->
      Alcotest.failf "%s: expected an answer, got %s" what
        (Wire.encode_response Wire.Json r)

let test_bad_module_index () =
  let server = Server.create (demo_repo ()) in
  List.iteri
    (fun i q ->
      expect_bad_request q
        (Server.handle server ~client:0 (query_frame ~rid:(i + 1) q));
      expect_answered ("after " ^ q)
        (Server.handle server ~client:0 (query_frame ~rid:(i + 10) good_query)))
    bad_module_queries;
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let input = Filename.concat dir "in" and output = Filename.concat dir "out" in
  let frames =
    List.mapi (fun i q -> query_frame ~rid:(i + 1) q) bad_module_queries
    @ [ query_frame ~rid:3 good_query ]
  in
  Out_channel.with_open_bin input (fun oc ->
      List.iter
        (fun f -> output_string oc (Wire.encode_request Wire.Json f))
        frames);
  let written =
    In_channel.with_open_bin input (fun ic ->
        Out_channel.with_open_bin output (fun oc ->
            Server.serve_channels (Server.create (demo_repo ())) ic oc))
  in
  check Alcotest.int "one response per frame" 3 written;
  let bytes = In_channel.with_open_bin output In_channel.input_all in
  let rec decode pos acc =
    if pos >= String.length bytes then List.rev acc
    else
      match Wire.decode_response ~pos bytes with
      | Wire.Frame (r, used) -> decode (pos + used) (r :: acc)
      | _ -> Alcotest.fail "undecodable response"
  in
  let by_rid r =
    match r with Wire.Result { rid; _ } | Wire.Error { rid; _ } -> rid
  in
  match List.sort (fun a b -> compare (by_rid a) (by_rid b)) (decode 0 []) with
  | [ r1; r2; r3 ] ->
      expect_bad_request "M0 over the channel" r1;
      expect_bad_request "overflowing index over the channel" r2;
      expect_answered "frame after the bad ones" r3
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Leakage *)

let mixed_workload =
  [
    (0, Wire.Topk { k = 3; keywords = [ "snp"; "omim" ] });
    (1, Wire.Query
         {
           entry = "disease-susceptibility";
           run = 0;
           queries = [ "node(~\"risk\")"; "before(~\"Expand SNP\", ~\"OMIM\")" ];
         });
    (3, Wire.Query
         {
           entry = "disease-susceptibility";
           run = 0;
           queries = [ "node(~\"risk\")" ];
         });
    (0, Wire.Zoom_out { entry = "disease-susceptibility"; run = 0 });
    (3, Wire.Zoom_out { entry = "disease-susceptibility"; run = 0 });
    (1, Wire.Topk { k = 2; keywords = [ "trial" ] });
    (2, Wire.Query { entry = "clinical-trial"; run = 0; queries = [ "node(*)" ] });
  ]

(* Answer the workload twice through [handle] (so the second pass is
   all cache hits when the cache is on) and render every response. *)
let run_workload server =
  List.concat_map
    (fun pass ->
      List.mapi
        (fun i (level, req) ->
          let f = frame ~rid:((pass * 100) + i) ~level req in
          Wire.encode_response Wire.Json (Server.handle server ~client:i f))
        mixed_workload)
    [ 0; 1 ]

let test_cache_transparent () =
  with_obs @@ fun () ->
  let repo = demo_repo () in
  let on = Server.create repo in
  let off =
    Server.create ~config:{ Server.default_config with cache = false } repo
  in
  let r_on = run_workload on in
  let r_off = run_workload off in
  check (Alcotest.list Alcotest.string) "responses identical cache on/off"
    r_off r_on;
  let stats = Server.cache_stats on in
  check Alcotest.bool "cache-on run hit the cache" true
    (stats.Wfpriv_server.Level_cache.hits > 0);
  check Alcotest.int "cache-off never caches" 0
    (Server.cache_stats off).Wfpriv_server.Level_cache.entries

let test_cache_partitioned_by_level () =
  with_obs @@ fun () ->
  let server = Server.create (demo_repo ()) in
  ignore (run_workload server);
  let levels_used =
    List.sort_uniq compare (List.map fst mixed_workload)
    |> List.map (Printf.sprintf "l%d/")
  in
  List.iter
    (fun key ->
      check Alcotest.bool
        (Printf.sprintf "key %S carries its level prefix" key)
        true
        (List.exists
           (fun p -> String.length key >= String.length p
                     && String.sub key 0 (String.length p) = p)
           levels_used))
    (Server.cache_keys server)

let test_no_cross_level_interference () =
  with_obs @@ fun () ->
  let repo = demo_repo () in
  let ask server level =
    List.map
      (fun req ->
        Wire.encode_response Wire.Json
          (Server.handle server ~client:0 (frame ~level req)))
      [
        Wire.Query
          {
            entry = "disease-susceptibility";
            run = 0;
            queries = [ "node(~\"risk\")" ];
          };
        Wire.Zoom_out { entry = "disease-susceptibility"; run = 0 };
        Wire.Topk { k = 3; keywords = [ "snp" ] };
      ]
  in
  (* Fresh server, only level 0 traffic. *)
  let fresh = Server.create repo in
  let lone = ask fresh 0 in
  (* Warm server whose cache level 3 populated first. *)
  let warm = Server.create repo in
  ignore (ask warm 3);
  ignore (ask warm 3);
  let after = ask warm 0 in
  check (Alcotest.list Alcotest.string)
    "level-0 answers unchanged by level-3 cache traffic" lone after

let test_stats_observer_view () =
  with_obs @@ fun () ->
  let server = Server.create (demo_repo ()) in
  let topk level =
    ignore
      (Server.handle server ~client:0
         (frame ~level (Wire.Topk { k = 1; keywords = [ "snp" ] })))
  in
  topk 3;
  let counters_at level =
    match
      Server.handle server ~client:0
        (frame ~level (Wire.Stats { prefix = Some "server.requests" }))
    with
    | Wire.Result { result = Wire.Counters cs; _ } -> cs
    | _ -> Alcotest.fail "stats did not answer counters"
  in
  (* The level-0 observer must not see the level-3 request; its own
     stats request is the only one visible. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "level-0 observer blind to level-3 traffic"
    [ ("server.requests", 1) ]
    (counters_at 0);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "level-3 observer sees both (plus the level-0 probe)"
    [ ("server.requests", 3) ]
    (counters_at 3)

(* ------------------------------------------------------------------ *)
(* Backpressure *)

let sched_config =
  { Scheduler.default_config with queue_capacity = 4; inflight_cap = 3 }

let make_server ?(config = { Server.default_config with sched = sched_config })
    now repo =
  Server.create ~config ~now:(fun () -> !now) repo

let zoom = Wire.Zoom_out { entry = "disease-susceptibility"; run = 0 }
let cheap = Wire.Topk { k = 2; keywords = [ "snp" ] }

let test_deadline_shedding () =
  with_obs @@ fun () ->
  let now = ref 0.0 in
  let server = make_server now (demo_repo ()) in
  (* Three zoom-outs with 10ms deadlines from distinct clients, one
     cheap lookup without a deadline. *)
  let submit client ?deadline_ms req =
    match
      Server.submit server ~client
        (frame ~rid:client ?deadline_ms ~level:1 req)
    with
    | None -> ()
    | Some _ -> Alcotest.fail "unexpected immediate response"
  in
  submit 1 ~deadline_ms:10 zoom;
  submit 2 ~deadline_ms:10 zoom;
  submit 3 ~deadline_ms:10 zoom;
  submit 4 cheap;
  (* One cycle releases the cheap batch and one expensive zoom. *)
  let first = Server.cycle server in
  check Alcotest.int "cheap batch + one expensive released" 2
    (List.length first);
  (* The clock jumps past every deadline: the queued zooms are shed
     with a retryable deadline-exceeded error, not executed. *)
  now := 1.0;
  let rest = Server.drain_all server in
  check Alcotest.int "remaining zooms answered" 2 (List.length rest);
  List.iter
    (fun (_, _, r) ->
      match r with
      | Wire.Error { code = Wire.Deadline_exceeded; retryable = true; _ } -> ()
      | _ -> Alcotest.fail "expected retryable deadline-exceeded")
    rest;
  let shed_records =
    List.filter
      (fun (r : Obs.Audit_log.record) -> r.op = "server.shed")
      (Obs.Audit_log.records ())
  in
  check Alcotest.int "both sheds audited" 2 (List.length shed_records);
  List.iter
    (fun (r : Obs.Audit_log.record) ->
      check Alcotest.string "shed record carries no query text" "" r.query;
      match r.outcome with
      | Obs.Audit_log.Denied { floor } ->
          check Alcotest.int "floor is the requester's level" 1 floor
      | Obs.Audit_log.Allowed -> Alcotest.fail "shed recorded as allowed")
    shed_records

let test_cheap_latency_bounded_under_flood () =
  with_obs @@ fun () ->
  let now = ref 0.0 in
  let server = make_server now (demo_repo ()) in
  (* A queue-filling flood of zoom-outs... *)
  for client = 1 to 4 do
    ignore (Server.submit server ~client (frame ~rid:client ~level:2 zoom))
  done;
  (* ...then one cheap lookup: it must be answered on the very next
     cycle, ahead of the backlog. *)
  (match Server.submit server ~client:9 (frame ~rid:99 ~level:2 cheap) with
  | None -> ()
  | Some _ -> Alcotest.fail "cheap lookup rejected");
  let responses = Server.cycle server in
  let cheap_answered =
    List.exists
      (fun (_, _, r) ->
        match r with
        | Wire.Result { rid = 99; result = Wire.Hits _ } -> true
        | _ -> false)
      responses
  in
  check Alcotest.bool "cheap lookup answered in the first cycle" true
    cheap_answered;
  check Alcotest.bool "zoom backlog still pending" true
    (List.length (Server.drain_all server) = 3)

let test_admission_caps () =
  with_obs @@ fun () ->
  let now = ref 0.0 in
  let server = make_server now (demo_repo ()) in
  (* Per-client in-flight cap (3): the 4th concurrent submit rejects. *)
  for i = 1 to 3 do
    match Server.submit server ~client:7 (frame ~rid:i ~level:0 cheap) with
    | None -> ()
    | Some _ -> Alcotest.fail "within-cap submit rejected"
  done;
  (match Server.submit server ~client:7 (frame ~rid:4 ~level:0 cheap) with
  | Some (Wire.Error { code = Wire.Over_capacity; retryable = true; _ }) -> ()
  | _ -> Alcotest.fail "expected retryable over-capacity (in-flight cap)");
  ignore (Server.drain_all server);
  (* Queue bound (4): distinct clients fill one level queue; the 5th
     rejects. *)
  for client = 11 to 14 do
    match Server.submit server ~client (frame ~rid:client ~level:0 cheap) with
    | None -> ()
    | Some _ -> Alcotest.fail "within-bound submit rejected"
  done;
  (match Server.submit server ~client:15 (frame ~rid:15 ~level:0 cheap) with
  | Some (Wire.Error { code = Wire.Over_capacity; retryable = true; _ }) -> ()
  | _ -> Alcotest.fail "expected retryable over-capacity (queue bound)");
  ignore (Server.drain_all server)

let test_privilege_denial_audited () =
  with_obs @@ fun () ->
  let server =
    Server.create
      ~config:{ Server.default_config with max_level = 3 }
      (demo_repo ())
  in
  (match Server.handle server ~client:0 (frame ~level:7 cheap) with
  | Wire.Error
      { code = Wire.Privilege; retryable = false; floor = Some 7; _ } ->
      ()
  | _ -> Alcotest.fail "expected privilege denial with floor");
  match
    List.filter
      (fun (r : Obs.Audit_log.record) -> r.op = "server.denied")
      (Obs.Audit_log.records ())
  with
  | [ r ] ->
      check Alcotest.int "denial filed at the ceiling" 3 r.level;
      check Alcotest.string "denial carries no query text" "" r.query;
      (match r.outcome with
      | Obs.Audit_log.Denied { floor } ->
          check Alcotest.int "floor is the claimed level" 7 floor
      | Obs.Audit_log.Allowed -> Alcotest.fail "denial recorded as allowed")
  | rs ->
      Alcotest.failf "expected exactly one server.denied record, got %d"
        (List.length rs)

(* ------------------------------------------------------------------ *)
(* Live serving: Append frames interleaved with queries *)

let synthetic_appender ~entry ~workload ~seed =
  (match workload with
  | None | Some "synthetic" -> ()
  | Some w -> invalid_arg (Printf.sprintf "unknown workload %S" w));
  let spec, exec = Synthetic.run (Rng.create seed) Synthetic.default_params in
  Repository.Add_entry
    { entry_name = entry; policy = Policy.make spec; executions = [ exec ] }

(* A live server over a durable store seeded with the demo corpus. *)
let with_live_server f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Durable_repo.init (Filename.concat dir "store") in
  Fun.protect ~finally:(fun () -> Durable_repo.close store) @@ fun () ->
  ignore
    (Durable_repo.append store
       (Repository.Add_entry
          {
            entry_name = "disease-susceptibility";
            policy = disease_policy;
            executions = [ Disease.run () ];
          }));
  ignore
    (Durable_repo.append store
       (Repository.Add_entry
          {
            entry_name = "clinical-trial";
            policy = Clinical.policy;
            executions = [ Clinical.run () ];
          }));
  let live = Live_repo.of_store store in
  let now = ref 0.0 in
  let server = Server.create_live ~now:(fun () -> !now) ~appender:synthetic_appender live in
  f server live

let test_frozen_rejects_append () =
  with_obs @@ fun () ->
  let server = Server.create (demo_repo ()) in
  match
    Server.handle server ~client:0
      (frame ~level:0 (Wire.Append { entry = "x"; workload = None; seed = 1 }))
  with
  | Wire.Error { code = Wire.Bad_request; retryable = false; _ } -> ()
  | _ -> Alcotest.fail "frozen backing must refuse appends"

let test_live_interleaved_appends () =
  with_obs @@ fun () ->
  with_live_server @@ fun server live ->
  check Alcotest.int "starts at generation 0" 0 (Server.generation server);
  let submit client req =
    match
      Server.submit server ~client (frame ~rid:client ~level:9 req)
    with
    | None -> ()
    | Some r ->
        Alcotest.failf "unexpected immediate response %s"
          (Wire.encode_response Wire.Json r)
  in
  (* Two appends from distinct clients interleaved with queries: each
     expensive append batch commits durably and publishes its own
     epoch, while the queries answer against a pinned generation. *)
  submit 1 (Wire.Append { entry = "syn-a"; workload = None; seed = 7 });
  submit 2 (Wire.Topk { k = 3; keywords = [ "snp" ] });
  submit 3
    (Wire.Append { entry = "syn-b"; workload = Some "synthetic"; seed = 8 });
  submit 4
    (Wire.Query
       { entry = "disease-susceptibility"; run = 0; queries = [ "node(*)" ] });
  let responses = Server.drain_all server in
  check Alcotest.int "every frame answered" 4 (List.length responses);
  let committed =
    List.filter_map
      (fun (_, _, r) ->
        match r with
        | Wire.Result { result = Wire.Committed { generation; lsn }; _ } ->
            Some (generation, lsn)
        | _ -> None)
      responses
  in
  (match List.sort compare committed with
  | [ (g1, l1); (g2, l2) ] ->
      check Alcotest.int "first streamed epoch" 1 g1;
      check Alcotest.int "second streamed epoch" 2 g2;
      check Alcotest.bool "commit lsns advance" true (l2 > l1)
  | l ->
      Alcotest.failf "expected 2 Committed responses, got %d" (List.length l));
  check Alcotest.int "server republished the epochs" 2
    (Server.generation server);
  (* An appender refusal surfaces as a per-frame bad-request. *)
  (match
     Server.handle server ~client:5
       (frame ~rid:50 ~level:9
          (Wire.Append { entry = "syn-c"; workload = Some "nope"; seed = 9 }))
   with
  | Wire.Error { code = Wire.Bad_request; retryable = false; _ } -> ()
  | _ -> Alcotest.fail "unknown workload must be refused");
  (* A duplicate entry name fails validation without committing. *)
  (match
     Server.handle server ~client:6
       (frame ~rid:60 ~level:9
          (Wire.Append { entry = "syn-a"; workload = None; seed = 10 }))
   with
  | Wire.Error { code = Wire.Bad_request; retryable = false; _ } -> ()
  | _ -> Alcotest.fail "duplicate entry must be refused");
  check Alcotest.int "failed appends publish nothing" 2
    (Server.generation server);
  (* The served answers now equal a frozen server over a frozen rebuild
     of the pinned generation — response-for-response. *)
  let g = Live_repo.pin live in
  let frozen = Server.create g.Live_repo.gen_repo in
  let ask srv req =
    Wire.encode_response Wire.Json
      (Server.handle srv ~client:9 (frame ~rid:77 ~level:9 req))
  in
  let vocab = Synthetic.default_params.Synthetic.keyword_vocabulary in
  List.iter
    (fun req ->
      check Alcotest.string "live answer = frozen rebuild answer"
        (ask frozen req) (ask server req))
    [
      Wire.Topk { k = 5; keywords = [ List.nth vocab 0; List.nth vocab 1 ] };
      Wire.Topk { k = 4; keywords = [ "snp"; List.nth vocab 2 ] };
      Wire.Query { entry = "syn-a"; run = 0; queries = [ "node(*)" ] };
      Wire.Query
        { entry = "disease-susceptibility"; run = 0;
          queries = [ "node(~\"risk\")" ] };
    ]

(* ------------------------------------------------------------------ *)
(* Scheduler batching *)

let test_batch_fusion () =
  let sched = Scheduler.create ~now:(fun () -> 0.0) () in
  List.iteri
    (fun i key ->
      match
        Scheduler.admit sched ~client:i ~level:0 ~cost:Scheduler.Cheap key
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "admit rejected")
    [ "a"; "a"; "a"; "b"; "a" ];
  (* One cheap batch per level per cycle: the fused leading run, then
     the key that broke it, then the trailing item. *)
  let next () =
    match Scheduler.drain sched ~batch_key:Fun.id () with
    | [ Scheduler.Batch items ] ->
        List.map (fun (i : string Scheduler.item) -> i.payload) items
    | evs ->
        Alcotest.failf "unexpected drain shape (%d events)" (List.length evs)
  in
  check (Alcotest.list Alcotest.string) "leading run fused" [ "a"; "a"; "a" ]
    (next ());
  check (Alcotest.list Alcotest.string) "different key breaks the batch"
    [ "b" ] (next ());
  check (Alcotest.list Alcotest.string) "trailing item batches alone" [ "a" ]
    (next ());
  check Alcotest.int "queues drained" 0 (Scheduler.pending sched)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        List.map QCheck_alcotest.to_alcotest
          [ roundtrip_request; roundtrip_response; truncation_needs_more ]
        @ [
            Alcotest.test_case "frame rejection" `Quick test_frame_rejection;
            Alcotest.test_case "bad module index is a bad-request" `Quick
              test_bad_module_index;
          ]
      );
      ( "leakage",
        [
          Alcotest.test_case "cache transparent" `Quick test_cache_transparent;
          Alcotest.test_case "keys partitioned by level" `Quick
            test_cache_partitioned_by_level;
          Alcotest.test_case "no cross-level interference" `Quick
            test_no_cross_level_interference;
          Alcotest.test_case "stats observer view" `Quick
            test_stats_observer_view;
          Alcotest.test_case "privilege denial audited" `Quick
            test_privilege_denial_audited;
        ] );
      ( "live",
        [
          Alcotest.test_case "frozen backing refuses appends" `Quick
            test_frozen_rejects_append;
          Alcotest.test_case "interleaved appends and queries" `Quick
            test_live_interleaved_appends;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "deadline shedding" `Quick test_deadline_shedding;
          Alcotest.test_case "cheap latency bounded" `Quick
            test_cheap_latency_bounded_under_flood;
          Alcotest.test_case "admission caps" `Quick test_admission_caps;
          Alcotest.test_case "batch fusion" `Quick test_batch_fusion;
        ] );
    ]
