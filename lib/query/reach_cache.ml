(* One LRU-evicting table of prepared engines per user group (whole
   prepared views, whose bitset closures are memoized inside the
   Engine.t, so a cached engine answers repeated structural queries with
   zero re-preparation). Executions are immutable, so entries never
   invalidate; eviction only bounds memory. Recency is a monotone tick
   stamped on every hit and insert; eviction scans for the stalest slot
   — O(capacity), fine at the few-hundred capacities this cache runs
   at, and it buys exact LRU without an intrusive list. *)

(* Every cache instance also mirrors its per-instance stats into three
   process-wide counters, so `wfpriv stats` sees cache behaviour without
   threading cache handles through the CLI. Op-scope: a cache serves
   whole user groups, not one privilege level. *)
module Obs = Wfpriv_obs

let m_hits = Obs.Registry.counter "cache.hits"
let m_misses = Obs.Registry.counter "cache.misses"
let m_evictions = Obs.Registry.counter "cache.evictions"

type slot = { value : Engine.t; mutable last_used : int }
type stats = { hits : int; misses : int; evictions : int; entries : int }

type t = {
  engines : (string, slot) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Reach_cache.create: capacity < 1";
  {
    engines = Hashtbl.create 64;
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let group_key ?(generation = 0) ?(shards = 1) ~entry ~run ~prefix () =
  (* Executions are immutable once stored, so engine entries for a
     given (entry, run) stay valid across epochs and the generation
     defaults to 0 — keys are then byte-identical to the frozen ones.
     Callers that must re-key per epoch (anything derived from the whole
     corpus rather than one stored run) pass the generation; callers
     reading a sharded store pass its shard count, since its generation
     counter only means something within one topology. *)
  let epoch = if generation = 0 then "" else Printf.sprintf "@g%d" generation in
  let topology = if shards <= 1 then "" else Printf.sprintf "@s%d" shards in
  Printf.sprintf "%s/%d/{%s}%s%s" entry run
    (String.concat "," prefix)
    epoch topology

(* Evict the least-recently-used slot (ties broken towards the smaller
   key, so eviction order is deterministic). *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k slot best ->
        match best with
        | Some (_, bu) when bu < slot.last_used -> best
        | Some (bk, bu) when bu = slot.last_used && bk < k -> best
        | _ -> Some (k, slot.last_used))
      t.engines None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.engines k;
      t.evictions <- t.evictions + 1;
      Obs.Counter.incr_op m_evictions
  | None -> ()

let engine t ~key view =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.engines key with
  | Some slot ->
      t.hits <- t.hits + 1;
      Obs.Counter.incr_op m_hits;
      slot.last_used <- t.tick;
      slot.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.Counter.incr_op m_misses;
      let v = Engine.of_exec_view (Lazy.force view) in
      if Hashtbl.length t.engines >= t.capacity then evict_lru t;
      Hashtbl.replace t.engines key { value = v; last_used = t.tick };
      v

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let entries t = Hashtbl.length t.engines

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = entries t;
  }

let clear t =
  Hashtbl.reset t.engines;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
