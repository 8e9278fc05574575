(* LRU result cache over (fingerprint, request digest) keys — the
   Reach_cache discipline (monotone tick, stalest-slot scan, ties to the
   smaller key) applied to wire results. Entries never invalidate: the
   repository being served is immutable, so eviction only bounds
   memory. *)

module Obs = Wfpriv_obs

let m_hits = Obs.Registry.counter "server.cache_hits"
let m_misses = Obs.Registry.counter "server.cache_misses"
let m_evictions = Obs.Registry.counter "server.cache_evictions"

type key = string * string
type slot = { value : Wire.result; mutable last_used : int }
type stats = { hits : int; misses : int; evictions : int; entries : int }

type t = {
  table : (key, slot) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Level_cache.create: capacity < 1";
  { table = Hashtbl.create 64; capacity; tick = 0; hits = 0; misses = 0;
    evictions = 0 }

(* Held as its two parts: a fingerprint lists every visible module, so
   concatenating it per lookup would copy tens of kilobytes per request
   into the major heap. *)
let key ~fingerprint ~request = (fingerprint, request)

let find t ~level k =
  match Hashtbl.find_opt t.table k with
  | Some slot ->
      t.hits <- t.hits + 1;
      Obs.Counter.incr m_hits ~at:level;
      t.tick <- t.tick + 1;
      slot.last_used <- t.tick;
      Some slot.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.Counter.incr m_misses ~at:level;
      None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k slot best ->
        match best with
        | Some (_, bu) when bu < slot.last_used -> best
        | Some (bk, bu) when bu = slot.last_used && bk < k -> best
        | _ -> Some (k, slot.last_used))
      t.table None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1;
      Obs.Counter.incr_op m_evictions
  | None -> ()

let add t k value =
  if not (Hashtbl.mem t.table k) && Hashtbl.length t.table >= t.capacity then
    evict_lru t;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table k { value; last_used = t.tick }

let keys t =
  Hashtbl.fold (fun (fp, request) _ acc -> (fp ^ "|" ^ request) :: acc) t.table
    []
  |> List.sort compare

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
  }

let clear t =
  Hashtbl.reset t.table;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
