(** The serving layer's result cache, partitioned by privilege level.

    One cache is shared by every session the server multiplexes, so the
    hard invariant of Davidson et al.'s per-level view semantics applies:
    a cache hit must never reveal what a differently-privileged session
    computed. The discipline is entirely in the key: entries are keyed
    by [(access-view fingerprint, request digest)], where the
    fingerprint is {!Wfpriv_query.Access_gate.fingerprint} — a canonical
    rendering of the caller's visibility whose privilege level is a
    syntactic prefix. Two sessions collide on a key iff they have the
    same level {e and} the same access view {e and} asked the same
    question, in which case sharing the answer reveals nothing: it is
    bit-identical to what the reader would have computed alone (the
    leakage suite pins this with the cache on and off).

    Eviction is exact LRU under a fixed capacity, the {!Reach_cache}
    discipline: entries never invalidate (the served repository is
    immutable), they are only shed to bound memory. Hits and misses are
    recorded per privilege level ([server.cache_hits] /
    [server.cache_misses]), so the observer view of cache behaviour is
    itself partitioned. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the entry count (default 1024); eviction is
    least-recently-used, ties broken deterministically. Raises
    [Invalid_argument] if [capacity < 1]. *)

type key

val key : fingerprint:string -> request:string -> key
(** The canonical cache key, rendered [fingerprint ^ "|" ^ request] by
    {!keys}. The fingerprint comes first, so every key of level [l]
    starts with [l]'s fingerprint prefix — the partition is syntactic,
    which is what {!keys} lets tests assert. *)

val find : t -> level:int -> key -> Wire.result option
(** Bumps recency and the per-level hit/miss counters. *)

val add : t -> key -> Wire.result -> unit
(** Insert (or refresh) an entry, evicting the LRU slot when full. *)

val keys : t -> string list
(** Every resident key, rendered and sorted — the leakage suite checks
    that all keys carry their level's fingerprint prefix and that
    flushing one level's traffic never resides under another level's
    prefix. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
val clear : t -> unit
