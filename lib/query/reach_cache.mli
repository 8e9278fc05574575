(** Prepared-engine caching keyed by user group (paper Sec. 4: "another
    promising direction is to consider user groups when utilizing cached
    information during query processing").

    Users sharing an access prefix see the same collapsed execution view,
    so one prepared engine — and the transitive closure it memoizes —
    serves the whole group. The cache maps a caller-supplied key —
    canonically [entry-name / run-index / prefix] — to that engine;
    [Before]-style queries then answer in O(1) per node pair instead of
    a DFS per pair, and a hit builds no view at all.

    The cache never invalidates on its own: executions are immutable, so
    a key's engine is valid forever; evict only to bound memory. The
    table is bounded by [capacity] with exact LRU eviction (recency
    bumped on every hit), so long-lived processes serving many sessions
    keep the hot user groups and shed the stale ones. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of cached engines (default 256);
    eviction is least-recently-used, ties broken deterministically. *)

val group_key :
  ?generation:int ->
  ?shards:int ->
  entry:string ->
  run:int ->
  prefix:Wfpriv_workflow.Ids.workflow_id list ->
  unit ->
  string
(** Canonical key for a user group's view of one stored run. Stored runs
    are immutable, so the key is epoch-free by default (generation 0 —
    byte-identical to the historical key) and cached engines stay
    shareable across a live repository's generations; a non-zero
    [generation] suffixes the key for callers whose cached value depends
    on the whole corpus at one epoch, and [shards > 1] (default 1)
    additionally suffixes the shard topology — a sharded store's
    generation counter is only comparable within one layout. *)

val engine : t -> key:string -> Wfpriv_workflow.Exec_view.t Lazy.t -> Engine.t
(** Cached {e prepared engine} for the group's view: dense arrays plus
    the memoized bitset closure. The view is forced, and the engine
    prepared, only on a miss — a hit costs one table probe. *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Slots dropped to stay within capacity. *)

val entries : t -> int
(** Cached engines. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
(** One snapshot of all counters — what the bench tables report. *)

val clear : t -> unit
