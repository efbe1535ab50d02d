(** Live observability state of a serving process.

    One value of this type holds everything the [metrics] and [health]
    operations expose: per-operation rolling windows
    ({!Gossip_util.Rolling} — one 300-slot window of 1-second slots per
    op, snapshotted over the last 10s / 1m / 5m), cumulative per-op
    totals, queue-depth / in-flight / connection gauges, and per-worker
    busy stamps backing the wedged-worker detection.

    All updates are cheap and safe from concurrent worker domains and
    reader threads: rolling windows carry their own mutexes, gauges and
    busy stamps are atomics.

    Health semantics: the server is {e degraded} when the bounded queue
    is saturated (depth ≥ capacity — new requests are being refused
    with [queue_full]), when any worker has been busy on one request
    for longer than the wedge deadline ([wedge_ms], default 30s) —
    liveness, not load: a wedged worker means requests can stall
    indefinitely — when the worker pool is incomplete (a worker domain
    died and its supervisor respawn has not landed yet), or when the
    last resource sample ({!note_resource}, fed by the daemon's
    background {!Gossip_util.Resource} sampler) shows the GC heap past
    [max_heap_mb] — a runaway heap will take the process down with it.
    A degraded server still {e answers} [health] (the reader thread
    evaluates it, bypassing the queue); readiness is the consumer's
    decision based on [status]. *)

type t

(** [create ?node ?clock ?wedge_ms ?max_heap_mb ~workers ~queue_capacity ()]
    — fresh state for a server with [workers] worker domains and a
    bounded queue of [queue_capacity] (0 means "no queue": the
    saturation check is disabled).  [node] (default: absent) is the
    process's cluster node id; when set, {!metrics_json} and
    {!health_json} carry it as a top-level ["node"] field so fleet
    aggregates and per-shard scrapes stay attributable.  [wedge_ms]
    (default 30_000) is the busy deadline past which a worker counts as
    wedged.  [max_heap_mb] (default 0 = disabled) degrades health once a
    {!note_resource} sample shows the GC heap above it.  [clock]
    (default {!Gossip_util.Instrument.now_ns}) drives the rolling
    windows and busy stamps; injectable for tests. *)
val create :
  ?node:string ->
  ?clock:(unit -> int64) ->
  ?wedge_ms:int ->
  ?max_heap_mb:float ->
  workers:int ->
  queue_capacity:int ->
  unit ->
  t

(** {1 Feeding} *)

(** [observe ?trace_id t ~op ~ok ~queue_wait_s ~service_s] records one
    answered request: latency into the op's rolling window and
    cumulative totals; [ok = false] also bumps the op's rolling and
    cumulative error counts.  Call {e before} sending the reply, so a
    client that has all its replies reads totals that already include
    them.  [trace_id] (the request's sampled distributed-trace id, when
    it carried one) feeds the op's worst-latency {e exemplar}: the
    trace id surfaced next to the op's aggregates in {!metrics_json},
    replaced when a slower traced request arrives or the current holder
    ages past the longest window. *)
val observe :
  ?trace_id:string ->
  t ->
  op:string ->
  ok:bool ->
  queue_wait_s:float ->
  service_s:float ->
  unit

(** [observe_rejected t ~op ~code] records a request answered with an
    error at admission ([queue_full], [shutting_down]) or dequeue
    ([deadline_exceeded]): counted as an error with zero service time. *)
val observe_rejected : t -> op:string -> code:string -> unit

(** [set_queue_depth t n] — the bounded queue's current occupancy. *)
val set_queue_depth : t -> int -> unit

(** [worker_busy t w] / [worker_idle t w] stamp worker [w] (0-based) as
    having started / finished a job; the busy duration backs the wedge
    check. *)
val worker_busy : t -> int -> unit

val worker_idle : t -> int -> unit

(** [conn_opened t] / [conn_closed t] track the open-connection gauge. *)
val conn_opened : t -> unit

val conn_closed : t -> unit

(** [note_worker_restart t] — a supervisor respawned a dead worker
    domain; cumulative, exposed as the [worker_restarts] gauge. *)
val note_worker_restart : t -> unit

(** [set_workers_missing t n] — [n] worker slots are currently dead
    (crashed, respawn pending).  A non-zero value degrades health. *)
val set_workers_missing : t -> int -> unit

(** [note_write_error t] — a reply write failed (EPIPE / ECONNRESET,
    i.e. the client vanished); the connection was closed, the worker
    survived. *)
val note_write_error : t -> unit

(** [note_resource t snap] — record the latest process-resource sample.
    The daemon's background {!Gossip_util.Resource} sampler calls this
    about once a second; [metrics_json] derives its per-second GC/
    allocation rates from the two most recent samples, and the heap
    health check reads the latest one. *)
val note_resource : t -> Gossip_util.Resource.snapshot -> unit

(** [last_resource t] — the most recent {!note_resource} sample. *)
val last_resource : t -> Gossip_util.Resource.snapshot option

(** {1 Reading} *)

(** Cumulative supervisor respawns. *)
val worker_restarts : t -> int

(** Dead worker slots right now (0 once the pool is whole). *)
val workers_missing : t -> int

(** Cumulative reply-write failures tolerated. *)
val write_errors : t -> int

(** [healthy t] — [true] iff neither degradation condition holds. *)
val healthy : t -> bool

(** [metrics_json t] — versioned snapshot (schema [gossip-metrics/1]):
    uptime, gauges ([queue_depth], [queue_capacity], [in_flight],
    [workers], [workers_missing], [worker_restarts], [write_errors],
    [connections]), a [resource] object (the latest {!note_resource}
    sample plus [alloc_words_per_s] / [minor_collections_per_s] /
    [major_collections_per_s] rates; [null] before the first sample),
    [windows.{10s,1m,5m}] with per-op
    [{count, errors, rps, latency_ms: {mean,p50,p95,p99,max}}] and a
    queue-wait histogram summary, and cumulative [totals] per op — each
    total carrying the op's worst-latency trace [exemplar]
    [{trace_id, latency_ms, age_s}] while one is fresh.
    Documented in [doc/serving.md]. *)
val metrics_json : t -> Gossip_util.Json.t

(** [health_json t] — versioned probe result (schema [gossip-health/1]):
    [status] (["ok"] | ["degraded"]), [ok] boolean, human-readable
    [reasons] for the degradation, queue depth/capacity/saturation,
    in-flight and wedged worker counts, [heap_mb] / [rss_mb] from the
    latest resource sample ([null] before the first), the configured
    [max_heap_mb] ([null] when the heap check is off), uptime. *)
val health_json : t -> Gossip_util.Json.t

(** [spans_json ()] — the process's span aggregates as a versioned
    snapshot (schema [gossip-spans/1]); a thin wrapper over
    {!Gossip_util.Instrument.spans} with per-span p50/p95. *)
val spans_json : unit -> Gossip_util.Json.t

(** [traces_json t ~max] — drain the process's recent-event ring
    ({!Gossip_util.Instrument.ring_drain}) into a versioned snapshot
    (schema [gossip-traces/1]): the newest [max] JSONL trace events in
    chronological order, the number of events [dropped] (overwritten or
    cut by [max]) and this process's node id.  The payload behind the
    [trace_pull] operation; destructive — each event is returned once. *)
val traces_json : t -> max:int -> Gossip_util.Json.t
