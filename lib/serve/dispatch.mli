(** Request evaluation against one shared memoizing context.

    The dispatcher is the bridge between typed {!Wire.op} values and the
    analysis library: every data-producing operation computes exactly
    what the corresponding [gossip_lab --json] subcommand computes, with
    all heavy artifacts (delay digraphs, norm solves, diameters, λ*
    roots, gossip times) served from one process-wide {!Core.Context} —
    so repeated queries are cache hits, which is the point of running a
    server instead of one-shot CLIs.

    [tables] responses are additionally memoized whole (keyed by their
    parameters) in a small dispatcher-local store, counted on the
    ["serve.tables_memo.hit"/"miss"] instrument counters.

    Evaluation is safe from several worker domains at once: the context
    is internally synchronized and the memo has its own mutex. *)

type t

(** [create ?ctx ?metrics ()] — a dispatcher over [ctx] (default: a
    fresh {!Core.Context} sized for serving, with artifact builders
    pinned to one domain each — parallelism comes from concurrent
    workers, not from nested spawns).  [metrics] is the live
    observability state the [metrics] / [health] / [spans] ops answer
    from; the server passes its own so dispatcher answers reflect the
    real queue and workers, a standalone dispatcher defaults to an
    inert one ([workers:0], no queue). *)
val create : ?ctx:Core.Context.t -> ?metrics:Metrics.t -> unit -> t

val context : t -> Core.Context.t

(** [set_cluster_handler d h] — route the cluster-plane operations
    ([gossip] / [digest] / [drain]) to [h]; [h]'s [Error] strings become
    [bad_request] replies.  Installed by a process that joined a cluster
    ({!Gossip_cluster.Membership.handle}); without a handler those ops
    answer [bad_request: not a cluster member].  [h] must be safe to
    call from several worker domains. *)
val set_cluster_handler :
  t -> (Wire.op -> (Gossip_util.Json.t, string) result) -> unit

(** [eval d op] — the ["result"] payload for [op], or an error code and
    message.  Validation failures that only surface at evaluation time
    (an unparsable inline protocol, a network too large to simulate)
    come back as [Bad_request]; unexpected exceptions as [Internal].
    Never raises. *)
val eval :
  t -> Wire.op -> (Gossip_util.Json.t, Wire.error_code * string) result
