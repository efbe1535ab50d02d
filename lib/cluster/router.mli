(** The routing evaluator behind [gossip_router]: N shards, one service.

    A router is an ordinary {!Gossip_serve.Server} whose [evaluate]
    forwards instead of computing.  Requests whose result is a pure
    function of their parameters — [tables] / [bound] / [simulate] /
    [simulate_implicit] / [certify], exactly the ops the shards'
    {!Core.Context} memoizes — are routed by {e consistent hashing on
    their {!routing_key}}, so identical queries always land on the same
    shard's warm cache (the fingerprint-affinity property the CI soak
    audits).  Keyless ops ([ping] / [version] / [sleep]) round-robin
    over the alive shards.

    Placement comes from a {!Ring} over the shards the {!Membership}
    table currently believes routable — [alive] and [suspect] members;
    [draining] and [dead] are excluded, which {e is} the drain: mark a
    shard draining and no new key reaches it while its in-flight work
    completes.  The ring is rebuilt only when the membership
    {!Membership.generation} moves, and each request tries up to
    [replicas] ring candidates ordered alive-before-suspect, stepping
    to the next on transport failure or a shard-side [shutting_down];
    a [bad_request] / [oversized_frame] is the client's own and is
    relayed, never masked by a retry.

    Observability ops aggregate: [metrics] / [health] / [stats] /
    [trace_pull] fan out to every non-dead shard and come back as
    [gossip-cluster-*/1] envelopes wrapping the router's own numbers,
    each shard's reply (or the reason it could not be fetched), the
    membership view and the ring spec.

    Distributed tracing: the router is the {e trace edge}.  A routed
    request that arrives without context gets one minted here,
    head-sampled by [sample_rate] (the verdict is a pure function of
    the trace id, so every node agrees without coordination); a request
    that already carries context keeps it.  Every forwarding attempt —
    including each replica failover — runs in its own
    ["router.forward"] hop span tagged [trace_id] / [span_id] / [peer]
    / [addr], and the downstream envelope is re-parented onto that hop
    span, so the stitched waterfall shows exactly which attempts were
    made, what each cost on the wire, and where the request finally
    landed.  [trace_pull] aggregates fleet-wide: the router's own
    recent-event ring plus one pull per reachable shard
    ([gossip-cluster-traces/1]).  Health is degraded while any member is suspect, an
    alive shard is unreachable or reports degraded, or no shard is
    routable — a [dead] member is a {e settled} failure and a
    [draining] one a voluntary exit; neither alone degrades the fleet.
    Version disagreement across the fleet raises the
    ["cluster.version_skew"] gauge and a once-per-node warning
    (satellite of {!Core.Version} stamping).

    Thread-safety: [evaluate] runs on the router server's worker
    domains; each domain keeps its own {!Transport} (domain-local
    state), the ring cache has its own mutex. *)

module Json = Gossip_util.Json
module Wire = Gossip_serve.Wire

(** [routing_key op] — the canonical affinity key ([Some] for the
    memoized analysis ops: the op name and its exact parameters,
    serialized canonically), or [None] for ops with no cacheable
    result.  Loadgen recomputes this to audit per-shard counters. *)
val routing_key : Wire.op -> string option

type t

(** [create ~membership ~metrics ()] — a router over [membership]
    (whose table supplies the shards) reporting its own server's
    [metrics] in aggregates.  [vnodes] (default 64) and [replicas]
    (default 2) shape the ring; [sample_rate] (default 1.0, clamped to
    \[0,1\] by the decision itself) head-samples the traces the router
    mints for context-free requests; [policy] (default
    {!Transport.default_policy}) governs the per-domain forwarding
    clients; [seed] their jitter. *)
val create :
  membership:Membership.t ->
  metrics:Gossip_serve.Metrics.t ->
  ?vnodes:int ->
  ?replicas:int ->
  ?sample_rate:float ->
  ?policy:Gossip_serve.Resilient_client.policy ->
  ?seed:int ->
  unit ->
  t

(** The ring over the currently-routable shards (rebuilt on demand). *)
val ring : t -> Ring.t

(** The server [evaluate] described above; [trace] is the request's
    envelope context (minted here when absent).  Safe from several
    worker domains. *)
val evaluate :
  t ->
  trace:Gossip_util.Trace.t option ->
  Wire.op ->
  (Json.t, Wire.error_code * string) result
