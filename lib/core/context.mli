(** Shared memoizing analysis context — the pipeline's artifact store.

    Every bound in the paper is assembled from the same handful of
    intermediate artifacts: the delay digraph of a protocol expansion,
    the norm [‖M(λ)‖], the critical roots [λ*(s)], BFS diameters and
    measured gossip times.  Historically each layer — {!Analysis},
    {!Gossip_bounds.Oracle}, {!Gossip_delay.Certificate}, the benchmark
    harness — rebuilt them independently; a context caches them once and
    hands them to every consumer.

    Keys combine a structural {e fingerprint} of the graph or protocol
    with the remaining parameters (mode, λ, expansion length, …), so two
    structurally different networks of equal size never collide while
    re-analysing the same network is free.  The store is bounded:
    [capacity] entries across all artifact kinds, evicting the least
    recently used entry first.  Hits, misses and evictions are counted
    and always mirrored into the {!Gossip_util.Instrument} counters
    ["context.hit"] / ["context.miss"] / ["context.evict"], with the
    current occupancy on the ["context.entries"] gauge.

    A context is cheap to create and safe to share across sequential
    analyses; concurrent callers from several domains are tolerated (the
    bookkeeping is mutex-protected) though a racing miss may compute an
    artifact twice — results are unaffected because every artifact
    builder is deterministic. *)

type t

(** Cache accounting snapshot. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** currently cached artifacts, all kinds *)
  capacity : int;
}

(** Per-artifact-kind accounting snapshot (one artifact table each). *)
type kind_stats = {
  k_hits : int;
  k_misses : int;
  k_evictions : int;
  k_entries : int;
}

(** [create ?capacity ?domains ()] — an empty context.  [capacity]
    (default 4096) bounds the total number of cached artifacts;
    [domains], when given, is passed to every parallel artifact builder
    this context invokes (BFS diameter sweeps, blockwise norms),
    otherwise the process-wide {!Gossip_util.Parallel} default applies.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> ?domains:int -> unit -> t

(** [domains ctx] is the worker-count override the context was created
    with. *)
val domains : t -> int option

(** {1 Fingerprints} *)

(** [fingerprint g] — structural digest of a network: name, sizes and a
    rolling hash over the full arc list.  Distinct arc lists of equal
    size yield different fingerprints (up to hash collision over 62
    bits). *)
val fingerprint : Gossip_topology.Digraph.t -> string

(** [protocol_fingerprint sys] — digest of a systolic protocol: graph
    fingerprint, mode, and the arcs of every period round. *)
val protocol_fingerprint : Gossip_protocol.Systolic.t -> string

(** {1 Cached artifacts} *)

(** [diameter ctx g] — {!Gossip_topology.Metrics.diameter}, cached per
    graph fingerprint. *)
val diameter : t -> Gossip_topology.Digraph.t -> int

(** [delay_digraph ctx sys ~length] —
    {!Gossip_delay.Delay_digraph.of_systolic}, cached per (protocol,
    length). *)
val delay_digraph :
  t -> Gossip_protocol.Systolic.t -> length:int -> Gossip_delay.Delay_digraph.t

(** [norm ctx dg lambda] — the bracket on [‖M(λ)‖] from
    {!Gossip_delay.Delay_matrix.norm_blockwise}, cached per (delay
    digraph, λ).  This is the pipeline's hottest artifact: certificate λ
    sweeps, refinement passes and norm tables all query it repeatedly at
    identical λ. *)
val norm :
  t -> Gossip_delay.Delay_digraph.t -> float -> Gossip_linalg.Spectral.bracket

(** [lambda_star ctx ~mode s] — the critical root [λ*(s)] of the mode's
    norm function ({!Gossip_bounds.General.lambda_star} /
    [lambda_star_fd]), cached per (mode class, s).  Directed and
    half-duplex share a root.
    @raise Invalid_argument if [s < 3]. *)
val lambda_star : t -> mode:Gossip_protocol.Protocol.mode -> int -> float

(** [gossip_time ctx ?cap sys] — measured completion time by
    {!Gossip_simulate.Engine.gossip_time}, cached per (protocol, cap). *)
val gossip_time : t -> ?cap:int -> Gossip_protocol.Systolic.t -> int option

(** [fault_certificate ctx ~fingerprint ~k ~seed ~budget ~cap ~compute]
    — a [gossip-fault-cert/1] artifact, cached per
    [(fingerprint, k, seed, budget, cap)].  The certifier lives in
    [Gossip_simulate.Certifier], {e below} this library, so the context
    stores the finished JSON artifact and takes the expensive decision
    procedure as a closure; [fingerprint] must be
    [Certifier.fingerprint] of the scheme being certified and [cap] the
    {e requested} round budget ([-1] when the certifier derives its
    default) — certification is deterministic given exactly that key. *)
val fault_certificate :
  t ->
  fingerprint:string ->
  k:int ->
  seed:int ->
  budget:int ->
  cap:int ->
  compute:(unit -> Gossip_util.Json.t) ->
  Gossip_util.Json.t

(** {1 Context-aware pipeline entry points} *)

(** [certify ctx ?refine dg ~mode] —
    {!Gossip_delay.Certificate.certify} with this context's cached norm
    evaluator injected: the λ grid, the refinement sweep (which revisits
    the coarse winner's λ) and any later certificate over the same delay
    digraph reuse norm solves.  Returns exactly what the uncontexted
    call returns. *)
val certify :
  t ->
  ?refine:bool ->
  Gossip_delay.Delay_digraph.t ->
  mode:Gossip_protocol.Protocol.mode ->
  Gossip_delay.Certificate.t

(** [lower_bounds ctx ?family g ~mode ~s] —
    {!Gossip_bounds.Oracle.lower_bounds} with the diameter served from
    the cache; identical values with and without a context. *)
val lower_bounds :
  t ->
  ?family:string ->
  Gossip_topology.Digraph.t ->
  mode:Gossip_protocol.Protocol.mode ->
  s:int option ->
  Gossip_bounds.Oracle.t

(** {1 Accounting} *)

(** [stats ctx] — current hit/miss/eviction/occupancy counters. *)
val stats : t -> stats

(** [stats_by_kind ctx] — the same counters broken down per artifact
    kind, in a fixed order: ["diameter"], ["delay_digraph"], ["norm"],
    ["lambda_star"], ["gossip_time"], ["fault_cert"].  The kind totals sum to
    {!stats}. *)
val stats_by_kind : t -> (string * kind_stats) list

(** [reset_stats ctx] zeroes the counters, keeping cached artifacts. *)
val reset_stats : t -> unit

(** [clear ctx] drops every cached artifact and zeroes the counters. *)
val clear : t -> unit

(** [stats_json ctx] — the counters as a JSON object [{hits, misses,
    evictions, entries, capacity, by_kind, resource}], where [by_kind]
    maps each artifact kind to its own
    [{hits, misses, evictions, entries}] ({!stats_by_kind}) and
    [resource] is a point-in-time {!Gossip_util.Resource} snapshot
    (heap, RSS, GC counts) — cache-size tuning needs memory numbers
    next to hit rates; embedded in every [--json] CLI result, in the
    bench report's ["cache"] field, and in the server's [stats] op —
    which is what makes live cache behaviour visible per artifact. *)
val stats_json : t -> Gossip_util.Json.t

(** [pp_stats ppf ctx] — one-line human-readable summary, e.g.
    [cache: 37 hits, 12 misses (75.5% hit rate), 0 evictions, 12/4096
    entries]. *)
val pp_stats : Format.formatter -> t -> unit
