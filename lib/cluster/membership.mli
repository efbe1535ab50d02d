(** Epidemic cluster membership: who is in the fleet, and in what state.

    Every process keeps a {e versioned node table} — one {!entry} per
    known node carrying [(incarnation, heartbeat)] freshness and a
    lifecycle {!status} — and rumor-spreads it by periodic push/pull
    over the ordinary wire protocol ({!Gossip_serve.Wire.op}'s [gossip]
    / [digest] ops), exactly the randomized gossip whose round
    complexity the library's own theory bounds.

    {2 Merge precedence}

    For two copies of the same node's entry, the winner is decided
    {e lexicographically on [(incarnation, heartbeat)]}; on a tie the
    {e more severe} status wins ([alive < suspect < draining < dead]).
    Consequences, each tested in [test/test_cluster.ml]:

    - a node refreshes itself by bumping [heartbeat] every tick, so its
      own copy dominates stale rumors;
    - suspicion spreads at the suspected entry's exact [(inc, hb)] —
      severity breaks the tie — but {e any} fresher heartbeat refutes
      it;
    - a node that hears itself called suspect/dead with a freshness it
      cannot beat {e bumps its incarnation} (the classic SWIM
      refutation), which dominates every copy of the rumor;
    - [dead] and [draining] at a given [(inc, hb)] are never overturned
      by an equal-freshness [alive] — only by genuinely newer evidence.

    {2 Failure detection}

    Freshness is judged {e locally}: each entry remembers when it last
    {e won} a merge here.  An [alive] peer not refreshed within
    [suspicion_timeout_ms] becomes [suspect]; any peer not refreshed
    within [dead_timeout_ms] becomes [dead].  A node never suspects
    itself, and [dead] entries are kept as tombstones so the rumor of
    the death outlives the node.

    {2 Anti-entropy}

    [digest t] is a {e heartbeat-independent} summary — it covers
    [(node, incarnation, status, addr, role, version)] but {e not}
    heartbeats — so two converged tables report the {e same} digest
    even while heartbeats churn; the CI soak compares survivors' digest
    strings for equality.  Each {!tick} probes its targets' digests
    first: on a match only the sender's own entry travels (a cheap
    heartbeat), on a mismatch the full tables push/pull.

    All operations are thread-safe (one internal mutex); [tick]'s
    network calls run outside it.  With an injected [clock] and [seed]
    the whole protocol is deterministic — the convergence tests run a
    5-node in-process cluster under scripted message drops and a fake
    clock. *)

module Json = Gossip_util.Json

type status = Alive | Suspect | Draining | Dead

val status_to_string : status -> string

(** [alive = 0 < suspect < draining < dead = 3] — the tiebreak order. *)
val severity : status -> int

type entry = {
  node : string;  (** cluster-unique id *)
  addr : string;
      (** ["unix:PATH"] or ["tcp:HOST:PORT"]; see
          {!Gossip_serve.Server.listen_of_string} *)
  role : string;  (** ["shard"] or ["router"] *)
  version : string;  (** {!Core.Version.string} at that node *)
  incarnation : int;
  heartbeat : int;
  status : status;
}

(** [supersedes a b] — would a copy [a] of some node's entry replace
    copy [b] under the merge precedence above? *)
val supersedes : entry -> entry -> bool

type t

(** [create ~self ~addr ~role ()] — a table containing only [self]
    (alive, incarnation 1, heartbeat 0).  [seeds] are transport
    addresses gossiped to while no live peer is known yet — bootstrap
    only.  [version] defaults to {!Core.Version.string}; [clock]
    (monotonic ns, default {!Gossip_util.Instrument.now_ns}) drives the
    timeouts; [seed] the target selection; [fanout] (default 2) is the
    number of peers gossiped to per tick. *)
val create :
  self:string ->
  addr:string ->
  role:string ->
  ?version:string ->
  ?clock:(unit -> int64) ->
  ?seed:int ->
  ?fanout:int ->
  ?suspicion_timeout_ms:int ->
  ?dead_timeout_ms:int ->
  ?seeds:string list ->
  unit ->
  t

val self : t -> string

(** Current entries, sorted by node id; always includes [self]. *)
val entries : t -> entry list

val find : t -> string -> entry option

(** [generation t] — bumped on every {e structural} change (member
    added, status / incarnation / addr changed) but not on pure
    heartbeat refreshes; the router rebuilds its ring only when this
    moves. *)
val generation : t -> int

(** [heartbeat t] — refresh [self]: heartbeat + 1, stamped now. *)
val heartbeat : t -> unit

(** [merge t entries] — fold remote copies in under the precedence
    rules; returns how many local entries changed (0 = views agreed). *)
val merge : t -> entry list -> int

(** [apply_timeouts t] — run the local failure detector once. *)
val apply_timeouts : t -> unit

(** [start_drain t] — self becomes [draining] with a bumped
    incarnation, so the drain dominates every alive copy in the fleet;
    idempotent. *)
val start_drain : t -> unit

val draining : t -> bool

(** The heartbeat-independent table summary (16 hex digits). *)
val digest : t -> string

(** [view_json t] — the full table as a wire view:
    [{"schema": "gossip-view/1", "from": self, "digest": d,
      "entries": [...]}]. *)
val view_json : t -> Json.t

val entry_json : entry -> Json.t
val entries_of_view : Json.t -> (entry list, string) result

(** [handle t op] — the {!Gossip_serve.Dispatch.set_cluster_handler}
    handler: [gossip] merges and answers the local view (full on digest
    mismatch, self-only once converged); [digest] answers
    [{"schema": "gossip-digest/1", "node", "digest", "nodes"}]; [drain]
    (naming this node or nobody) runs {!start_drain} and answers the
    view.  Errors are strings the dispatcher maps to [bad_request]. *)
val handle : t -> Gossip_serve.Wire.op -> (Json.t, string) result

(** [tick t ~call] — one protocol round: refresh the own heartbeat, run
    the failure detector, pick [fanout] random targets (live peers, or
    the bootstrap [seeds] while none are known), digest-probe each and
    push/pull accordingly, merging every reply.  [call addr op] is the
    transport — injectable, so tests drive whole clusters without
    sockets. *)
val tick :
  t -> call:(string -> Gossip_serve.Wire.op -> (Json.t, string) result) -> unit

(** [version_skew entries] — the number of distinct library versions in
    the fleet beyond the first (0 = everyone agrees); the router
    mirrors it on the ["cluster.version_skew"] gauge. *)
val version_skew : entry list -> int
