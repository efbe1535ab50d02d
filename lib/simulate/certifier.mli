(** Adversarial ≤k-failure certification of a gossip schedule.

    [Simulate.Faults] measures slowdown under {e stochastic} faults;
    this module answers the adversarial question: does gossip still
    complete — within a round budget — under {e every} pattern of at
    most [k] permanently dead arcs?  Patterns are subsets of the
    period's distinct arc set.  The schedule is tabled once
    ({!Gossip_protocol.Schedule.tabulate}), and each pattern is
    simulated by knocking its arcs out of those sender tables
    ({!Gossip_protocol.Schedule.without_arcs}, which copies only the
    rounds it changes) and running the chunked engine's sender-table
    arm with [items = n] (exact gossip, as {!Engine} runs it).  This
    relies on the schedule being periodic — [sender (r + period) =
    sender r], as the paper's s-systolic protocols, the generators and
    the {!Gossip_protocol.Fault_tolerant} transforms are; so do
    {!period_arcs}, {!fingerprint} and the [Core.Context] cache key.
    Certifying a {!Gossip_protocol.Schedule.with_drops} schedule whose
    drops differ from period to period certifies its first period,
    repeated.

    The pattern space [C(m, <=k)] is enumerated exhaustively while it
    fits the [budget]; beyond that a seeded sample of [budget] patterns
    is drawn (sizes weighted by [C(m, i)], so the verdict concentrates
    where the adversary has the most choices) and the verdict is only
    statistical — {!verdict.cert_mode} records which regime ran, and
    the certificate's [confidence] field reports the fraction of the
    space actually checked.  Patterns are evaluated in deterministic
    order, fanned out in batches through {!Gossip_util.Parallel}, with
    early exit at the first failing batch; a failing pattern is then
    greedily shrunk to a 1-minimal counterexample (every proper subset
    obtained by dropping one arc completes).

    Completion must happen within [cap] rounds.  By default [cap] is
    derived from the schedule's own fault-free completion time [t0] as
    [ceil(slack · t0) + period] — "a fault may cost at most
    [slack - 1] extra fractions of the fault-free time" — and the
    fault-free run itself gets the chunked engine's default budget.  A
    given [cap] bounds the fault-free run too: when that run misses it,
    nothing is certified and the verdict carries [fault_free_time =
    None] and the empty pattern as its counterexample.  Everything is
    deterministic given [(schedule, k, seed, budget, cap)], which is
    exactly the cache key [Core.Context] uses for certificates. *)

type cert_mode = Exhaustive | Sampled

type counterexample = {
  cx_pattern : (int * int) list;  (** minimal failing arc set, sorted *)
  cx_rounds_run : int;  (** rounds executed before giving up *)
  cx_coverage : float;  (** final (vertex, item) coverage *)
}

type verdict = {
  certified : bool;
  cert_mode : cert_mode;
  k : int;
  seed : int;
  budget : int;
  arcs : int;  (** [m]: distinct arcs in one period *)
  patterns_total : int;  (** [|C(m, <=k)|] *)
  patterns_checked : int;  (** patterns actually simulated *)
  fault_free_time : int option;  (** [t0]; [None] ⇒ uncertifiable *)
  cap : int;
      (** round budget applied to every faulted run; 0 when none was
          given and the fault-free run did not complete *)
  worst_time : int option;
      (** slowest completion among checked passing patterns *)
  worst_pattern : (int * int) list;  (** a pattern achieving [worst_time] *)
  counterexample : counterexample option;
}

(** [period_arcs sched] — the distinct arcs of one period, sorted;
    the universe the adversary chooses from.  O(n · period). *)
val period_arcs : Gossip_protocol.Schedule.t -> (int * int) array

(** [fingerprint sched] digests name, size, mode, period and the full
    period arc stream — the schedule analogue of
    [Core.Context.protocol_fingerprint], and the [fingerprint] field of
    the certificate. *)
val fingerprint : Gossip_protocol.Schedule.t -> string

(** [certify ?domains ?cap ?slack ?budget sched ~k ~seed] — the
    decision procedure described above.  [slack] defaults to 1.5,
    [budget] to 512 patterns, [domains] to the recommended worker
    count; [cap] overrides the derived round budget entirely, for the
    fault-free run as for every pattern.  [sched] must be periodic (see
    the module header).
    @raise Invalid_argument on [k < 0], [k] exceeding the period's
    distinct arc count, [budget < 1], [slack < 1.0] or [cap < 1], all
    before anything runs. *)
val certify :
  ?domains:int ->
  ?cap:int ->
  ?slack:float ->
  ?budget:int ->
  Gossip_protocol.Schedule.t ->
  k:int ->
  seed:int ->
  verdict

(** [to_json sched v] — the [gossip-fault-cert/1] artifact: schema tag,
    scheme name / fingerprint / n / mode / period, the verdict fields,
    [cert_mode] as ["exhaustive"] or ["sampled"], and [confidence]
    (checked / total, 1.0 when exhaustive). *)
val to_json : Gossip_protocol.Schedule.t -> verdict -> Gossip_util.Json.t
