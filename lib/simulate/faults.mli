(** Fault injection for gossip protocols.

    A systolic protocol is attractive precisely because it is oblivious —
    the same period repeats regardless of what has been delivered — which
    also makes it naturally tolerant to transient link failures: a lost
    transmission is retried [s] rounds later by the very same arc.  This
    module drops arc activations under three fault models and measures
    the slowdown, giving the examples and benches a robustness axis the
    paper's model treats implicitly (its bounds hold a fortiori under
    failures, since failures only remove transmissions):

    - {e i.i.d.} — each activation is dropped independently with
      probability [p]; the transient-noise model;
    - {e permanent} — [k] distinct arcs of the period, chosen by a
      seeded shuffle, fail for the whole run; models broken links.  A
      systolic protocol has no routing around them, so this probes how
      much redundancy the period itself carries;
    - {e bursty} — each arc runs its own seeded on/off (Gilbert) chain:
      a good arc fails with [p_fail] per activation, a failed one
      recovers with [p_recover]; losses arrive in runs, the way real
      links misbehave.  Expected burst length is [1/p_recover]
      activations of that arc.

    Faults are deterministic given the seed; the bursty model derives
    one stream per arc, so an arc's state depends only on the seed and
    its own activation count, never on how rounds interleave arcs. *)

type outcome = {
  completed_at : int option;  (** completion round under faults *)
  drops : int;  (** arc activations suppressed *)
  activations : int;  (** arc activations attempted *)
  failed_arcs : (int * int) list;
      (** the permanently failed arcs the seeded shuffle chose, sorted —
          empty for the transient (i.i.d. / bursty) models.  Makes a
          stochastic run cross-checkable against an adversarial
          [Certifier] counterexample on the same arc universe. *)
}

type model =
  | Iid of { p : float }  (** independent per-activation drops *)
  | Permanent of { k : int }  (** [k] arcs removed for the whole run *)
  | Bursty of { p_fail : float; p_recover : float }
      (** per-arc on/off process; drops while "off" *)

(** [run ?cap p ~model ~seed] — one faulted run.  [cap] defaults to
    [16 · period · n + 64] rounds, after which [completed_at = None].
    The model decides every activation once, in round order, from
    streams seeded by [seed]; the surviving arcs of each round run on a
    {!Chunked} state over all [n] items, so [Iid {p = 0.}] and
    [Permanent {k = 0}] reproduce {!Engine.gossip_time} under this cap.
    [Permanent {k}] requires [k <= m] where [m] is the number of
    distinct arcs in one period (killing more arcs than the period
    carries is a spec error, not an empty run).
    @raise Invalid_argument on probabilities outside [0, 1], [k < 0] or
    [Permanent] [k] exceeding the period's distinct arc count. *)
val run :
  ?cap:int -> Gossip_protocol.Systolic.t -> model:model -> seed:int -> outcome

(** One fault model on a curve.  The mean is taken over the
    {e completing} trials only, so it is meaningless without
    [cp_completed]: at high fault rates a protocol can look "fast"
    because only its lucky runs finish.  [cp_completed]/[cp_trials]
    makes the survivorship explicit. *)
type curve_point = {
  cp_model : model;
  cp_mean : float option;
  cp_completed : int;
  cp_trials : int;
  cp_cap : int;  (** the round budget every trial of the point ran under *)
}

(** [curve ?cap ?trials p ~models ~seed] — one {!curve_point} per model
    ([trials] defaults to 5; trial [t = 1..trials] runs with seed
    [seed + 7919·t]; [cap] defaults to {!run}'s).
    @raise Invalid_argument on [trials < 1], or as {!run} does on an
    invalid model. *)
val curve :
  ?cap:int ->
  ?trials:int ->
  Gossip_protocol.Systolic.t ->
  models:model list ->
  seed:int ->
  curve_point list

(** [curve_point_to_json pt] — the point with its model spelled out:
    [{"model": "iid", "probability": p, ...}] /
    [{"model": "permanent", "k": k, ...}] /
    [{"model": "bursty", "p_fail": f, "p_recover": r, ...}], each
    followed by [mean] / [completed] / [trials] / [cap] /
    [completed_fraction] — the cap and survivorship are explicit, so a
    capped point is distinguishable without comparing [completed] to
    [trials] by hand. *)
val curve_point_to_json : curve_point -> Gossip_util.Json.t
