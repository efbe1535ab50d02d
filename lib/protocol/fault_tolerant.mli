(** Redundancy transforms: hardening a schedule against ≤k link faults.

    The paper's schemes are fault-free; Hovnanyan et al. (PAPERS.md)
    study the call overhead of making gossip k-fault-tolerant.  This
    module provides the constructive half of that trade-off as
    schedule-to-schedule transforms — take any {!Schedule.t} (or a
    materialized {!Systolic.t} via {!Schedule.of_systolic}) and a target
    resilience [k], emit a hardened schedule plus a {!report} of what
    the hardening cost in calls and rounds per period.

    Two transforms, matching the two fault regimes of
    [Simulate.Faults]:

    - {!replicate} — every round of the period is repeated [k + 1]
      times back to back.  Each transmission gets [k + 1] consecutive
      attempts, so any [<= k] {e transient} losses of one activation
      window still deliver.  Useless against a permanently dead arc
      (the same arc is dead in every repetition) and exactly
      [(k + 1)x] slower fault-free — the brute-force end of the
      trade-off.
    - {!augment} — the period is extended with {e chord} rounds:
      proper edge colorings of stride-[o] circulant cycles over the
      vertex ring, strides chosen Chord-style ([2, 4, 8, ...] replica
      walk, the same doubling walk [Cluster.Ring] uses for replica
      placement).  Chords are arc-disjoint from any unit-stride (cycle)
      arcs of the base period, so a permanently dead base arc has a
      detour that does not share it.  This is the transform that buys
      {e adversarial} resilience, certified by [Simulate.Certifier].

    Both transforms assume the input schedule is plain periodic
    (sender depends only on [round mod period]) — harden {e before}
    wrapping with {!Schedule.with_drops}, never after. *)

(** What a transform cost.  [calls] counts arc activations per period
    (a full-duplex exchange is two activations, matching
    [Protocol.arc_activations]). *)
type report = {
  transform : string;  (** ["replicate"] or ["augment"] *)
  k : int;  (** requested resilience target *)
  base_period : int;
  period : int;  (** hardened period *)
  base_calls : int;  (** activations per base period *)
  calls : int;  (** activations per hardened period *)
  added_rounds : int;  (** [period - base_period] *)
  added_calls : int;  (** [calls - base_calls] *)
}

(** [concat a b] runs one period of [a] then one period of [b], forever
    ([period = period a + period b], mode and name taken from [a]).
    Both inputs must be plain periodic schedules on the same vertex
    count.
    @raise Invalid_argument on a vertex-count mismatch. *)
val concat : Schedule.t -> Schedule.t -> Schedule.t

(** [replicate t ~k] repeats each round of [t]'s period [k + 1] times
    consecutively.
    @raise Invalid_argument on [k < 0]. *)
val replicate : Schedule.t -> k:int -> Schedule.t * report

(** [strides ~n ~k] is the Chord-style replica walk used by
    {!augment}: up to [k] distinct strides from the doubling sequence
    [2, 4, 8, ...] capped at [n/2] (stride [o] and [n - o] generate the
    same circulant), with the smallest unused strides filling the
    remainder on rings too short for [k] doublings.  Fewer than [k]
    strides are returned when [n] cannot supply [k] distinct ones. *)
val strides : n:int -> k:int -> int list

(** [augment t ~k] appends, for each stride of [strides ~n ~k], the
    proper edge coloring of the stride-[o] circulant over [t]'s vertex
    ring ({!Schedule.cycle_colors} colors per constituent cycle; a
    stride of exactly [n/2] is a perfect matching and costs one round).
    Rounds are exchange pairings split per [t]'s mode, exactly like the
    base generators.
    @raise Invalid_argument on [k < 0] or [n < 5] (no chord strides
    exist below 5 vertices). *)
val augment : Schedule.t -> k:int -> Schedule.t * report

(** [harden t ~transform ~k] dispatches on the transform name:
    ["replicate"], ["augment"], or ["none"] (identity, zero-cost
    report).  Total: an unknown name or a transform precondition
    failure ([k < 0], [n < 5]) comes back as [Error], never an
    exception. *)
val harden :
  Schedule.t -> transform:string -> k:int -> (Schedule.t * report, string) result

(** [report_to_json r] — [{transform, k, base_period, period,
    base_calls, calls, added_rounds, added_calls}]. *)
val report_to_json : report -> Gossip_util.Json.t
