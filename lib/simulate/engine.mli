(** Synchronous gossip simulation of materialized protocols.

    The systolic front end over {!Chunked}: every function here views
    its protocol as a {!Gossip_protocol.Schedule.of_systolic} schedule
    (tabled, so rounds run on the chunked engine's sender-table arm)
    and runs it on a chunked state tracking all [n] items, one round at
    a time on the calling domain.  The semantics are the whispering
    model of Section 3: at the start every processor knows exactly its
    own item; when arc [(x, y)] is active at round [i], at the beginning
    of round [i+1] processor [y] additionally knows everything [x] knew
    at the beginning of round [i].  Because every round is a matching, a
    sender is never simultaneously a receiver except through the
    opposite arc in full-duplex mode, which exchanges start-of-round
    knowledge.

    Gossip completes at the first round after which every processor knows
    every item; broadcast from [src] completes when every processor knows
    [src]'s item. *)

(** Result of running a protocol to completion or exhaustion. *)
type outcome = {
  completed_at : int option;
      (** number of rounds after which gossip was complete, if it was;
          [Some 0] when the start state already is (one vertex) *)
  rounds_run : int;
  coverage : float;  (** fraction of (processor, item) pairs known at end *)
}

(** [run_protocol p] executes all rounds of the finite protocol and
    reports the earliest completion round. *)
val run_protocol : Gossip_protocol.Protocol.t -> outcome

(** [gossip_time ?probe ?cap p] expands the systolic protocol [p] until
    gossip completes and returns the number of rounds — [Some 0] when
    the start state is already complete (one vertex) — or [None] if
    still incomplete after [cap] rounds (default [8·s·n + 64]).  [probe], when
    given, observes every executed round (1-based) together with the
    coverage — the fraction of the [n²] (processor, item) pairs known
    after it — without perturbing the run. *)
val gossip_time :
  ?probe:(round:int -> coverage:float -> unit) ->
  ?cap:int ->
  Gossip_protocol.Systolic.t ->
  int option

(** [broadcast_time ?probe ?cap p ~src] — rounds until everyone knows
    [src]'s item under systolic protocol [p]; [cap] and [probe] as in
    {!gossip_time}, with coverage still over all [n²] pairs.
    @raise Invalid_argument unless [0 <= src < n]. *)
val broadcast_time :
  ?probe:(round:int -> coverage:float -> unit) ->
  ?cap:int ->
  Gossip_protocol.Systolic.t ->
  src:int ->
  int option

(** A gossip run with its full dissemination record. *)
type run = { time : int option; curve : float array }

(** [gossip_run ?cap p] is {!gossip_time} plus observability: the
    coverage curve ([curve.(i)] = coverage after round [i+1]) is always
    recorded, the run executes under the ["simulate.gossip-run"]
    instrumentation span, and — when a trace sink is installed — every
    round streams an ["engine.round"] JSONL event carrying its coverage.
    Backs [gossip_lab simulate --json]. *)
val gossip_run : ?cap:int -> Gossip_protocol.Systolic.t -> run

(** Message complexity of one run: how many transmissions the protocol
    spent, and how many were wasted (carried no new item to the
    receiver).  Systolic protocols are oblivious, so they keep
    transmitting after saturation — the waste quantifies the overhead of
    obliviousness. *)
type message_costs = {
  transmissions : int;  (** arc activations executed *)
  useful : int;
      (** activations whose sender knew, at the start of the round, an
          item the receiver did not *)
  rounds : int;  (** rounds executed (to completion or the horizon) *)
}

(** [message_complexity ?horizon p] runs the systolic protocol until
    gossip completes (or the horizon, default [8·s·n + 64]) and accounts
    transmissions. *)
val message_complexity :
  ?horizon:int -> Gossip_protocol.Systolic.t -> message_costs
