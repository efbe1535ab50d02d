(** Chunked blockwise simulation over implicit schedules — the one
    round executor behind every gossip time in the repository.

    Exact gossip tracks all [n] items at every vertex — n² bits, ~125 GB
    at a million vertices.  This engine scales by tracking the
    dissemination of the first [items <= n] items only, in one
    contiguous buffer of 64-bit words processed blockwise in parallel:
    memory stays proportional to simulation state ([n·items] bits), and
    rounds come from a {!Gossip_protocol.Schedule}, so nothing per-round
    is ever materialized either.

    With [items = n] a run is exact gossip under the whispering rule of
    Section 3 (the tests pin it bit for bit against a literal
    copy-then-union reference); {!Engine} runs materialized protocols
    this way, through {!Gossip_protocol.Schedule.of_systolic}.
    With [items = 1] a run is a broadcast of item 0; small [items]
    (e.g. 64, one word per vertex) is the scaling configuration.  Rounds
    are applied in place: a matching's only same-round feedback is a
    full-duplex exchange, which the owning block writes atomically with
    the shared union of both sides, so the result is identical to
    start-of-round-snapshot semantics and deterministic for every
    worker count.

    {b Four arms.}  A tabled schedule (one with
    {!Gossip_protocol.Schedule.tables}:
    {!Gossip_protocol.Schedule.of_systolic},
    {!Gossip_protocol.Schedule.tabulate},
    {!Gossip_protocol.Schedule.without_arcs}) merges from its period's
    receiver-indexed sender table for the round, with no closure call
    per vertex; this is how {!Engine} and {!Certifier} run.
    A schedule with a {!Gossip_protocol.Schedule.nomination} (a
    {!Gossip_protocol.Schedule.proposal}) runs on a memo of its
    pairings: one row per pairing index, one bit per vertex, set at the
    lower endpoint of each of the pairing's mutual pairs.  A pairing's
    first visit stages [candidate p] once per vertex block, merges every
    pair [v < x] it finds ([x = candidate p v] and
    [candidate p x = v]) and sets [v]'s bit; every later visit, in the
    same period or a later one, merges the row's pairs alone, with no
    mutual test and one nominee per pair.  A schedule with a
    {!Gossip_protocol.Schedule.pairing} — the structured colorings of
    hypercube, cycle, torus and CCC — runs on the runs arm: the pass
    sums [count·len] over the round's pairing's runs and splits that
    range of pair indices into blocks; each block finds its first pair
    with one division and walks the rest in order, [v] by [step] within
    a row and by [stride] from row to row, with no closure call,
    division or [v < x] test per vertex, and merges each pair
    [(v, v + offset)] once.  With one-word rows (at most 64 items) the
    loop body merges the two words itself.  Both pair arms merge a pair
    as {!Gossip_protocol.Schedule.of_pairing} splits it: a full-duplex pair
    exchanges, and in half duplex the lower endpoint sends to the
    higher one in the pairing's first round and the higher to the lower
    in its second; {!run} merges those two rounds in one pass (below).
    Every remaining schedule —
    {!Gossip_protocol.Schedule.make},
    {!Gossip_protocol.Schedule.of_pairing} alone,
    {!Gossip_protocol.Schedule.with_drops} and the
    {!Gossip_protocol.Fault_tolerant} wrappers — runs on the sender
    path, which stages the round once per vertex block
    ([Schedule.sender sched round], see
    {!Gossip_protocol.Schedule.sender}) and applies the staged function
    to every vertex and to every receiver's sender.  All four arms
    count newly-set bits with the one constant-time {!popcount64}.  The
    schedule selects the arm; all four give the same rounds, coverage
    and state bits.  Memory is [n·⌈items/64⌉] 64-bit words of state
    (8 MB at [n = 2^20] with 64 items), plus [⌈n/64⌉] words per pairing
    that a proposal schedule has visited on the state: [n] words at the
    default 64 pairings, growing with the period ([8n] at 512).  A
    tabled schedule brings its own [n·period] words of tables.  At one
    worker a round is one block over all its vertices (or memo words, or
    pairs);
    with more, it is split into a few blocks per worker.

    The sender-table arm applies the sender path's rule to the table's
    entries, so it is race-free for the same reason.  The runs arm is
    too: the runs name disjoint pairs, and each pair is written only by
    the block that holds its index, so any block split writes disjoint
    rows.  The proposal
    arm is too: mutual nomination pairs each vertex with at most one
    partner, so the pairs are disjoint; blocks split the memo row on
    64-vertex word boundaries, so each block writes its own words, and
    a pair is merged by the block that holds its lower endpoint.  A
    row holds exactly the pairing's lower endpoints, and each visit
    takes them in ascending order, so a revisit merges what a fresh
    pass would.  A row is stored only once its first pass completes,
    so a pass cut short by an exception leaves none; a schedule whose
    candidate function is not the memo's (compared physically) starts
    a fresh memo.  Every pass is a pure function of the state
    before the round and the round's matching, and the newly-set bit
    counts are summed exactly, so the result does not depend on the
    domain count.

    {b One pass per half-duplex pairing.}  {!apply_round} runs one
    round.  {!run} advances a half-duplex schedule on a pair arm (one
    with a pairing or a nomination and no sender tables) one pairing at
    a time: at an even round [r] with [r + 1] below the cap, one pass
    merges every pair [v < x] of the pairing as a full-duplex exchange,
    the two rounds [r] (lower to higher) and [r + 1] (higher to lower)
    at once, with the same merge kernel and the same block loops as a
    round.  It is exact.  After round [r], x holds old(x) ∪ old(v);
    after round [r + 1], v holds old(v) ∪ old(x): both rows end as the
    exchange writes them.  Round [r]'s new bits are
    popcount(old v ∧ ¬old x), set in x, and round [r + 1]'s are
    popcount(old x ∧ ¬old v), set in v; the exchange counts the two
    apart, so the known count, the completion test and the checkpoint
    after round [r] see round [r]'s bits alone.  A state complete after
    round [r] has every tracked word full, so round [r + 1] writes
    nothing, and stopping with [time = r + 1] leaves the per-round
    state; the half-duplex Q(d) sweeps over 64 items with d > 6 end so,
    Q(20) at round 39.  When [r + 1] is the cap, round [r] runs alone.
    Pairs are disjoint and each is written by its lower endpoint's
    block, so the result is the same at any domain count.  Every round
    count, coverage, checkpoint and state bit is the per-round loop's;
    the pass halves the passes over the state and the pairing calls. *)

type state

(** [create ?items n] — vertex [v < items] starts knowing exactly item
    [v]; everyone else knows nothing.  [items] defaults to [n] (exact
    gossip) and is clamped to [0 <= items <= n].
    @raise Invalid_argument on [n < 0]. *)
val create : ?items:int -> int -> state

val n_vertices : state -> int
val items : state -> int

(** [items_known st] is the number of set (vertex, item) bits,
    maintained incrementally — O(1). *)
val items_known : state -> int

(** [knows st v i] — does vertex [v] currently know item [i]?  Items
    beyond the tracked range are reported unknown. *)
val knows : state -> int -> int -> bool

(** [popcount64 w] is the number of set bits of the 64-bit word [w],
    bit 63 (the sign bit) included: the constant-time SWAR count by which
    every arm counts newly-set knowledge bits. *)
val popcount64 : int64 -> int

(** [coverage st] is [items_known / (n · items)] (1.0 when the state is
    empty) — with [items = n], the {!Engine} coverage. *)
val coverage : state -> float

(** [complete st] — every vertex knows every tracked item. *)
val complete : state -> bool

(** [apply_round ?domains st sched round] executes (absolute) round
    [round] of [sched] on [st], and that round alone, blockwise over the
    worker domains (default {!Gossip_util.Parallel.recommended_domains}).  A tabled
    schedule merges from [tables.(round mod period)]; a proposal
    schedule merges the round's pairing from its memo row, filled on the
    pairing's first visit since the schedule took the state; a schedule
    with a pairing merges each pair that its pairing's runs name, once;
    every other schedule runs on the sender path (see the module
    header).  Rounds
    may come in any order and schedules may be interleaved on one
    state.
    @raise Invalid_argument when [sched] and [st] disagree on the
    vertex count, or on [round < 0]. *)
val apply_round : ?domains:int -> state -> Gossip_protocol.Schedule.t -> int -> unit

(** A streamed progress sample: the deterministic coverage curve
    ([round], [coverage] — identical at every worker count) plus the
    run's live telemetry — elapsed wall time, throughput, the ETA
    extrapolated from the most recent inter-checkpoint coverage slope
    ([Some 0.] once complete; [None] while coverage is stalled) and a
    heap/RSS reading ({!Gossip_util.Resource}). *)
type checkpoint = {
  round : int;
  coverage : float;
  elapsed_s : float;  (** monotonic seconds since [run] started *)
  rounds_per_s : float;
  eta_s : float option;  (** projected seconds to coverage 1.0 *)
  heap_mb : float;
  rss_mb : float option;
}

type outcome = {
  time : int option;
      (** first round after which the run was complete; [Some 0] when
          it was complete before its first round *)
  rounds_run : int;
  final_coverage : float;
  checkpoints : checkpoint list;
}

(** [run ?domains ?cap ?checkpoint_every ?on_checkpoint st sched]
    drives [st] under [sched] until complete or [cap] rounds (default
    [2n + 8·period·⌈log₂ n⌉ + 64] — covers linear-diameter cycles as
    well as logarithmic families).  Its outcome, checkpoints and final
    state are those of calling {!apply_round} on rounds [0, 1, …] and
    testing completion after each, though a half-duplex pairing's two
    rounds run as one pass (see the module header).  Completion is
    tested before the first round too: a state already complete (no
    items, or one vertex) runs no round and answers [time = Some 0],
    [rounds_run = 0].  When [checkpoint_every = k > 0], a {!checkpoint}
    is recorded every [k] rounds plus at the final round (round 0 for a
    state complete from the start), passed to [on_checkpoint] (the
    CLI's [--progress] ticker), and — when a trace sink is installed —
    streamed as an ["engine.checkpoint"] JSONL event carrying the full
    progress/resource attribute set.  A checkpoint taken between the two
    rounds of a merged pairing reads the coverage after the first; while
    [on_checkpoint] runs there, [st] may already hold the second round's
    merges, so a callback should read the record, not the state.  The
    whole run executes under the ["simulate.chunked-run"]
    instrumentation span. *)
val run :
  ?domains:int ->
  ?cap:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(checkpoint -> unit) ->
  state ->
  Gossip_protocol.Schedule.t ->
  outcome

(** [report_to_json …] renders the documented [gossip-simulate/1]
    report object (schema, family, sizes, rounds, coverage, checkpoint
    list, wall time, nodes·rounds/sec, domains) — shared by
    [gossip_lab simulate --family] and the server's
    [simulate_implicit] op. *)
val report_to_json :
  family:string ->
  requested_n:int ->
  sched:Gossip_protocol.Schedule.t ->
  st:state ->
  outcome:outcome ->
  wall_seconds:float ->
  domains:int ->
  Gossip_util.Json.t
