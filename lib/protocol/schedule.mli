(** Implicit periodic schedules: rounds as generator functions.

    A systolic protocol repeats a period of matchings forever.  The
    materialized {!Systolic.t} stores those matchings as arc lists over a
    {!Digraph.t}; at a million vertices neither fits in memory.  This
    module represents a schedule as a pure {e sender function}
    [sender round v] — the vertex transmitting to [v] in [round], or
    [-1] — so each round's matching is recomputed blockwise by the
    chunked engine and never stored.  The materialized protocols become
    one instance via {!of_systolic}, which is how the simulator runs
    them, and {!to_systolic} bridges back so property tests can pin
    implicit schedules against materialized protocols on small
    instances.

    A small periodic schedule can instead be {e tabled}: one period
    stored as receiver-indexed sender tables ({!tabulate}, {!tables}),
    which the chunked engine reads directly, with no closure call per
    vertex, and from which {!without_arcs} knocks out failure
    patterns. *)

type t

(** [make ~name ~n ~mode ~period ~sender] wraps a sender function.
    Requirements on [sender round v] for [0 <= v < n], [round >= 0]:
    pure, total, and every round must be a matching — distinct receivers
    have distinct senders, and (half-duplex) no sender is also a
    receiver; full-duplex rounds may pair mutual senders.  [sender] is
    staged: {!sender} applies it to the round alone and applies the
    result per vertex, so a sender written
    [fun round -> (per-round work); fun v -> ...] does its per-round work
    once per round.  Periodicity
    ([sender (round + period) = sender round]) is expected of plain
    schedules but intentionally {e not} of fault-wrapped ones
    ({!with_drops} keys drops on the absolute round index).  The result
    has no {!nomination}, no {!pairing} and no {!tables}.
    @raise Invalid_argument on [n < 0] or [period < 1]. *)
val make :
  name:string ->
  n:int ->
  mode:Protocol.mode ->
  period:int ->
  sender:(int -> int -> int) ->
  t

val name : t -> string
val n_vertices : t -> int
val mode : t -> Protocol.mode
val period : t -> int

(** [nomination t] is [Some (pairings, candidate)] for a {!proposal}
    schedule and [None] for every other one, including a {!proposal}
    wrapped by {!with_drops}, {!tabulate}d, or passed through a
    {!Fault_tolerant} transform.
    [candidate p v] is the vertex that [v] nominates in pairing [p]
    ([0 <= p < pairings]), or [-1]; it is pure, and a nominee is always
    in [[0, n)] and different from [v].  The partner of [v] in pairing
    [p] is [u = candidate p v] exactly when [u >= 0] and
    [candidate p u = v], and round [r] runs pairing [r mod pairings]
    (full duplex) or [(r mod 2·pairings) / 2] (half duplex) as
    {!of_pairing} lays it out, so [sender t r v] can be rebuilt from
    [candidate] alone.
    [candidate] is staged like {!sender}: [candidate p] does pairing
    [p]'s own work (the hash's round share) and returns [v ↦ nominee],
    so apply [candidate p] once per pairing and the result once per
    vertex, as the chunked engine does.  A full application
    [candidate p v] re-stages the pairing, and allocates, on every
    call. *)
val nomination : t -> (int * (int -> int -> int)) option

(** A run of pairs: [{first; count; stride; len; step; offset}] stands
    for the pairs [(v, v + offset)] with [v = first + i·stride + j·step]
    for [0 <= i < count] and [0 <= j < len], taken [i]-major.
    [offset > 0], so [v] is the pair's lower endpoint. *)
type run = {
  first : int;
  count : int;
  stride : int;
  len : int;
  step : int;
  offset : int;
}

(** [pairing t] is [Some runs] for the structured generators
    ({!hypercube_sweep}, {!cycle_alternating}, {!torus_colored},
    {!ccc_colored}) and [None] for every other schedule: {!of_pairing}
    alone, {!proposal} (which carries a {!nomination} instead), {!make},
    {!tabulate}, {!of_systolic}, {!without_arcs}, {!with_drops} (whose
    drops a pairing cannot express) and the {!Fault_tolerant} transforms
    (an augment that adds no chord returns its input unchanged).  The
    generator declares its pairings once, when the schedule is built:
    [Array.length runs] is the number of pairings, and the runs of
    [runs.(p)] name exactly the pairs [(v, x)], [v < x], of pairing [p],
    each vertex in at most one and every endpoint in [[0, n)].  Round
    [r] runs pairing [r mod pairings] (full duplex) or
    [(r mod 2·pairings) / 2] (half duplex, the lower endpoint sending in
    the pairing's first round and the higher in its second), as
    {!of_pairing} lays it out, so [sender t r v] can be rebuilt from the
    runs alone.  The chunked engine walks them directly, with no closure
    call, division or [v < x] test per vertex.  The arrays are shared
    with [t], not copied: a read-only view, which callers must not
    mutate. *)
val pairing : t -> run array array option

(** [sender t round] is the receiver -> sender function of (absolute)
    [round]: [sender t round v] is the vertex transmitting to [v], or
    [-1] when [v] only listens.  The round is staged when [sender t round]
    is applied — its index within the period, pairing, phase and table
    lookup, and a wrapped schedule's own staging — so stage it once per
    round and apply the result to every vertex, as the chunked engine
    does once per vertex block.  A full application [sender t round v]
    re-stages the round on every call.  Senders must be pure, staged or
    not: worker domains share one staged function.
    @raise Invalid_argument on [round < 0]. *)
val sender : t -> int -> int -> int

(** [of_systolic sys] views a materialized systolic protocol as a
    tabled schedule: one receiver-indexed sender table per period round,
    exposed by {!tables}.  Sender functions agree arc-for-arc with
    {!Systolic.period_round}. *)
val of_systolic : Systolic.t -> t

(** {1 Tabled schedules}

    The paper's s-systolic protocols repeat one period of s matchings,
    so a periodic schedule is exactly s receiver-indexed sender tables:
    entry [v] of table [i] is the vertex transmitting to [v] in every
    round [r] with [r mod period = i], or [-1].  Tabling costs
    [n · period] words and is meant for schedules small enough to store
    (materialized protocols, the fault certifier's schemes), not for the
    implicit million-vertex schedules. *)

(** [tabulate t] stores one period of [t] as sender tables, staging
    every round [r < period] once and applying it to every [v < n]; a
    tabled [t] comes back unchanged.  [t] must be periodic
    ([sender (r + period) = sender r]): the tables repeat round [r] of
    the first period forever, so a {!with_drops} schedule whose drops
    change from period to period is not the same schedule once tabled.
    The result keeps [t]'s name, size, mode and period, has the same
    {!sender}, and has no {!nomination} and no {!pairing}. *)
val tabulate : t -> t

(** [tables t] is [Some tables] for a tabled schedule ({!of_systolic},
    {!tabulate}, {!without_arcs}) — [tables.(i).(v)] is the sender to
    [v] in period round [i], or [-1], and [Array.length tables] is the
    period — and [None] for every other one; {!make}, {!with_drops},
    the generators and the {!Fault_tolerant} transforms carry none.  The
    arrays are shared with [t], not copied: a read-only view, which
    callers must not mutate. *)
val tables : t -> int array array option

(** [without_arcs t dead] is [tabulate t] with every arc [(u, v)] of
    [dead] removed from every round of the period: the arcs of
    [dead] are dead permanently, which is what the fault certifier's
    patterns mean.  It equals [with_drops t] with a membership test of
    [dead] as the drop predicate (for a periodic [t]), but stays tabled.
    Only the rounds whose table changes are copied; the others are
    shared with [t].  Arcs that [t] never activates, or with an
    endpoint outside the schedule, change nothing. *)
val without_arcs : t -> (int * int) list -> t

(** [round_arcs t i] materializes round [i] as a sorted arc list —
    bridging and tests only; O(n). *)
val round_arcs : t -> int -> (int * int) list

(** [to_systolic t g] materializes one full period over graph [g],
    re-validated by {!Protocol.make} (every arc in [g], every round a
    matching).  Note: full-duplex validation {e closes} rounds with
    reverse arcs; generators in this module emit mutual pairs already,
    so closure is the identity.
    @raise Invalid_argument when the schedule violates protocol
    invariants or vertex counts differ. *)
val to_systolic : t -> Gossip_topology.Digraph.t -> Systolic.t

(** [with_drops t ~drop] suppresses arc [(u, v)] in [round] whenever
    [drop ~round ~u ~v] holds — message loss on the implicit arc stream.
    Dropping one direction of a full-duplex exchange legally degrades it
    to a one-directional transmission.  [round] is absolute, so i.i.d.
    fault processes do not repeat each period.  The result has no
    {!nomination}, no {!pairing} and no {!tables}: drops act on absolute
    rounds, which neither a memo of each pairing's mutual pairs, a
    drop-free pairing nor one period of sender tables can express, so
    the chunked engine runs it through {!sender}.  Permanently dead
    arcs of a periodic schedule are {!without_arcs}. *)
val with_drops : t -> drop:(round:int -> u:int -> v:int -> bool) -> t

(** {1 Pairing plumbing}

    Exported for transform modules ({!Fault_tolerant}) that build extra
    rounds out of exchange pairings. *)

(** [of_pairing ~name ~n ~pairings ~full_duplex pairing] turns an
    exchange pairing family into a schedule.  [pairing t v] is the
    partner of [v] in pairing [t] (or [-1]) and must be an involution:
    [pairing t (pairing t v) = v].  With [~full_duplex:true] the period
    is [pairings]; otherwise every pairing is split into a
    lower-endpoint-sends-first round pair and the period doubles.  The
    round's pairing index and phase are computed when the round is
    staged (see {!sender}), and [pairing t] is applied once per round,
    so a pairing written [fun t -> (per-pairing work); fun v -> ...]
    stages its own work too.  The result has no {!pairing}, no
    {!nomination} and no {!tables}: a closure cannot be walked as runs,
    so the chunked engine runs it through {!sender}.  The structured
    generators attach their runs to what it builds. *)
val of_pairing :
  name:string ->
  n:int ->
  pairings:int ->
  full_duplex:bool ->
  (int -> int -> int) ->
  t

(** [cycle_colors len] is the number of colors in the proper edge
    coloring of the [len]-cycle used by {!cycle_alternating}: 2 when
    [len] is even, 3 when odd. *)
val cycle_colors : int -> int

(** [cycle_partner len color x] is the neighbor of [x] along the
    [color]-colored edge of the [len]-cycle, or [-1] when no incident
    edge has that color; [x] must be a vertex, [0 <= x < len]. *)
val cycle_partner : int -> int -> int -> int

(** {1 Structured generators}

    Closed-form proper edge colorings turned into periodic schedules;
    with [~full_duplex:false] every exchange pairing is split into a
    lower-sends-first round pair (period doubles).  Each is complete: a
    full period activates every edge of the underlying family at least
    once, so repeated periods gossip. *)

(** Dimension sweep on [Q(dim)]: pairing [t] matches [v] with
    [v lxor (1 lsl t)]; period [dim] (full duplex). *)
val hypercube_sweep : dim:int -> full_duplex:bool -> t

(** Alternating-edge coloring of the [n]-cycle: 2 colors when [n] is
    even, 3 when odd. *)
val cycle_alternating : n:int -> full_duplex:bool -> t

(** Row-ring then column-ring colorings of the [rows] x [cols] torus
    (2 or 3 each by side parity). *)
val torus_colored : rows:int -> cols:int -> full_duplex:bool -> t

(** Cycle colors on each dimension-cycle of [CCC(dim)] plus one rung
    color (the rungs form a perfect matching). *)
val ccc_colored : dim:int -> full_duplex:bool -> t

(** {1 Unstructured generators} *)

(** [proposal imp ~period ~seed ~full_duplex] — seeded mutual-proposal
    matchings over the raw slots of an implicit topology, for families
    with no closed-form edge coloring (de Bruijn, Kautz).  Every vertex
    nominates one pseudorandom candidate slot per pairing; an exchange
    happens exactly when nominations are mutual, so rounds are matchings
    by construction.  Vertex [v]'s slot in pairing [p] is a non-negative
    63-bit hash of [(seed, p, v)] reduced [mod (Implicit.slots imp)];
    when the slot count is a power of two (every binary de Bruijn and
    Kautz graph) the reduction is a mask by [slots - 1], which picks the
    same slot, and the choice is made once per schedule.  The slot is
    read through {!Gossip_topology.Implicit.unchecked_slot}, which the
    construction keeps in range.  A vertex whose neighbors are distinct
    is matched in a pairing with probability about [1 / slots], so it
    stays unmatched for a whole period of [s] pairings with probability
    about [(1 - 1/slots)^s]: about [1e-8] for the 4-slot binary families
    at the default [s = 64], but about [2e-4] at 8 slots, where DB(4,6)
    leaves one vertex unmatched in every period and never completes.
    Completion is probabilistic, not guaranteed.  The schedule carries its
    {!nomination} and no {!pairing} (its pairs have no closed form), so
    the chunked engine evaluates each vertex's nomination on a pairing's
    first visit and one nomination per mutual pair on every later one,
    rather than through {!sender}, which evaluates two nominations per
    call and is called for every vertex and every receiver's sender in
    every round.  Its sender stages [candidate p] once per round, so the
    sender path ({!with_drops}, the {!Fault_tolerant} wrappers) pays the
    pairing's work once per round too.
    @raise Invalid_argument on [period < 1]. *)
val proposal : Gossip_topology.Implicit.t -> period:int -> seed:int -> full_duplex:bool -> t

(** {1 Family resolution} *)

(** [of_family ~family ~n ~degree ~full_duplex ()] resolves a family
    name (see {!Gossip_topology.Implicit.known_families}) to the
    smallest instance with at least [n] vertices, paired with its
    natural schedule: structured colorings for hypercube, cycle, torus
    and CCC; {!proposal} (with [?period], [?seed], defaults 64 and 1)
    for de Bruijn and Kautz.  Returns [Error] on an unknown family, an
    [n] the family cannot reach, or [period < 1] (for every family,
    structured ones included). *)
val of_family :
  family:string ->
  n:int ->
  degree:int ->
  ?period:int ->
  ?seed:int ->
  full_duplex:bool ->
  unit ->
  (Gossip_topology.Implicit.t * t, string) result
