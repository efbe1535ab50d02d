(** The delay digraph of a gossip protocol (Definition 3.3).

    Given a protocol [⟨A_1, ..., A_t⟩], the delay digraph [DG] has one
    vertex per {e arc activation} [(x, y, i)] with [(x, y) ∈ A_i], and an
    arc from [(x, y, i)] to [(y, z, j)] — an item can cross [(x, y)] at
    round [i] and then [(y, z)] at round [j] — whenever [1 ≤ j - i < s],
    weighted by the delay [j - i].  For an s-systolic protocol delays
    beyond [s - 1] repeat an earlier activation of the same arc, which is
    why the window stops at [s - 1]; for an unrestricted protocol the
    window is the full length [t].

    We build [DG] for a concrete finite protocol (usually a systolic
    protocol expanded to its measured length): activations are indexed
    densely in round order, and each network vertex keeps its in- and
    out-activations, so the per-vertex blocks [Mx(λ)] of Section 4 can
    be extracted.  That is all that is stored, about seven words per
    activation: the delay arcs out of [(x, y, i)] are the activations
    leaving [y] at rounds [i + 1] to [i + s - 1], found by a binary
    search in [y]'s out-list and enumerated on demand. *)

type activation = { src : int; dst : int; round : int }
(** Arc [src → dst] active at [round] (0-based). *)

type t

(** [build p ~window] constructs the delay digraph of the finite protocol
    [p] with the given delay window ([window = s] for a period-[s]
    systolic expansion, [window = length p] for an unrestricted
    protocol).
    @raise Invalid_argument if [window < 2]. *)
val build : Gossip_protocol.Protocol.t -> window:int -> t

(** [of_systolic p ~length] expands the systolic protocol to [length]
    rounds and builds its delay digraph with [window = max 2 (period p)]
    (a period-1 protocol has no chaining, and the clamped window only adds
    arcs, which weakens but never unsounds the certificates). *)
val of_systolic : Gossip_protocol.Systolic.t -> length:int -> t

(** [n_activations dg] is [|V'|]. *)
val n_activations : t -> int

(** [activation dg k] is the [k]-th activation. *)
val activation : t -> int -> activation

(** [find dg ~src ~dst ~round] is the index of that activation, if any:
    a scan of [activations_out dg src], O(out-degree of [src]). *)
val find : t -> src:int -> dst:int -> round:int -> int option

(** [n_delay_arcs dg] is [|A'|], counted once at build. *)
val n_delay_arcs : t -> int

(** [iter_arcs f dg] applies [f ~tail ~head ~delay] to every delay arc
    (tail and head are activation indices), by tail index ascending and,
    for one tail, by head index ascending (so by round).
    {!Delay_matrix.sparse} builds [M(λ)] in this order. *)
val iter_arcs : (tail:int -> head:int -> delay:int -> unit) -> t -> unit

(** [window dg] is the delay window [s] it was built with, and
    [protocol_length dg] the underlying protocol length [t]. *)
val window : t -> int

val protocol_length : t -> int

(** [graph dg] is the underlying network. *)
val graph : t -> Gossip_topology.Digraph.t

(** [activations_in dg x] are indices of activations [(·, x, ·)] entering
    [x], sorted by round; [activations_out dg x] those leaving [x]. *)
val activations_in : t -> int -> int array

val activations_out : t -> int -> int array

(** [fingerprint dg] — structural digest of the delay digraph: network
    name and size, window, protocol length, and a rolling hash over the
    full activation list.  Two structurally different expansions of
    equal size yield different fingerprints (up to hash collision over
    62 bits).  Used as a cache key by {!Core.Context} and as the span
    tag of the certificate telemetry.  O(activations) per call. *)
val fingerprint : t -> string

(** [distances_from dg k] returns, for every activation, the total weight
    of a dipath from [k] to it ([max_int] when unreachable).  Along any
    dipath the weights telescope to the round difference of the
    endpoints — the "overall delay" property stated after Definition 3.3 —
    so all dipaths between two activations have equal length; the tests
    re-check this invariant. *)
val distances_from : t -> int -> int array

(** [to_dot dg] renders the delay digraph in Graphviz DOT: one node per
    activation labelled ["x->y @ round"], one arc per delay labelled with
    its weight. Intended for the small instances of the examples. *)
val to_dot : t -> string
