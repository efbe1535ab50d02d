(** Ready-made gossip protocols.

    These play the role of the cited upper-bound constructions
    ([8,11,14,20,24,25]): concrete, verifiable protocols whose measured
    gossip times sandwich the lower bounds in the benchmark tables.  None
    of them claims optimality — the reproduction only needs valid upper
    bounds of the right shape. *)

(** [edge_coloring_half_duplex g] — color the edges (best of greedy and
    Misra-Gries, at most Δ+1 classes), then cycle
    through the color classes sending "forward" (lower index to higher)
    for one sweep and "backward" for the next: an s-systolic half-duplex
    protocol with [s = 2·colors].  Works on any symmetric digraph. *)
val edge_coloring_half_duplex : Gossip_topology.Digraph.t -> Systolic.t

(** [edge_coloring_full_duplex g] — one full-duplex round per color class;
    [s = colors].  This is Liestman–Richards periodic gossiping. *)
val edge_coloring_full_duplex : Gossip_topology.Digraph.t -> Systolic.t

(** [hypercube_sweep ~dim ~full_duplex] — dimension-order allgather on
    [Q(dim)]: in full-duplex mode one exchange round per dimension
    (gossip in exactly [dim = log n] rounds, optimal); in half-duplex two
    rounds per dimension. *)
val hypercube_sweep : dim:int -> full_duplex:bool -> Systolic.t

(** [complete_doubling ~dim ~full_duplex] — the same recursive-doubling
    pattern run on the complete graph [K(2^dim)] (items always fit the
    hypercube sub-edges of [K_n]). *)
val complete_doubling : dim:int -> full_duplex:bool -> Systolic.t

(** [path_wave n] — the period-4 half-duplex protocol on the path
    [P(n)]: even edges forward, odd edges forward, even backward, odd
    backward. Gossip completes in [2n + O(1)] rounds. *)
val path_wave : int -> Systolic.t

(** [cycle_rotate n] — half-duplex protocol on the cycle [C(n)] ([n]
    even): alternate the two perfect matchings, reversing direction every
    other sweep ([s = 4]); items travel one direction at one edge per two
    rounds.
    @raise Invalid_argument if [n] is odd (use {!edge_coloring_half_duplex}
    then). *)
val cycle_rotate : int -> Systolic.t

(** [random_systolic g mode ~period ~seed ~density] — a valid random
    [s]-systolic protocol: every round is a random matching for the mode
    containing roughly [density · max_matching] arcs (density in [0, 1]).
    The workhorse of the property-based tests. *)
val random_systolic :
  Gossip_topology.Digraph.t ->
  Protocol.mode ->
  period:int ->
  seed:int ->
  density:float ->
  Systolic.t

(** [tree_updown ~d ~depth] — gather-then-scatter on the complete d-ary
    tree: the period sweeps each (level, child-index) matching upward from
    the deepest level, then downward; [s = 2·d·depth] and one period
    completes gossip. *)
val tree_updown : d:int -> depth:int -> Systolic.t

(** [grid_rowcol ~rows ~cols] — period-8 half-duplex protocol on the
    mesh: wave along rows (even edges, odd edges, then reversed), then
    along columns; items zigzag towards every corner. *)
val grid_rowcol : rows:int -> cols:int -> Systolic.t

(** [knoedel_sweep ~delta ~n] — the classical Knödel gossip protocol on
    [W_{Δ,n}]: full-duplex round [k] exchanges along all edges of offset
    [2^k - 1] simultaneously (a perfect matching); period [Δ]. *)
val knoedel_sweep : delta:int -> n:int -> Systolic.t

(** [default_systolic g ~full_duplex] — the protocol the command line
    and the server run on a named network: {!edge_coloring_full_duplex}
    or {!edge_coloring_half_duplex} on a symmetric [g], otherwise
    [random_systolic g Directed ~period:8 ~seed:1 ~density:1.0]. *)
val default_systolic :
  Gossip_topology.Digraph.t -> full_duplex:bool -> Systolic.t
