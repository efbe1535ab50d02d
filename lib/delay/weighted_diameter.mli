(** Norm-based lower bounds on the diameter of weighted digraphs.

    The paper's conclusion suggests the delay-matrix technique "can be
    applied also in other more general contexts ... for instance to
    establish lower bounds on the diameter of weighted digraphs"; this
    module implements that extension.

    Let [G] be a strongly connected digraph with positive integer arc
    weights and let [B(λ)] be the matrix with [B(λ)_{u,v} = λ^{w(u,v)}]
    on arcs and 0 elsewhere.  Since [(B^k)_{u,v} = Σ_paths λ^weight], for
    every ordered pair [Σ_{k≥1} (B^k)_{u,v} ≥ λ^{dist(u,v)} ≥ λ^D] where
    [D] is the weighted diameter.  Taking norms as in Theorem 4.1, when
    [ν = ‖B(λ)‖ < 1]:

    [ν / (1 - ν)  ≥  ‖Σ B^k‖  ≥  λ^D·(n - 1)]

    hence [D ≥ (log₂(n - 1) - log₂(ν/(1 - ν))) / log₂(1/λ)].  Maximizing
    over λ gives the bound.  The bound falls as ν grows, so ν is the
    rigorous upper end of {!Gossip_linalg.Spectral.norm2_bracket}, not
    a power-iteration estimate from below. *)

(** A weighted digraph: arcs with positive integer weights.  Duplicate
    arcs are rejected. *)
type t

(** [make n arcs] builds a weighted digraph on [n] vertices from
    [(src, dst, weight)] triples.
    @raise Invalid_argument on out-of-range vertices, self-loops,
    non-positive weights or duplicate arcs. *)
val make : int -> (int * int * int) list -> t

(** [of_digraph ?weight g] lifts an unweighted digraph (default weight
    1 per arc, in which case the bound concerns the ordinary diameter). *)
val of_digraph : ?weight:int -> Gossip_topology.Digraph.t -> t

(** [n_vertices w] and [n_arcs w]. *)
val n_vertices : t -> int

val n_arcs : t -> int

(** [matrix w lambda] is [B(λ)] as a sparse matrix. *)
val matrix : t -> float -> Gossip_linalg.Sparse.t

(** [diameter w] — exact weighted diameter by Dijkstra from every vertex
    ([max_int] when not strongly connected). *)
val diameter : t -> int

(** [lower_bound ?lambdas w] — the norm-based diameter lower bound,
    maximized over a λ grid.  Always [≥ 1] for a nontrivial digraph, and
    (checked in the tests) never exceeds {!diameter}. *)
val lower_bound : ?lambdas:float list -> t -> int
