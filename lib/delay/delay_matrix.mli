(** The delay matrix [M(λ)] (Definition 3.4) and its per-vertex blocks.

    [M(λ)] is indexed by arc activations; entry
    [(x,y,i), (y,z,j) ↦ λ^(j-i)] when the delay digraph has that arc, 0
    otherwise.  Its key property: [(M(λ)^k)_{a,b} = Σ_paths λ^length]
    over the [k]-arc dipaths from [a] to [b], so powers of [M(λ)] count
    delay-weighted dissemination paths.

    After simultaneous row/column permutation [M(λ)] splits into [n]
    blocks that share no rows or columns — one block [Mx(λ)] per network
    vertex [x], with rows the in-activations of [x] and columns its
    out-activations (Section 4).  By norm property 8,
    [‖M(λ)‖ = max_x ‖Mx(λ)‖]; both sides are computed here and
    cross-checked in the tests. *)

(** [sparse dg lambda] is the global [M(λ)] as a sparse matrix in
    activation order.
    @raise Invalid_argument unless [0 < λ < 1]. *)
val sparse : Delay_digraph.t -> float -> Gossip_linalg.Sparse.t

(** [vertex_block dg lambda x] is [Mx(λ)]: rows indexed by
    [activations_in dg x], columns by [activations_out dg x], entries
    [λ^(j-i)] when [1 ≤ j - i < window]. *)
val vertex_block : Delay_digraph.t -> float -> int -> Gossip_linalg.Dense.t

(** [norm dg lambda] is an estimate of [‖M(λ)‖] from below, by power
    iteration on the global sparse matrix.  It is the reference that
    {!norm_blockwise} is checked against, not a certified value. *)
val norm : Delay_digraph.t -> float -> float

(** [norm_blockwise ?domains dg lambda] brackets [max_x ‖Mx(λ)‖], which
    equals [‖M(λ)‖] by norm property 8: the max over the blocks of
    {!Gossip_linalg.Spectral.norm2_bracket}, which splits each block's
    Gram matrix into connected components and solves each on its own.
    [upper] is a rigorous upper bound on [‖M(λ)‖] and is what a
    certificate may use; [lower] is the estimate from below that
    {!norm} approximates.

    [Mx(λ)] depends only on the rounds of [x]'s in- and out-activations,
    up to a common shift: its entries are [λ] to round differences.  So
    the call solves one block per distinct (in-round, out-round) pattern
    and runs in parallel over those patterns ([domains] defaults to
    {!Gossip_util.Parallel.recommended_domains}).  The reduction takes
    the max of [lower], the max of [upper], the sum of [iterations] and
    the conjunction of [converged]; all four are exact, so the result is
    bit for bit the same at any domain count.  [lower], [upper] and
    [converged] are the per-vertex fold's; [iterations] counts each
    distinct pattern's solve once.

    Each call adds, on the calling domain, its vertex count to the
    {!Gossip_util.Instrument} counter [delay.blocks], its pattern count
    to [delay.blocks.distinct], its summed power steps to
    [delay.iterations], and 1 to [delay.unconverged] when some component
    solve reached the step cap. *)
val norm_blockwise :
  ?domains:int -> Delay_digraph.t -> float -> Gossip_linalg.Spectral.bracket

(** [norm_lower_bounds dg lambdas] is, for each [λ] of [lambdas] in
    order, a rigorous lower bound [ν̲(λ) ≤ ‖M(λ)‖] read off the block
    patterns without building a matrix or running a solver: the largest
    2-norm of a row or a column of any block.  A block [B] has
    [‖B e_j‖ ≤ ‖B‖] and [‖Bᵀ e_i‖ ≤ ‖Bᵀ‖ = ‖B‖], and [max_x ‖Mx(λ)‖ =
    ‖M(λ)‖] (norm property 8).  Each line's norm is deflated by
    [(k + 2)·ε] for its [k] entries, which covers the rounding of its
    sum of squares and square root, so [ν̲(λ)] stays below the exact
    norm; it is far below the [1e-12] relative slack of
    {!norm_blockwise}'s [upper].

    The call finds the distinct (in-round, out-round) patterns once, then
    sums the squared entries of each of their rows and columns per [λ],
    in O(entries) per [λ] and without a solve.  It adds to no counter.
    @raise Invalid_argument unless every [λ] is in (0, 1). *)
val norm_lower_bounds : Delay_digraph.t -> float list -> float array

(** [closed_form_bound ~mode ~window lambda] is the paper's closed-form
    upper bound on [‖M(λ)‖]:
    [λ·sqrt(p⌈s/2⌉(λ))·sqrt(p⌊s/2⌋(λ))] in directed/half-duplex mode
    (Lemma 4.3) and [λ + λ² + ... + λ^(s-1)] in full-duplex mode
    (Lemma 6.1). *)
val closed_form_bound :
  mode:Gossip_protocol.Protocol.mode -> window:int -> float -> float
