(** Executable lower-bound certificates (Theorems 4.1 and 5.1).

    Theorem 4.1, made finite and effective: let [ν = ‖M(λ)‖] for some
    [0 < λ < 1], let [m(t)] be the number of arc activations in the first
    [t] rounds.  If the protocol completes gossip within [t] rounds, then
    every ordered vertex pair is joined by a dipath of at most [t] arcs
    and weight at most [t] in the delay digraph, so

    [ν + ν² + ... + ν^t  ≥  ‖M + M² + ... + M^t‖ ≥ λ^t · n(n-1)/m(t)].

    A round count [t] that violates this inequality is therefore
    {e impossible}, and the smallest non-violating [t] is a certified
    lower bound on the gossip time of {e this} protocol.  The separator
    variant (Theorem 5.1) restricts pairs to [V1 × V2] at distance [≥ d]
    and starts the sum at [ν^(d-1)]:

    [ν^(d-1) + ... + ν^t ≥ λ^t · c / t]  with  [c = min(|V1|, |V2|)].

    The certificate search maximizes the bound over a λ grid.  The
    inequality needs [ν ≥ ‖M(λ)‖]: a smaller ν rules out more round
    counts, so ν is the upper end of a rigorous bracket
    ({!Delay_matrix.norm_blockwise}), never an iterative estimate that
    approaches the norm from below.

    {b The search is a branch and bound.}  The certified bound is
    non-increasing in ν, so a rigorous lower bound [ν̲(λ) ≤ ‖M(λ)‖]
    ({!Delay_matrix.norm_lower_bounds}, the largest row or column norm
    of a block, read off the round patterns) caps what λ can certify:
    [U(λ)], the bound [ν̲(λ)] would certify, is at least the bound of
    λ's full solve.  The search computes every cap first, then solves
    the grid by cap descending, ties by grid position, and skips each λ
    whose cap is below the best bound so far, or equal to it at a later
    grid position: under the first-strict-max rule such a λ cannot
    displace the winner.  The refinement visits its candidates in grid
    order and skips each whose cap is at most the best bound.  The
    winner's fields come from its own norm solve, so the certificate is
    the one an exhaustive sweep returns, bit for bit; only the losing
    λ's solves are saved.  The caps are sound for ν taken from
    {!Delay_matrix.norm_blockwise}: its [upper] carries a [1e-12]
    relative slack, far above the rounding of [ν̲(λ)] and of the
    powers [ν^k]. *)

type t = {
  lambda : float;  (** the λ achieving the best bound *)
  norm : float;
      (** the certified [ν ≥ ‖M(λ)‖] at that λ: the bracket's upper
          end *)
  norm_lower : float;
      (** the bracket's lower end, a power-iteration estimate of
          [‖M(λ)‖] from below *)
  iterations : int;  (** power steps the bracket took at that λ *)
  converged : bool;
      (** every component solve at that λ stopped before its step cap;
          [false] leaves [norm] sound, only less tight *)
  closed_form : float;  (** Lemma 4.3 / 6.1 closed-form bound on the norm *)
  bound : int;  (** certified lower bound on the gossip time *)
  activations : int;  (** [m] over the analyzed horizon *)
}

(** [certify ?refine ?norm dg ~mode] computes the Theorem 4.1
    certificate for the delay digraph of a concrete protocol over the
    19-point λ grid 0.05, 0.10, …, 0.95; with [refine] (default false) a
    second, finer λ grid is scanned around the coarse winner — the bound
    can only improve; [mode] selects the closed-form comparison (it does
    not change the numeric norm).  [norm], when given, replaces the
    default [‖M(λ)‖] bracket ({!Delay_matrix.norm_blockwise}) — the
    memoizing analysis context injects its cached evaluator here, so
    repeated λ sweeps over the same delay digraph reuse norm solves.
    [norm] is called only for the λ the search does not skip (see
    above), at most once per λ.

    The contract of [norm]: its [upper] must be at least [‖M(λ)‖].  The
    bound is computed from [upper] alone, so a smaller one makes the
    certificate unsound; the search also relies on it, since a λ is
    skipped when even [ν̲(λ) ≤ ‖M(λ)‖ ≤ upper] could not win.  The
    other fields are carried into the certificate unread. *)
val certify :
  ?refine:bool ->
  ?norm:(Delay_digraph.t -> float -> Gossip_linalg.Spectral.bracket) ->
  Delay_digraph.t ->
  mode:Gossip_protocol.Protocol.mode ->
  t

(** [certify_separator dg ~mode ~sep] is the Theorem 5.1 variant:
    pairs restricted to the separator's [V1 × V2] with their measured BFS
    distance. *)
val certify_separator :
  Delay_digraph.t ->
  mode:Gossip_protocol.Protocol.mode ->
  sep:Gossip_topology.Separator.t ->
  t

(** [impossible_t ~nu ~lambda ~pairs ~m ~start t] — the raw inequality
    test: [true] when round count [t] is ruled out, i.e.
    [Σ_{k=start}^{t} ν^k < λ^t · pairs / m].  Exposed for tests. *)
val impossible_t :
  nu:float -> lambda:float -> pairs:float -> m:float -> start:int -> int -> bool

(** [to_json c] — the certificate as a JSON object
    [{bound, lambda, norm, norm_lower, closed_form, activations,
    iterations, converged}], the
    machine-readable form used by the [--json] CLI modes and the bench
    report. *)
val to_json : t -> Gossip_util.Json.t

(** [certify_systolic ?refine sys] — horizon-free certificate
    for a systolic protocol: expands the period to growing lengths until
    the certified bound stabilizes (two consecutive doublings agree), so
    the caller does not have to guess an expansion length.  The result
    certifies every expansion at least as long as the analyzed one. *)
val certify_systolic : ?refine:bool -> Gossip_protocol.Systolic.t -> t
