(** Spectral radius and Euclidean matrix norm via power iteration.

    The paper's whole machinery funnels into two numeric quantities:
    [‖M‖₂ = sqrt(ρ(MᵀM))] for the delay matrix and its local blocks, and
    [ρ(Ox(λ)Nx(λ))] for the reduced matrices (Lemmas 2.1, 2.2, 4.3).  We
    evaluate both by power iteration: on the symmetric positive
    semidefinite Gram operator for the norm, and directly — with a
    strictly positive start vector, valid for non-negative matrices by
    Perron–Frobenius — for the spectral radius.

    The norm iteration applies the Gram operator [MᵀM] once per step: the
    product taken for a step's Rayleigh quotient is the next step's
    product too, so it is reused rather than recomputed.

    A dense matrix is never iterated whole.  Its columns split into the
    connected components of its Gram support — columns [j] and [k] join
    when some row is nonzero in both — and [MᵀM] is block diagonal over
    them, since columns with disjoint row supports have a Gram entry of
    exactly 0.  Each component's submatrix is solved on its own with the
    same kernel, applied in place ({!Dense.gram_apply_into}).  A
    whole-matrix iterate would crawl between the close top eigenvalues
    of different components; a component's iterate does not, and on a
    nonnegative matrix it stays positive, so it also yields a rigorous
    upper bound (Collatz–Wielandt, the paper's Lemma 2.1 idiom): see
    {!norm2_bracket}. *)

(** Convergence parameters. [tol] is the relative change of the eigenvalue
    estimate between sweeps; [max_iter] caps the sweeps. *)
type options = { tol : float; max_iter : int; seed : int }

(** [default_options] is [{ tol = 1e-12; max_iter = 10_000; seed = 42 }]. *)
val default_options : options

(** A two-sided bracket on [‖M‖₂] with the solver's account of itself. *)
type bracket = {
  lower : float;
      (** the largest component's power-iteration estimate: a Rayleigh
          quotient, which approaches the norm from below *)
  upper : float;
      (** a rigorous upper bound: the square root of the largest
          Collatz–Wielandt ratio [max_j (G·y)_j / y_j] over the
          components' final positive iterates [y], times [1 + 1e-12]
          for rounding *)
  iterations : int;  (** power steps, summed over the components *)
  converged : bool;
      (** every component's stopping rule fired before [max_iter]; a
          capped solve leaves [upper] sound, only wider *)
}

(** [zero_bracket] is the bracket of a zero matrix: both ends 0, no
    steps, converged.  It is the identity of {!bracket_max}. *)
val zero_bracket : bracket

(** [bracket_max a b] is the bracket of a block-diagonal matrix from its
    blocks' brackets (norm property 8): the max of the lowers, the max
    of the uppers, the sum of the iterations and the conjunction of
    [converged].  Every field is exact, so a fold over blocks gives the
    same bits in any order. *)
val bracket_max : bracket -> bracket -> bracket

(** [norm2_bracket m] brackets [‖m‖₂] for a nonnegative [m]:
    [lower ≤ ‖m‖₂ ≤ upper] up to the rounding of [lower].  Each
    component is solved with {!default_options}.  All-zero columns
    contribute 0, and a matrix with no nonzero entry gives
    {!zero_bracket}.
    @raise Invalid_argument if [m] has a negative entry.
    @raise Failure if a component's final iterate has an entry [≤ 0]
    (a component's Gram diagonal is positive, so this takes an
    underflow); no [upper] is ever taken from a non-positive vector. *)
val norm2_bracket : Dense.t -> bracket

(** [norm2_dense ?options m] is the Euclidean (spectral) norm of [m]: the
    largest component estimate, which with the default options and a
    nonnegative [m] is [(norm2_bracket m).lower] bit for bit.  It takes
    any sign of entry. *)
val norm2_dense : ?options:options -> Dense.t -> float

(** [norm2_sparse ?options m] is the Euclidean norm of a sparse matrix,
    computed without densifying, by one power iteration on the whole
    Gram operator. *)
val norm2_sparse : ?options:options -> Sparse.t -> float

(** [norm2_of_ops ?options ~rows ~cols ~mv ~tmv ()] is the Euclidean norm
    of the linear operator given by matrix-vector products with the matrix
    and its transpose, by one power iteration on the whole Gram
    operator. *)
val norm2_of_ops :
  ?options:options ->
  rows:int ->
  cols:int ->
  mv:(Vec.t -> Vec.t) ->
  tmv:(Vec.t -> Vec.t) ->
  unit ->
  float

(** [spectral_radius_nonneg ?options m] estimates [ρ(m)] for a square
    matrix with non-negative entries (power iteration from a positive
    vector).
    @raise Invalid_argument if [m] is not square or has a negative
    entry. *)
val spectral_radius_nonneg : ?options:options -> Dense.t -> float

(** [collatz_wielandt_bounds m x] is [(min_i (Mx)_i/x_i, max_i (Mx)_i/x_i)]
    for a strictly positive [x]: by Collatz–Wielandt both bracket [ρ(m)]
    for non-negative [m].  This is the finite-precision face of the
    paper's Lemma 2.1: a positive semi-eigenvector with semi-eigenvalue
    [e] certifies [ρ(m) ≤ e].
    @raise Invalid_argument if some [x_i ≤ 0]. *)
val collatz_wielandt_bounds : Dense.t -> Vec.t -> float * float

(** [is_semi_eigenvector ?eps m x e] checks Definition 2.2:
    [M·x ≤ e·x] componentwise (within [eps]). *)
val is_semi_eigenvector : ?eps:float -> Dense.t -> Vec.t -> float -> bool
