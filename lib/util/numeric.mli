(** Scalar numeric routines used by the bound computations.

    Every bound in the paper reduces to either a root of a monotone
    function on (0, 1) — e.g. the unique [λ] with
    [λ·sqrt(p⌈s/2⌉(λ))·sqrt(p⌊s/2⌋(λ)) = 1] of Corollary 4.4 — or a
    maximization of a smooth unimodal expression over an interval
    (Theorem 5.1).  We provide bracketed bisection, Brent root refinement
    and a grid + golden-section maximizer; none of these need external
    dependencies and all are deterministic. *)

(** Default absolute tolerance used by the solvers ([1e-12]). *)
val default_tol : float

(** A root solve's account of itself: the estimate callers use, an
    interval [lo, hi] that brackets the root, and whether the stopping
    rule fired within the step cap (200 steps).  A solve that ran out of
    steps still brackets the root, only more widely than [tol]. *)
type root = {
  root : float;  (** the estimate *)
  lo : float;
  hi : float;  (** [lo ≤ root ≤ hi], and [f] changes sign on [lo, hi] *)
  converged : bool;
}

(** [bisect ?tol ~lo ~hi f] finds [x] in [lo, hi] with [f x = 0], assuming
    [f lo] and [f hi] have opposite signs (one may be zero).  The
    estimate is the final bracket's midpoint; it converged when the
    bracket is at most [tol] wide or a probe hit [f = 0] exactly.
    @raise Invalid_argument if the bracket is invalid. *)
val bisect : ?tol:float -> lo:float -> hi:float -> (float -> float) -> root

(** [brent ?tol ~lo ~hi f] is a faster bracketed root finder (inverse
    quadratic interpolation with bisection fallback), same contract as
    {!bisect}.  The estimate is the bracket end with the smaller
    residual. *)
val brent : ?tol:float -> lo:float -> hi:float -> (float -> float) -> root

(** [golden_max ?tol ~lo ~hi f] maximizes the unimodal [f] on [lo, hi] and
    returns [(argmax, max)]. *)
val golden_max :
  ?tol:float -> lo:float -> hi:float -> (float -> float) -> float * float

(** [grid_max ?points ?refine ~lo ~hi f] maximizes an arbitrary continuous
    [f] by scanning [points] samples (default 2000) and refining around the
    best one with golden section when [refine] (default true).  Returns
    [(argmax, max)].  Robust to mild multi-modality. *)
val grid_max :
  ?points:int ->
  ?refine:bool ->
  lo:float ->
  hi:float ->
  (float -> float) ->
  float * float

(** [log2 x] is the base-2 logarithm. The paper takes all logs to base 2. *)
val log2 : float -> float

(** [approx_equal ?eps a b] is [|a - b| <= eps] (default [1e-9]) scaled
    mildly by magnitude. *)
val approx_equal : ?eps:float -> float -> float -> bool

(** The golden ratio [(1 + sqrt 5)/2]; [1/phi = 0.6180...] is the
    [s → ∞] root of the half-duplex bound equation. *)
val phi : float
