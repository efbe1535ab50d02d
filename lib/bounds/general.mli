(** The general lower bounds of Corollary 4.4 and Section 6.

    Directed / half-duplex (Corollary 4.4): any s-systolic gossip protocol
    takes at least [e(s)·log n − O(log log n)] rounds, where
    [e(s) = 1/log(1/λ)] and λ is the unique root in (0, 1) of
    [λ·sqrt(p⌈s/2⌉(λ))·sqrt(p⌊s/2⌋(λ)) = 1].
    As [s → ∞] the equation degenerates to [λ/(1-λ²) = 1], [1/λ] the
    golden ratio, recovering the classical [1.4404·log n] bound of
    [4,17,15,26] up to [O(log log n)].

    Full-duplex (Section 6): same statement with the norm function
    [λ + λ² + ... + λ^(s-1)]; the resulting [e(s)] coincide with the
    broadcasting constants [c(d)] of [22,2] ([1.4404, 1.1374, 1.0562, ...]
    for [s = 3, 4, 5, ...]). *)

(** [norm_function s lambda] is
    [λ·sqrt(p⌈s/2⌉(λ))·sqrt(p⌊s/2⌋(λ))] — the Lemma 4.3 bound on
    [‖M(λ)‖] for period [s].
    @raise Invalid_argument if [s < 3] or [λ] outside (0, 1). *)
val norm_function : int -> float -> float

(** [norm_function_inf lambda] is the [s → ∞] limit [λ/(1-λ²)]. *)
val norm_function_inf : float -> float

(** [norm_function_fd s lambda] is the full-duplex
    [λ + λ² + ... + λ^(s-1)]. *)
val norm_function_fd : int -> float -> float

(** [norm_function_fd_inf lambda] is [λ/(1-λ)]. *)
val norm_function_fd_inf : float -> float

(** [solve_unit f] is the bracketed Brent solve of [f λ = 1] on
    [(1e-9, 1 - 1e-9)] to [1e-14] behind every λ* root: {!lambda_star},
    {!lambda_star_fd} and the admissible end of
    {!Separator_bounds.maximize}.  Its [converged] flag says whether the
    root met that tolerance. *)
val solve_unit : (float -> float) -> Gossip_util.Numeric.root

(** [lambda_star s] is the unique [λ ∈ (0,1)] with
    [norm_function s λ = 1]. *)
val lambda_star : int -> float

(** [lambda_star_inf] is [1/φ = 0.6180...]. *)
val lambda_star_inf : float

(** [lambda_star_fd s] solves [norm_function_fd s λ = 1]. *)
val lambda_star_fd : int -> float

(** [lambda_star_fd_inf] is [1/2]. *)
val lambda_star_fd_inf : float

(** [e s] is the directed/half-duplex systolic coefficient
    [1/log(1/lambda_star s)] — e.g. [e 3 = 2.8808], [e 4 = 1.8133]. *)
val e : int -> float

(** [e_inf] is [1.4404...], the non-systolic coefficient. *)
val e_inf : float

(** [e_fd s] and [e_fd_inf] are the full-duplex analogues
    ([e_fd 3 = 1.4404], [e_fd 4 = 1.1374], ...; [e_fd_inf = 1]). *)
val e_fd : int -> float

val e_fd_inf : float

(** [rounds_lower_bound ~n ~s] is the asymptotic main term
    [⌈e(s)·log₂ n⌉].  Beware: the theorem subtracts an [O(log log n)]
    correction, so this is {e not} a strict finite-[n] bound — use
    {!Gossip_delay.Certificate} when a sound finite-[n] bound is needed. *)
val rounds_lower_bound : n:int -> s:int -> int

(** [coefficient_of_log ~e_coeff ~n] is [e·log₂ n] as a float. *)
val coefficient_of_log : e_coeff:float -> n:int -> float

(** [lambda_star_poly s] recomputes {!lambda_star} by a fully independent
    route: squaring the defining equation gives the polynomial
    [λ²·p⌈s/2⌉(λ)·p⌊s/2⌋(λ) - 1 = 0], built symbolically with
    {!Gossip_linalg.Poly} and solved by bisection.  Used as a
    cross-check in the tests. *)
val lambda_star_poly : int -> float
