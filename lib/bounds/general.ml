module Numeric = Gossip_util.Numeric
module Poly = Gossip_linalg.Poly

let check_lambda lambda =
  if not (lambda > 0.0 && lambda < 1.0) then
    invalid_arg "General: lambda must be in (0, 1)"

let norm_function s lambda =
  if s < 3 then invalid_arg "General.norm_function: s must be >= 3";
  check_lambda lambda;
  let hi = (s + 1) / 2 and lo = s / 2 in
  lambda *. sqrt (Poly.delay_eval hi lambda) *. sqrt (Poly.delay_eval lo lambda)

let norm_function_inf lambda =
  check_lambda lambda;
  lambda /. (1.0 -. (lambda *. lambda))

let norm_function_fd s lambda =
  if s < 3 then invalid_arg "General.norm_function_fd: s must be >= 3";
  check_lambda lambda;
  Poly.geometric lambda (s - 1)

let norm_function_fd_inf lambda =
  check_lambda lambda;
  lambda /. (1.0 -. lambda)

(* All four norm functions are strictly increasing in λ on (0, 1) and
   cross 1 exactly once; a bracketed Brent solve is enough. *)
let solve_unit f =
  Numeric.brent ~tol:1e-14 ~lo:1e-9 ~hi:(1.0 -. 1e-9) (fun l -> f l -. 1.0)

let lambda_star s = (solve_unit (norm_function s)).Numeric.root

let lambda_star_inf = 1.0 /. Numeric.phi

let lambda_star_fd s = (solve_unit (norm_function_fd s)).Numeric.root

let lambda_star_fd_inf = 0.5

let e_of_lambda lambda = 1.0 /. Numeric.log2 (1.0 /. lambda)

let e s = e_of_lambda (lambda_star s)

let e_inf = e_of_lambda lambda_star_inf

let e_fd s = e_of_lambda (lambda_star_fd s)

let e_fd_inf = 1.0

let coefficient_of_log ~e_coeff ~n =
  e_coeff *. Numeric.log2 (float_of_int n)

let rounds_lower_bound ~n ~s =
  int_of_float (ceil (coefficient_of_log ~e_coeff:(e s) ~n))

let lambda_star_poly s =
  if s < 3 then invalid_arg "General.lambda_star_poly: s must be >= 3";
  let open Gossip_linalg in
  let hi = (s + 1) / 2 and lo = s / 2 in
  let square = Poly.mul (Poly.monomial 2 1.0) in
  let p = square (Poly.mul (Poly.delay hi) (Poly.delay lo)) in
  (Numeric.bisect ~tol:1e-14 ~lo:1e-9 ~hi:(1.0 -. 1e-9) (fun l ->
       Poly.eval p l -. 1.0))
    .Numeric.root
