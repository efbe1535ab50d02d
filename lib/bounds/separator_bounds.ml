module Numeric = Gossip_util.Numeric

let maximize ~alpha ~ell ~f =
  (* The admissible region is (0, λ_star] with f(λ_star) = 1; the objective is
     smooth there, and grid + golden refinement is robust to the flat
     regions near both ends. *)
  let lambda_star = (General.solve_unit f).Numeric.root in
  let objective lambda =
    if lambda <= 0.0 || lambda >= 1.0 then neg_infinity
    else
      let v = f lambda in
      if v > 1.0 then neg_infinity
      else ell *. (alpha -. Numeric.log2 v) /. Numeric.log2 (1.0 /. lambda)
  in
  Numeric.grid_max ~points:4000 ~lo:1e-6 ~hi:lambda_star objective

let e_half_duplex ~alpha ~ell ~s =
  snd (maximize ~alpha ~ell ~f:(General.norm_function s))

let e_half_duplex_inf ~alpha ~ell =
  snd (maximize ~alpha ~ell ~f:General.norm_function_inf)

let e_full_duplex ~alpha ~ell ~s =
  snd (maximize ~alpha ~ell ~f:(General.norm_function_fd s))

let e_full_duplex_inf ~alpha ~ell =
  snd (maximize ~alpha ~ell ~f:General.norm_function_fd_inf)
