let default_tol = 1e-12

let log2 x = log x /. log 2.0

let phi = (1.0 +. sqrt 5.0) /. 2.0

let approx_equal ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_bracket name lo hi flo fhi =
  if not (lo < hi) then invalid_arg (name ^ ": empty interval");
  if flo *. fhi > 0.0 then
    invalid_arg
      (Printf.sprintf "%s: f(%g)=%g and f(%g)=%g do not bracket a root" name
         lo flo hi fhi)

type root = { root : float; lo : float; hi : float; converged : bool }

let max_root_steps = 200

let bisect ?(tol = default_tol) ~lo ~hi f =
  let flo = f lo and fhi = f hi in
  check_bracket "Numeric.bisect" lo hi flo fhi;
  let exact x = { root = x; lo = x; hi = x; converged = true } in
  if flo = 0.0 then exact lo
  else if fhi = 0.0 then exact hi
  else
    let rec go lo hi flo iterations =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo <= tol || iterations > max_root_steps then
        { root = mid; lo; hi; converged = hi -. lo <= tol }
      else
        let fmid = f mid in
        if fmid = 0.0 then exact mid
        else if flo *. fmid < 0.0 then go lo mid flo (iterations + 1)
        else go mid hi fmid (iterations + 1)
    in
    go lo hi flo 0

(* Brent's method, following the classical Numerical Recipes formulation:
   keep a bracketing pair (a, b) with f(b) the smaller residual, try
   inverse quadratic / secant steps and fall back to bisection whenever the
   interpolated step would leave the bracket or converge too slowly. *)
let brent ?(tol = default_tol) ~lo ~hi f =
  let fa = f lo and fb = f hi in
  check_bracket "Numeric.brent" lo hi fa fb;
  if fa = 0.0 then { root = lo; lo; hi = lo; converged = true }
  else if fb = 0.0 then { root = hi; lo = hi; hi; converged = true }
  else begin
    let a = ref lo and b = ref hi and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and mflag = ref true in
    let converged = ref false in
    (try
       for _ = 1 to max_root_steps do
         if !fb = 0.0 || Float.abs (!b -. !a) <= tol then begin
           converged := true;
           raise Exit
         end;
         let s =
           if !fa <> !fc && !fb <> !fc then
             (* inverse quadratic interpolation *)
             (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
             +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
             +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
           else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
         in
         let lo_guard = (3.0 *. !a +. !b) /. 4.0 in
         let between =
           if lo_guard < !b then s > lo_guard && s < !b
           else s > !b && s < lo_guard
         in
         let use_bisection =
           (not between)
           || (!mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.0)
           || ((not !mflag) && Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.0)
           || (!mflag && Float.abs (!b -. !c) < tol)
           || ((not !mflag) && Float.abs (!c -. !d) < tol)
         in
         let s = if use_bisection then 0.5 *. (!a +. !b) else s in
         mflag := use_bisection;
         let fs = f s in
         d := !c;
         c := !b;
         fc := !fb;
         if !fa *. fs < 0.0 then begin b := s; fb := fs end
         else begin a := s; fa := fs end;
         if Float.abs !fa < Float.abs !fb then begin
           let t = !a in a := !b; b := t;
           let t = !fa in fa := !fb; fb := t
         end
       done
     with Exit -> ());
    (* (a, b) brackets the root throughout and b has the smaller
       residual; a zero residual is the root itself *)
    if !fb = 0.0 then { root = !b; lo = !b; hi = !b; converged = true }
    else
      {
        root = !b;
        lo = Float.min !a !b;
        hi = Float.max !a !b;
        converged = !converged;
      }
  end

let golden_max ?(tol = default_tol) ~lo ~hi f =
  let inv_phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  (* Standard golden-section: maintain interior points c < d. *)
  let a = lo and b = hi in
  let c = b -. ((b -. a) *. inv_phi) in
  let d = a +. ((b -. a) *. inv_phi) in
  let rec iterate a b c d fc fd n =
    if b -. a <= tol || n > 300 then
      let x = 0.5 *. (a +. b) in
      (x, f x)
    else if fc >= fd then
      let b' = d in
      let d' = c in
      let c' = b' -. ((b' -. a) *. inv_phi) in
      iterate a b' c' d' (f c') fc (n + 1)
    else
      let a' = c in
      let c' = d in
      let d' = a' +. ((b -. a') *. inv_phi) in
      iterate a' b c' d' fd (f d') (n + 1)
  in
  iterate a b c d (f c) (f d) 0

let grid_max ?(points = 2000) ?(refine = true) ~lo ~hi f =
  if not (lo < hi) then invalid_arg "Numeric.grid_max: empty interval";
  let n = max 2 points in
  let best_x = ref lo and best_f = ref neg_infinity in
  for i = 0 to n do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int n) in
    let fx = f x in
    if fx > !best_f then begin
      best_f := fx;
      best_x := x
    end
  done;
  if not refine then (!best_x, !best_f)
  else
    let h = (hi -. lo) /. float_of_int n in
    let a = Float.max lo (!best_x -. h) and b = Float.min hi (!best_x +. h) in
    let x, fx = golden_max ~lo:a ~hi:b f in
    if fx >= !best_f then (x, fx) else (!best_x, !best_f)
