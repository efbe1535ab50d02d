type options = { tol : float; max_iter : int; seed : int }

let default_options = { tol = 1e-12; max_iter = 10_000; seed = 42 }

type bracket = { lower : float; upper : float; iterations : int; converged : bool }

let zero_bracket = { lower = 0.0; upper = 0.0; iterations = 0; converged = true }

(* Every field is combined exactly (max, integer sum, conjunction), so a
   fold of component or block brackets is independent of its order. *)
let bracket_max a b =
  {
    lower = Float.max a.lower b.lower;
    upper = Float.max a.upper b.upper;
    iterations = a.iterations + b.iterations;
    converged = a.converged && b.converged;
  }

(* Relative slack on the Collatz–Wielandt bound: it covers the rounding
   of the product G·y, of the ratios and of the square root. *)
let upper_slack = 1e-12

(* Deterministic strictly positive start vector: a positive start is
   mandatory for Perron-Frobenius convergence on non-negative matrices and
   harmless for Gram operators. *)
let start_vector options n =
  let rng = Gossip_util.Prng.create options.seed in
  let v = Array.init n (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
  ignore (Vec.normalize v);
  v

type solve = {
  eig : float;  (* the last Rayleigh quotient, clamped at 0 *)
  y : Vec.t;  (* the last normalized iterate *)
  gy : Vec.t;  (* the operator applied to [y] *)
  steps : int;
  stopped : bool;  (* the stopping rule fired before the cap *)
}

(* Power iteration for a symmetric positive semidefinite operator of
   dimension [n > 0]. The Rayleigh quotient of a PSD operator increases
   monotonically along the iteration, so the stopping rule on its
   relative change is sound.

   [apply_into v out] writes the operator applied to [v] into [out].  The
   next iterate is the normalized [y] whose Rayleigh quotient was just
   taken, so the product [G·y] computed for that quotient is also the
   next step's product: one application per step, into two buffers that
   swap roles.

   The norm, scaling and dot product are [Vec.norm2], [Vec.scale_into]
   and [Vec.dot] written out in place, in the same order of operations:
   dune's default profile compiles with [-opaque], so each call into
   [Vec] would box its float, and a step would allocate. *)
let power_psd options apply_into n =
  (* the start vector is needed for the first product only; its array
     then serves as the second buffer *)
  let x0 = start_vector options n in
  let y = ref (Array.make n 0.0) and gy = ref x0 in
  apply_into x0 !y;
  let eig = ref 0.0 and steps = ref options.max_iter and stopped = ref false in
  (try
     for k = 1 to options.max_iter do
       let yv = !y in
       let sq = ref 0.0 in
       for i = 0 to n - 1 do
         sq := !sq +. (yv.(i) *. yv.(i))
       done;
       let ny = sqrt !sq in
       if ny = 0.0 then begin
         eig := 0.0;
         steps := k;
         stopped := true;
         raise Exit
       end;
       let c = 1.0 /. ny in
       for i = 0 to n - 1 do
         yv.(i) <- c *. yv.(i)
       done;
       let gyv = !gy in
       apply_into yv gyv;
       let acc = ref 0.0 in
       for i = 0 to n - 1 do
         acc := !acc +. (yv.(i) *. gyv.(i))
       done;
       let rayleigh = !acc in
       if
         Float.abs (rayleigh -. !eig)
         <= options.tol *. Float.max 1.0 (Float.abs rayleigh)
       then begin
         eig := rayleigh;
         steps := k;
         stopped := true;
         raise Exit
       end;
       eig := rayleigh;
       let next = !gy in
       gy := !y;
       y := next
     done
   with Exit -> ());
  (* at the cap the last step swapped the buffers: swap them back, so
     [y] is the last normalized iterate and [gy] its product *)
  if not !stopped then begin
    let next = !gy in
    gy := !y;
    y := next
  end;
  { eig = Float.max 0.0 !eig; y = !y; gy = !gy; steps = !steps; stopped = !stopped }

let norm2_of_ops ?(options = default_options) ~rows ~cols ~mv ~tmv () =
  if rows = 0 || cols = 0 then 0.0
  else
    let gram_apply_into x out = Array.blit (tmv (mv x)) 0 out 0 cols in
    sqrt (power_psd options gram_apply_into cols).eig

(* The connected components of the Gram support of [m]: columns j and k
   join when some row is nonzero in both.  Columns with disjoint row
   supports have a Gram entry of exactly 0, so after a permutation
   [mᵀm] is block diagonal over the components, and ‖m‖ is the max of
   the components' norms.  All-zero columns are in no component.  Each
   component is returned as the submatrix of its rows (those nonzero in
   its columns) and its columns, both ascending; components come in
   order of their first column. *)
let gram_components m =
  let rows = Dense.rows m and cols = Dense.cols m in
  (* union-find over columns; a root is its component's first column *)
  let parent = Array.init cols Fun.id in
  let rec find j =
    let p = parent.(j) in
    if p = j then j
    else begin
      let r = find p in
      parent.(j) <- r;
      r
    end
  in
  let first = Array.make rows (-1) and live = Array.make cols false in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Dense.get m i j <> 0.0 then begin
        live.(j) <- true;
        if first.(i) < 0 then first.(i) <- j
        else begin
          let a = find first.(i) and b = find j in
          if a <> b then parent.(Int.max a b) <- Int.min a b
        end
      end
    done
  done;
  let label = Array.make cols (-1) and count = ref 0 in
  for j = 0 to cols - 1 do
    if live.(j) then begin
      let r = find j in
      if r = j then begin
        label.(j) <- !count;
        incr count
      end
      else label.(j) <- label.(r)
    end
  done;
  let member_cols = Array.make !count [] in
  let member_rows = Array.make !count [] in
  for j = cols - 1 downto 0 do
    if live.(j) then member_cols.(label.(j)) <- j :: member_cols.(label.(j))
  done;
  for i = rows - 1 downto 0 do
    if first.(i) >= 0 then
      let c = label.(first.(i)) in
      member_rows.(c) <- i :: member_rows.(c)
  done;
  Array.init !count (fun c ->
      let rs = Array.of_list member_rows.(c)
      and cs = Array.of_list member_cols.(c) in
      Dense.init (Array.length rs) (Array.length cs) (fun i j ->
          Dense.get m rs.(i) cs.(j)))

(* One power iteration per component, on its Gram operator applied in
   place. *)
let solve_component options b =
  let tmp = Array.make (Dense.rows b) 0.0 in
  power_psd options
    (fun x out -> Dense.gram_apply_into b x ~tmp ~out)
    (Dense.cols b)

let norm2_dense ?(options = default_options) m =
  Array.fold_left
    (fun acc b -> Float.max acc (sqrt (solve_component options b).eig))
    0.0 (gram_components m)

(* Collatz–Wielandt: for a nonnegative G and a positive x,
   min_i (G·x)_i / x_i ≤ ρ(G) ≤ max_i (G·x)_i / x_i, where [gx] is G·x.
   [not_positive] raises when some x_i is not > 0. *)
let ratio_range ~not_positive x gx =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iteri
    (fun i xi ->
      if not (xi > 0.0) then not_positive ();
      let r = gx.(i) /. xi in
      if r < !lo then lo := r;
      if r > !hi then hi := r)
    x;
  (!lo, !hi)

let norm2_bracket m =
  if not (Dense.nonneg m) then
    invalid_arg "Spectral.norm2_bracket: negative entry";
  let not_positive () = failwith "Spectral.norm2_bracket: non-positive iterate" in
  Array.fold_left
    (fun acc b ->
      let s = solve_component default_options b in
      let _, cw = ratio_range ~not_positive s.y s.gy in
      bracket_max acc
        {
          lower = sqrt s.eig;
          upper = sqrt cw *. (1.0 +. upper_slack);
          iterations = s.steps;
          converged = s.stopped;
        })
    zero_bracket (gram_components m)

let norm2_sparse ?(options = default_options) m =
  norm2_of_ops ~options ~rows:(Sparse.rows m) ~cols:(Sparse.cols m)
    ~mv:(Sparse.mv m) ~tmv:(Sparse.tmv m) ()

let spectral_radius_nonneg ?(options = default_options) m =
  if Dense.rows m <> Dense.cols m then
    invalid_arg "Spectral.spectral_radius_nonneg: matrix not square";
  if not (Dense.nonneg m) then
    invalid_arg "Spectral.spectral_radius_nonneg: negative entry";
  let n = Dense.rows m in
  if n = 0 then 0.0
  else begin
    (* ρ(M) = sqrt(ρ(M²ᵀM²))^(1/2)-style tricks are unreliable for
       non-normal M; instead we use the fact that for non-negative M,
       ρ(M) = lim ‖M^k x‖ / ‖M^(k-1) x‖ for positive x, and that the
       iteration below stabilizes on that ratio. *)
    let x = ref (start_vector options n) in
    let estimate = ref 0.0 in
    (try
       for _ = 1 to options.max_iter do
         let y = Dense.mv m !x in
         let ny = Vec.norm2 y in
         if ny = 0.0 then begin
           estimate := 0.0;
           raise Exit
         end;
         Vec.scale_into y (1.0 /. ny);
         if
           Float.abs (ny -. !estimate)
           <= options.tol *. Float.max 1.0 (Float.abs ny)
         then begin
           estimate := ny;
           raise Exit
         end;
         estimate := ny;
         x := y
       done
     with Exit -> ());
    !estimate
  end

let collatz_wielandt_bounds m x =
  if Dense.rows m <> Dense.cols m then
    invalid_arg "Spectral.collatz_wielandt_bounds: matrix not square";
  ratio_range
    ~not_positive:(fun () ->
      invalid_arg "Spectral.collatz_wielandt_bounds: vector not positive")
    x (Dense.mv m x)

let is_semi_eigenvector ?(eps = 1e-9) m x e =
  Array.length x = Dense.cols m
  && Dense.rows m = Dense.cols m
  &&
  let y = Dense.mv m x in
  Array.for_all2
    (fun yi xi -> yi <= (e *. xi) +. (eps *. Float.max 1.0 (Float.abs (e *. xi))))
    y x
