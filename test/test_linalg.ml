(* Tests for Gossip_linalg: vectors, dense/sparse matrices, the delay
   polynomials p_i(λ), and spectral computations.  The property tests
   replay the matrix-norm facts of Section 2 of the paper. *)

open Gossip_linalg
module Numeric = Gossip_util.Numeric

let check = Alcotest.(check bool)
let checkf msg a b = Alcotest.(check (float 1e-9)) msg a b

(* --- Vec --- *)

let test_vec_ops () =
  let a = [| 3.0; 4.0 |] in
  checkf "norm2" 5.0 (Vec.norm2 a);
  checkf "norm1" 7.0 (Vec.norm1 a);
  checkf "norm_inf" 4.0 (Vec.norm_inf a);
  checkf "dot" 25.0 (Vec.dot a a);
  let b = Vec.sub a a in
  checkf "a - a = 0" 0.0 (Vec.norm2 b);
  let b' = Vec.add a (Vec.scale a (-1.0)) in
  checkf "a + (-1)a = 0" 0.0 (Vec.norm2 b');
  let d = Array.copy a in
  let n = Vec.normalize d in
  checkf "normalize returns old norm" 5.0 n;
  checkf "normalized has unit norm" 1.0 (Vec.norm2 d)

let test_vec_lambda_profile () =
  let v = Vec.lambda_profile 4 0.5 in
  check "profile values" true (Vec.equal v [| 1.0; 0.5; 0.25; 0.125 |])

let test_vec_concat () =
  let v = Vec.concat [ [| 1.0 |]; [| 2.0; 3.0 |]; [||] ] in
  check "concat" true (v = [| 1.0; 2.0; 3.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy ~alpha:2.0 [| 1.0; 2.0 |] y;
  check "axpy" true (Vec.equal y [| 3.0; 5.0 |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch") (fun () ->
      ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

(* --- Dense --- *)

let m_of rows = Dense.of_arrays (Array.of_list (List.map Array.of_list rows))

let test_dense_mul () =
  let a = m_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let b = m_of [ [ 5.0; 6.0 ]; [ 7.0; 8.0 ] ] in
  let c = Dense.mul a b in
  check "product" true
    (Dense.equal c (m_of [ [ 19.0; 22.0 ]; [ 43.0; 50.0 ] ]))

let test_dense_transpose_gram () =
  let a = m_of [ [ 1.0; 2.0; 3.0 ]; [ 4.0; 5.0; 6.0 ] ] in
  let t = Dense.transpose a in
  Alcotest.(check int) "transpose rows" 3 (Dense.rows t);
  check "gram is symmetric" true (Dense.is_symmetric (Dense.gram a));
  check "transpose entries" true (Dense.get t 2 1 = 6.0)

let test_dense_mv_tmv () =
  let a = m_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ]; [ 5.0; 6.0 ] ] in
  let x = [| 1.0; 1.0 |] in
  check "mv" true (Vec.equal (Dense.mv a x) [| 3.0; 7.0; 11.0 |]);
  let y = [| 1.0; 1.0; 1.0 |] in
  check "tmv = transpose mv" true
    (Vec.equal (Dense.tmv a y) (Dense.mv (Dense.transpose a) y))

let test_dense_permutations_norms () =
  let a = m_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  checkf "norm1 (max col sum)" 6.0 (Dense.norm1 a);
  checkf "norm_inf (max row sum)" 7.0 (Dense.norm_inf a);
  checkf "frobenius" (sqrt 30.0) (Dense.frobenius a);
  let p = Dense.permute_rows a [| 1; 0 |] in
  check "row permutation" true
    (Dense.equal p (m_of [ [ 3.0; 4.0 ]; [ 1.0; 2.0 ] ]))

let test_dense_block_submatrix_outer () =
  let b1 = m_of [ [ 1.0 ] ] and b2 = m_of [ [ 2.0; 0.0 ]; [ 0.0; 3.0 ] ] in
  let bd = Dense.block_diag [ b1; b2 ] in
  Alcotest.(check int) "block rows" 3 (Dense.rows bd);
  check "block placement" true (Dense.get bd 1 1 = 2.0 && Dense.get bd 0 1 = 0.0);
  let sub = Dense.submatrix bd ~row:1 ~col:1 ~rows:2 ~cols:2 in
  check "submatrix extract" true (Dense.equal sub b2);
  let o = Dense.outer [| 1.0; 2.0 |] [| 3.0; 4.0 |] in
  check "outer" true (Dense.equal o (m_of [ [ 3.0; 4.0 ]; [ 6.0; 8.0 ] ]))

let test_dense_errors () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Dense.of_arrays: ragged rows") (fun () ->
      ignore (Dense.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]));
  let a = Dense.identity 2 in
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Dense.permute_rows: not a permutation") (fun () ->
      ignore (Dense.permute_rows a [| 0; 0 |]))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The in-place Gram product must be [tmv (mv x)] bit for bit on
   non-square matrices, all-zero rows (the skipped ones) included. *)
let prop_gram_apply_into_bitwise =
  QCheck.Test.make ~name:"gram_apply_into = tmv (mv x), bit for bit" ~count:200
    QCheck.(
      make
        Gen.(
          let* a = int_range 1 8 in
          let* b = int_range 1 4 in
          let* tall = bool in
          let rows, cols = if tall then (a + b, a) else (a, a + b) in
          let* zero_row = array_size (return rows) (float_bound_inclusive 1.0) in
          let* data = array_size (return (rows * cols)) (float_range (-2.0) 2.0) in
          let* x = array_size (return cols) (float_range (-2.0) 2.0) in
          let m =
            Dense.init rows cols (fun i j ->
                if zero_row.(i) < 0.3 then 0.0 else data.((i * cols) + j))
          in
          return (m, x)))
    (fun (m, x) ->
      let tmp = Array.make (Dense.rows m) Float.nan in
      let out = Array.make (Dense.cols m) Float.nan in
      Dense.gram_apply_into m x ~tmp ~out;
      same_bits out (Dense.tmv m (Dense.mv m x)))

(* --- Sparse --- *)

let test_sparse_roundtrip () =
  let d = m_of [ [ 0.0; 1.5; 0.0 ]; [ 2.0; 0.0; 0.0 ]; [ 0.0; 0.0; 3.0 ] ] in
  let s = Sparse.of_dense d in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz s);
  check "roundtrip" true (Dense.equal (Sparse.to_dense s) d);
  checkf "get stored" 1.5 (Sparse.get s 0 1);
  checkf "get zero" 0.0 (Sparse.get s 0 0)

let test_sparse_duplicates () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 0.0) ] in
  Alcotest.(check int) "dups merged, zeros dropped" 1 (Sparse.nnz s);
  checkf "summed" 3.0 (Sparse.get s 0 0)

let test_sparse_mv () =
  let d = m_of [ [ 1.0; 2.0 ]; [ 0.0; 3.0 ] ] in
  let s = Sparse.of_dense d in
  let x = [| 1.0; 2.0 |] in
  check "mv matches dense" true (Vec.equal (Sparse.mv s x) (Dense.mv d x));
  check "tmv matches dense" true (Vec.equal (Sparse.tmv s x) (Dense.tmv d x));
  check "transpose matches dense" true
    (Dense.equal (Sparse.to_dense (Sparse.transpose s)) (Dense.transpose d))

let test_sparse_row_stats () =
  let s = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 1.0); (0, 2, 1.0); (2, 1, 5.0) ] in
  Alcotest.(check int) "row 0 nnz" 2 (Sparse.row_nnz s 0);
  Alcotest.(check int) "row 1 nnz" 0 (Sparse.row_nnz s 1);
  Alcotest.(check int) "max row nnz" 2 (Sparse.max_row_nnz s);
  check "nonneg" true (Sparse.nonneg s);
  check "scale" true (Sparse.get (Sparse.scale s 2.0) 2 1 = 10.0)

let test_sparse_errors () =
  Alcotest.check_raises "out of range entry"
    (Invalid_argument "Sparse.of_triplets: entry (2,0) out of 2x2") (fun () ->
      ignore (Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

(* --- Poly --- *)

let test_poly_algebra () =
  let p = Poly.of_coeffs [| 1.0; 2.0 |] (* 1 + 2X *) in
  let q = Poly.of_coeffs [| 0.0; 1.0; 1.0 |] (* X + X² *) in
  let r = Poly.mul p q in
  (* (1+2X)(X+X²) = X + 3X² + 2X³ *)
  check "mul" true (Poly.equal r (Poly.of_coeffs [| 0.0; 1.0; 3.0; 2.0 |]));
  checkf "eval" (Poly.eval r 2.0) (2.0 +. 12.0 +. 16.0);
  check "add" true
    (Poly.equal (Poly.add p q) (Poly.of_coeffs [| 1.0; 3.0; 1.0 |]));
  Alcotest.(check int) "degree" 3 (Poly.degree r);
  Alcotest.(check int) "degree zero poly" (-1) (Poly.degree Poly.zero);
  check "trailing zeros trimmed" true
    (Poly.equal (Poly.of_coeffs [| 1.0; 0.0; 0.0 |]) Poly.one)

let test_poly_delay () =
  (* p_3 = 1 + X² + X⁴ *)
  check "delay 3" true
    (Poly.equal (Poly.delay 3) (Poly.of_coeffs [| 1.0; 0.0; 1.0; 0.0; 1.0 |]));
  checkf "delay_eval matches poly eval" (Poly.eval (Poly.delay 4) 0.7)
    (Poly.delay_eval 4 0.7);
  checkf "delay_eval 0 terms" 0.0 (Poly.delay_eval 0 0.5);
  checkf "geometric" (0.5 +. 0.25 +. 0.125) (Poly.geometric 0.5 3);
  checkf "delay_eval_inf" (1.0 /. 0.75) (Poly.delay_eval_inf 0.5)

(* Identity used in Lemma 4.2's computation: p_i + λ^{2i}·p_j = p_{i+j}. *)
let prop_poly_composition =
  QCheck.Test.make ~name:"p_i + λ^2i·p_j = p_{i+j}" ~count:300
    QCheck.(triple (int_range 1 12) (int_range 1 12) (float_range 0.05 0.95))
    (fun (i, j, l) ->
      let lhs =
        Poly.delay_eval i l +. ((l ** float_of_int (2 * i)) *. Poly.delay_eval j l)
      in
      Numeric.approx_equal ~eps:1e-9 lhs (Poly.delay_eval (i + j) l))

(* Unbalancing inequality of Lemma 4.3: p_{i+1}·p_{j-1} < p_i·p_j, i >= j. *)
let prop_poly_unbalance =
  QCheck.Test.make ~name:"p_{i+1}·p_{j-1} <= p_i·p_j for i >= j" ~count:300
    QCheck.(triple (int_range 1 10) (int_range 1 10) (float_range 0.05 0.95))
    (fun (a, b, l) ->
      let i = max a b and j = min a b in
      Poly.delay_eval (i + 1) l *. Poly.delay_eval (j - 1) l
      <= (Poly.delay_eval i l *. Poly.delay_eval j l) +. 1e-12)

(* p_i(λ) increases to 1/(1-λ²). *)
let prop_poly_limit =
  QCheck.Test.make ~name:"p_i(λ) ↑ 1/(1-λ²)" ~count:200
    QCheck.(pair (int_range 1 30) (float_range 0.05 0.9))
    (fun (i, l) ->
      let v = Poly.delay_eval i l and w = Poly.delay_eval (i + 1) l in
      v <= w && w <= Poly.delay_eval_inf l +. 1e-12)

(* --- Spectral --- *)

let test_norm2_known () =
  (* diag(3, 1) has norm 3 *)
  let d = m_of [ [ 3.0; 0.0 ]; [ 0.0; 1.0 ] ] in
  checkf "diag norm" 3.0 (Spectral.norm2_dense d);
  (* rank-one xyᵀ has norm |x||y| *)
  let o = Dense.outer [| 1.0; 2.0 |] [| 2.0; 1.0 |] in
  check "rank one norm" true
    (Numeric.approx_equal ~eps:1e-9 (Spectral.norm2_dense o) 5.0)

let test_norm2_sparse_matches_dense () =
  let d =
    m_of [ [ 0.0; 0.5; 0.0 ]; [ 0.2; 0.0; 0.9 ]; [ 0.0; 0.4; 0.1 ] ]
  in
  let s = Sparse.of_dense d in
  check "sparse norm = dense norm" true
    (Numeric.approx_equal ~eps:1e-8 (Spectral.norm2_sparse s)
       (Spectral.norm2_dense d))

let test_spectral_radius () =
  (* [[0,1],[1,0]] has spectral radius 1 *)
  let a = m_of [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ] in
  check "rho of permutation" true
    (Numeric.approx_equal ~eps:1e-6 (Spectral.spectral_radius_nonneg a) 1.0);
  (* [[1,1],[0,1]] (Jordan-ish): rho = 1 though norm > 1 *)
  let j = m_of [ [ 1.0; 1.0 ]; [ 0.0; 1.0 ] ] in
  let rho = Spectral.spectral_radius_nonneg j in
  let nrm = Spectral.norm2_dense j in
  check "rho <= norm" true (rho <= nrm +. 1e-6);
  check "norm of jordan > 1" true (nrm > 1.3)

let test_collatz_wielandt () =
  let a = m_of [ [ 0.0; 2.0 ]; [ 2.0; 0.0 ] ] in
  let lo, hi = Spectral.collatz_wielandt_bounds a [| 1.0; 1.0 |] in
  checkf "CW tight for symmetric" 2.0 lo;
  checkf "CW upper" 2.0 hi;
  check "semi-eigenvector accepted" true
    (Spectral.is_semi_eigenvector a [| 1.0; 1.0 |] 2.0);
  check "semi-eigenvector rejected below" false
    (Spectral.is_semi_eigenvector a [| 1.0; 1.0 |] 1.5)

(* Norm properties 1-8 of Section 2 on random non-negative matrices. *)
let gen_small_matrix =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* m = int_range 1 6 in
    let* data = array_size (return (n * m)) (float_bound_inclusive 1.0) in
    return (Dense.init n m (fun i j -> data.((i * m) + j))))

(* Shape, then every entry to 17 significant digits, which round-trips
   a float: a failing case prints the exact matrices it ran on. *)
let print_small_matrix m =
  Printf.sprintf "%dx%d [%s]" (Dense.rows m) (Dense.cols m)
    (String.concat "; "
       (List.init (Dense.rows m) (fun i ->
            String.concat " "
              (List.init (Dense.cols m) (fun j ->
                   Printf.sprintf "%.17g" (Dense.get m i j))))))

let arb_small_matrix = QCheck.make ~print:print_small_matrix gen_small_matrix

let prop_norm_nonneg_zero =
  QCheck.Test.make ~name:"norm >= 0, = 0 iff M = 0 (props 1-2)" ~count:100
    arb_small_matrix (fun m ->
      let n = Spectral.norm2_dense m in
      n >= 0.0
      && (n > 1e-9 || Dense.equal m (Dense.create (Dense.rows m) (Dense.cols m) 0.0)))

let prop_norm_scale =
  QCheck.Test.make ~name:"‖aM‖ = |a|·‖M‖ (prop 3)" ~count:100
    QCheck.(pair arb_small_matrix (float_range (-3.0) 3.0))
    (fun (m, a) ->
      Numeric.approx_equal ~eps:1e-6
        (Spectral.norm2_dense (Dense.scale m a))
        (Float.abs a *. Spectral.norm2_dense m))

let prop_norm_monotone =
  QCheck.Test.make ~name:"M <= N entrywise => ‖M‖ <= ‖N‖ (prop 4)" ~count:100
    QCheck.(pair arb_small_matrix arb_small_matrix)
    (fun (m, bump) ->
      let bump =
        if Dense.rows bump = Dense.rows m && Dense.cols bump = Dense.cols m
        then bump
        else Dense.create (Dense.rows m) (Dense.cols m) 0.1
      in
      let n = Dense.add m (Dense.map Float.abs bump) in
      Spectral.norm2_dense m <= Spectral.norm2_dense n +. 1e-7)

let prop_norm_triangle_submult =
  QCheck.Test.make ~name:"‖M+N‖<=‖M‖+‖N‖ and ‖MN‖<=‖M‖‖N‖ (props 5-6)"
    ~count:100 arb_small_matrix (fun m ->
      let nt = Dense.transpose m in
      let sum_ok =
        Spectral.norm2_dense (Dense.add m m)
        <= (2.0 *. Spectral.norm2_dense m) +. 1e-7
      in
      let prod = Dense.mul m nt in
      let prod_ok =
        Spectral.norm2_dense prod
        <= (Spectral.norm2_dense m *. Spectral.norm2_dense nt) +. 1e-7
      in
      sum_ok && prod_ok)

let prop_norm_permutation_invariant =
  QCheck.Test.make ~name:"row/col permutations preserve the norm (prop 7)"
    ~count:100
    QCheck.(pair arb_small_matrix (int_range 0 1000))
    (fun (m, seed) ->
      let rng = Gossip_util.Prng.create seed in
      let p = Array.init (Dense.rows m) Fun.id in
      Gossip_util.Prng.shuffle rng p;
      Numeric.approx_equal ~eps:1e-6
        (Spectral.norm2_dense (Dense.permute_rows m p))
        (Spectral.norm2_dense m))

let prop_norm_block_diag =
  QCheck.Test.make ~name:"‖diag(M1, M2)‖ = max ‖Mi‖ (prop 8)" ~count:100
    QCheck.(pair arb_small_matrix arb_small_matrix)
    (fun (a, b) ->
      Numeric.approx_equal ~eps:1e-6
        (Spectral.norm2_dense (Dense.block_diag [ a; b ]))
        (Float.max (Spectral.norm2_dense a) (Spectral.norm2_dense b)))

let prop_norm_sq_is_rho_gram =
  QCheck.Test.make ~name:"‖M‖² = ρ(MᵀM)" ~count:100 arb_small_matrix
    (fun m ->
      let n = Spectral.norm2_dense m in
      let rho = Spectral.spectral_radius_nonneg (Dense.gram m) in
      Numeric.approx_equal ~eps:1e-5 (n *. n) rho)

(* --- Lanczos --- *)

let test_lanczos_tridiagonal () =
  (* [2, -1] tridiagonal: eigenvalues 2 - 2cos(kπ/(n+1)) *)
  let n = 12 in
  let diag = Array.make n 2.0 and off = Array.make (n - 1) (-1.0) in
  let eigs = Lanczos.tridiagonal_eigenvalues ~diag ~off in
  let ok = ref true in
  Array.iteri
    (fun k e ->
      let expect =
        2.0 -. (2.0 *. cos (float_of_int (k + 1) *. Float.pi /. float_of_int (n + 1)))
      in
      if Float.abs (e -. expect) > 1e-9 then ok := false)
    eigs;
  check "laplacian eigenvalues" true !ok

let test_lanczos_norm_agrees () =
  let m = m_of [ [ 3.0; 1.0; 0.0 ]; [ 0.0; 2.0; 0.5 ]; [ 0.2; 0.0; 1.0 ] ] in
  check "lanczos = power iteration" true
    (Numeric.approx_equal ~eps:1e-8 (Lanczos.norm2_dense m)
       (Spectral.norm2_dense m));
  let sp = Sparse.of_dense m in
  check "sparse variant agrees" true
    (Numeric.approx_equal ~eps:1e-8 (Lanczos.norm2_sparse sp)
       (Spectral.norm2_sparse sp))

let test_lanczos_second_eigenvalue () =
  (* diag(5, 3, 1): largest 5, second 3 *)
  let d = m_of [ [ 5.0; 0.0; 0.0 ]; [ 0.0; 3.0; 0.0 ]; [ 0.0; 0.0; 1.0 ] ] in
  let r = Lanczos.symmetric ~dim:3 (Dense.mv d) in
  check "largest 5" true (Numeric.approx_equal ~eps:1e-8 r.Lanczos.largest 5.0);
  check "second 3" true
    (match r.Lanczos.second with
    | Some s -> Numeric.approx_equal ~eps:1e-6 s 3.0
    | None -> false)

let test_lanczos_degenerate () =
  let r = Lanczos.symmetric ~dim:0 (fun v -> v) in
  check "dim 0" true (r.Lanczos.largest = 0.0);
  let r1 = Lanczos.symmetric ~dim:1 (fun v -> Vec.scale v 4.0) in
  check "dim 1" true (Numeric.approx_equal ~eps:1e-9 r1.Lanczos.largest 4.0)

let prop_lanczos_matches_power =
  QCheck.Test.make ~name:"Lanczos norm = power-iteration norm" ~count:60
    arb_small_matrix (fun m ->
      Numeric.approx_equal ~eps:1e-5 (Lanczos.norm2_dense m)
        (Spectral.norm2_dense m))

(* Lemma 2.1: a positive semi-eigenvector certifies ρ(M) <= e. *)
let prop_semi_eigen_bounds_rho =
  QCheck.Test.make ~name:"Lemma 2.1: positive semi-eigenvector bounds ρ"
    ~count:100
    QCheck.(pair arb_small_matrix (int_range 0 1000))
    (fun (m, seed) ->
      QCheck.assume (Dense.rows m = Dense.cols m);
      let n = Dense.rows m in
      let rng = Gossip_util.Prng.create seed in
      let x = Array.init n (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
      (* smallest e making x a semi-eigenvector *)
      let y = Dense.mv m x in
      let e =
        Array.fold_left Float.max 0.0 (Array.mapi (fun i yi -> yi /. x.(i)) y)
      in
      Spectral.spectral_radius_nonneg m <= e +. 1e-6)

(* --- The bracket --- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_bracket_edges () =
  let zero = Spectral.norm2_bracket (Dense.create 3 4 0.0) in
  check "zero matrix gives the zero bracket" true (zero = Spectral.zero_bracket);
  check "empty matrix gives the zero bracket" true
    (Spectral.norm2_bracket (Dense.create 0 4 0.0) = Spectral.zero_bracket);
  (* two 1x1 components and a zero column: ‖diag(3, 1)‖ = 3 *)
  let b = Spectral.norm2_bracket (m_of [ [ 3.0; 0.0; 0.0 ]; [ 0.0; 0.0; 1.0 ] ]) in
  check "lower <= 3 <= upper" true
    (b.Spectral.lower <= 3.0 +. 1e-12 && 3.0 <= b.Spectral.upper);
  check "upper within its slack" true (b.Spectral.upper <= 3.0 *. (1.0 +. 1e-11));
  check "converged" true b.Spectral.converged;
  check "steps counted" true (b.Spectral.iterations >= 2);
  Alcotest.check_raises "negative entry"
    (Invalid_argument "Spectral.norm2_bracket: negative entry") (fun () ->
      ignore (Spectral.norm2_bracket (m_of [ [ 1.0; -1.0 ] ])));
  (* one Gram component whose top two singular values, 1 ± 2.5e-5, are
     so close that the power iteration's stopping rule never fires: the
     solve runs to its step cap, says so, and its upper end still bounds
     the norm *)
  let m = m_of [ [ 1.0; 2.5e-5 ]; [ 2.5e-5; 1.0 ] ] in
  let capped = Spectral.norm2_bracket m in
  check "capped solve not converged" false capped.Spectral.converged;
  Alcotest.(check int) "capped solve ran to its cap"
    Spectral.default_options.Spectral.max_iter capped.Spectral.iterations;
  check "capped upper still bounds the norm" true
    (Lanczos.norm2_dense m <= capped.Spectral.upper
    && capped.Spectral.lower <= Lanczos.norm2_dense m)

(* The upper end bounds every estimate from below: Lanczos on the whole
   Gram operator and the power-iteration lower end itself. *)
let prop_bracket_bounds_estimates =
  QCheck.Test.make ~name:"Lanczos norm <= bracket upper" ~count:200
    arb_small_matrix (fun m ->
      let b = Spectral.norm2_bracket m in
      Lanczos.norm2_dense m <= b.Spectral.upper *. (1.0 +. 1e-9)
      && b.Spectral.lower <= b.Spectral.upper
      && bits_equal b.Spectral.lower (Spectral.norm2_dense m))

(* Norm property 8 for the bracket, exactly: diag(M1, M2) has the
   components of M1 and of M2, solved as they are alone. *)
let prop_bracket_block_diag =
  QCheck.Test.make ~name:"bracket of diag(M1, M2) = max of brackets, bit for bit"
    ~count:100
    QCheck.(pair arb_small_matrix arb_small_matrix)
    (fun (a, b) ->
      let d = Spectral.norm2_bracket (Dense.block_diag [ a; b ]) in
      let e = Spectral.bracket_max (Spectral.norm2_bracket a) (Spectral.norm2_bracket b) in
      bits_equal d.Spectral.lower e.Spectral.lower
      && bits_equal d.Spectral.upper e.Spectral.upper
      && d.Spectral.iterations = e.Spectral.iterations
      && d.Spectral.converged = e.Spectral.converged)

(* The power kernel allocates nothing per step: a solve run to its
   10,000-step cap (a negative tolerance never stops it earlier) costs
   its start vector, buffers and component matrix, a few hundred words,
   where a step that boxed its floats would cost several words each. *)
let test_power_kernel_allocation_free () =
  let m =
    Dense.init 12 12 (fun i j ->
        1.0 +. float_of_int (((i * 7) + (j * 3)) mod 5))
  in
  let options =
    { Spectral.default_options with Spectral.tol = -1.0; max_iter = 10_000 }
  in
  ignore (Spectral.norm2_dense ~options m);
  let before = Gc.minor_words () in
  ignore (Spectral.norm2_dense ~options m);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 10,000 steps" words)
    true (words < 2_000.0)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("vec ops", `Quick, test_vec_ops);
    ("vec lambda profile", `Quick, test_vec_lambda_profile);
    ("vec concat", `Quick, test_vec_concat);
    ("vec axpy", `Quick, test_vec_axpy);
    ("vec dim mismatch", `Quick, test_vec_dim_mismatch);
    ("dense mul", `Quick, test_dense_mul);
    ("dense transpose/gram", `Quick, test_dense_transpose_gram);
    ("dense mv/tmv", `Quick, test_dense_mv_tmv);
    ("dense permutations and norms", `Quick, test_dense_permutations_norms);
    ("dense block/submatrix/outer", `Quick, test_dense_block_submatrix_outer);
    ("dense errors", `Quick, test_dense_errors);
    ("sparse roundtrip", `Quick, test_sparse_roundtrip);
    ("sparse duplicate triplets", `Quick, test_sparse_duplicates);
    ("sparse mv/tmv/transpose", `Quick, test_sparse_mv);
    ("sparse row stats", `Quick, test_sparse_row_stats);
    ("sparse errors", `Quick, test_sparse_errors);
    ("poly algebra", `Quick, test_poly_algebra);
    ("poly delay family", `Quick, test_poly_delay);
    ("spectral known norms", `Quick, test_norm2_known);
    ("spectral sparse=dense", `Quick, test_norm2_sparse_matches_dense);
    ("spectral radius", `Quick, test_spectral_radius);
    ("collatz-wielandt", `Quick, test_collatz_wielandt);
    q prop_poly_composition;
    q prop_poly_unbalance;
    q prop_poly_limit;
    q prop_norm_nonneg_zero;
    q prop_norm_scale;
    q prop_norm_monotone;
    q prop_norm_triangle_submult;
    q prop_norm_permutation_invariant;
    q prop_norm_block_diag;
    q prop_norm_sq_is_rho_gram;
    q prop_semi_eigen_bounds_rho;
    ("lanczos tridiagonal", `Quick, test_lanczos_tridiagonal);
    ("lanczos norm agrees", `Quick, test_lanczos_norm_agrees);
    ("lanczos second eigenvalue", `Quick, test_lanczos_second_eigenvalue);
    ("lanczos degenerate dims", `Quick, test_lanczos_degenerate);
    q prop_lanczos_matches_power;
    (* Appended last so the indices of the cases above stay as they were. *)
    q prop_gram_apply_into_bitwise;
    ("bracket edge cases", `Quick, test_bracket_edges);
    q prop_bracket_bounds_estimates;
    q prop_bracket_block_diag;
    ("power kernel allocation-free", `Quick, test_power_kernel_allocation_free);
  ]
