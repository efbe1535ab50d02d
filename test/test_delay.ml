(* Tests for Gossip_delay: the delay digraph (Def. 3.3), the delay matrix
   (Def. 3.4), the local matrices and the semi-eigenvector of Lemma 4.2,
   the closed-form norm bounds (Lemmas 4.3 and 6.1), and the executable
   Theorem 4.1 certificates.  These property tests replay the paper's
   proofs numerically on randomly generated systolic protocols. *)

open Gossip_topology
open Gossip_protocol
open Gossip_delay
module Dense = Gossip_linalg.Dense
module Spectral = Gossip_linalg.Spectral
module Numeric = Gossip_util.Numeric

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- delay digraph structure --- *)

let tiny_systolic () =
  (* path 0-1-2, period 3: (0->1), (1->2), (2->1) *)
  let g = Families.path 3 in
  Systolic.make g Protocol.Half_duplex [ [ (0, 1) ]; [ (1, 2) ]; [ (2, 1) ] ]

let test_delay_digraph_counts () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:6 in
  check_int "activations = 6 rounds x 1 arc" 6 (Delay_digraph.n_activations dg);
  check_int "window" 3 (Delay_digraph.window dg);
  check_int "protocol length" 6 (Delay_digraph.protocol_length dg);
  (* arcs: (0,1,r) -> (1,2,r') with 1 <= r'-r < 3, etc. *)
  check "has (0,1,0)->(1,2,1)" true
    (let a = Option.get (Delay_digraph.find dg ~src:0 ~dst:1 ~round:0) in
     let b = Option.get (Delay_digraph.find dg ~src:1 ~dst:2 ~round:1) in
     let found = ref false in
     Delay_digraph.iter_arcs
       (fun ~tail ~head ~delay ->
         if tail = a && head = b && delay = 1 then found := true)
       dg;
     !found)

let test_delay_digraph_window_respected () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:9 in
  let ok = ref true in
  Delay_digraph.iter_arcs
    (fun ~tail ~head ~delay ->
      let a = Delay_digraph.activation dg tail in
      let b = Delay_digraph.activation dg head in
      if delay < 1 || delay >= Delay_digraph.window dg then ok := false;
      if b.Delay_digraph.round - a.Delay_digraph.round <> delay then ok := false;
      (* consecutive arcs share the middle vertex *)
      if a.Delay_digraph.dst <> b.Delay_digraph.src then ok := false)
    dg;
  check "arcs well-formed" true !ok

let test_delay_digraph_in_out () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:6 in
  check_int "ins of vertex 1 (from 0->1 and 2->1)" 4
    (Array.length (Delay_digraph.activations_in dg 1));
  check_int "outs of vertex 1 (1->2)" 2
    (Array.length (Delay_digraph.activations_out dg 1))

let test_delay_distances_telescope () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:9 in
  let k = Option.get (Delay_digraph.find dg ~src:0 ~dst:1 ~round:0) in
  let dist = Delay_digraph.distances_from dg k in
  let ok = ref true in
  Array.iteri
    (fun j d ->
      if d <> max_int then begin
        let b = Delay_digraph.activation dg j in
        let a = Delay_digraph.activation dg k in
        if j <> k && d <> b.Delay_digraph.round - a.Delay_digraph.round then
          ok := false
      end)
    dist;
  check "dipath weights telescope to round difference" true !ok

let test_window_validation () =
  let g = Families.path 3 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1) ] ] in
  Alcotest.check_raises "window < 2"
    (Invalid_argument "Delay_digraph.build: window must be >= 2") (fun () ->
      ignore (Delay_digraph.build p ~window:1))

(* --- delay matrix --- *)

let test_delay_matrix_entries () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:6 in
  let m = Delay_matrix.sparse dg 0.5 in
  let a = Option.get (Delay_digraph.find dg ~src:0 ~dst:1 ~round:0) in
  let b = Option.get (Delay_digraph.find dg ~src:1 ~dst:2 ~round:1) in
  check "entry = lambda^delay" true
    (Gossip_linalg.Sparse.get m a b = 0.5);
  check "max row nnz <= window - 1 per out-arc family" true
    (Gossip_linalg.Sparse.max_row_nnz m <= 4)

let test_delay_matrix_lambda_validation () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:3 in
  Alcotest.check_raises "lambda = 1 rejected"
    (Invalid_argument "Delay_matrix: lambda must be in (0, 1)") (fun () ->
      ignore (Delay_matrix.sparse dg 1.0))

let test_norm_equals_blockwise () =
  let sys =
    Builders.random_systolic (Families.de_bruijn 2 4) Protocol.Half_duplex
      ~period:5 ~seed:2 ~density:0.9
  in
  let dg = Delay_digraph.of_systolic sys ~length:20 in
  List.iter
    (fun lambda ->
      let a = Delay_matrix.norm dg lambda in
      let b = (Delay_matrix.norm_blockwise dg lambda).Spectral.lower in
      check
        (Printf.sprintf "global = blockwise at lambda=%.2f" lambda)
        true
        (Numeric.approx_equal ~eps:1e-6 a b))
    [ 0.3; 0.6; 0.8 ]

(* The parallel blockwise norm folds independently computed block
   brackets with exact operations (max, integer sum, conjunction), so the
   worker count must not change even the last bit of any field. *)
let same_bracket (a : Spectral.bracket) (b : Spectral.bracket) =
  let bits = Int64.bits_of_float in
  Int64.equal (bits a.Spectral.lower) (bits b.Spectral.lower)
  && Int64.equal (bits a.Spectral.upper) (bits b.Spectral.upper)
  && a.Spectral.iterations = b.Spectral.iterations
  && a.Spectral.converged = b.Spectral.converged

let test_norm_blockwise_parallel_bitwise () =
  let sys =
    Builders.random_systolic (Families.de_bruijn 2 4) Protocol.Half_duplex
      ~period:5 ~seed:2 ~density:0.9
  in
  let dg = Delay_digraph.of_systolic sys ~length:20 in
  List.iter
    (fun lambda ->
      let seq = Delay_matrix.norm_blockwise ~domains:1 dg lambda in
      List.iter
        (fun domains ->
          let par = Delay_matrix.norm_blockwise ~domains dg lambda in
          check
            (Printf.sprintf "bit-identical at lambda=%.2f domains=%d" lambda
               domains)
            true (same_bracket seq par))
        [ 1; 2; 4 ])
    [ 0.3; 0.6; 0.8 ]

(* Reference power iteration: two Gram products per step and fresh arrays
   for each.  It returns the last Rayleigh quotient (clamped at 0), the
   last normalized iterate [y] with its product [G·y], the step count, and
   whether the stopping rule fired before the step cap. *)
let reference_power ~cols ~apply =
  let module Vec = Gossip_linalg.Vec in
  let options = Spectral.default_options in
  let rng = Gossip_util.Prng.create options.Spectral.seed in
  let x = Array.init cols (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
  ignore (Vec.normalize x);
  let rec step k x eig =
    let y = apply x in
    let ny = Vec.norm2 y in
    if ny = 0.0 then (0.0, y, y, k, true)
    else begin
      Vec.scale_into y (1.0 /. ny);
      let gy = apply y in
      let rayleigh = Vec.dot y gy in
      if
        Float.abs (rayleigh -. eig)
        <= options.Spectral.tol *. Float.max 1.0 (Float.abs rayleigh)
      then (Float.max 0.0 rayleigh, y, gy, k, true)
      else if k = options.Spectral.max_iter then
        (Float.max 0.0 rayleigh, y, gy, k, false)
      else step (k + 1) y rayleigh
    end
  in
  step 1 x 0.0

let reference_norm2 ~rows ~cols ~mv ~tmv =
  if rows = 0 || cols = 0 then 0.0
  else
    let eig, _, _, _, _ = reference_power ~cols ~apply:(fun v -> tmv (mv v)) in
    sqrt eig

(* Every vertex block, built straight from the activations. *)
let reference_blocks dg lambda =
  let w = Delay_digraph.window dg in
  let n = Digraph.n_vertices (Delay_digraph.graph dg) in
  List.init n (fun x ->
      let ins = Delay_digraph.activations_in dg x in
      let outs = Delay_digraph.activations_out dg x in
      let round k = (Delay_digraph.activation dg k).Delay_digraph.round in
      let block =
        Dense.init (Array.length ins) (Array.length outs) (fun i j ->
            let delay = round outs.(j) - round ins.(i) in
            if delay >= 1 && delay < w then lambda ** float_of_int delay
            else 0.0)
      in
      (* the vertex's round pattern, shifted by its first in-round *)
      let r0 = if Array.length ins > 0 then round ins.(0) else 0 in
      let shifted ids = Array.map (fun k -> round k - r0) ids in
      ((shifted ins, shifted outs), block))

(* Today's whole-block estimate: one power iteration per vertex block. *)
let reference_whole_block dg lambda =
  List.fold_left
    (fun best (_, b) ->
      Float.max best
        (reference_norm2 ~rows:(Dense.rows b) ~cols:(Dense.cols b)
           ~mv:(Dense.mv b) ~tmv:(Dense.tmv b)))
    0.0
    (reference_blocks dg lambda)

(* The connected components of a block's Gram support, by a plain flood
   fill over columns that share a nonzero row: each is the submatrix of
   its rows (those nonzero in its columns) and its columns, ascending. *)
let reference_components b =
  let rows = Dense.rows b and cols = Dense.cols b in
  let nz i j = Dense.get b i j <> 0.0 in
  let label = Array.make cols (-1) and count = ref 0 in
  for j0 = 0 to cols - 1 do
    if label.(j0) < 0 && List.exists (fun i -> nz i j0) (List.init rows Fun.id)
    then begin
      let c = !count in
      incr count;
      label.(j0) <- c;
      let rec fill = function
        | [] -> ()
        | j :: rest ->
            let next = ref rest in
            for i = 0 to rows - 1 do
              if nz i j then
                for k = 0 to cols - 1 do
                  if nz i k && label.(k) < 0 then begin
                    label.(k) <- c;
                    next := k :: !next
                  end
                done
            done;
            fill !next
      in
      fill [ j0 ]
    end
  done;
  List.init !count (fun c ->
      let cs = List.filter (fun j -> label.(j) = c) (List.init cols Fun.id) in
      let rs =
        List.filter (fun i -> List.exists (nz i) cs) (List.init rows Fun.id)
      in
      let cs = Array.of_list cs and rs = Array.of_list rs in
      Dense.init (Array.length rs) (Array.length cs) (fun i j ->
          Dense.get b rs.(i) cs.(j)))

(* The reference bracket: every vertex block, each component solved by
   [reference_power], the Collatz–Wielandt bound taken from its final
   iterate.  The library solves one block per round pattern, so the
   steps of a block count once per pattern. *)
let reference_bracket dg lambda =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun (acc : Spectral.bracket) (pattern, b) ->
      let first = not (Hashtbl.mem seen pattern) in
      Hashtbl.replace seen pattern ();
      List.fold_left
        (fun (acc : Spectral.bracket) c ->
          let eig, y, gy, steps, stopped =
            reference_power ~cols:(Dense.cols c) ~apply:(fun v ->
                Dense.tmv c (Dense.mv c v))
          in
          let cw = ref 0.0 in
          Array.iteri
            (fun j yj ->
              if not (yj > 0.0) then failwith "reference: non-positive iterate";
              cw := Float.max !cw (gy.(j) /. yj))
            y;
          {
            Spectral.lower = Float.max acc.Spectral.lower (sqrt eig);
            upper =
              Float.max acc.Spectral.upper (sqrt !cw *. (1.0 +. 1e-12));
            iterations =
              (acc.Spectral.iterations + if first then steps else 0);
            converged = acc.Spectral.converged && stopped;
          })
        acc (reference_components b))
    Spectral.zero_bracket
    (reference_blocks dg lambda)

let reference_sparse dg lambda =
  let m = Delay_matrix.sparse dg lambda in
  let module Sparse = Gossip_linalg.Sparse in
  reference_norm2 ~rows:(Sparse.rows m) ~cols:(Sparse.cols m) ~mv:(Sparse.mv m)
    ~tmv:(Sparse.tmv m)

let prop_norms_match_reference_bitwise =
  QCheck.Test.make ~name:"norm and norm_blockwise = reference, bit for bit"
    ~count:40
    QCheck.(
      make
        Gen.(
          let* mode =
            oneofl [ Protocol.Half_duplex; Protocol.Directed; Protocol.Full_duplex ]
          in
          let* period = int_range 2 8 in
          let* seed = int_range 0 100_000 in
          let* density = float_range 0.2 1.0 in
          let* length = int_range 2 (4 * period) in
          let* lambda = float_range 0.05 0.95 in
          return (mode, period, seed, density, length, lambda)))
    (fun (mode, period, seed, density, length, lambda) ->
      let g =
        match mode with
        | Protocol.Half_duplex -> Families.de_bruijn 2 3
        | Protocol.Directed -> Families.kautz_directed 2 3
        | Protocol.Full_duplex -> Families.hypercube 3
      in
      let sys = Builders.random_systolic g mode ~period ~seed ~density in
      let dg = Delay_digraph.of_systolic sys ~length in
      let b = Delay_matrix.norm_blockwise dg lambda in
      same_bracket b (reference_bracket dg lambda)
      (* the whole-block estimate approaches the norm from below *)
      && reference_whole_block dg lambda <= b.Spectral.upper
      && Int64.equal
           (Int64.bits_of_float (Delay_matrix.norm dg lambda))
           (Int64.bits_of_float (reference_sparse dg lambda)))

(* Lemma 4.3 / 6.1: ‖M(λ)‖ <= closed form, for random protocols in every
   mode. *)
let prop_norm_bound_half_duplex =
  QCheck.Test.make ~name:"Lemma 4.3: ‖M(λ)‖ <= λ√p⌈s/2⌉√p⌊s/2⌋ (half-duplex)"
    ~count:60
    QCheck.(
      triple (int_range 0 100_000) (int_range 3 8) (float_range 0.1 0.9))
    (fun (seed, s, lambda) ->
      let g = Families.de_bruijn 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period:s ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:(3 * s) in
      let nu = (Delay_matrix.norm_blockwise dg lambda).Spectral.lower in
      let cf =
        Delay_matrix.closed_form_bound ~mode:Protocol.Half_duplex ~window:s
          lambda
      in
      nu <= cf +. 1e-7)

let prop_norm_bound_directed =
  QCheck.Test.make ~name:"Lemma 4.3 holds on directed networks" ~count:60
    QCheck.(
      triple (int_range 0 100_000) (int_range 3 7) (float_range 0.1 0.9))
    (fun (seed, s, lambda) ->
      let g = Families.kautz_directed 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Directed ~period:s ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:(3 * s) in
      (Delay_matrix.norm_blockwise dg lambda).Spectral.lower
      <= Delay_matrix.closed_form_bound ~mode:Protocol.Directed ~window:s
           lambda
         +. 1e-7)

let prop_norm_bound_full_duplex =
  QCheck.Test.make ~name:"Lemma 6.1: ‖M(λ)‖ <= λ+...+λ^(s-1) (full-duplex)"
    ~count:60
    QCheck.(
      triple (int_range 0 100_000) (int_range 3 7) (float_range 0.1 0.9))
    (fun (seed, s, lambda) ->
      let g = Families.hypercube 3 in
      let sys =
        Builders.random_systolic g Protocol.Full_duplex ~period:s ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:(3 * s) in
      (Delay_matrix.norm_blockwise dg lambda).Spectral.lower
      <= Delay_matrix.closed_form_bound ~mode:Protocol.Full_duplex ~window:s
           lambda
         +. 1e-7)

(* Definition 3.4's "key property": (M(λ)^t)_{a,b} = Σ over t-arc dipaths
   of λ^(total weight).  Checked by explicit DFS path enumeration. *)
let test_key_property_path_counting () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:9 in
  let lambda = 0.5 in
  let m = Delay_matrix.sparse dg lambda in
  let dm = Gossip_linalg.Sparse.to_dense m in
  let count = Delay_digraph.n_activations dg in
  (* adjacency with delays *)
  let succs = Array.make count [] in
  Delay_digraph.iter_arcs
    (fun ~tail ~head ~delay -> succs.(tail) <- (head, delay) :: succs.(tail))
    dg;
  let rec paths_sum a b k =
    (* sum of lambda^weight over k-arc dipaths a -> b *)
    if k = 0 then if a = b then 1.0 else 0.0
    else
      List.fold_left
        (fun acc (next, delay) ->
          acc +. ((lambda ** float_of_int delay) *. paths_sum next b (k - 1)))
        0.0 succs.(a)
  in
  let ok = ref true in
  List.iter
    (fun k ->
      let mk = ref (Dense.identity count) in
      for _ = 1 to k do
        mk := Dense.mul !mk dm
      done;
      for a = 0 to count - 1 do
        for b = 0 to count - 1 do
          if
            not
              (Numeric.approx_equal ~eps:1e-10 (Dense.get !mk a b)
                 (paths_sum a b k))
          then ok := false
        done
      done)
    [ 1; 2; 3 ];
  check "(M^k)_{a,b} = sum of lambda^weight over k-arc dipaths" true !ok

(* --- local matrices --- *)

let test_pattern_construction () =
  let p = Local_matrix.make_pattern ~l:[| 2; 1 |] ~r:[| 1; 2 |] in
  check_int "blocks" 2 (Local_matrix.blocks p);
  check_int "period" 6 (Local_matrix.period p);
  check "accessors copy" true
    (Local_matrix.l p = [| 2; 1 |] && Local_matrix.r p = [| 1; 2 |]);
  Alcotest.check_raises "zero block"
    (Invalid_argument "Local_matrix.make_pattern: blocks must be positive")
    (fun () -> ignore (Local_matrix.make_pattern ~l:[| 0 |] ~r:[| 1 |]))

let test_d_values () =
  let p = Local_matrix.make_pattern ~l:[| 1; 1 |] ~r:[| 1; 1 |] in
  (* s = 4, d_{i,i} = 1, d_{i,i+1} = 1 + r_i + l_{i+1} = 3 *)
  check_int "d_ii" 1 (Local_matrix.d p ~i:0 ~j:0);
  check_int "d_01" 3 (Local_matrix.d p ~i:0 ~j:1);
  check_int "d_02" 5 (Local_matrix.d p ~i:0 ~j:2)

let test_mx_structure () =
  (* Fig. 1 setup: k = 2 pattern, h = 3 repetitions *)
  let p = Local_matrix.make_pattern ~l:[| 1; 2 |] ~r:[| 2; 1 |] in
  let lambda = 0.5 in
  let m = Local_matrix.mx p ~h:4 ~lambda in
  check_int "rows = h blocks of l" (1 + 2 + 1 + 2) (Dense.rows m);
  check_int "cols = h blocks of r" (2 + 1 + 2 + 1) (Dense.cols m);
  (* first row, first col: d_{0,0} = 1 -> lambda^1 *)
  check "B00 top-left = lambda" true (Dense.get m 0 0 = lambda);
  check "B00 top-right = lambda^2 (within-block round order)" true
    (Dense.get m 0 1 = lambda ** 2.0);
  (* block (1,0) is zero: right block 0 precedes left block 1 *)
  check "lower blocks zero" true (Dense.get m 1 0 = 0.0);
  check "nonneg" true (Dense.nonneg m)

let test_mx_delays_below_period () =
  (* every nonzero entry of Mx is lambda^delta with 1 <= delta <= s-1 *)
  let p = Local_matrix.make_pattern ~l:[| 2; 1 |] ~r:[| 1; 3 |] in
  let lambda = 0.5 in
  let s = Local_matrix.period p in
  let m = Local_matrix.mx p ~h:5 ~lambda in
  let ok = ref true in
  for i = 0 to Dense.rows m - 1 do
    for j = 0 to Dense.cols m - 1 do
      let v = Dense.get m i j in
      if v > 0.0 then begin
        let delta = log v /. log lambda in
        let rounded = Float.round delta in
        if Float.abs (delta -. rounded) > 1e-9 then ok := false;
        let di = int_of_float rounded in
        if di < 1 || di > s - 1 then ok := false
      end
    done
  done;
  check "all delays in [1, s-1]" true !ok

let test_lemma_2_2_route () =
  (* ‖Mx‖ computed directly equals sqrt(rho(Ox·Nx)) (Lemma 2.2) *)
  List.iter
    (fun (l, r, lambda) ->
      let p = Local_matrix.make_pattern ~l ~r in
      let h = 3 * Local_matrix.blocks p in
      let mx = Local_matrix.mx p ~h ~lambda in
      let on = Dense.mul (Local_matrix.ox p ~h ~lambda) (Local_matrix.nx p ~h ~lambda) in
      let direct = Spectral.norm2_dense mx in
      let reduced = sqrt (Spectral.spectral_radius_nonneg on) in
      check
        (Printf.sprintf "‖Mx‖ = sqrt(rho(OxNx)) for s=%d" (Local_matrix.period p))
        true
        (Numeric.approx_equal ~eps:1e-6 direct reduced))
    [
      ([| 1 |], [| 1 |], 0.6);
      ([| 2; 1 |], [| 1; 2 |], 0.5);
      ([| 1; 2; 1 |], [| 2; 1; 1 |], 0.55);
      ([| 3 |], [| 2 |], 0.7);
    ]

let test_lemma_4_2_semi_eigenvector () =
  List.iter
    (fun (l, r, lambda) ->
      let p = Local_matrix.make_pattern ~l ~r in
      let h = 4 * Local_matrix.blocks p in
      let e = Local_matrix.semi_eigenvector p ~h ~lambda in
      check "e strictly positive" true (Array.for_all (fun x -> x > 0.0) e);
      let nxm = Local_matrix.nx p ~h ~lambda in
      let oxm = Local_matrix.ox p ~h ~lambda in
      check "Nx e <= (λ p_R) e" true
        (Spectral.is_semi_eigenvector nxm e
           (Local_matrix.nx_semi_eigenvalue p lambda));
      check "Ox e <= (λ p_L) e" true
        (Spectral.is_semi_eigenvector oxm e
           (Local_matrix.ox_semi_eigenvalue p lambda)))
    [
      ([| 1; 1 |], [| 1; 1 |], 0.6);
      ([| 2; 1 |], [| 1; 2 |], 0.5);
      ([| 1; 3 |], [| 2; 2 |], 0.4);
    ]

(* Lemma 4.3 at the local level for random patterns. *)
let gen_pattern =
  QCheck.Gen.(
    int_range 1 3 >>= fun k ->
    array_size (return k) (int_range 1 3) >>= fun l ->
    array_size (return k) (int_range 1 3) >>= fun r ->
    return (l, r))

let prop_local_norm_bound =
  QCheck.Test.make ~name:"Lemma 4.3 locally: ‖Mx‖ <= λ√p⌈s/2⌉√p⌊s/2⌋"
    ~count:100
    QCheck.(pair (make gen_pattern) (float_range 0.1 0.9))
    (fun ((l, r), lambda) ->
      let p = Local_matrix.make_pattern ~l ~r in
      let s = Local_matrix.period p in
      let h = 3 * Local_matrix.blocks p in
      let mx = Local_matrix.mx p ~h ~lambda in
      let nrm = Spectral.norm2_dense mx in
      let hi = (s + 1) / 2 and lo = s / 2 in
      let cf =
        lambda
        *. sqrt (Gossip_linalg.Poly.delay_eval hi lambda)
        *. sqrt (Gossip_linalg.Poly.delay_eval lo lambda)
      in
      nrm <= cf +. 1e-7)

(* The norm of Mx grows with h but stays below the closed form — check
   stability as h increases. *)
let test_mx_norm_monotone_in_h () =
  let p = Local_matrix.make_pattern ~l:[| 1; 2 |] ~r:[| 2; 1 |] in
  let lambda = 0.6 in
  let norms =
    List.map
      (fun h -> Spectral.norm2_dense (Local_matrix.mx p ~h ~lambda))
      [ 2; 4; 8; 16 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  check "norm monotone in h" true (increasing norms);
  let s = Local_matrix.period p in
  let cf =
    Delay_matrix.closed_form_bound ~mode:Protocol.Half_duplex ~window:s lambda
  in
  check "all below closed form" true
    (List.for_all (fun x -> x <= cf +. 1e-7) norms)

let test_of_activation_pattern () =
  (* L R L R rounds *)
  let p = Option.get (Local_matrix.of_activation_pattern [| `L; `R; `L; `R |]) in
  check "two unit blocks" true
    (Local_matrix.l p = [| 1; 1 |] && Local_matrix.r p = [| 1; 1 |]);
  (* rotation: starts mid-block *)
  let p2 = Option.get (Local_matrix.of_activation_pattern [| `R; `L; `L; `R |]) in
  check "rotated to L-start" true
    (Local_matrix.l p2 = [| 2 |] && Local_matrix.r p2 = [| 2 |]);
  (* idle completion *)
  let p3 = Option.get (Local_matrix.of_activation_pattern [| `L; `Idle; `R; `Idle |]) in
  check "idle extends previous block" true
    (Local_matrix.period p3 = 4);
  (* degenerate cases *)
  check "all L -> None" true (Local_matrix.of_activation_pattern [| `L; `L |] = None);
  check "both -> None" true (Local_matrix.of_activation_pattern [| `Both |] = None);
  check "empty -> None" true (Local_matrix.of_activation_pattern [||] = None)

let test_full_duplex_local () =
  let m = Local_matrix.full_duplex_local ~window:4 ~rounds:6 ~lambda:0.5 in
  check_int "square" 6 (Dense.rows m);
  check "banded structure" true
    (Dense.get m 0 1 = 0.5
    && Dense.get m 0 3 = 0.125
    && Dense.get m 0 4 = 0.0
    && Dense.get m 1 0 = 0.0);
  (* Lemma 6.1: ‖Mx‖ <= λ + λ² + λ³ *)
  let nrm = Spectral.norm2_dense m in
  check "full-duplex norm bound" true (nrm <= 0.5 +. 0.25 +. 0.125 +. 1e-9)

let prop_full_duplex_norm_bound =
  QCheck.Test.make ~name:"Lemma 6.1 for all windows and sizes" ~count:100
    QCheck.(
      triple (int_range 2 8) (int_range 2 30) (float_range 0.1 0.9))
    (fun (window, rounds, lambda) ->
      let m = Local_matrix.full_duplex_local ~window ~rounds ~lambda in
      Spectral.norm2_dense m
      <= Gossip_linalg.Poly.geometric lambda (window - 1) +. 1e-7)

(* --- certificates --- *)

let test_certificate_below_gossip_time () =
  List.iter
    (fun sys ->
      let gt =
        Option.get (Gossip_simulate.Engine.gossip_time sys)
      in
      let dg = Delay_digraph.of_systolic sys ~length:gt in
      let cert = Certificate.certify dg ~mode:(Systolic.mode sys) in
      check
        (Printf.sprintf "certificate %d <= measured %d" cert.Certificate.bound gt)
        true
        (cert.Certificate.bound <= gt);
      check "certificate nontrivial" true (cert.Certificate.bound >= 2))
    [
      Builders.hypercube_sweep ~dim:4 ~full_duplex:false;
      Builders.hypercube_sweep ~dim:4 ~full_duplex:true;
      Builders.cycle_rotate 12;
      Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4);
      Builders.edge_coloring_full_duplex (Families.kautz 2 3);
    ]

let test_certificate_separator () =
  let d = 2 and dim = 5 in
  let g = Families.de_bruijn_directed d dim in
  let sys =
    Builders.random_systolic g Protocol.Directed ~period:6 ~seed:5 ~density:1.0
  in
  let horizon = 60 in
  let dg = Delay_digraph.of_systolic sys ~length:horizon in
  let sep = Separator.de_bruijn ~d ~dim in
  let plain = Certificate.certify dg ~mode:Protocol.Directed in
  let refined = Certificate.certify_separator dg ~mode:Protocol.Directed ~sep in
  check "separator bound >= distance" true
    (refined.Certificate.bound
    >= Metrics.set_distance g sep.Separator.v1 sep.Separator.v2);
  check "separator bound >= plain - slack" true
    (refined.Certificate.bound + 3 >= plain.Certificate.bound)

let test_certificate_refine_improves () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let t = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  let dg = Delay_digraph.of_systolic sys ~length:t in
  let plain = Certificate.certify dg ~mode:Protocol.Half_duplex in
  let refined = Certificate.certify ~refine:true dg ~mode:Protocol.Half_duplex in
  check "refined bound >= plain bound" true
    (refined.Certificate.bound >= plain.Certificate.bound);
  check "refined still sound" true (refined.Certificate.bound <= t)

let test_certify_systolic_stabilizes () =
  let sys = Builders.cycle_rotate 8 in
  let cert = Certificate.certify_systolic sys in
  let measured = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  check "horizon-free certificate sound" true
    (cert.Certificate.bound <= measured);
  check "horizon-free certificate nontrivial" true (cert.Certificate.bound >= 2);
  (* consistency with a long manual expansion *)
  let dg = Delay_digraph.of_systolic sys ~length:(8 * Systolic.period sys) in
  let manual = Certificate.certify dg ~mode:Protocol.Half_duplex in
  check "within 1 of a long manual horizon" true
    (abs (cert.Certificate.bound - manual.Certificate.bound) <= 1)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_delay_digraph_to_dot () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:4 in
  let dot = Delay_digraph.to_dot dg in
  check "digraph keyword" true (contains ~sub:"digraph" dot);
  check "activation label" true (contains ~sub:"0->1 @1" dot);
  check "delay weight label" true (contains ~sub:"label=\"1\"" dot)

let test_impossible_t_edges () =
  (* start > t: empty sum, always impossible when rhs > 0 *)
  check "empty sum impossible" true
    (Certificate.impossible_t ~nu:0.5 ~lambda:0.5 ~pairs:10.0 ~m:5.0 ~start:4 2);
  (* huge t: rhs shrinks geometrically, becomes possible *)
  check "large t possible" false
    (Certificate.impossible_t ~nu:0.9 ~lambda:0.5 ~pairs:10.0 ~m:5.0 ~start:1 60)

(* Separator information never weakens the plain certificate by more than
   the restriction slack, and respects the measured set distance. *)
let prop_separator_certificate_distance =
  QCheck.Test.make
    ~name:"separator certificate >= separator distance" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let d = 2 and dim = 4 in
      let g = Families.de_bruijn_directed d dim in
      let sep = Separator.de_bruijn ~d ~dim in
      let sys =
        Builders.random_systolic g Protocol.Directed ~period:5 ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:40 in
      let cert = Certificate.certify_separator dg ~mode:Protocol.Directed ~sep in
      let dist =
        Metrics.set_distance g sep.Gossip_topology.Separator.v1
          sep.Gossip_topology.Separator.v2
      in
      cert.Certificate.bound >= dist)

let prop_certificate_sound =
  QCheck.Test.make
    ~name:"Thm 4.1 certificate never exceeds measured gossip time" ~count:25
    QCheck.(pair (int_range 0 100_000) (int_range 3 7))
    (fun (seed, period) ->
      let g = Families.de_bruijn 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:1.0
      in
      match Gossip_simulate.Engine.gossip_time ~cap:400 sys with
      | None -> true (* incomplete protocols have nothing to certify *)
      | Some t ->
          let dg = Delay_digraph.of_systolic sys ~length:t in
          let cert = Certificate.certify dg ~mode:Protocol.Half_duplex in
          cert.Certificate.bound <= t)

(* --- the soundness harness --- *)

(* Small networks for each mode: symmetric ones for the two telephone
   modes, directed ones for the directed mode. *)
let harness_networks = function
  | Protocol.Directed ->
      [
        ("dDB(2,3)", fun () -> Families.de_bruijn_directed 2 3);
        ("dK(2,3)", fun () -> Families.kautz_directed 2 3);
        ("dC(7)", fun () -> Families.directed_cycle 7);
        ("dWBF(2,2)", fun () -> Families.wrapped_butterfly_directed 2 2);
      ]
  | Protocol.Half_duplex | Protocol.Full_duplex ->
      [
        ("DB(2,3)", fun () -> Families.de_bruijn 2 3);
        ("K(2,2)", fun () -> Families.kautz 2 2);
        ("Q3", fun () -> Families.hypercube 3);
        ("C(8)", fun () -> Families.cycle 8);
        ("P(6)", fun () -> Families.path 6);
        ("Grid(3,3)", fun () -> Families.grid 3 3);
        ("Tree(2,2)", fun () -> Families.complete_dary_tree 2 2);
        ("BF(2,2)", fun () -> Families.butterfly 2 2);
      ]

let arb_harness_case =
  let gen =
    QCheck.Gen.(
      let* mode =
        oneofl [ Protocol.Half_duplex; Protocol.Directed; Protocol.Full_duplex ]
      in
      let* net = oneofl (harness_networks mode) in
      let* period = int_range 3 8 in
      let* seed = int_range 0 100_000 in
      let* density = float_range 0.3 1.0 in
      let* length = int_range 2 (4 * period) in
      let* lambda = float_range 0.05 0.95 in
      return (mode, net, period, seed, density, length, lambda))
  in
  let print (mode, (name, _), period, seed, density, length, lambda) =
    Printf.sprintf "%s %s s=%d seed=%d density=%.17g length=%d lambda=%.17g"
      (Protocol.mode_to_string mode) name period seed density length lambda
  in
  QCheck.make ~print gen

(* Theorem 4.1 and Lemmas 4.3 / 6.1 on generated protocols: the bracket
   is ordered, its lower end obeys the closed form, its upper end bounds
   the global sparse estimate, and the certificate never exceeds the
   simulated gossip time. *)
let prop_soundness_harness =
  QCheck.Test.make ~name:"soundness: bracket ordered, certificate <= gossip time"
    ~count:80 arb_harness_case
    (fun (mode, (_, net), period, seed, density, length, lambda) ->
      let sys = Builders.random_systolic (net ()) mode ~period ~seed ~density in
      let dg = Delay_digraph.of_systolic sys ~length in
      let b = Delay_matrix.norm_blockwise dg lambda in
      let cf =
        Delay_matrix.closed_form_bound ~mode ~window:(Delay_digraph.window dg)
          lambda
      in
      b.Spectral.lower <= b.Spectral.upper
      && b.Spectral.lower <= cf *. (1.0 +. 1e-9)
      && Delay_matrix.norm dg lambda <= b.Spectral.upper *. (1.0 +. 1e-9)
      &&
      match Gossip_simulate.Engine.gossip_time ~cap:400 sys with
      | None -> true (* incomplete protocols have nothing to certify *)
      | Some t ->
          let dg = Delay_digraph.of_systolic sys ~length:t in
          (Certificate.certify dg ~mode).Certificate.bound <= t)

(* The certificate reads the bracket's upper end only: a lower end of
   almost 0 and one equal to the upper end certify the same bound. *)
let test_certificate_certifies_from_upper () =
  let sys = Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4) in
  let t = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  let dg = Delay_digraph.of_systolic sys ~length:t in
  let stub lower dg lambda =
    let u = (Delay_matrix.norm_blockwise dg lambda).Spectral.upper in
    { Spectral.lower = lower u; upper = u; iterations = 0; converged = true }
  in
  let loose = Certificate.certify ~norm:(stub (fun _ -> 1e-9)) dg ~mode:Protocol.Half_duplex in
  let tight = Certificate.certify ~norm:(stub Fun.id) dg ~mode:Protocol.Half_duplex in
  let plain = Certificate.certify dg ~mode:Protocol.Half_duplex in
  check_int "same bound" tight.Certificate.bound loose.Certificate.bound;
  check "same lambda and norm" true
    (tight.Certificate.lambda = loose.Certificate.lambda
    && tight.Certificate.norm = loose.Certificate.norm);
  check "the lower end is carried, not used" true
    (loose.Certificate.norm_lower = 1e-9);
  check_int "the default bracket certifies the same bound" plain.Certificate.bound
    tight.Certificate.bound;
  check "the certified norm is the upper end" true
    (plain.Certificate.norm >= plain.Certificate.norm_lower)

(* --- the pruned λ search --- *)

let grid = List.init 19 (fun i -> 0.05 +. (0.05 *. float_of_int i))

let same_certificate (a : Certificate.t) (b : Certificate.t) =
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  bits a.Certificate.lambda b.Certificate.lambda
  && bits a.Certificate.norm b.Certificate.norm
  && bits a.Certificate.norm_lower b.Certificate.norm_lower
  && a.Certificate.iterations = b.Certificate.iterations
  && a.Certificate.converged = b.Certificate.converged
  && bits a.Certificate.closed_form b.Certificate.closed_form
  && a.Certificate.bound = b.Certificate.bound
  && a.Certificate.activations = b.Certificate.activations

(* The smallest round count Theorem 4.1 does not rule out at [nu]:
   [pairs], the activation predicates and the first power as the
   certificate takes them. *)
let reference_feasible dg ~pairs ~pred_src ~pred_dst ~start =
  let horizon = Delay_digraph.protocol_length dg in
  let counts pred =
    let c = Array.make (horizon + 1) 0 in
    for k = 0 to Delay_digraph.n_activations dg - 1 do
      let a = Delay_digraph.activation dg k in
      if pred a then
        for t = a.Delay_digraph.round + 1 to horizon do
          c.(t) <- c.(t) + 1
        done
    done;
    c
  in
  let m1 = counts pred_src and m2 = counts pred_dst in
  fun nu lambda ->
    let rec scan t =
      if t > horizon then horizon + 1
      else
        let m =
          sqrt (float_of_int (max 1 m1.(t)) *. float_of_int (max 1 m2.(t)))
        in
        if Certificate.impossible_t ~nu ~lambda ~pairs ~m ~start t then
          scan (t + 1)
        else t
    in
    scan 1

(* The exhaustive search: every grid λ solved with [norm_blockwise], the
   first strict max kept, then every point of the 21-point refinement
   solved and kept on strict improvement. *)
let reference_certificate ?(refine = false) ~mode ~feasible dg =
  let solve lambda =
    let b = Delay_matrix.norm_blockwise dg lambda in
    {
      Certificate.lambda;
      norm = b.Spectral.upper;
      norm_lower = b.Spectral.lower;
      iterations = b.Spectral.iterations;
      converged = b.Spectral.converged;
      closed_form =
        Delay_matrix.closed_form_bound ~mode ~window:(Delay_digraph.window dg)
          lambda;
      bound = feasible b.Spectral.upper lambda;
      activations = Delay_digraph.n_activations dg;
    }
  in
  let better (best : Certificate.t) (c : Certificate.t) =
    if c.Certificate.bound > best.Certificate.bound then c else best
  in
  let coarse =
    List.fold_left (fun best l -> better best (solve l)) (solve (List.hd grid))
      (List.tl grid)
  in
  if not refine then coarse
  else
    List.fold_left
      (fun best i ->
        let l = coarse.Certificate.lambda +. (0.005 *. float_of_int i) in
        if l > 0.0 && l < 1.0 then better best (solve l) else best)
      coarse
      (List.init 21 (fun k -> k - 10))

let plain_feasible dg =
  let n = float_of_int (Digraph.n_vertices (Delay_digraph.graph dg)) in
  reference_feasible dg ~pairs:(n *. (n -. 1.0))
    ~pred_src:(fun _ -> true)
    ~pred_dst:(fun _ -> true)
    ~start:1

(* On the soundness harness's protocols, the pruned search returns the
   exhaustive winner in every field, with and without refinement, and
   every grid λ's lower end is below its certified norm. *)
let prop_pruned_search_exhaustive =
  QCheck.Test.make ~name:"pruned λ search = exhaustive search, bit for bit"
    ~count:40 arb_harness_case
    (fun (mode, (_, net), period, seed, density, length, _) ->
      let sys = Builders.random_systolic (net ()) mode ~period ~seed ~density in
      let dg = Delay_digraph.of_systolic sys ~length in
      let feasible = plain_feasible dg in
      let lows = Delay_matrix.norm_lower_bounds dg grid in
      List.for_all2
        (fun low lambda ->
          low <= (Delay_matrix.norm_blockwise dg lambda).Spectral.upper)
        (Array.to_list lows) grid
      && same_certificate (Certificate.certify dg ~mode)
           (reference_certificate ~mode ~feasible dg)
      && same_certificate
           (Certificate.certify ~refine:true dg ~mode)
           (reference_certificate ~refine:true ~mode ~feasible dg))

let test_pruned_separator_exhaustive () =
  let check_case ~dim ~period ~seed ~length =
    let d = 2 in
    let g = Families.de_bruijn_directed d dim in
    let sep = Separator.de_bruijn ~d ~dim in
    let sys =
      Builders.random_systolic g Protocol.Directed ~period ~seed ~density:1.0
    in
    let dg = Delay_digraph.of_systolic sys ~length in
    let mem vs v = List.mem v vs in
    let dist =
      Metrics.set_distance g sep.Separator.v1 sep.Separator.v2
    in
    let feasible =
      reference_feasible dg
        ~pairs:
          (float_of_int (List.length sep.Separator.v1)
          *. float_of_int (List.length sep.Separator.v2))
        ~pred_src:(fun a -> mem sep.Separator.v1 a.Delay_digraph.src)
        ~pred_dst:(fun a -> mem sep.Separator.v2 a.Delay_digraph.dst)
        ~start:(max 1 (dist - 1))
    in
    check
      (Printf.sprintf "separator dim=%d seed=%d" dim seed)
      true
      (same_certificate
         (Certificate.certify_separator dg ~mode:Protocol.Directed ~sep)
         (reference_certificate ~mode:Protocol.Directed ~feasible dg))
  in
  check_case ~dim:5 ~period:6 ~seed:5 ~length:60;
  List.iter
    (fun seed -> check_case ~dim:4 ~period:5 ~seed ~length:40)
    [ 0; 1; 7; 4_242 ]

(* A counting [~norm] shows which λ the search solved: the winner is
   among them, and every other grid λ has a cap below the winner's bound,
   or equal to it at a later grid position.  Q6's half-duplex sweep
   solves fewer than the 19 grid points. *)
let test_pruned_search_skips () =
  List.iter
    (fun (name, sys, most) ->
      let t = Option.get (Gossip_simulate.Engine.gossip_time sys) in
      let dg = Delay_digraph.of_systolic sys ~length:t in
      let mode = Systolic.mode sys in
      let solved = ref [] in
      let norm dg lambda =
        solved := lambda :: !solved;
        Delay_matrix.norm_blockwise dg lambda
      in
      let cert = Certificate.certify ~norm dg ~mode in
      let feasible = plain_feasible dg in
      check (name ^ ": same as the exhaustive search") true
        (same_certificate cert (reference_certificate ~mode ~feasible dg));
      check (name ^ ": the winner is solved") true
        (List.mem cert.Certificate.lambda !solved);
      let lows = Delay_matrix.norm_lower_bounds dg grid in
      let winner =
        Option.get
          (List.find_index (fun l -> l = cert.Certificate.lambda) grid)
      in
      List.iteri
        (fun i lambda ->
          if not (List.mem lambda !solved) then begin
            let cap = feasible lows.(i) lambda in
            check
              (Printf.sprintf "%s: λ=%.2f cannot displace the winner" name
                 lambda)
              true
              (cap < cert.Certificate.bound
              || (cap = cert.Certificate.bound && i > winner))
          end)
        grid;
      check
        (Printf.sprintf "%s: %d of 19 λ solved" name (List.length !solved))
        true
        (List.length !solved <= most))
    [
      ("Q6 hd", Builders.hypercube_sweep ~dim:6 ~full_duplex:false, 18);
      ( "DB(2,4) hd",
        Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4),
        19 );
      ("C16 rotate", Builders.cycle_rotate 16, 19);
    ]

(* --- the delay digraph that stores no arcs --- *)

(* Definition 3.3 by brute force: (a, b) is an arc when a's head is b's
   tail and 1 <= b.round - a.round < window, listed by tail and then by
   head index. *)
let reference_arcs dg =
  let m = Delay_digraph.n_activations dg and w = Delay_digraph.window dg in
  let arcs = ref [] in
  for tail = 0 to m - 1 do
    let a = Delay_digraph.activation dg tail in
    for head = 0 to m - 1 do
      let b = Delay_digraph.activation dg head in
      let delay = b.Delay_digraph.round - a.Delay_digraph.round in
      if a.Delay_digraph.dst = b.Delay_digraph.src && delay >= 1 && delay < w
      then arcs := (tail, head, delay) :: !arcs
    done
  done;
  List.rev !arcs

let prop_digraph_without_arcs =
  QCheck.Test.make ~name:"delay digraph: arcs, count, find, distances"
    ~count:60 arb_harness_case
    (fun (mode, (_, net), period, seed, density, length, _) ->
      let g = net () in
      let sys = Builders.random_systolic g mode ~period ~seed ~density in
      let dg = Delay_digraph.of_systolic sys ~length in
      let arcs = ref [] in
      Delay_digraph.iter_arcs
        (fun ~tail ~head ~delay -> arcs := (tail, head, delay) :: !arcs)
        dg;
      let expected = reference_arcs dg in
      let m = Delay_digraph.n_activations dg in
      let round k = (Delay_digraph.activation dg k).Delay_digraph.round in
      List.rev !arcs = expected
      && Delay_digraph.n_delay_arcs dg = List.length expected
      && List.for_all
           (fun k ->
             let a = Delay_digraph.activation dg k in
             Delay_digraph.find dg ~src:a.Delay_digraph.src
               ~dst:a.Delay_digraph.dst ~round:a.Delay_digraph.round
             = Some k
             (* one round past the expansion holds no activation *)
             && Delay_digraph.find dg ~src:a.Delay_digraph.src
                  ~dst:a.Delay_digraph.dst ~round:length
                = None)
           (List.init m Fun.id)
      && Delay_digraph.find dg ~src:(Digraph.n_vertices g) ~dst:0 ~round:0
         = None
      && List.for_all
           (fun k ->
             let dist = Delay_digraph.distances_from dg k in
             dist.(k) = 0
             && List.for_all
                  (fun (tail, head, _) ->
                    dist.(tail) = max_int || dist.(head) <> max_int)
                  expected
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun j d -> d = max_int || d = round j - round k)
                     dist))
           (List.init m Fun.id))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("delay digraph counts", `Quick, test_delay_digraph_counts);
    ("delay digraph window", `Quick, test_delay_digraph_window_respected);
    ("delay digraph in/out", `Quick, test_delay_digraph_in_out);
    ("delay distances telescope", `Quick, test_delay_distances_telescope);
    ("window validation", `Quick, test_window_validation);
    ("delay matrix entries", `Quick, test_delay_matrix_entries);
    ("delay matrix lambda validation", `Quick, test_delay_matrix_lambda_validation);
    ("norm = blockwise norm (prop 8)", `Quick, test_norm_equals_blockwise);
    ("blockwise norm parallel bit-identical", `Quick,
      test_norm_blockwise_parallel_bitwise);
    ("key property: path counting", `Quick, test_key_property_path_counting);
    ("pattern construction", `Quick, test_pattern_construction);
    ("d_{i,j} values", `Quick, test_d_values);
    ("Mx structure (Fig 1-2)", `Quick, test_mx_structure);
    ("Mx delays within period", `Quick, test_mx_delays_below_period);
    ("Lemma 2.2 reduction route", `Quick, test_lemma_2_2_route);
    ("Lemma 4.2 semi-eigenvector", `Quick, test_lemma_4_2_semi_eigenvector);
    ("Mx norm monotone in h", `Quick, test_mx_norm_monotone_in_h);
    ("of_activation_pattern", `Quick, test_of_activation_pattern);
    ("full-duplex local matrix (Fig 7)", `Quick, test_full_duplex_local);
    ("certificates below gossip time", `Quick, test_certificate_below_gossip_time);
    ("separator certificate", `Quick, test_certificate_separator);
    ("impossible_t edges", `Quick, test_impossible_t_edges);
    ("certificate refine improves", `Quick, test_certificate_refine_improves);
    ("certify_systolic stabilizes", `Quick, test_certify_systolic_stabilizes);
    ("delay digraph to_dot", `Quick, test_delay_digraph_to_dot);
    q prop_norms_match_reference_bitwise;
    q prop_norm_bound_half_duplex;
    q prop_norm_bound_directed;
    q prop_norm_bound_full_duplex;
    q prop_local_norm_bound;
    q prop_full_duplex_norm_bound;
    q prop_separator_certificate_distance;
    q prop_certificate_sound;
    (* Appended last so the indices of the cases above stay as they were. *)
    q prop_soundness_harness;
    ("certificate certifies from the upper end", `Quick,
      test_certificate_certifies_from_upper);
    q prop_pruned_search_exhaustive;
    ("pruned separator search = exhaustive", `Quick,
      test_pruned_separator_exhaustive);
    ("pruned search skips only losing λ", `Quick, test_pruned_search_skips);
    q prop_digraph_without_arcs;
  ]
