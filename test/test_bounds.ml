(* Tests for Gossip_bounds: the paper's published numbers, monotonicity
   and limit behaviour of e(s), the separator maximization, and catalog
   consistency.  Tolerance 2e-4 covers the paper's 4-decimal truncation. *)

open Gossip_bounds
module Numeric = Gossip_util.Numeric

let check = Alcotest.(check bool)

let close ?(eps = 2e-4) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.4f got %.6f" msg expected actual

(* --- Fig. 4: the paper's general e(s) row --- *)

let test_fig4_values () =
  (* "e(3) = 2.8808, e(4) = 1.8133, e(5) = 1.6502, e(6) = 1.5363,
     e(7) = 1.5021, e(8) = 1.4721" *)
  close "e(3)" 2.8808 (General.e 3);
  close "e(4)" 1.8133 (General.e 4);
  close "e(5)" 1.6502 (General.e 5);
  close "e(6)" 1.5363 (General.e 6);
  close "e(7)" 1.5021 (General.e 7);
  close "e(8)" 1.4721 (General.e 8);
  close "e(inf) = 1.4404" 1.4404 General.e_inf

let test_fig4_lambdas () =
  (* λ(4) is the real root of λ³ + λ = 1; λ(inf) = 1/φ *)
  let l4 = General.lambda_star 4 in
  close ~eps:1e-9 "lambda(4) root of cubic" 0.0 ((l4 ** 3.0) +. l4 -. 1.0);
  close ~eps:1e-9 "lambda(inf) = 1/phi" (1.0 /. Numeric.phi)
    General.lambda_star_inf;
  (* λ(3): λ·sqrt(1+λ²) = 1 -> λ² golden *)
  let l3 = General.lambda_star 3 in
  close ~eps:1e-9 "lambda(3)" 0.0 ((l3 *. sqrt (1.0 +. (l3 *. l3))) -. 1.0)

let test_full_duplex_equals_broadcast_constants () =
  (* Section 6: the full-duplex general bounds coincide with the
     broadcasting constants c(d) of [22, 2]:
     c(2) = 1.4404, c(3) = 1.1374, c(4) = 1.0562 *)
  close "fd e(3) = c(2)" 1.4404 (General.e_fd 3);
  close "fd e(4) = c(3)" 1.1374 (General.e_fd 4);
  close "fd e(5) = c(4)" 1.0562 (General.e_fd 5);
  close ~eps:1e-9 "fd lambda(inf) = 1/2" 0.5 General.lambda_star_fd_inf;
  close ~eps:1e-9 "fd e(inf) = 1" 1.0 General.e_fd_inf

let test_e_monotone_decreasing () =
  let vals = List.init 18 (fun i -> General.e (i + 3)) in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | _ -> true
  in
  check "e(s) decreasing in s" true (decreasing vals);
  check "e(s) >= e_inf always" true
    (List.for_all (fun v -> v >= General.e_inf -. 1e-9) vals);
  (* converges to e_inf *)
  close ~eps:1e-2 "e(40) near e_inf" General.e_inf (General.e 40)

let test_norm_function_properties () =
  (* increasing in lambda, and the s split is the balanced one *)
  check "increasing in lambda" true
    (General.norm_function 6 0.3 < General.norm_function 6 0.5
    && General.norm_function 6 0.5 < General.norm_function 6 0.8);
  check "norm function below inf version" true
    (General.norm_function 8 0.5 <= General.norm_function_inf 0.5 +. 1e-12);
  check "fd below fd inf" true
    (General.norm_function_fd 8 0.5 <= General.norm_function_fd_inf 0.5 +. 1e-12);
  Alcotest.check_raises "s < 3 rejected"
    (Invalid_argument "General.norm_function: s must be >= 3") (fun () ->
      ignore (General.norm_function 2 0.5))

(* --- Section 1 & 5 spot values for specific networks --- *)

let test_spot_values_systolic () =
  (* "when s = 4 we obtain g(WBF(2,D)) >= 2.0218 log n and
     g(DB(2,D)) >= 1.8133 log n" *)
  close "WBF(2,D) s=4" 2.0218
    (Separator_bounds.e_half_duplex ~alpha:(2.0 /. 3.0) ~ell:1.5 ~s:4);
  close "DB(2,D) s=4" 1.8133
    (Separator_bounds.e_half_duplex ~alpha:1.0 ~ell:1.0 ~s:4)

let test_spot_values_nonsystolic () =
  (* "g(WBF(2,D)) >= 1.9750 log n ... g(DB(2,D)) >= 1.5876 log n" *)
  close "WBF(2,D) non-systolic" 1.9750
    (Separator_bounds.e_half_duplex_inf ~alpha:(2.0 /. 3.0) ~ell:1.5);
  close "DB(2,D) non-systolic" 1.5876
    (Separator_bounds.e_half_duplex_inf ~alpha:1.0 ~ell:1.0)

let test_separator_bound_dominates_endpoint () =
  (* the maximization is at least the endpoint value α·l·e(s) *)
  List.iter
    (fun s ->
      let alpha = 2.0 /. 3.0 and ell = 1.5 in
      let v = Separator_bounds.e_half_duplex ~alpha ~ell ~s in
      check
        (Printf.sprintf "sep >= alpha·l·e(%d)" s)
        true
        (v >= (alpha *. ell *. General.e s) -. 1e-6))
    [ 3; 4; 5; 6; 7; 8 ]

let test_separator_alpha_l_one_gives_general () =
  (* with α·l = 1 and l = 1 the endpoint equals e(s); the max can only
     improve, and for DB at s = 4 it does not (paper stars it) *)
  let v = Separator_bounds.e_half_duplex ~alpha:1.0 ~ell:1.0 ~s:4 in
  close "DB s=4 equals general" (General.e 4) v

let test_maximize_generic () =
  let lam, v =
    Separator_bounds.maximize ~alpha:1.0 ~ell:1.0 ~f:General.norm_function_inf
  in
  check "argmax interior" true (lam > 0.0 && lam < 1.0);
  close "max value" 1.5876 v

let test_full_duplex_separator_values () =
  (* full-duplex non-systolic: must be >= the broadcasting-derived 1.0 and
     <= the half-duplex value for the same family *)
  List.iter
    (fun (alpha, ell) ->
      let fd = Separator_bounds.e_full_duplex_inf ~alpha ~ell in
      let hd = Separator_bounds.e_half_duplex_inf ~alpha ~ell in
      check "fd >= 1" true (fd >= 1.0 -. 1e-9);
      check "fd <= hd" true (fd <= hd +. 1e-9))
    [ (2.0 /. 3.0, 1.5); (1.0, 1.0); (0.5, 2.0) ]

let test_rounds_lower_bound () =
  let b = General.rounds_lower_bound ~n:1024 ~s:4 in
  check "1024 nodes, s=4: ceil(1.8133·10) = 19" true (b = 19)

(* --- tables --- *)

let test_fig4_table () =
  let rows = Tables.fig4 ~s_max:8 in
  check "six rows" true (List.length rows = 6);
  let r3 = List.hd rows in
  check "first row is s=3" true (r3.Tables.s = 3);
  close "table e(3)" 2.8808 r3.Tables.e;
  close "fig4 inf" 1.4404 Tables.fig4_inf.Tables.e

let test_fig5_table () =
  let rows = Tables.fig5 ~ss:[ 3; 4; 5; 6; 7; 8 ] in
  check "14 families (7 shapes x 2 degrees)" true (List.length rows = 14);
  let wbf2 = List.find (fun (r : Tables.family_row) -> r.Tables.key = "WBF(2,D)") rows in
  let _, c4 = List.find (fun (s, _) -> s = 4) wbf2.Tables.cells in
  close "fig5 WBF(2,D) s=4" 2.0218 c4.Tables.value;
  check "improves flagged" true c4.Tables.improves;
  (* cells never drop below the general bound *)
  List.iter
    (fun (r : Tables.family_row) ->
      List.iter
        (fun (s, c) ->
          check
            (Printf.sprintf "%s s=%d >= general" r.Tables.key s)
            true
            (c.Tables.value >= General.e s -. 1e-9))
        r.Tables.cells)
    rows

let test_fig6_table () =
  let rows = Tables.fig6 () in
  let wbf2 = List.find (fun (r : Tables.fig6_row) -> r.Tables.key = "WBF(2,D)") rows in
  close "fig6 WBF(2,D)" 1.9750 wbf2.Tables.separator_value;
  let db2 = List.find (fun (r : Tables.fig6_row) -> r.Tables.key = "DB(2,D)") rows in
  close "fig6 DB(2,D)" 1.5876 db2.Tables.separator_value;
  List.iter
    (fun (r : Tables.fig6_row) ->
      check (r.Tables.key ^ " best >= baseline") true
        (r.Tables.best >= r.Tables.baseline))
    rows

let test_fig8_table () =
  let rows = Tables.fig8 ~ss:[ 3; 4; 5; 6 ] in
  check "only undirected families" true
    (List.for_all
       (fun (r : Tables.family_row) ->
         not (String.length r.Tables.key > 0 && r.Tables.key.[0] = 'd'))
       rows);
  let gen = Tables.fig8_general ~ss:[ 3; 4; 5 ] in
  close "fig8 general col s=3" 1.4404 (List.assoc 3 gen);
  close "fig8 general col s=4" 1.1374 (List.assoc 4 gen);
  let inf_rows = Tables.fig8_inf () in
  check "fd inf rows exist" true (List.length inf_rows > 0);
  List.iter
    (fun (r : Tables.fig6_row) -> check "fd inf >= 1" true (r.Tables.best >= 1.0))
    inf_rows

let test_fig5_extended () =
  let rows = Tables.fig5_extended ~ds:[ 4; 5 ] ~ss:[ 8; 12; 16 ] in
  check "six rows (3 shapes x 2 degrees)" true (List.length rows = 6);
  (* the paper's remark: for d = 4, 5 slight improvements appear for
     s > 8 on the butterfly-type rows *)
  let bf4 = List.find (fun (r : Tables.family_row) -> r.Tables.key = "BF(4,D)") rows in
  List.iter
    (fun (_, (c : Tables.cell)) ->
      check "BF(4,D) improves on general" true c.Tables.improves)
    bf4.Tables.cells;
  (* DB(4,D) has alpha*l = 1 and does NOT improve even at s = 16 *)
  let db4 = List.find (fun (r : Tables.family_row) -> r.Tables.key = "DB(4,D)") rows in
  List.iter
    (fun (_, (c : Tables.cell)) ->
      check "DB(4,D) stays at general" true (not c.Tables.improves))
    db4.Tables.cells

(* --- catalog --- *)

let test_catalog_structure () =
  check "14 families" true (List.length Catalog.families = 14);
  check "find works" true (Catalog.find "DB(2,D)" <> None);
  check "find missing" true (Catalog.find "nope" = None);
  let db = Option.get (Catalog.find "DB(2,D)") in
  check "db undirected" true (not db.Catalog.directed);
  close ~eps:1e-12 "db alpha" 1.0 db.Catalog.alpha;
  close ~eps:1e-12 "db published ell" 1.0 db.Catalog.ell;
  close ~eps:1e-12 "db verified ell" 0.5 db.Catalog.verified_ell;
  check "undirected subset" true
    (List.for_all (fun f -> not f.Catalog.directed) Catalog.undirected_families)

let test_catalog_builders_and_separators () =
  List.iter
    (fun (f : Catalog.t) ->
      let dim = 4 in
      let g = f.Catalog.build dim in
      check (f.Catalog.key ^ " builds") true
        (Gossip_topology.Digraph.n_vertices g > 0);
      check
        (f.Catalog.key ^ " directedness consistent")
        f.Catalog.directed
        (not (Gossip_topology.Digraph.is_symmetric g));
      let sep = f.Catalog.separator dim in
      let m = Gossip_topology.Separator.measure g sep in
      check (f.Catalog.key ^ " separator sets nonempty") true
        (m.Gossip_topology.Separator.min_size > 0);
      check (f.Catalog.key ^ " separator distance positive") true
        (m.Gossip_topology.Separator.distance > 0
        && m.Gossip_topology.Separator.distance
           < Gossip_topology.Metrics.unreachable))
    Catalog.families

(* α·l <= 1 always (stated after Definition 3.5). *)
let prop_alpha_ell_product =
  QCheck.Test.make ~name:"α·l <= 1 for every catalog family" ~count:1
    QCheck.unit (fun () ->
      List.for_all
        (fun (f : Catalog.t) -> f.Catalog.alpha *. f.Catalog.ell <= 1.0 +. 1e-9)
        Catalog.families)

(* e(s) from the separator formula is decreasing in s, like the general
   one. *)
let prop_separator_e_decreasing =
  QCheck.Test.make ~name:"separator e(s) decreasing in s" ~count:20
    QCheck.(pair (float_range 0.3 1.0) (float_range 0.8 2.0))
    (fun (alpha, ell) ->
      QCheck.assume (alpha *. ell <= 1.0);
      let v5 = Separator_bounds.e_half_duplex ~alpha ~ell ~s:5 in
      let v6 = Separator_bounds.e_half_duplex ~alpha ~ell ~s:6 in
      let v8 = Separator_bounds.e_half_duplex ~alpha ~ell ~s:8 in
      v5 >= v6 -. 1e-6 && v6 >= v8 -. 1e-6)

(* Every λ* root behind the paper tables — the general rows and the
   separator maximizations, half and full duplex, s = 3 … 16 and s → ∞,
   checked here up to s = 64 — met its tolerance instead of running out
   of steps. *)
let test_table_roots_converged () =
  let converged name f =
    let r = General.solve_unit f in
    check (name ^ " converged") true r.Numeric.converged;
    check (name ^ " bracketed") true
      (r.Numeric.lo <= r.Numeric.root && r.Numeric.root <= r.Numeric.hi
      && r.Numeric.hi -. r.Numeric.lo <= 1e-14)
  in
  for s = 3 to 64 do
    converged (Printf.sprintf "lambda*(%d)" s) (General.norm_function s);
    converged (Printf.sprintf "lambda*_fd(%d)" s) (General.norm_function_fd s)
  done;
  converged "lambda*(inf)" General.norm_function_inf;
  converged "lambda*_fd(inf)" General.norm_function_fd_inf

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("Fig 4 values", `Quick, test_fig4_values);
    ("Fig 4 lambdas", `Quick, test_fig4_lambdas);
    ("full-duplex = broadcast constants", `Quick, test_full_duplex_equals_broadcast_constants);
    ("e(s) monotone", `Quick, test_e_monotone_decreasing);
    ("norm function properties", `Quick, test_norm_function_properties);
    ("spot values systolic", `Quick, test_spot_values_systolic);
    ("spot values non-systolic", `Quick, test_spot_values_nonsystolic);
    ("separator dominates endpoint", `Quick, test_separator_bound_dominates_endpoint);
    ("alpha·l = 1 gives general", `Quick, test_separator_alpha_l_one_gives_general);
    ("maximize generic", `Quick, test_maximize_generic);
    ("full-duplex separator sane", `Quick, test_full_duplex_separator_values);
    ("rounds lower bound", `Quick, test_rounds_lower_bound);
    ("fig4 table", `Quick, test_fig4_table);
    ("fig5 table", `Quick, test_fig5_table);
    ("fig6 table", `Quick, test_fig6_table);
    ("fig8 table", `Quick, test_fig8_table);
    ("fig5 extended degrees", `Quick, test_fig5_extended);
    ("catalog structure", `Quick, test_catalog_structure);
    ("catalog builders/separators", `Quick, test_catalog_builders_and_separators);
    q prop_alpha_ell_product;
    q prop_separator_e_decreasing;
    (* Appended last so the indices of the cases above stay as they were. *)
    ("table roots converged", `Quick, test_table_roots_converged);
  ]
