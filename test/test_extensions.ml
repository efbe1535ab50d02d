(* Tests for the extension modules: message complexity, Broadcast,
   Oracle, Weighted_diameter, Extra_families, and the tree/grid protocol
   builders. *)

open Gossip_topology
open Gossip_protocol
open Gossip_simulate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- extra families --- *)

let test_ccc_structure () =
  let dim = 4 in
  let g = Extra_families.cube_connected_cycles dim in
  check_int "CCC vertices" (dim * (1 lsl dim)) (Digraph.n_vertices g);
  check "CCC symmetric" true (Digraph.is_symmetric g);
  check "CCC strongly connected" true (Digraph.is_strongly_connected g);
  (* 3-regular *)
  let ok = ref true in
  for v = 0 to Digraph.n_vertices g - 1 do
    if Digraph.out_degree g v <> 3 then ok := false
  done;
  check "CCC 3-regular" true !ok

let test_ccc_diameter_order () =
  (* diameter of CCC(d) is Theta(d): 2d + floor(d/2) - 2 for d >= 4 *)
  let g = Extra_families.cube_connected_cycles 4 in
  check_int "CCC(4) diameter" ((2 * 4) + 2 - 2) (Metrics.diameter g)

let test_shuffle_exchange () =
  let g = Extra_families.shuffle_exchange 4 in
  check_int "SE vertices" 16 (Digraph.n_vertices g);
  check "SE symmetric" true (Digraph.is_symmetric g);
  check "SE connected" true (Digraph.is_strongly_connected g);
  check "SE max degree 3" true (Digraph.max_out_degree g <= 3);
  let d = Extra_families.shuffle_exchange_directed 4 in
  check "dSE not symmetric" true (not (Digraph.is_symmetric d));
  check "dSE strongly connected" true (Digraph.is_strongly_connected d);
  Alcotest.check_raises "SE dim 1"
    (Invalid_argument "Extra_families.shuffle_exchange: invalid dimension")
    (fun () -> ignore (Extra_families.shuffle_exchange 1))

let test_extra_families_gossip () =
  List.iter
    (fun g ->
      let sys = Builders.edge_coloring_half_duplex g in
      match Engine.gossip_time sys with
      | Some t -> check (Digraph.name g ^ " gossips") true (t >= Metrics.diameter g)
      | None -> Alcotest.fail (Digraph.name g ^ " did not gossip"))
    [ Extra_families.cube_connected_cycles 3; Extra_families.shuffle_exchange 4 ]

let test_knoedel_structure () =
  let g = Extra_families.knoedel ~delta:3 ~n:16 in
  check_int "W(3,16) vertices" 16 (Digraph.n_vertices g);
  check "regular of degree delta" true
    (let ok = ref true in
     for v = 0 to 15 do
       if Digraph.out_degree g v <> 3 then ok := false
     done;
     !ok);
  check "bipartite-ish symmetric" true (Digraph.is_symmetric g);
  check "connected" true (Digraph.is_strongly_connected g);
  Alcotest.check_raises "odd n rejected"
    (Invalid_argument "Extra_families.knoedel: invalid dimension") (fun () ->
      ignore (Extra_families.knoedel ~delta:2 ~n:7))

let test_lambda_star_poly_crosscheck () =
  List.iter
    (fun s ->
      let a = Gossip_bounds.General.lambda_star s in
      let b = Gossip_bounds.General.lambda_star_poly s in
      check
        (Printf.sprintf "lambda_star(%d) via polynomial route" s)
        true
        (Float.abs (a -. b) < 1e-10))
    [ 3; 4; 5; 6; 7; 8; 11; 16 ]

(* --- tree/grid builders --- *)

let test_tree_updown () =
  let sys = Builders.tree_updown ~d:2 ~depth:3 in
  check_int "period 2·d·depth" 12 (Systolic.period sys);
  check_int "one period completes gossip" 12
    (Option.get (Engine.gossip_time sys));
  let sys3 = Builders.tree_updown ~d:3 ~depth:2 in
  check "d=3 completes" true (Engine.gossip_time sys3 <> None)

let test_grid_rowcol () =
  let sys = Builders.grid_rowcol ~rows:4 ~cols:6 in
  check_int "period 8" 8 (Systolic.period sys);
  let t = Option.get (Engine.gossip_time sys) in
  let g = Systolic.graph sys in
  check "gossip >= diameter" true (t >= Metrics.diameter g);
  (* O(rows+cols) shape: well under the n-ish coloring time *)
  check "grid protocol is fast" true (t <= 4 * (4 + 6))

(* --- message complexity --- *)

let test_message_complexity () =
  (* hypercube sweep: every transmission is useful, total = rounds·n/2 *)
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let c = Engine.message_complexity sys in
  check_int "rounds" 8 c.Engine.rounds;
  check_int "transmissions" (8 * 8) c.Engine.transmissions;
  check_int "all useful on the sweep" c.Engine.transmissions c.Engine.useful;
  (* periodic protocols waste some *)
  let c2 =
    Engine.message_complexity
      (Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4))
  in
  check "useful <= transmissions" true (c2.Engine.useful <= c2.Engine.transmissions);
  (* each useful transmission adds at least one (vertex, item) pair, so
     there are at most n(n-1) of them; and dissemination needs at least
     n - 1 useful receptions for the last item alone *)
  check "useful <= n(n-1)" true (c2.Engine.useful <= 16 * 15);
  check "useful >= n-1" true (c2.Engine.useful >= 15)

(* Lemma 4.3 tightness: at lambda_star(s) the balanced one-block pattern
   attains the closed form, and unbalanced patterns stay strictly
   below. *)
let test_balanced_pattern_is_extremal () =
  let s = 6 in
  let lambda = Gossip_bounds.General.lambda_star s in
  let norm_of l r =
    let pat = Gossip_delay.Local_matrix.make_pattern ~l ~r in
    let h = 8 * Gossip_delay.Local_matrix.blocks pat in
    Gossip_linalg.Spectral.norm2_dense
      (Gossip_delay.Local_matrix.mx pat ~h ~lambda)
  in
  let balanced = norm_of [| 3 |] [| 3 |] in
  check "balanced attains 1 at lambda_star" true
    (Float.abs (balanced -. 1.0) < 1e-3);
  List.iter
    (fun (l, r) ->
      check "unbalanced strictly below" true (norm_of l r < balanced +. 1e-9))
    [ ([| 4 |], [| 2 |]); ([| 2 |], [| 4 |]); ([| 1 |], [| 5 |]);
      ([| 2; 1 |], [| 1; 2 |]); ([| 1; 1; 1 |], [| 1; 1; 1 |]) ]

(* --- broadcast bounds --- *)

let test_broadcast_constants () =
  let close a b = Float.abs (a -. b) < 2e-4 in
  check "c(2)" true (close (Gossip_bounds.Broadcast.c 2) 1.4404);
  check "c(3)" true (close (Gossip_bounds.Broadcast.c 3) 1.1374);
  check "c(4)" true (close (Gossip_bounds.Broadcast.c 4) 1.0562);
  (* c(d) decreasing to 1 *)
  check "c decreasing" true
    (Gossip_bounds.Broadcast.c 5 < Gossip_bounds.Broadcast.c 4);
  check "c(30) near 1" true (Gossip_bounds.Broadcast.c 30 < 1.03);
  Alcotest.check_raises "c(1) rejected"
    (Invalid_argument "Broadcast.c: degree parameter must be >= 2") (fun () ->
      ignore (Gossip_bounds.Broadcast.c 1))

let test_broadcast_lower_bound () =
  check_int "trivial 8" 3 (Gossip_bounds.Broadcast.trivial ~n:8);
  check_int "trivial 9" 4 (Gossip_bounds.Broadcast.trivial ~n:9);
  check_int "trivial 1" 0 (Gossip_bounds.Broadcast.trivial ~n:1);
  (* path: diameter dominates *)
  check_int "P10 lower bound" 9
    (Gossip_bounds.Broadcast.lower_bound (Families.path 10));
  (* complete: log term dominates *)
  check_int "K16 lower bound" 4
    (Gossip_bounds.Broadcast.lower_bound (Families.complete 16))

let test_broadcast_bound_sound () =
  (* measured broadcast >= the sound bound, on several protocols *)
  List.iter
    (fun sys ->
      let g = Systolic.graph sys in
      let lb = Gossip_bounds.Broadcast.lower_bound g in
      match Engine.broadcast_time sys ~src:0 with
      | Some b -> check (Digraph.name g ^ " broadcast sound") true (b >= lb)
      | None -> ())
    [
      Builders.hypercube_sweep ~dim:4 ~full_duplex:true;
      Builders.path_wave 8;
      Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4);
    ]

(* --- oracle --- *)

let test_oracle_components () =
  let g = Families.de_bruijn 2 5 in
  let o =
    Gossip_bounds.Oracle.lower_bounds ~family:"DB(2,D)" g
      ~mode:Protocol.Half_duplex ~s:(Some 4)
  in
  check_int "diameter" 5 o.Gossip_bounds.Oracle.diameter;
  check_int "doubling" 5 o.Gossip_bounds.Oracle.doubling;
  check "no s=2 bound" true (o.Gossip_bounds.Oracle.two_systolic = None);
  check "sound = max" true (o.Gossip_bounds.Oracle.sound = 5);
  check "refined >= general" true
    (match o.Gossip_bounds.Oracle.asymptotic_refined with
    | Some r -> r >= o.Gossip_bounds.Oracle.asymptotic_general -. 1e-9
    | None -> false)

let test_oracle_s2 () =
  let g = Families.cycle 8 in
  let o = Gossip_bounds.Oracle.lower_bounds g ~mode:Protocol.Half_duplex ~s:(Some 2) in
  check "s=2 gives n-1" true (o.Gossip_bounds.Oracle.two_systolic = Some 7);
  check_int "sound includes n-1" 7 o.Gossip_bounds.Oracle.sound

let test_oracle_modes () =
  let g = Families.kautz 2 3 in
  let hd = Gossip_bounds.Oracle.lower_bounds g ~mode:Protocol.Half_duplex ~s:(Some 4) in
  let fd = Gossip_bounds.Oracle.lower_bounds g ~mode:Protocol.Full_duplex ~s:(Some 4) in
  check "hd asymptotic >= fd asymptotic" true
    (hd.Gossip_bounds.Oracle.asymptotic_general
    >= fd.Gossip_bounds.Oracle.asymptotic_general);
  let non_sys = Gossip_bounds.Oracle.lower_bounds g ~mode:Protocol.Half_duplex ~s:None in
  check "systolic >= non-systolic" true
    (hd.Gossip_bounds.Oracle.asymptotic_general
    >= non_sys.Gossip_bounds.Oracle.asymptotic_general -. 1e-9)

let test_oracle_unknown_family () =
  let g = Families.path 8 in
  let o =
    Gossip_bounds.Oracle.lower_bounds ~family:"nonexistent" g
      ~mode:Protocol.Half_duplex ~s:None
  in
  check "unknown family -> no refined" true
    (o.Gossip_bounds.Oracle.asymptotic_refined = None)

(* --- weighted diameter --- *)

module WD = Gossip_delay.Weighted_diameter

let test_weighted_diameter_exact () =
  (* weighted directed triangle: 0->1 (1), 1->2 (2), 2->0 (3) *)
  let w = WD.make 3 [ (0, 1, 1); (1, 2, 2); (2, 0, 3) ] in
  check_int "arcs" 3 (WD.n_arcs w);
  (* dist(1,0) = 2+3 = 5; diameter = max = dist(1, 0) = 5 *)
  check_int "weighted diameter" 5 (WD.diameter w);
  (* unweighted cycle of 8: diameter 4 *)
  check_int "C8 diameter" 4 (WD.diameter (WD.of_digraph (Families.cycle 8)))

let test_weighted_diameter_validation () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Weighted_diameter.make: weight must be >= 1") (fun () ->
      ignore (WD.make 2 [ (0, 1, 0) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Weighted_diameter.make: duplicate arc") (fun () ->
      ignore (WD.make 2 [ (0, 1, 1); (0, 1, 2) ]))

let test_weighted_lower_bound_sound () =
  List.iter
    (fun g ->
      let w = WD.of_digraph g in
      let lb = WD.lower_bound w in
      let d = WD.diameter w in
      check (Digraph.name g ^ " wd bound sound") true (lb <= d);
      check (Digraph.name g ^ " wd bound nontrivial") true (lb >= 1))
    [
      Families.cycle 8;
      Families.hypercube 4;
      Families.de_bruijn_directed 2 6;
      Families.kautz_directed 2 5;
      Families.complete 8;
    ]

let test_weighted_bound_scales () =
  (* scaling all weights by w scales both diameter and (roughly) the
     bound *)
  let base = WD.of_digraph (Families.de_bruijn_directed 2 5) in
  let scaled = WD.of_digraph ~weight:3 (Families.de_bruijn_directed 2 5) in
  check_int "diameter scales exactly" (3 * WD.diameter base) (WD.diameter scaled);
  check "bound scales up" true (WD.lower_bound scaled > WD.lower_bound base)

(* Dijkstra with unit weights must agree with BFS. *)
let prop_dijkstra_equals_bfs =
  QCheck.Test.make ~name:"weighted diameter with unit weights = BFS diameter"
    ~count:30
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let g =
        Random_graphs.strongly_connected_digraph ~n:12 ~extra_arcs:12 ~seed
      in
      WD.diameter (WD.of_digraph g) = Metrics.diameter g)

let prop_weighted_bound_sound_random =
  QCheck.Test.make ~name:"weighted diameter bound sound on random digraphs"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 4 10))
    (fun (seed, n) ->
      let rng = Gossip_util.Prng.create seed in
      (* random strongly-connected-ish digraph: a directed cycle plus
         random chords, random weights 1..5 *)
      let arcs = ref [] in
      for v = 0 to n - 1 do
        arcs := (v, (v + 1) mod n, 1 + Gossip_util.Prng.int rng 5) :: !arcs
      done;
      for _ = 1 to n do
        let u = Gossip_util.Prng.int rng n and v = Gossip_util.Prng.int rng n in
        if u <> v && not (List.exists (fun (a, b, _) -> a = u && b = v) !arcs)
        then arcs := (u, v, 1 + Gossip_util.Prng.int rng 5) :: !arcs
      done;
      let w = WD.make n !arcs in
      WD.lower_bound w <= WD.diameter w)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("CCC structure", `Quick, test_ccc_structure);
    ("CCC diameter", `Quick, test_ccc_diameter_order);
    ("shuffle-exchange", `Quick, test_shuffle_exchange);
    ("extra families gossip", `Quick, test_extra_families_gossip);
    ("knoedel structure", `Quick, test_knoedel_structure);
    ("lambda_star polynomial cross-check", `Quick, test_lambda_star_poly_crosscheck);
    ("tree updown builder", `Quick, test_tree_updown);
    ("grid rowcol builder", `Quick, test_grid_rowcol);
    ("message complexity", `Quick, test_message_complexity);
    ("balanced pattern extremal", `Quick, test_balanced_pattern_is_extremal);
    ("broadcast constants", `Quick, test_broadcast_constants);
    ("broadcast lower bound", `Quick, test_broadcast_lower_bound);
    ("broadcast bound sound", `Quick, test_broadcast_bound_sound);
    ("oracle components", `Quick, test_oracle_components);
    ("oracle s=2", `Quick, test_oracle_s2);
    ("oracle modes", `Quick, test_oracle_modes);
    ("oracle unknown family", `Quick, test_oracle_unknown_family);
    ("weighted diameter exact", `Quick, test_weighted_diameter_exact);
    ("weighted diameter validation", `Quick, test_weighted_diameter_validation);
    ("weighted bound sound", `Quick, test_weighted_lower_bound_sound);
    ("weighted bound scales", `Quick, test_weighted_bound_scales);
    q prop_dijkstra_equals_bfs;
    q prop_weighted_bound_sound_random;
  ]
