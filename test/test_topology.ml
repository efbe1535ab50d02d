(* Tests for Gossip_topology: digraph structure, family generators
   (vertex/arc counts and degrees against the closed-form formulas of
   Section 3), BFS metrics, the Lemma 3.1 separators, edge coloring. *)

open Gossip_topology

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ipow b e = int_of_float (float_of_int b ** float_of_int e)

(* --- Digraph --- *)

let test_digraph_basic () =
  let g = Digraph.make ~name:"tri" 3 [ (0, 1); (1, 2); (2, 0) ] in
  check_int "n" 3 (Digraph.n_vertices g);
  check_int "arcs" 3 (Digraph.n_arcs g);
  check "mem" true (Digraph.mem_arc g 0 1);
  check "not mem" false (Digraph.mem_arc g 1 0);
  check "strongly connected" true (Digraph.is_strongly_connected g);
  check "not symmetric" false (Digraph.is_symmetric g);
  let s = Digraph.symmetric_closure g in
  check_int "closure arcs" 6 (Digraph.n_arcs s);
  check "closure symmetric" true (Digraph.is_symmetric s);
  let r = Digraph.reverse g in
  check "reverse arc" true (Digraph.mem_arc r 1 0)

let test_digraph_rejects () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Digraph.make: self-loop at 1") (fun () ->
      ignore (Digraph.make ~name:"x" 2 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Digraph.make: arc (0,5) out of range") (fun () ->
      ignore (Digraph.make ~name:"x" 2 [ (0, 5) ]))

let test_digraph_duplicates_merged () =
  let g = Digraph.make ~name:"dup" 2 [ (0, 1); (0, 1) ] in
  check_int "merged" 1 (Digraph.n_arcs g)

let test_degree_parameter () =
  (* undirected: max degree - 1; directed: max out-degree *)
  check_int "path degree param" 1 (Digraph.degree_parameter (Families.path 5));
  check_int "cycle degree param" 1 (Digraph.degree_parameter (Families.cycle 6));
  check_int "dDB degree param" 2
    (Digraph.degree_parameter (Families.de_bruijn_directed 2 4));
  check_int "hypercube degree param" 2
    (Digraph.degree_parameter (Families.hypercube 3))

let test_undirected_edges () =
  let g = Families.cycle 5 in
  check_int "cycle 5 has 5 edges" 5 (List.length (Digraph.undirected_edges g))

let test_not_strongly_connected () =
  let g = Digraph.make ~name:"two" 2 [ (0, 1) ] in
  check "one-way pair not SC" false (Digraph.is_strongly_connected g)

(* --- family counts: n, arcs, degrees (Section 3 formulas) --- *)

let test_family_sizes () =
  let cases =
    [
      ("path", Families.path 10, 10, 2 * 9);
      ("cycle", Families.cycle 10, 10, 2 * 10);
      ("complete", Families.complete 7, 7, 7 * 6);
      ("star", Families.star 8, 8, 2 * 7);
      ("bipartite", Families.complete_bipartite 3 4, 7, 2 * 12);
      ("hypercube", Families.hypercube 4, 16, 4 * 16);
      ("grid", Families.grid 4 6, 24, 2 * ((3 * 6) + (4 * 5)));
      ("torus", Families.torus 4 5, 20, 2 * 2 * 20);
      ("tree", Families.complete_dary_tree 3 2, 13, 2 * 12);
      ("BF(2,3)", Families.butterfly 2 3, 4 * 8, 2 * 2 * 3 * 8);
      ("dWBF(2,3)", Families.wrapped_butterfly_directed 2 3, 24, 2 * 24);
      ("WBF(2,3)", Families.wrapped_butterfly 2 3, 24, 4 * 24);
      ("dDB(2,4)", Families.de_bruijn_directed 2 4, 16, (2 * 16) - 2);
      ("dDB(3,3)", Families.de_bruijn_directed 3 3, 27, (3 * 27) - 3);
      ("dK(2,3)", Families.kautz_directed 2 3, 12, 2 * 12);
      ("dK(3,2)", Families.kautz_directed 3 2, 12, 3 * 12);
    ]
  in
  List.iter
    (fun (name, g, n, arcs) ->
      check_int (name ^ " vertices") n (Digraph.n_vertices g);
      check_int (name ^ " arcs") arcs (Digraph.n_arcs g))
    cases

let test_families_strongly_connected () =
  List.iter
    (fun g ->
      check (Digraph.name g ^ " strongly connected") true
        (Digraph.is_strongly_connected g))
    [
      Families.path 7;
      Families.cycle 9;
      Families.directed_cycle 6;
      Families.hypercube 3;
      Families.butterfly 2 3;
      Families.wrapped_butterfly_directed 2 3;
      Families.wrapped_butterfly 3 2;
      Families.de_bruijn_directed 2 5;
      Families.de_bruijn 3 3;
      Families.kautz_directed 2 4;
      Families.kautz 3 2;
      Families.complete_dary_tree 2 3;
    ]

let test_family_diameters () =
  check_int "path diam" 9 (Metrics.diameter (Families.path 10));
  check_int "cycle diam" 5 (Metrics.diameter (Families.cycle 10));
  check_int "complete diam" 1 (Metrics.diameter (Families.complete 5));
  check_int "hypercube diam" 4 (Metrics.diameter (Families.hypercube 4));
  check_int "grid diam" 8 (Metrics.diameter (Families.grid 5 5));
  check_int "dDB diam = D" 5 (Metrics.diameter (Families.de_bruijn_directed 2 5));
  check_int "dK diam = D" 4 (Metrics.diameter (Families.kautz_directed 2 4));
  check_int "BF diam = 2D" 8 (Metrics.diameter (Families.butterfly 2 4))

let test_family_rejects () =
  Alcotest.check_raises "cycle 2"
    (Invalid_argument "Families.cycle: invalid dimension") (fun () ->
      ignore (Families.cycle 2));
  Alcotest.check_raises "butterfly d=1"
    (Invalid_argument "Families.butterfly: invalid dimension") (fun () ->
      ignore (Families.butterfly 1 3))

let test_de_bruijn_structure () =
  (* every vertex has out-degree d except the d "constant" strings whose
     self-loop was dropped *)
  let d = 2 and dim = 4 in
  let g = Families.de_bruijn_directed d dim in
  let outs =
    List.init (ipow d dim) (fun v -> Digraph.out_degree g v)
  in
  let full = List.length (List.filter (fun x -> x = d) outs) in
  let short = List.length (List.filter (fun x -> x = d - 1) outs) in
  check_int "all but d vertices have out-degree d" (ipow d dim - d) full;
  check_int "d constant strings lost their loop" d short

let test_kautz_string_coding () =
  let d = 2 and dim = 4 in
  let n = (d + 1) * ipow d (dim - 1) in
  let seen = Hashtbl.create n in
  let ok = ref true in
  for v = 0 to n - 1 do
    let s = Families.kautz_string_of_vertex ~d ~dim v in
    (* adjacent-distinct *)
    for i = 0 to dim - 2 do
      if s.(i) = s.(i + 1) then ok := false
    done;
    if Families.kautz_vertex_of_string ~d s <> v then ok := false;
    if Hashtbl.mem seen (Array.to_list s) then ok := false;
    Hashtbl.replace seen (Array.to_list s) ()
  done;
  check "kautz coding bijective and valid" true !ok;
  check_int "all strings enumerated" n (Hashtbl.length seen)

let test_string_coding_roundtrip () =
  let d = 3 and dim = 4 in
  let ok = ref true in
  for code = 0 to ipow d dim - 1 do
    let s = Families.string_of_code ~d ~dim code in
    if Array.exists (fun x -> x < 1 || x > d) s then ok := false;
    if Families.code_of_string ~d s <> code then ok := false
  done;
  check "base-d coding roundtrip" true !ok

let test_butterfly_levels () =
  (* arcs only join consecutive levels, both directions *)
  let d = 2 and dim = 3 in
  let g = Families.butterfly d dim in
  let words = ipow d dim in
  let level v = v / words in
  let ok = ref true in
  Digraph.iter_arcs
    (fun u v -> if abs (level u - level v) <> 1 then ok := false)
    g;
  check "butterfly arcs respect levels" true !ok;
  check "butterfly symmetric" true (Digraph.is_symmetric g)

let test_wbf_level_rotation () =
  let d = 2 and dim = 4 in
  let g = Families.wrapped_butterfly_directed d dim in
  let words = ipow d dim in
  let ok = ref true in
  Digraph.iter_arcs
    (fun u v ->
      let lu = u / words and lv = v / words in
      if lv <> (lu + dim - 1) mod dim then ok := false)
    g;
  check "dWBF arcs go down one level mod D" true !ok

(* --- Metrics --- *)

let test_bfs_distances () =
  let g = Families.path 6 in
  let dist = Metrics.bfs g 0 in
  check "path distances" true (dist = [| 0; 1; 2; 3; 4; 5 |]);
  check_int "distance" 3 (Metrics.distance g 1 4);
  check_int "eccentricity of end" 5 (Metrics.eccentricity g 0);
  check_int "eccentricity of middle" 3 (Metrics.eccentricity g 2)

let test_bfs_multi_and_sets () =
  let g = Families.cycle 8 in
  let dist = Metrics.bfs_multi g [ 0; 4 ] in
  check "multi-source" true (dist.(2) = 2 && dist.(6) = 2);
  check_int "set distance" 2 (Metrics.set_distance g [ 0 ] [ 2; 6 ])

let test_unreachable () =
  let g = Digraph.make ~name:"disc" 3 [ (0, 1) ] in
  let dist = Metrics.bfs g 0 in
  check "unreachable marked" true (dist.(2) = Metrics.unreachable);
  check_int "diameter unreachable" Metrics.unreachable (Metrics.diameter g)

let test_diameter_sampled () =
  let g = Families.hypercube 5 in
  check_int "sampled = exact when samples >= n" 5
    (Metrics.diameter_sampled g ~samples:100 ~seed:1);
  check "sampled lower bound" true
    (Metrics.diameter_sampled g ~samples:3 ~seed:1 <= 5)

let test_all_pairs () =
  let g = Families.cycle 6 in
  let d = Metrics.all_pairs g in
  check "all pairs symmetric" true (d.(1).(4) = d.(4).(1));
  check_int "opposite vertices" 3 d.(0).(3)

(* --- Separators --- *)

let test_separator_bf () =
  let d = 2 and dim = 4 in
  let g = Families.butterfly d dim in
  let sep = Separator.butterfly ~d ~dim in
  let m = Separator.measure g sep in
  check_int "BF distance = 2D" (2 * dim) m.Separator.distance;
  check_int "BF min size = d^D/2" (ipow d dim / 2) m.Separator.min_size

let test_separator_dwbf () =
  let d = 2 and dim = 4 in
  let g = Families.wrapped_butterfly_directed d dim in
  let m = Separator.measure g (Separator.wrapped_butterfly_directed ~d ~dim) in
  check_int "dWBF distance = 2D-1" ((2 * dim) - 1) m.Separator.distance

let test_separator_wbf () =
  let d = 2 and dim = 6 in
  let g = Families.wrapped_butterfly d dim in
  let m = Separator.measure g (Separator.wrapped_butterfly ~d ~dim) in
  (* 3D/2 - O(sqrt D): for D = 6 at least D - 1 and at most 3D/2 *)
  check "WBF distance within asymptotic window" true
    (m.Separator.distance >= dim - 1 && m.Separator.distance <= (3 * dim / 2) + 1);
  check "WBF sets sizable" true (m.Separator.min_size >= 8)

let test_separator_db_directed () =
  List.iter
    (fun (d, dim) ->
      let g = Families.de_bruijn_directed d dim in
      let m = Separator.measure g (Separator.de_bruijn ~d ~dim) in
      let h = int_of_float (ceil (sqrt (float_of_int dim))) in
      check
        (Printf.sprintf "dDB(%d,%d) distance >= D - h + 1" d dim)
        true
        (m.Separator.distance >= dim - h + 1);
      check
        (Printf.sprintf "dDB(%d,%d) sets sizable" d dim)
        true
        (m.Separator.min_size * 16 >= Digraph.n_vertices g / ipow d h))
    [ (2, 6); (2, 8); (3, 4) ]

let test_separator_kautz_directed () =
  List.iter
    (fun (d, dim) ->
      let g = Families.kautz_directed d dim in
      let m = Separator.measure g (Separator.kautz ~d ~dim) in
      let h = int_of_float (ceil (sqrt (float_of_int dim))) in
      check
        (Printf.sprintf "dK(%d,%d) distance >= D - h + 1" d dim)
        true
        (m.Separator.distance >= dim - h + 1))
    [ (2, 6); (3, 4) ]

let test_separator_db_undirected () =
  let d = 2 and dim = 8 in
  let g = Families.de_bruijn d dim in
  let m = Separator.measure g (Separator.de_bruijn_undirected ~d ~dim) in
  let h = int_of_float (ceil (sqrt (float_of_int dim))) in
  check "undirected DB distance >= D/2 - h" true
    (m.Separator.distance >= (dim / 2) - h);
  check "undirected DB sets sizable" true (m.Separator.min_size >= 16)

let test_separator_kautz_undirected () =
  let d = 2 and dim = 6 in
  let g = Families.kautz d dim in
  let m = Separator.measure g (Separator.kautz_undirected ~d ~dim) in
  let h = int_of_float (ceil (sqrt (float_of_int dim))) in
  check "undirected K distance >= D/2 - h" true
    (m.Separator.distance >= (dim / 2) - h)

(* The paper's literal de Bruijn construction (same sparse positions in
   both sets) collapses to distance 1 because arcs shift strings — this
   regression test documents why the corrected sets are needed. *)
let test_separator_naive_db_collapses () =
  let d = 2 and dim = 6 in
  let g = Families.de_bruijn_directed d dim in
  let h = 3 in
  let low_positions = [ 0; h ] in
  let constrained low v =
    let s = Families.string_of_code ~d ~dim v in
    List.for_all (fun p -> if low then s.(p) = 1 else s.(p) = 2) low_positions
  in
  let all = List.init (ipow d dim) Fun.id in
  let v1 = List.filter (constrained true) all in
  let v2 = List.filter (constrained false) all in
  check_int "naive construction distance collapses" 1
    (Metrics.set_distance g v1 v2)

let test_separator_alpha_ell_values () =
  let s = Separator.de_bruijn ~d:2 ~dim:6 in
  check "DB alpha = log d" true (Float.abs (s.Separator.alpha -. 1.0) < 1e-12);
  check "DB ell = 1/log d" true (Float.abs (s.Separator.ell -. 1.0) < 1e-12);
  let w = Separator.wrapped_butterfly ~d:2 ~dim:6 in
  check "WBF alpha = 2/3" true (Float.abs (w.Separator.alpha -. (2.0 /. 3.0)) < 1e-12);
  check "WBF ell = 1.5" true (Float.abs (w.Separator.ell -. 1.5) < 1e-12)

let test_separator_measure_empty () =
  let g = Families.path 4 in
  Alcotest.check_raises "empty set rejected"
    (Invalid_argument "Separator.measure: empty separator set") (fun () ->
      ignore
        (Separator.measure g
           (Separator.custom ~alpha:1.0 ~ell:1.0 ~v1:[] ~v2:[ 0 ])))

(* --- Coloring --- *)

let test_coloring_families () =
  List.iter
    (fun g ->
      let classes = Coloring.edge_coloring g in
      check (Digraph.name g ^ " proper") true (Coloring.is_proper g classes);
      let delta = Digraph.max_out_degree g in
      check
        (Digraph.name g ^ " colors <= 2Δ-1")
        true
        (List.length classes <= (2 * delta) - 1))
    [
      Families.path 9;
      Families.cycle 7;
      Families.hypercube 4;
      Families.de_bruijn 2 4;
      Families.wrapped_butterfly 2 3;
      Families.kautz 2 3;
      Families.complete 6;
      Families.grid 4 4;
      Families.complete_dary_tree 3 2;
    ]

let test_coloring_path_two_colors () =
  let g = Families.path 10 in
  check_int "path is 2-edge-colorable" 2
    (List.length (Coloring.edge_coloring g))

let test_coloring_rejects_directed () =
  Alcotest.check_raises "directed rejected"
    (Invalid_argument "Coloring.edge_coloring: digraph not symmetric")
    (fun () -> ignore (Coloring.edge_coloring (Families.directed_cycle 4)))

let test_is_proper_detects_bad () =
  let g = Families.path 4 in
  (* classes missing an edge *)
  check "missing edge detected" false (Coloring.is_proper g [ [ (0, 1) ] ]);
  (* non-matching class *)
  check "non-matching detected" false
    (Coloring.is_proper g [ [ (0, 1); (1, 2) ]; [ (2, 3) ] ])

let test_misra_gries_families () =
  List.iter
    (fun g ->
      let classes = Coloring.misra_gries g in
      let delta = Digraph.max_out_degree g in
      check (Digraph.name g ^ " MG proper") true (Coloring.is_proper g classes);
      check
        (Digraph.name g ^ " MG colors <= delta+1")
        true
        (List.length classes <= delta + 1))
    [
      Families.path 9;
      Families.cycle 7;
      Families.complete 7;
      Families.hypercube 4;
      Families.de_bruijn 2 5;
      Families.wrapped_butterfly 2 3;
      Families.kautz 2 4;
      Families.grid 5 5;
      Families.complete_dary_tree 3 3;
      Extra_families.cube_connected_cycles 3;
      Extra_families.shuffle_exchange 5;
    ]

let test_misra_gries_beats_vizing_class2 () =
  (* odd complete graphs are class 2: chromatic index delta+1 exactly *)
  let g = Families.complete 7 in
  check_int "K7 needs exactly 7 = delta+1" 7
    (List.length (Coloring.misra_gries g))

let prop_misra_gries_random =
  QCheck.Test.make ~name:"Misra-Gries proper and <= delta+1 on random graphs"
    ~count:80
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let rng = Gossip_util.Prng.create seed in
      let n = 4 + Gossip_util.Prng.int rng 14 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Gossip_util.Prng.float rng 1.0 < 0.4 then edges := (u, v) :: !edges
        done
      done;
      QCheck.assume (!edges <> []);
      let arcs = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) !edges in
      let g = Digraph.make ~name:"rand" n arcs in
      let classes = Coloring.misra_gries g in
      Coloring.is_proper g classes
      && List.length classes <= Digraph.max_out_degree g + 1)

let test_coloring_best () =
  let g = Families.hypercube 4 in
  (* greedy happens to 4-color Q4; best must not be worse *)
  check "best <= both" true
    (List.length (Coloring.best g)
    <= min
         (List.length (Coloring.edge_coloring g))
         (List.length (Coloring.misra_gries g)));
  check "best proper" true (Coloring.is_proper g (Coloring.best g))

(* --- Random graphs --- *)

let test_random_regular () =
  List.iter
    (fun (n, degree) ->
      let g = Random_graphs.regular ~n ~degree ~seed:5 in
      check_int "vertex count" n (Digraph.n_vertices g);
      let ok = ref true in
      for v = 0 to n - 1 do
        if Digraph.out_degree g v <> degree then ok := false
      done;
      check (Printf.sprintf "R(%d,%d) regular" n degree) true !ok;
      check "symmetric" true (Digraph.is_symmetric g))
    [ (10, 3); (16, 4); (20, 3) ];
  Alcotest.check_raises "odd total degree"
    (Invalid_argument "Random_graphs.regular: n·degree must be even")
    (fun () -> ignore (Random_graphs.regular ~n:5 ~degree:3 ~seed:0))

let test_random_regular_deterministic () =
  let a = Random_graphs.regular ~n:12 ~degree:3 ~seed:7 in
  let b = Random_graphs.regular ~n:12 ~degree:3 ~seed:7 in
  check "same seed same graph" true (Digraph.arcs a = Digraph.arcs b);
  let c = Random_graphs.regular ~n:12 ~degree:3 ~seed:8 in
  check "different seed differs" true (Digraph.arcs a <> Digraph.arcs c)

let test_erdos_renyi () =
  let g = Random_graphs.erdos_renyi_digraph ~n:20 ~p:0.3 ~seed:2 in
  check "arc count plausible" true
    (let m = Digraph.n_arcs g in
     m > 50 && m < 190);
  let empty = Random_graphs.erdos_renyi_digraph ~n:10 ~p:0.0 ~seed:2 in
  check_int "p=0 empty" 0 (Digraph.n_arcs empty)

let test_strongly_connected_random () =
  let g = Random_graphs.strongly_connected_digraph ~n:15 ~extra_arcs:10 ~seed:3 in
  check "strongly connected by construction" true
    (Digraph.is_strongly_connected g);
  check "has the extra arcs" true (Digraph.n_arcs g >= 15)

(* --- Operations: line digraphs and products --- *)

let test_kautz_is_iterated_line_digraph () =
  (* K(d, D+1) = L(K(d, D)), witnessed by the explicit bijection
     arc (x -> y) of K(d,D)  <->  the length-(D+1) string x·(last of y) *)
  List.iter
    (fun (d, dim) ->
      let g = Families.kautz_directed d dim in
      let lg = Operations.line_digraph g in
      let target = Families.kautz_directed d (dim + 1) in
      check "same shape" true (Operations.same_shape lg target);
      let arcs = Array.of_list (Digraph.arcs g) in
      let f =
        Array.map
          (fun (u, v) ->
            let su = Families.kautz_string_of_vertex ~d ~dim u in
            let sv = Families.kautz_string_of_vertex ~d ~dim v in
            let s = Array.make (dim + 1) 0 in
            Array.blit su 0 s 1 dim;
            s.(0) <- sv.(0);
            Families.kautz_vertex_of_string ~d s)
          arcs
      in
      check
        (Printf.sprintf "L(K(%d,%d)) iso K(%d,%d)" d dim d (dim + 1))
        true
        (Operations.isomorphic_by lg target f))
    [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2) ]

let test_grid_is_product_of_paths () =
  let grid = Families.grid 4 6 in
  let prod = Operations.cartesian_product (Families.path 4) (Families.path 6) in
  check "identical indexing" true
    (Operations.isomorphic_by prod grid (Array.init 24 Fun.id))

let test_torus_is_product_of_cycles () =
  let torus = Families.torus 4 5 in
  let prod = Operations.cartesian_product (Families.cycle 4) (Families.cycle 5) in
  check "torus = C4 x C5" true
    (Operations.isomorphic_by prod torus (Array.init 20 Fun.id))

let test_hypercube_is_k2_power () =
  let q = Families.hypercube 4 in
  let p = Operations.power (Families.complete 2) 4 in
  check "Q4 = K2^4" true (Operations.isomorphic_by p q (Array.init 16 Fun.id))

let test_same_shape_negative () =
  check "path vs cycle differ" false
    (Operations.same_shape (Families.path 5) (Families.cycle 5));
  check "directed vs undirected differ" false
    (Operations.same_shape
       (Families.de_bruijn_directed 2 3)
       (Families.de_bruijn 2 3))

let test_isomorphic_by_rejects_bad_maps () =
  let g = Families.cycle 4 in
  check "non-bijection rejected" false
    (Operations.isomorphic_by g g [| 0; 0; 1; 2 |]);
  check "arc-breaking map rejected" false
    (Operations.isomorphic_by g g [| 0; 2; 1; 3 |]);
  check "rotation accepted" true
    (Operations.isomorphic_by g g [| 1; 2; 3; 0 |])

let test_line_vertex_of_arc () =
  let g = Families.directed_cycle 3 in
  let lg = Operations.line_digraph g in
  check_int "line digraph of DC3 has 3 vertices" 3 (Digraph.n_vertices lg);
  let i = Operations.line_vertex_of_arc g (0, 1) in
  check "index in range" true (i >= 0 && i < 3);
  check "labels carry arc names" true (Digraph.label lg i = "0>1")

(* --- Dot export --- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_dot_undirected () =
  let g = Families.cycle 3 in
  let dot = Dot.of_digraph g in
  check "graph keyword" true (contains ~sub:"graph \"C(3)\"" dot);
  check "undirected edge syntax" true (contains ~sub:" -- " dot);
  check "no directed arrows" false (contains ~sub:" -> " dot)

let test_dot_directed () =
  let g = Families.directed_cycle 3 in
  let dot = Dot.of_digraph g in
  check "digraph keyword" true (contains ~sub:"digraph" dot);
  check "arrow syntax" true (contains ~sub:"0 -> 1" dot)

let test_dot_highlight_and_labels () =
  let g = Families.de_bruijn_directed 2 2 in
  let dot = Dot.of_digraph ~highlight:[ (0, 1) ] g in
  check "highlight attribute" true (contains ~sub:"color=red" dot);
  check "string labels present" true (contains ~sub:"label=\"11\"" dot)

(* --- property tests --- *)

let arb_dim = QCheck.int_range 2 5

let prop_db_linegraph_count =
  (* |arcs of DB(d,D)| relates to vertex count of DB(d,D+1): the de Bruijn
     digraph with self-loops is the line digraph closure; dropping d
     self-loops per dimension keeps d^{D+1} - d arcs. *)
  QCheck.Test.make ~name:"dDB arc count = d^(D+1) - d" ~count:30
    QCheck.(pair (int_range 2 3) arb_dim)
    (fun (d, dim) ->
      Digraph.n_arcs (Families.de_bruijn_directed d dim)
      = ipow d (dim + 1) - d)

let prop_symmetric_closure_idempotent =
  QCheck.Test.make ~name:"symmetric_closure idempotent" ~count:30
    QCheck.(pair (int_range 2 3) (int_range 2 4))
    (fun (d, dim) ->
      let g = Families.de_bruijn_directed d dim in
      let s = Digraph.symmetric_closure g in
      Digraph.n_arcs (Digraph.symmetric_closure s) = Digraph.n_arcs s)

let prop_bfs_triangle =
  QCheck.Test.make ~name:"BFS distances satisfy triangle inequality" ~count:20
    (QCheck.int_range 0 1000)
    (fun seed ->
      let rng = Gossip_util.Prng.create seed in
      let g = Families.de_bruijn 2 4 in
      let n = Digraph.n_vertices g in
      let u = Gossip_util.Prng.int rng n
      and v = Gossip_util.Prng.int rng n
      and w = Gossip_util.Prng.int rng n in
      let d = Metrics.all_pairs g in
      d.(u).(w) <= d.(u).(v) + d.(v).(w))

(* --- family resolution by name --- *)

let test_of_family_matches_generators () =
  let shape g = (Digraph.name g, Digraph.n_vertices g, Digraph.arcs g) in
  (* (dim, degree, direct generator), in [known_families] order *)
  List.iter2
    (fun family (dim, degree, g) ->
      check (family ^ " = its generator") true
        (Result.map shape (Families.of_family ~family ~dim ~degree)
        = Ok (shape g)))
    Families.known_families
    [
      (5, 2, Families.path 5); (6, 2, Families.cycle 6);
      (4, 2, Families.complete 4); (3, 2, Families.hypercube 3);
      (3, 2, Families.grid 3 3); (3, 2, Families.torus 3 3);
      (2, 1, Families.complete_dary_tree 2 2); (2, 2, Families.butterfly 2 2);
      (3, 2, Families.wrapped_butterfly_directed 2 3);
      (3, 2, Families.wrapped_butterfly 2 3);
      (3, 3, Families.de_bruijn_directed 3 3); (4, 2, Families.de_bruijn 2 4);
      (3, 2, Families.kautz_directed 2 3); (2, 3, Families.kautz 3 2);
    ]

let test_of_family_rejects () =
  check "unknown name" true
    (Families.of_family ~family:"moebius" ~dim:3 ~degree:2
    = Error "unknown family \"moebius\"");
  check "dimension the generator rejects" true
    (Result.is_error (Families.of_family ~family:"cycle" ~dim:2 ~degree:2));
  check "degree the generator rejects" true
    (Result.is_error (Families.of_family ~family:"db" ~dim:3 ~degree:1))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("digraph basic", `Quick, test_digraph_basic);
    ("digraph rejects bad arcs", `Quick, test_digraph_rejects);
    ("digraph merges duplicates", `Quick, test_digraph_duplicates_merged);
    ("degree parameter", `Quick, test_degree_parameter);
    ("undirected edges", `Quick, test_undirected_edges);
    ("not strongly connected", `Quick, test_not_strongly_connected);
    ("family sizes", `Quick, test_family_sizes);
    ("families strongly connected", `Quick, test_families_strongly_connected);
    ("family diameters", `Quick, test_family_diameters);
    ("family rejects", `Quick, test_family_rejects);
    ("de Bruijn structure", `Quick, test_de_bruijn_structure);
    ("kautz string coding", `Quick, test_kautz_string_coding);
    ("string coding roundtrip", `Quick, test_string_coding_roundtrip);
    ("butterfly levels", `Quick, test_butterfly_levels);
    ("wbf level rotation", `Quick, test_wbf_level_rotation);
    ("bfs distances", `Quick, test_bfs_distances);
    ("bfs multi/set distance", `Quick, test_bfs_multi_and_sets);
    ("unreachable", `Quick, test_unreachable);
    ("diameter sampled", `Quick, test_diameter_sampled);
    ("all pairs", `Quick, test_all_pairs);
    ("separator BF", `Quick, test_separator_bf);
    ("separator dWBF", `Quick, test_separator_dwbf);
    ("separator WBF", `Quick, test_separator_wbf);
    ("separator directed DB", `Quick, test_separator_db_directed);
    ("separator directed Kautz", `Quick, test_separator_kautz_directed);
    ("separator undirected DB", `Quick, test_separator_db_undirected);
    ("separator undirected Kautz", `Quick, test_separator_kautz_undirected);
    ("naive DB separator collapses", `Quick, test_separator_naive_db_collapses);
    ("separator parameters", `Quick, test_separator_alpha_ell_values);
    ("separator empty rejected", `Quick, test_separator_measure_empty);
    ("coloring families", `Quick, test_coloring_families);
    ("coloring path", `Quick, test_coloring_path_two_colors);
    ("coloring rejects directed", `Quick, test_coloring_rejects_directed);
    ("is_proper detects bad", `Quick, test_is_proper_detects_bad);
    ("random regular", `Quick, test_random_regular);
    ("random regular deterministic", `Quick, test_random_regular_deterministic);
    ("erdos-renyi", `Quick, test_erdos_renyi);
    ("random strongly connected", `Quick, test_strongly_connected_random);
    ("kautz = iterated line digraph", `Quick, test_kautz_is_iterated_line_digraph);
    ("grid = path x path", `Quick, test_grid_is_product_of_paths);
    ("torus = cycle x cycle", `Quick, test_torus_is_product_of_cycles);
    ("hypercube = K2 power", `Quick, test_hypercube_is_k2_power);
    ("same_shape negatives", `Quick, test_same_shape_negative);
    ("isomorphic_by validation", `Quick, test_isomorphic_by_rejects_bad_maps);
    ("line vertex of arc", `Quick, test_line_vertex_of_arc);
    ("misra-gries families", `Quick, test_misra_gries_families);
    ("misra-gries class-2 K7", `Quick, test_misra_gries_beats_vizing_class2);
    ("coloring best", `Quick, test_coloring_best);
    q prop_misra_gries_random;
    ("dot undirected", `Quick, test_dot_undirected);
    ("dot directed", `Quick, test_dot_directed);
    ("dot highlight/labels", `Quick, test_dot_highlight_and_labels);
    q prop_db_linegraph_count;
    q prop_symmetric_closure_idempotent;
    q prop_bfs_triangle;
    ("of_family = direct generators", `Quick, test_of_family_matches_generators);
    ("of_family rejects bad input", `Quick, test_of_family_rejects);
  ]
