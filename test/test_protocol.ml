(* Tests for Gossip_protocol: matching validation per mode (Def. 3.1),
   systolic expansion (Def. 3.2), activation patterns, and the protocol
   builders. *)

open Gossip_topology
open Gossip_protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- matching validation --- *)

let test_matching_half_duplex () =
  check "disjoint arcs ok" true
    (Protocol.is_matching_for Protocol.Half_duplex [ (0, 1); (2, 3) ]);
  check "shared endpoint rejected" false
    (Protocol.is_matching_for Protocol.Half_duplex [ (0, 1); (1, 2) ]);
  check "opposite arcs rejected in half-duplex" false
    (Protocol.is_matching_for Protocol.Half_duplex [ (0, 1); (1, 0) ]);
  check "duplicate rejected" false
    (Protocol.is_matching_for Protocol.Half_duplex [ (0, 1); (0, 1) ]);
  check "self loop rejected" false
    (Protocol.is_matching_for Protocol.Half_duplex [ (2, 2) ])

let test_matching_full_duplex () =
  check "opposite arcs allowed" true
    (Protocol.is_matching_for Protocol.Full_duplex [ (0, 1); (1, 0); (2, 3) ]);
  check "shared endpoint still rejected" false
    (Protocol.is_matching_for Protocol.Full_duplex [ (0, 1); (1, 2) ]);
  check "three arcs at a vertex rejected" false
    (Protocol.is_matching_for Protocol.Full_duplex [ (0, 1); (1, 0); (1, 2) ])

let test_make_validation () =
  let g = Families.path 4 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1); (2, 3) ]; [ (1, 2) ] ] in
  check_int "length" 2 (Protocol.length p);
  Alcotest.check_raises "missing arc"
    (Invalid_argument "Protocol.make: round 0 uses missing arc (0,2)")
    (fun () ->
      ignore (Protocol.make g Protocol.Half_duplex [ [ (0, 2) ] ]));
  Alcotest.check_raises "bad matching"
    (Invalid_argument "Protocol.make: round 0 is not a half-duplex matching")
    (fun () ->
      ignore (Protocol.make g Protocol.Half_duplex [ [ (0, 1); (1, 2) ] ]))

let test_make_mode_requirements () =
  let d = Families.directed_cycle 4 in
  Alcotest.check_raises "half-duplex needs symmetric"
    (Invalid_argument
       "Protocol.make: half-duplex mode requires a symmetric digraph (DC(4))")
    (fun () -> ignore (Protocol.make d Protocol.Half_duplex [ [ (0, 1) ] ]));
  (* directed mode on a digraph is fine *)
  let p = Protocol.make d Protocol.Directed [ [ (0, 1); (2, 3) ] ] in
  check_int "directed ok" 1 (Protocol.length p)

let test_full_duplex_closure () =
  let g = Families.path 4 in
  let p = Protocol.make g Protocol.Full_duplex [ [ (0, 1) ] ] in
  (* the round is closed under reversal *)
  check "closure adds opposite arc" true
    (List.sort compare (Protocol.round p 0) = [ (0, 1); (1, 0) ])

let test_truncate_append () =
  let g = Families.path 4 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1) ]; [ (1, 2) ]; [ (2, 3) ] ] in
  let q = Protocol.truncate p 2 in
  check_int "truncate" 2 (Protocol.length q);
  let r = Protocol.append q q in
  check_int "append" 4 (Protocol.length r);
  check "rounds preserved" true (Protocol.round r 3 = [ (1, 2) ]);
  check_int "arc activations" 4 (Protocol.arc_activations r);
  check_int "active rounds of vertex 1" 4 (Protocol.active_rounds r 1);
  check_int "active rounds of vertex 3" 0 (Protocol.active_rounds r 3)

(* --- systolic --- *)

let test_systolic_expand () =
  let g = Families.path 4 in
  let s = Systolic.make g Protocol.Half_duplex [ [ (0, 1) ]; [ (1, 2) ] ] in
  check_int "period" 2 (Systolic.period s);
  let p = Systolic.expand s ~length:5 in
  check_int "expanded length" 5 (Protocol.length p);
  check "systolic repetition" true
    (Protocol.round p 0 = Protocol.round p 2
    && Protocol.round p 1 = Protocol.round p 3
    && Protocol.round p 4 = Protocol.round p 0);
  check "period_round wraps" true (Systolic.period_round s 7 = [ (1, 2) ])

let test_systolic_of_protocol () =
  let g = Families.path 3 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1) ]; [ (1, 2) ] ] in
  let s = Systolic.of_protocol p in
  check_int "period = length" 2 (Systolic.period s)

let test_active_pattern () =
  let g = Families.path 4 in
  let s =
    Systolic.make g Protocol.Half_duplex
      [ [ (0, 1); (2, 3) ]; [ (1, 2) ]; [ (2, 1) ] ]
  in
  let pat = Systolic.active_pattern s 1 in
  check "vertex 1 pattern" true (pat = [| `L; `R; `L |]);
  let pat2 = Systolic.active_pattern s 2 in
  check "vertex 2 pattern" true (pat2 = [| `R; `L; `R |]);
  let pat0 = Systolic.active_pattern s 0 in
  check "vertex 0 pattern has idle" true (pat0 = [| `R; `Idle; `Idle |]);
  (* full-duplex gives `Both *)
  let f = Systolic.make g Protocol.Full_duplex [ [ (0, 1) ] ] in
  check "full duplex both" true (Systolic.active_pattern f 0 = [| `Both |])

(* --- builders --- *)

let all_rounds_valid sys =
  let mode = Systolic.mode sys in
  List.for_all (Protocol.is_matching_for mode) (Systolic.period_rounds sys)

let test_builders_produce_valid_protocols () =
  List.iter
    (fun (name, sys) ->
      check (name ^ " rounds valid") true (all_rounds_valid sys))
    [
      ("path_wave", Builders.path_wave 9);
      ("cycle_rotate", Builders.cycle_rotate 10);
      ("hypercube hd", Builders.hypercube_sweep ~dim:4 ~full_duplex:false);
      ("hypercube fd", Builders.hypercube_sweep ~dim:4 ~full_duplex:true);
      ("complete doubling", Builders.complete_doubling ~dim:3 ~full_duplex:true);
      ( "coloring hd",
        Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4) );
      ( "coloring fd",
        Builders.edge_coloring_full_duplex (Families.kautz 2 3) );
      ( "random directed",
        Builders.random_systolic
          (Families.de_bruijn_directed 2 4)
          Protocol.Directed ~period:5 ~seed:3 ~density:0.7 );
      ( "random full duplex",
        Builders.random_systolic (Families.hypercube 3) Protocol.Full_duplex
          ~period:4 ~seed:9 ~density:1.0 );
    ]

let test_builder_periods () =
  check_int "path_wave period" 4 (Systolic.period (Builders.path_wave 8));
  check_int "hypercube hd period" 8
    (Systolic.period (Builders.hypercube_sweep ~dim:4 ~full_duplex:false));
  check_int "hypercube fd period" 4
    (Systolic.period (Builders.hypercube_sweep ~dim:4 ~full_duplex:true));
  let colors =
    List.length (Coloring.best (Families.de_bruijn 2 4))
  in
  check_int "coloring hd period = 2·colors" (2 * colors)
    (Systolic.period (Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4)))

let test_builder_rejects () =
  Alcotest.check_raises "odd cycle_rotate"
    (Invalid_argument "Builders.cycle_rotate: n must be even") (fun () ->
      ignore (Builders.cycle_rotate 7));
  Alcotest.check_raises "bad density"
    (Invalid_argument "Builders.random_systolic: density must be in [0, 1]")
    (fun () ->
      ignore
        (Builders.random_systolic (Families.path 4) Protocol.Half_duplex
           ~period:2 ~seed:0 ~density:1.5))

(* --- broadcast protocols --- *)

let test_broadcast_greedy_completes () =
  List.iter
    (fun (g, mode) ->
      let p = Broadcast_protocol.greedy_schedule g ~src:0 ~mode in
      (* run it: every vertex must know item 0 at the end *)
      let module Chunked = Gossip_simulate.Chunked in
      let st = Chunked.create ~items:1 (Digraph.n_vertices g) in
      let sched = Schedule.of_systolic (Systolic.of_protocol p) in
      for i = 0 to Protocol.length p - 1 do
        Chunked.apply_round ~domains:1 st sched i
      done;
      let ok = ref true in
      for v = 0 to Digraph.n_vertices g - 1 do
        if not (Chunked.knows st v 0) then ok := false
      done;
      check (Digraph.name g ^ " broadcast completes") true !ok;
      (* speed: within 3x of the trivial lower bound *)
      let lb =
        max
          (Metrics.eccentricity g 0)
          (int_of_float
             (ceil
                (Gossip_util.Numeric.log2
                   (float_of_int (Digraph.n_vertices g)))))
      in
      check
        (Digraph.name g ^ " broadcast fast")
        true
        (Protocol.length p <= (3 * lb) + 2))
    [
      (Families.hypercube 5, Protocol.Half_duplex);
      (Families.de_bruijn 2 5, Protocol.Half_duplex);
      (Families.complete 16, Protocol.Full_duplex);
      (Families.path 12, Protocol.Half_duplex);
      (Families.kautz_directed 2 4, Protocol.Directed);
    ]

let test_broadcast_systolized_free () =
  (* [8]: broadcasting can be systolized at no cost — the systolic wrap
     broadcasts within its first period *)
  let g = Families.de_bruijn 2 4 in
  let finite = Broadcast_protocol.greedy_schedule g ~src:3 ~mode:Protocol.Half_duplex in
  let sys = Broadcast_protocol.systolized g ~src:3 ~mode:Protocol.Half_duplex in
  let t = Gossip_simulate.Engine.broadcast_time sys ~src:3 in
  check "systolized broadcast time = schedule length" true
    (t = Some (Protocol.length finite))

let test_broadcast_src_validation () =
  Alcotest.check_raises "bad src"
    (Invalid_argument "Broadcast_protocol.greedy_schedule: src out of range")
    (fun () ->
      ignore
        (Broadcast_protocol.greedy_schedule (Families.path 3) ~src:5
           ~mode:Protocol.Half_duplex))

(* --- transformations --- *)

let test_time_reversal_preserves_gossip () =
  List.iter
    (fun sys ->
      let t = Option.get (Gossip_simulate.Engine.gossip_time sys) in
      let p = Systolic.expand sys ~length:t in
      let rev = Protocol.time_reversal p in
      let o = Gossip_simulate.Engine.run_protocol rev in
      check "reversed protocol also gossips in the same time" true
        (o.Gossip_simulate.Engine.completed_at = Some t))
    [
      Builders.cycle_rotate 8;
      Builders.hypercube_sweep ~dim:3 ~full_duplex:false;
      Builders.path_wave 6;
    ]

let test_time_reversal_directed () =
  let g = Families.directed_cycle 4 in
  let p = Protocol.make g Protocol.Directed [ [ (0, 1); (2, 3) ]; [ (1, 2); (3, 0) ] ] in
  let rev = Protocol.time_reversal p in
  check "lives on reversed digraph" true
    (Digraph.mem_arc (Protocol.graph rev) 1 0);
  check "rounds flipped and reversed" true
    (List.sort compare (Protocol.round rev 0) = [ (0, 3); (2, 1) ])

let test_systolic_rotate () =
  let sys = Builders.cycle_rotate 8 in
  let s = Systolic.period sys in
  let t0 = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  List.iter
    (fun k ->
      let r = Systolic.rotate sys k in
      let tk = Option.get (Gossip_simulate.Engine.gossip_time r) in
      check
        (Printf.sprintf "rotation %d changes time < s" k)
        true
        (abs (tk - t0) < s))
    [ 1; 2; 3; -1 ];
  check "rotate 0 is identity" true
    (Systolic.period_rounds (Systolic.rotate sys 0) = Systolic.period_rounds sys)

(* --- Protocol_io --- *)

let test_io_roundtrip () =
  let sys = Builders.path_wave 5 in
  let text = Protocol_io.to_string sys in
  let back = Protocol_io.of_string text in
  check "mode preserved" true (Systolic.mode back = Systolic.mode sys);
  check "period preserved" true (Systolic.period back = Systolic.period sys);
  check "rounds preserved" true
    (List.map (List.sort compare) (Systolic.period_rounds back)
    = List.map (List.sort compare) (Systolic.period_rounds sys))

let test_io_parse () =
  let sys =
    Protocol_io.of_string
      "# comment
mode: half-duplex
vertices: 3
0>1
1>2  # trailing
2>1
1>0
"
  in
  check "parsed period 4" true (Systolic.period sys = 4);
  check "gossip works on loaded protocol" true
    (Gossip_simulate.Engine.gossip_time sys <> None)

let test_io_errors () =
  let expect_invalid msg s =
    check msg true
      (try
         ignore (Protocol_io.of_string s);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "missing mode" "vertices: 3
0>1
";
  expect_invalid "missing vertices" "mode: directed
0>1
";
  expect_invalid "bad arc" "mode: directed
vertices: 3
0-1
";
  expect_invalid "out of range" "mode: directed
vertices: 2
0>5
";
  expect_invalid "unknown mode" "mode: sideways
vertices: 2
0>1
";
  expect_invalid "invalid matching" "mode: half-duplex
vertices: 3
0>1 1>2
"

let test_io_file_roundtrip () =
  let sys = Builders.cycle_rotate 8 in
  let path = Filename.temp_file "gossip" ".proto" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Protocol_io.save sys path;
      let back = Protocol_io.load path in
      check "file roundtrip" true
        (Systolic.period back = Systolic.period sys))

let test_knoedel_sweep () =
  let sys = Builders.knoedel_sweep ~delta:4 ~n:16 in
  check "period = delta" true (Systolic.period sys = 4);
  (match Gossip_simulate.Engine.gossip_time sys with
  | Some t ->
      check "knoedel gossips fast" true (t <= 8);
      check "knoedel >= log n" true (t >= 4)
  | None -> Alcotest.fail "knoedel did not gossip")

let prop_random_systolic_valid =
  QCheck.Test.make ~name:"random systolic protocols are always valid"
    ~count:100
    QCheck.(triple (int_range 0 10_000) (int_range 1 8) (float_range 0.1 1.0))
    (fun (seed, period, density) ->
      let g = Families.kautz 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed ~density
      in
      all_rounds_valid sys && Systolic.period sys = period)

let prop_io_roundtrip_random =
  QCheck.Test.make ~name:"Protocol_io roundtrip on random protocols" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, period) ->
      let g = Families.kautz 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:0.8
      in
      let back = Protocol_io.of_string (Protocol_io.to_string sys) in
      List.map (List.sort compare) (Systolic.period_rounds back)
      = List.map (List.sort compare) (Systolic.period_rounds sys))

let prop_rotation_bounded_shift =
  QCheck.Test.make ~name:"rotations shift gossip time by < s" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 1 7))
    (fun (seed, k) ->
      let sys =
        Builders.random_systolic (Families.de_bruijn 2 3) Protocol.Half_duplex
          ~period:8 ~seed ~density:1.0
      in
      match Gossip_simulate.Engine.gossip_time ~cap:300 sys with
      | None -> true
      | Some t -> (
          match
            Gossip_simulate.Engine.gossip_time ~cap:400 (Systolic.rotate sys k)
          with
          | None -> false
          | Some t' -> abs (t - t') < Systolic.period sys))

let prop_coloring_protocol_covers_all_edges =
  QCheck.Test.make ~name:"coloring protocol activates every edge each period"
    ~count:30
    QCheck.(pair (int_range 2 3) (int_range 2 4))
    (fun (d, dim) ->
      let g = Families.de_bruijn d dim in
      let sys = Builders.edge_coloring_half_duplex g in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun round ->
          List.iter
            (fun (u, v) -> Hashtbl.replace seen (min u v, max u v) ())
            round)
        (Systolic.period_rounds sys);
      Hashtbl.length seen = List.length (Digraph.undirected_edges g))


let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("matching half-duplex", `Quick, test_matching_half_duplex);
    ("matching full-duplex", `Quick, test_matching_full_duplex);
    ("make validation", `Quick, test_make_validation);
    ("mode requirements", `Quick, test_make_mode_requirements);
    ("full-duplex closure", `Quick, test_full_duplex_closure);
    ("truncate/append", `Quick, test_truncate_append);
    ("systolic expand", `Quick, test_systolic_expand);
    ("systolic of protocol", `Quick, test_systolic_of_protocol);
    ("active pattern", `Quick, test_active_pattern);
    ("builders valid", `Quick, test_builders_produce_valid_protocols);
    ("builder periods", `Quick, test_builder_periods);
    ("builder rejects", `Quick, test_builder_rejects);
    ("broadcast greedy completes", `Quick, test_broadcast_greedy_completes);
    ("broadcast systolized free", `Quick, test_broadcast_systolized_free);
    ("broadcast src validation", `Quick, test_broadcast_src_validation);
    ("time reversal preserves gossip", `Quick, test_time_reversal_preserves_gossip);
    ("time reversal directed", `Quick, test_time_reversal_directed);
    ("systolic rotate", `Quick, test_systolic_rotate);
    ("protocol io roundtrip", `Quick, test_io_roundtrip);
    ("protocol io parse", `Quick, test_io_parse);
    ("protocol io errors", `Quick, test_io_errors);
    ("protocol io file", `Quick, test_io_file_roundtrip);
    ("knoedel sweep", `Quick, test_knoedel_sweep);
    q prop_random_systolic_valid;
    q prop_io_roundtrip_random;
    q prop_rotation_bounded_shift;
    q prop_coloring_protocol_covers_all_edges;
  ]
