(* Tests for the shared memoizing analysis context: hit/miss accounting,
   fingerprint separation of equal-size inputs, LRU eviction, and — most
   importantly — that every context-served artifact is identical to its
   uncached computation. *)

module Context = Core.Context
module Analysis = Core.Analysis
module Families = Gossip_topology.Families
module Digraph = Gossip_topology.Digraph
module Metrics = Gossip_topology.Metrics
module Protocol = Gossip_protocol.Protocol
module Systolic = Gossip_protocol.Systolic
module Builders = Gossip_protocol.Builders
module Engine = Gossip_simulate.Engine
module Delay_digraph = Gossip_delay.Delay_digraph
module Delay_matrix = Gossip_delay.Delay_matrix
module Spectral = Gossip_linalg.Spectral
module Certificate = Gossip_delay.Certificate
module General = Gossip_bounds.General
module Oracle = Gossip_bounds.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tiny_sys () = Builders.edge_coloring_half_duplex (Families.hypercube 3)

let test_norm_cache_hit () =
  let ctx = Context.create () in
  let dg = Delay_digraph.of_systolic (tiny_sys ()) ~length:8 in
  let a = Context.norm ctx dg 0.5 in
  let s1 = Context.stats ctx in
  check_int "first eval misses" 1 s1.Context.misses;
  check_int "no hit yet" 0 s1.Context.hits;
  let b = Context.norm ctx dg 0.5 in
  let s2 = Context.stats ctx in
  check_int "repeated eval hits" 1 s2.Context.hits;
  check_int "no extra miss" 1 s2.Context.misses;
  let bits = Int64.bits_of_float in
  check "cached value bit-identical" true
    (Int64.equal (bits a.Spectral.lower) (bits b.Spectral.lower)
    && Int64.equal (bits a.Spectral.upper) (bits b.Spectral.upper)
    && a.Spectral.iterations = b.Spectral.iterations
    && a.Spectral.converged = b.Spectral.converged);
  check "agrees with direct evaluation" true
    (a = Delay_matrix.norm_blockwise dg 0.5);
  ignore (Context.norm ctx dg 0.6);
  check_int "different lambda misses" 2 (Context.stats ctx).Context.misses

let test_distinct_graphs_no_collision () =
  (* Same name, same vertex and arc counts, different structure: the
     fingerprints must differ, so cached artifacts never cross over. *)
  let a = Digraph.make ~name:"G" 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let b = Digraph.make ~name:"G" 4 [ (0, 2); (2, 1); (1, 3); (3, 0) ] in
  check "same-shape fingerprints differ" true
    (Context.fingerprint a <> Context.fingerprint b);
  let ctx = Context.create () in
  check_int "diameter of a" (Metrics.diameter a) (Context.diameter ctx a);
  check_int "diameter of b" (Metrics.diameter b) (Context.diameter ctx b);
  let s = Context.stats ctx in
  check_int "both were misses" 2 s.Context.misses;
  check_int "no false hit" 0 s.Context.hits

let test_protocol_fingerprint_distinguishes () =
  let g = Families.hypercube 3 in
  let hd = Builders.edge_coloring_half_duplex g in
  let fd = Builders.edge_coloring_full_duplex g in
  check "mode enters the fingerprint" true
    (Context.protocol_fingerprint hd <> Context.protocol_fingerprint fd);
  check "fingerprint is reproducible" true
    (Context.protocol_fingerprint hd = Context.protocol_fingerprint hd)

let test_oracle_identical_with_and_without_ctx () =
  let ctx = Context.create () in
  List.iter
    (fun (g, mode, s) ->
      let plain = Oracle.lower_bounds g ~mode ~s in
      let cold = Context.lower_bounds ctx g ~mode ~s in
      let warm = Context.lower_bounds ctx g ~mode ~s in
      check "oracle identical with context" true (plain = cold);
      check "warm oracle identical" true (plain = warm))
    [
      (Families.hypercube 3, Protocol.Half_duplex, Some 4);
      (Families.de_bruijn 2 4, Protocol.Half_duplex, None);
      (Families.hypercube 3, Protocol.Full_duplex, Some 3);
      (Families.cycle 9, Protocol.Half_duplex, Some 2);
    ];
  check "diameters were served from cache" true
    ((Context.stats ctx).Context.hits > 0)

let test_certify_matches_plain () =
  let sys = tiny_sys () in
  let mode = Systolic.mode sys in
  let t =
    match Engine.gossip_time sys with
    | Some t -> t
    | None -> Alcotest.fail "tiny systolic protocol must complete"
  in
  let ctx = Context.create () in
  let dg = Context.delay_digraph ctx sys ~length:t in
  let plain =
    Certificate.certify (Delay_digraph.of_systolic sys ~length:t) ~mode
  in
  let cached = Context.certify ctx dg ~mode in
  check "certificate identical with context" true (plain = cached);
  (* The refinement sweep revisits the coarse winner's λ, so it must be
     served from the cache populated by the coarse pass. *)
  Context.reset_stats ctx;
  let refined = Context.certify ctx ~refine:true dg ~mode in
  check "refined bound no worse" true
    (refined.Certificate.bound >= cached.Certificate.bound);
  check "refine reused cached norm solves" true
    ((Context.stats ctx).Context.hits > 0)

(* Analysis always runs through a context (a fresh one by default); its
   reports must be exactly what the uncached steps compute. *)
let test_analysis_reports_identical () =
  let g = Families.hypercube 3 in
  let ctx = Context.create () in
  let network = Analysis.analyze_network ~ctx g in
  check "network report identical" true (network = Analysis.analyze_network g);
  check_int "uncached diameter" (Metrics.diameter g) network.Analysis.diameter;
  let sys = tiny_sys () in
  let r = Analysis.certify_protocol ~ctx sys in
  check "protocol report identical" true (r = Analysis.certify_protocol sys);
  let t = Engine.gossip_time sys in
  let dg = Delay_digraph.of_systolic sys ~length:(Option.get t) in
  check "uncached gossip time and certificate" true
    (r.Analysis.gossip_time = t
    && r.Analysis.certificate = Certificate.certify dg ~mode:(Systolic.mode sys))

let test_lambda_star_and_gossip_time () =
  let ctx = Context.create () in
  let hd = Context.lambda_star ctx ~mode:Protocol.Half_duplex 5 in
  check "matches General.lambda_star" true (hd = General.lambda_star 5);
  check "directed shares the half-duplex root" true
    (hd = Context.lambda_star ctx ~mode:Protocol.Directed 5);
  check "directed query was a hit" true ((Context.stats ctx).Context.hits >= 1);
  check "full-duplex root differs" true
    (Context.lambda_star ctx ~mode:Protocol.Full_duplex 5
    = General.lambda_star_fd 5);
  let sys = tiny_sys () in
  check "gossip_time matches engine" true
    (Context.gossip_time ctx sys = Engine.gossip_time sys);
  check "capped gossip_time matches engine" true
    (Context.gossip_time ctx ~cap:3 sys = Engine.gossip_time ~cap:3 sys)

let test_lru_eviction () =
  let ctx = Context.create ~capacity:2 () in
  let dg = Delay_digraph.of_systolic (tiny_sys ()) ~length:8 in
  List.iter (fun l -> ignore (Context.norm ctx dg l)) [ 0.2; 0.3; 0.4; 0.5 ];
  let s = Context.stats ctx in
  check "capacity respected" true (s.Context.entries <= 2);
  check "evictions counted" true (s.Context.evictions >= 2);
  (* the cache now holds λ ∈ {0.4, 0.5}; 0.2 was evicted first *)
  Context.reset_stats ctx;
  ignore (Context.norm ctx dg 0.2);
  check_int "evicted entry recomputes" 1 (Context.stats ctx).Context.misses;
  ignore (Context.norm ctx dg 0.5);
  check_int "recent entry still hits" 1 (Context.stats ctx).Context.hits;
  Context.clear ctx;
  let s = Context.stats ctx in
  check "clear empties the store" true
    (s.Context.entries = 0 && s.Context.hits = 0 && s.Context.misses = 0)

let test_fault_certificate_cache () =
  let module Schedule = Gossip_protocol.Schedule in
  let module Certifier = Gossip_simulate.Certifier in
  let module J = Gossip_util.Json in
  let ctx = Context.create () in
  let sched = Schedule.cycle_alternating ~n:12 ~full_duplex:false in
  let fingerprint = Certifier.fingerprint sched in
  let computes = ref 0 in
  let compute () =
    incr computes;
    Certifier.to_json sched
      (Certifier.certify ~domains:1 ~budget:64 sched ~k:1 ~seed:7)
  in
  let get () =
    Context.fault_certificate ctx ~fingerprint ~k:1 ~seed:7 ~budget:64 ~cap:(-1)
      ~compute
  in
  let a = get () in
  let b = get () in
  check_int "computed once" 1 !computes;
  check "second call served from cache" true (a == b);
  (match List.assoc_opt "fault_cert" (Context.stats_by_kind ctx) with
  | Some k ->
      check_int "fault_cert hit" 1 k.Context.k_hits;
      check_int "fault_cert miss" 1 k.Context.k_misses;
      check_int "fault_cert entry" 1 k.Context.k_entries
  | None -> Alcotest.fail "no fault_cert shelf in stats_by_kind");
  (* a different key (explicit cap) recomputes *)
  ignore
    (Context.fault_certificate ctx ~fingerprint ~k:1 ~seed:7 ~budget:64 ~cap:40
       ~compute);
  check_int "distinct cap is a distinct key" 2 !computes

let test_create_validation () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Context.create: capacity < 1") (fun () ->
      ignore (Context.create ~capacity:0 ()));
  let ctx = Context.create ~domains:2 () in
  check "domains recorded" true (Context.domains ctx = Some 2);
  check "no domains by default" true
    (Context.domains (Context.create ()) = None)

let test_stats_by_kind () =
  let ctx = Context.create () in
  let g = Families.hypercube 3 in
  ignore (Context.diameter ctx g);
  ignore (Context.diameter ctx g);
  let by_kind = Context.stats_by_kind ctx in
  (match List.assoc_opt "diameter" by_kind with
  | Some k ->
      check_int "diameter hits" 1 k.Context.k_hits;
      check_int "diameter misses" 1 k.Context.k_misses;
      check_int "diameter entries" 1 k.Context.k_entries
  | None -> Alcotest.fail "no diameter shelf in stats_by_kind");
  (* untouched shelves report zeros, and the per-kind rows sum to the
     global counters *)
  (match List.assoc_opt "norm" by_kind with
  | Some k ->
      check_int "norm untouched" 0 (k.Context.k_hits + k.Context.k_misses)
  | None -> Alcotest.fail "no norm shelf in stats_by_kind");
  let s = Context.stats ctx in
  let sum f = List.fold_left (fun a (_, k) -> a + f k) 0 by_kind in
  check_int "kind hits sum to total" s.Context.hits
    (sum (fun k -> k.Context.k_hits));
  check_int "kind misses sum to total" s.Context.misses
    (sum (fun k -> k.Context.k_misses));
  (* the JSON snapshot carries the same breakdown *)
  let module J = Gossip_util.Json in
  let j = Context.stats_json ctx in
  let dig path j =
    List.fold_left
      (fun acc k -> Option.bind acc (J.member k))
      (Some j) path
  in
  check "stats_json by_kind diameter hits" true
    (dig [ "by_kind"; "diameter"; "hits" ] j = Some (J.Int 1));
  check "stats_json by_kind diameter misses" true
    (dig [ "by_kind"; "diameter"; "misses" ] j = Some (J.Int 1))

let suite =
  [
    ("norm cache hit on repeated lambda", `Quick, test_norm_cache_hit);
    ("stats by kind", `Quick, test_stats_by_kind);
    ("equal-size graphs do not collide", `Quick,
      test_distinct_graphs_no_collision);
    ("protocol fingerprint distinguishes", `Quick,
      test_protocol_fingerprint_distinguishes);
    ("oracle identical with/without ctx", `Quick,
      test_oracle_identical_with_and_without_ctx);
    ("certify matches plain", `Quick, test_certify_matches_plain);
    ("analysis reports identical", `Quick, test_analysis_reports_identical);
    ("lambda_star and gossip_time", `Quick, test_lambda_star_and_gossip_time);
    ("lru eviction", `Quick, test_lru_eviction);
    ("fault certificate cache", `Quick, test_fault_certificate_cache);
    ("create validation", `Quick, test_create_validation);
  ]
