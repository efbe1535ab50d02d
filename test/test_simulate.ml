(* Tests for the simulation engine: whispering-model semantics, gossip
   and broadcast completion, and the structural invariants every run must
   satisfy (monotone knowledge, gossip >= broadcast >= diameter-ish). *)

open Gossip_topology
open Gossip_protocol
open Gossip_simulate
module Json = Gossip_util.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let get = function Some x -> x | None -> Alcotest.fail "expected completion"

(* [apply_arcs st arcs] runs one explicit matching on [st] as the only
   round of a one-round schedule. *)
let apply_arcs st arcs =
  let n = Chunked.n_vertices st in
  let senders = Array.make n (-1) in
  List.iter (fun (x, y) -> senders.(y) <- x) arcs;
  Chunked.apply_round ~domains:1 st
    (Schedule.make ~name:"arcs" ~n ~mode:Protocol.Directed ~period:1
       ~sender:(fun _ v -> senders.(v)))
    0

(* the items [v] knows, in increasing order *)
let known st v =
  List.filter (Chunked.knows st v) (List.init (Chunked.items st) Fun.id)

let test_initial_state () =
  let st = Chunked.create 4 in
  check_int "items known initially" 4 (Chunked.items_known st);
  check "each knows own item" true
    (List.for_all (fun v -> Chunked.knows st v v) [ 0; 1; 2; 3 ]);
  check "knows nothing else" false (Chunked.knows st 0 1);
  check "not complete" false (Chunked.complete st)

let test_apply_round_directed () =
  let st = Chunked.create 3 in
  apply_arcs st [ (0, 1) ];
  check "1 learned 0" true (Chunked.knows st 1 0);
  check "0 learned nothing" false (Chunked.knows st 0 1);
  apply_arcs st [ (1, 2) ];
  check "2 learned both" true (Chunked.knows st 2 0 && Chunked.knows st 2 1)

let test_apply_round_exchange_snapshots () =
  (* full-duplex exchange must swap start-of-round knowledge, not leak
     within-round updates *)
  let st = Chunked.create 2 in
  apply_arcs st [ (0, 1); (1, 0) ];
  check "both complete after one exchange" true (Chunked.complete st);
  (* three vertices: chain of two exchanges in successive rounds *)
  let st = Chunked.create 3 in
  apply_arcs st [ (0, 1); (1, 0) ];
  check "2 still isolated" true (known st 2 = [ 2 ])

let test_snapshot_needed_case () =
  (* round (0->1) and (1->2) is NOT a matching, but apply_round must still
     be correct for matchings where a sender is also a receiver only via
     the opposite arc; verify the exchange using a full-duplex pair plus
     observer *)
  let st = Chunked.create 4 in
  apply_arcs st [ (0, 1); (1, 0); (2, 3) ];
  check "0 has {0,1}" true (known st 0 = [ 0; 1 ]);
  check "1 has {0,1}" true (known st 1 = [ 0; 1 ]);
  check "3 has {2,3}" true (known st 3 = [ 2; 3 ])

let test_run_protocol () =
  let g = Families.path 3 in
  let p =
    Protocol.make g Protocol.Half_duplex
      [ [ (0, 1) ]; [ (1, 2) ]; [ (2, 1) ]; [ (1, 0) ] ]
  in
  let o = Engine.run_protocol p in
  check "completed" true (o.Engine.completed_at = Some 4);
  check "full coverage" true (o.Engine.coverage = 1.0)

let test_run_protocol_incomplete () =
  let g = Families.path 3 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1) ] ] in
  let o = Engine.run_protocol p in
  check "incomplete" true (o.Engine.completed_at = None);
  check "partial coverage" true (o.Engine.coverage < 1.0 && o.Engine.coverage > 0.0)

let test_gossip_time_known_protocols () =
  (* full-duplex hypercube allgather completes in exactly dim rounds *)
  check_int "Q4 fd gossip = 4" 4
    (get (Engine.gossip_time (Builders.hypercube_sweep ~dim:4 ~full_duplex:true)));
  check_int "Q4 hd gossip = 8" 8
    (get (Engine.gossip_time (Builders.hypercube_sweep ~dim:4 ~full_duplex:false)));
  (* even cycle rotate completes in ~n rounds *)
  let t = get (Engine.gossip_time (Builders.cycle_rotate 12)) in
  check "cycle rotate close to n" true (t >= 6 && t <= 14)

let test_items_known_incremental () =
  (* the incremental counter must equal a recomputed full rescan after
     every kind of round: directed arcs, exchanges, repeats *)
  let recount st n =
    let acc = ref 0 in
    for v = 0 to n - 1 do
      acc := !acc + List.length (known st v)
    done;
    !acc
  in
  let sys = Builders.edge_coloring_full_duplex (Families.kautz 2 3) in
  let sched = Schedule.of_systolic sys in
  let n = Digraph.n_vertices (Systolic.graph sys) in
  let st = Chunked.create n in
  for i = 0 to 29 do
    Chunked.apply_round ~domains:1 st sched i;
    check_int
      (Printf.sprintf "incremental = rescan after round %d" i)
      (recount st n) (Chunked.items_known st)
  done;
  check "complete iff count says so" true
    (Chunked.complete st = (Chunked.items_known st = n * n))

let test_gossip_cap () =
  (* a protocol that never completes: only one edge of the path ever used *)
  let g = Families.path 4 in
  let sys = Systolic.make g Protocol.Half_duplex [ [ (0, 1) ] ] in
  check "cap returns None" true (Engine.gossip_time ~cap:50 sys = None)

let test_broadcast_vs_gossip () =
  List.iter
    (fun sys ->
      let gt = Engine.gossip_time sys in
      let bt = Engine.broadcast_time sys ~src:0 in
      match (gt, bt) with
      | Some g, Some b ->
          check "broadcast <= gossip" true (b <= g);
          let diam =
            Metrics.diameter (Systolic.graph sys)
          in
          check "gossip >= diameter" true (g >= diam)
      | _ -> Alcotest.fail "expected completion")
    [
      Builders.path_wave 8;
      Builders.cycle_rotate 8;
      Builders.hypercube_sweep ~dim:3 ~full_duplex:false;
      Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4);
      Builders.edge_coloring_full_duplex (Families.kautz 2 3);
      Builders.edge_coloring_half_duplex (Families.complete_dary_tree 2 3);
    ]

let test_coverage_monotone () =
  let sys = Builders.edge_coloring_half_duplex (Families.grid 3 3) in
  let run = Engine.gossip_run sys in
  let cov = run.Engine.curve in
  check "one point per round" true (run.Engine.time = Some (Array.length cov));
  let ok = ref true in
  for i = 1 to Array.length cov - 1 do
    if cov.(i) < cov.(i - 1) -. 1e-12 then ok := false
  done;
  check "coverage monotone" true !ok;
  check "starts above 1/n" true (cov.(0) >= 1.0 /. 9.0);
  check "ends complete" true (cov.(Array.length cov - 1) = 1.0)

(* --- Faults --- *)

let iid p = Faults.Iid { p }

let test_faults_p0_matches_baseline () =
  let sys = Builders.cycle_rotate 12 in
  let base = Option.get (Engine.gossip_time sys) in
  let o = Faults.run sys ~model:(iid 0.0) ~seed:3 in
  check "p=0 matches fault-free" true (o.Faults.completed_at = Some base);
  check "no drops at p=0" true (o.Faults.drops = 0)

let test_faults_p1_never_completes () =
  let sys = Builders.cycle_rotate 8 in
  let o = Faults.run ~cap:100 sys ~model:(iid 1.0) ~seed:3 in
  check "p=1 never completes" true (o.Faults.completed_at = None);
  check "everything dropped" true (o.Faults.drops = o.Faults.activations)

let test_faults_deterministic () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let a = Faults.run sys ~model:(iid 0.3) ~seed:11 in
  let b = Faults.run sys ~model:(iid 0.3) ~seed:11 in
  check "same seed same outcome" true (a = b);
  let c = Faults.run sys ~model:(iid 0.3) ~seed:12 in
  check "different seed may differ in drops" true
    (c.Faults.activations > 0)

let test_faults_slowdown () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let base = Option.get (Engine.gossip_time sys) in
  let o = Faults.run sys ~model:(iid 0.2) ~seed:5 in
  (match o.Faults.completed_at with
  | Some t -> check "faulty time >= fault-free" true (t >= base)
  | None -> ());
  let curve = Faults.curve sys ~models:[ iid 0.0; iid 0.2 ] ~seed:5 in
  let p0, p2 =
    match curve with [ p0; p2 ] -> (p0, p2) | _ -> Alcotest.fail "two points"
  in
  check "fault-free trials all complete" true
    (p0.Faults.cp_completed = p0.Faults.cp_trials);
  check "completed never exceeds trials" true
    (List.for_all (fun pt -> pt.Faults.cp_completed <= pt.Faults.cp_trials) curve);
  (match (p0.Faults.cp_mean, p2.Faults.cp_mean) with
  | Some t0, Some t2 -> check "curve increases" true (t2 >= t0)
  | _ -> Alcotest.fail "curve incomplete");
  check "mean iff completed > 0" true
    (List.for_all
       (fun pt -> (pt.Faults.cp_mean <> None) = (pt.Faults.cp_completed > 0))
       curve);
  (* the points the i.i.d. slowdown curve gave for this protocol and
     seed: 5/5 trials each, means 8 and 15 *)
  check "recorded slowdown points" true
    (List.map
       (fun pt -> (pt.Faults.cp_mean, pt.Faults.cp_completed, pt.Faults.cp_trials))
       curve
    = [ (Some 8.0, 5, 5); (Some 15.0, 5, 5) ])

let test_faults_validation () =
  let sys = Builders.cycle_rotate 8 in
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Faults: drop_probability must be in [0, 1]") (fun () ->
      ignore (Faults.run sys ~model:(iid 1.5) ~seed:0));
  Alcotest.check_raises "negative k"
    (Invalid_argument "Faults: k must be >= 0") (fun () ->
      ignore (Faults.run sys ~model:(Faults.Permanent { k = -1 }) ~seed:0));
  Alcotest.check_raises "bad p_recover"
    (Invalid_argument "Faults: p_recover must be in [0, 1]") (fun () ->
      ignore
        (Faults.run sys
           ~model:(Faults.Bursty { p_fail = 0.1; p_recover = 2.0 })
           ~seed:0))

(* --- fault models beyond i.i.d. --- *)

let test_faults_iid_model_matches_legacy () =
  (* [run ~model:Iid] must reproduce the outcomes the legacy i.i.d. entry
     point recorded for this protocol and seed, draw for draw *)
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  List.iter
    (fun (p, completed_at, drops, activations) ->
      check
        (Printf.sprintf "iid model = legacy path at p = %.1f" p)
        true
        (Faults.run sys ~model:(iid p) ~seed:11
        = { Faults.completed_at; drops; activations; failed_arcs = [] }))
    [
      (0.0, Some 8, 0, 64);
      (0.1, Some 9, 3, 72);
      (0.3, Some 25, 46, 200);
      (0.6, Some 67, 320, 536);
    ]

let test_faults_permanent_k0_matches_baseline () =
  let sys = Builders.cycle_rotate 12 in
  let base = Option.get (Engine.gossip_time sys) in
  let o = Faults.run sys ~model:(Faults.Permanent { k = 0 }) ~seed:3 in
  check "k=0 is fault-free" true (o.Faults.completed_at = Some base);
  check "k=0 drops nothing" true (o.Faults.drops = 0);
  check "k=0 fails no arcs" true (o.Faults.failed_arcs = [])

let test_faults_permanent_all_arcs_stalls () =
  (* cycle_rotate 8 has 4 matchings of 4 arcs each, all distinct: m = 16.
     k = m removes every arc of the period — nothing is ever delivered —
     and k > m is a spec error, not an empty run. *)
  let sys = Builders.cycle_rotate 8 in
  let o = Faults.run ~cap:100 sys ~model:(Faults.Permanent { k = 16 }) ~seed:3 in
  check "no arcs, no completion" true (o.Faults.completed_at = None);
  check "every activation dropped" true (o.Faults.drops = o.Faults.activations);
  check_int "all 16 arcs reported failed" 16 (List.length o.Faults.failed_arcs);
  check "failed arcs sorted" true
    (o.Faults.failed_arcs = List.sort compare o.Faults.failed_arcs);
  Alcotest.check_raises "k beyond the arc universe"
    (Invalid_argument
       "Faults: k = 17 exceeds the period's 16 distinct arcs (k <= m)")
    (fun () ->
      ignore (Faults.run ~cap:100 sys ~model:(Faults.Permanent { k = 17 }) ~seed:3))

let test_faults_permanent_monotone_and_deterministic () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let run k = Faults.run ~cap:4096 sys ~model:(Faults.Permanent { k }) ~seed:7 in
  check "same seed, same broken arcs" true (run 2 = run 2);
  let o0 = run 0 and o2 = run 2 in
  (* a run with permanently broken arcs can only be slower when both
     complete (they share the seed, so the k=2 run is the k=0 run with
     strictly fewer deliveries) *)
  (match (o0.Faults.completed_at, o2.Faults.completed_at) with
  | Some t0, Some t2 -> check "broken arcs never speed it up" true (t2 >= t0)
  | Some _, None -> ()
  | None, _ -> Alcotest.fail "fault-free run must complete");
  check "k=2 drops activations" true (o2.Faults.drops > 0);
  check_int "k=2 reports its chosen arcs" 2 (List.length o2.Faults.failed_arcs);
  check "chosen arcs are period arcs" true
    (let period_arcs =
       List.concat
         (List.init (Systolic.period sys) (Systolic.period_round sys))
     in
     List.for_all (fun a -> List.mem a period_arcs) o2.Faults.failed_arcs)

let test_faults_bursty_p0_matches_baseline () =
  let sys = Builders.cycle_rotate 12 in
  let base = Option.get (Engine.gossip_time sys) in
  let o =
    Faults.run sys
      ~model:(Faults.Bursty { p_fail = 0.0; p_recover = 0.5 })
      ~seed:3
  in
  check "never-failing chain is fault-free" true
    (o.Faults.completed_at = Some base);
  check "no drops" true (o.Faults.drops = 0)

let test_faults_bursty_deterministic_and_bursty () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let model = Faults.Bursty { p_fail = 0.15; p_recover = 0.3 } in
  let a = Faults.run ~cap:8192 sys ~model ~seed:11 in
  let b = Faults.run ~cap:8192 sys ~model ~seed:11 in
  check "same seed, same bursts" true (a = b);
  check "bursts drop something" true (a.Faults.drops > 0);
  (* at equal marginal loss, correlated losses hurt at least as much as
     scattered ones on this sweep (the burst takes out the same frontier
     arc for consecutive periods) — checked via the curve means *)
  let pts =
    Faults.curve ~cap:8192 ~trials:5 sys
      ~models:
        [
          Faults.Iid { p = 0.3 };
          Faults.Bursty { p_fail = 0.15; p_recover = 0.35 };
        ]
      ~seed:11
  in
  check "curve covers both models" true (List.length pts = 2)

let test_faults_curve_points_json () =
  let sys = Builders.cycle_rotate 8 in
  let models =
    [
      Faults.Iid { p = 0.1 };
      Faults.Permanent { k = 1 };
      Faults.Bursty { p_fail = 0.1; p_recover = 0.5 };
    ]
  in
  let pts = Faults.curve ~trials:3 sys ~models ~seed:5 in
  let names =
    List.map
      (fun pt ->
        match Json.member "model" (Faults.curve_point_to_json pt) with
        | Some (Json.Str s) -> s
        | _ -> "?")
      pts
  in
  check "model names on the wire" true
    (names = [ "iid"; "permanent"; "bursty" ]);
  List.iter2
    (fun pt model ->
      let j = Faults.curve_point_to_json pt in
      check "trials serialized" true (Json.member "trials" j = Some (Json.Int 3));
      match model with
      | Faults.Iid { p } ->
          check "iid carries probability" true
            (Json.member "probability" j = Some (Json.Float p))
      | Faults.Permanent { k } ->
          check "permanent carries k" true (Json.member "k" j = Some (Json.Int k))
      | Faults.Bursty { p_fail; p_recover } ->
          check "bursty carries both rates" true
            (Json.member "p_fail" j = Some (Json.Float p_fail)
            && Json.member "p_recover" j = Some (Json.Float p_recover)))
    pts models

(* Knowledge sets only ever grow, and every known item is explained by a
   dipath in time (we check growth + final size bound). *)
let prop_knowledge_monotone =
  QCheck.Test.make ~name:"knowledge sets grow monotonically" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 1 6))
    (fun (seed, period) ->
      let g = Families.de_bruijn 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:0.8
      in
      let n = Digraph.n_vertices g in
      let sched = Schedule.of_systolic sys in
      let st = Chunked.create n in
      let ok = ref true in
      for i = 0 to (4 * period) - 1 do
        let before = Array.init n (known st) in
        Chunked.apply_round ~domains:1 st sched i;
        for v = 0 to n - 1 do
          if not (List.for_all (Chunked.knows st v) before.(v)) then
            ok := false
        done
      done;
      !ok)

(* Gossip time is at least the eccentricity-based bound for every protocol
   that completes: an item from the farthest vertex needs >= diameter
   rounds. *)
let prop_gossip_at_least_diameter =
  QCheck.Test.make ~name:"gossip time >= diameter when complete" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 8))
    (fun (seed, period) ->
      let g = Families.kautz 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:1.0
      in
      match Engine.gossip_time ~cap:500 sys with
      | None -> true
      | Some t -> t >= Metrics.diameter g)

(* One extra item per round per processor at most: gossip on n vertices
   takes at least n-1 activations into any fixed vertex... globally,
   items_known grows by at most one per arc activation. *)
let prop_items_bounded_by_activations =
  QCheck.Test.make ~name:"items learned <= total activation budget" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Families.de_bruijn 2 3 in
      let n = Digraph.n_vertices g in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period:4 ~seed
          ~density:1.0
      in
      let sched = Schedule.of_systolic sys in
      let st = Chunked.create n in
      let budget = ref 0 in
      let ok = ref true in
      for i = 0 to 19 do
        let round = Systolic.period_round sys i in
        (* each arc (x,y) can add at most |know(x)| <= n items *)
        budget := !budget + (List.length round * n);
        Chunked.apply_round ~domains:1 st sched i;
        if Chunked.items_known st > n + !budget then ok := false
      done;
      !ok)

let test_faults_curve_rejects_no_trials () =
  Alcotest.check_raises "trials = 0"
    (Invalid_argument "Faults: trials must be >= 1") (fun () ->
      ignore
        (Faults.curve ~trials:0 (Builders.cycle_rotate 8) ~models:[ iid 0.0 ]
           ~seed:1))

let test_broadcast_rejects_bad_src () =
  (* outside [0, n) no vertex can ever know the item: without the check
     the run would exhaust its cap and read as "never completes" *)
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  List.iter
    (fun src ->
      Alcotest.check_raises
        (Printf.sprintf "src = %d" src)
        (Invalid_argument
           (Printf.sprintf "Engine.broadcast_time: src %d outside [0, 16)" src))
        (fun () -> ignore (Engine.broadcast_time sys ~src)))
    [ 99; 16; -1 ]

let test_faults_run_goldens () =
  (* exact outcomes recorded for one full-duplex protocol and seed: a
     port that reordered draws, or mishandled an exchange that lost one
     direction, changes them *)
  let sys = Builders.edge_coloring_full_duplex (Families.de_bruijn 2 4) in
  List.iter
    (fun (name, model, completed_at, drops, activations, failed_arcs) ->
      check (name ^ " golden") true
        (Faults.run sys ~model ~seed:11
        = { Faults.completed_at; drops; activations; failed_arcs }))
    [
      ("iid", iid 0.3, Some 14, 36, 164, []);
      ("permanent", Faults.Permanent { k = 2 }, Some 11, 5, 128,
       [ (1, 8); (12, 9) ]);
      ("bursty", Faults.Bursty { p_fail = 0.15; p_recover = 0.3 }, Some 13,
       27, 154, []);
    ]

(* Engine against the literal Section 3 rule: completion round and
   coverage curve of gossip and of broadcast from a random source, on
   random protocols with idle vertices in all three modes. *)
let oracle_cases =
  [
    (Families.de_bruijn_directed 2 3, Protocol.Directed);
    (Families.kautz_directed 2 3, Protocol.Directed);
  ]
  @ List.concat_map
      (fun g -> [ (g, Protocol.Half_duplex); (g, Protocol.Full_duplex) ])
      [ Families.de_bruijn 2 3; Families.kautz 2 3; Families.grid 3 3 ]

let prop_engine_matches_section3 =
  QCheck.Test.make ~name:"engine = Section 3 oracle" ~count:200
    QCheck.(
      pair
        (triple (int_bound (List.length oracle_cases - 1)) (int_range 0 10_000)
           (int_range 1 6))
        (pair (int_range 3 9) small_nat))
    (fun ((case, seed, period), (tenths, pick)) ->
      let g, mode = List.nth oracle_cases case in
      let sys =
        Builders.random_systolic g mode ~period ~seed
          ~density:(float_of_int tenths /. 10.0)
      in
      let src = pick mod Digraph.n_vertices g in
      let run = Engine.gossip_run sys in
      let curve = ref [] in
      let broadcast =
        Engine.broadcast_time sys ~src
          ~probe:(fun ~round:_ ~coverage -> curve := coverage :: !curve)
      in
      let time, oracle_curve = Section3.gossip sys in
      Engine.gossip_time sys = time
      && run.Engine.time = time
      && Array.to_list run.Engine.curve = oracle_curve
      && (broadcast, List.rev !curve) = Section3.broadcast sys ~src)

let test_run_protocol_no_rounds () =
  (* a protocol with no rounds is not a one-period systolic protocol, so
     the engine answers it without running anything *)
  let p = Protocol.make (Families.path 3) Protocol.Half_duplex [] in
  let o = Engine.run_protocol p in
  check "never completes" true (o.Engine.completed_at = None);
  check_int "no rounds run" 0 o.Engine.rounds_run;
  check "own items only" true (o.Engine.coverage = 3.0 /. 9.0)

let test_one_vertex_completes_before_any_round () =
  (* one vertex knows every item before any round: every entry point
     answers 0 rounds, the Section 3 reference included *)
  let sys = Systolic.make (Families.path 1) Protocol.Half_duplex [ [] ] in
  check "gossip time 0" true (Engine.gossip_time sys = Some 0);
  check "broadcast time 0" true (Engine.broadcast_time sys ~src:0 = Some 0);
  check "gossip_run: time 0, no curve" true
    (let run = Engine.gossip_run sys in
     run.Engine.time = Some 0 && run.Engine.curve = [||]);
  check "reference gossip 0" true (Section3.gossip sys = (Some 0, []));
  check "reference broadcast 0" true (Section3.broadcast sys ~src:0 = (Some 0, []));
  check "fault-free faulted run 0" true
    ((Faults.run sys ~model:(iid 0.0) ~seed:1).Faults.completed_at = Some 0);
  List.iter
    (fun (label, p) ->
      let o = Engine.run_protocol p in
      check (label ^ ": completed at 0") true (o.Engine.completed_at = Some 0);
      check_int (label ^ ": no round run") 0 o.Engine.rounds_run;
      check (label ^ ": coverage 1") true (o.Engine.coverage = 1.0))
    [
      ("one empty round", Protocol.make (Families.path 1) Protocol.Half_duplex [ [] ]);
      ("no rounds", Protocol.make (Families.path 1) Protocol.Half_duplex []);
    ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("initial state", `Quick, test_initial_state);
    ("apply round directed", `Quick, test_apply_round_directed);
    ("exchange snapshots", `Quick, test_apply_round_exchange_snapshots);
    ("snapshot with observer", `Quick, test_snapshot_needed_case);
    ("run protocol", `Quick, test_run_protocol);
    ("run protocol incomplete", `Quick, test_run_protocol_incomplete);
    ("gossip time known protocols", `Quick, test_gossip_time_known_protocols);
    ("items_known incremental", `Quick, test_items_known_incremental);
    ("gossip cap", `Quick, test_gossip_cap);
    ("broadcast vs gossip vs diameter", `Quick, test_broadcast_vs_gossip);
    ("coverage monotone", `Quick, test_coverage_monotone);
    ("faults p=0 baseline", `Quick, test_faults_p0_matches_baseline);
    ("faults p=1 stalls", `Quick, test_faults_p1_never_completes);
    ("faults deterministic", `Quick, test_faults_deterministic);
    ("faults slowdown", `Quick, test_faults_slowdown);
    ("faults validation", `Quick, test_faults_validation);
    ("faults iid model = legacy", `Quick, test_faults_iid_model_matches_legacy);
    ("faults permanent k=0 baseline", `Quick, test_faults_permanent_k0_matches_baseline);
    ("faults permanent all arcs stalls", `Quick, test_faults_permanent_all_arcs_stalls);
    ("faults permanent monotone", `Quick, test_faults_permanent_monotone_and_deterministic);
    ("faults bursty p_fail=0 baseline", `Quick, test_faults_bursty_p0_matches_baseline);
    ("faults bursty deterministic", `Quick, test_faults_bursty_deterministic_and_bursty);
    ("faults curve json", `Quick, test_faults_curve_points_json);
    q prop_knowledge_monotone;
    q prop_gossip_at_least_diameter;
    q prop_items_bounded_by_activations;
    ("faults curve rejects trials < 1", `Quick, test_faults_curve_rejects_no_trials);
    ("broadcast rejects src outside [0, n)", `Quick, test_broadcast_rejects_bad_src);
    ("faults run goldens", `Quick, test_faults_run_goldens);
    q prop_engine_matches_section3;
    ("run protocol with no rounds", `Quick, test_run_protocol_no_rounds);
    ("one vertex completes before any round", `Quick, test_one_vertex_completes_before_any_round);
  ]
