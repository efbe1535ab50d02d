(* Tests for the implicit simulation stack: slot-function topologies
   pinned against the materialized families, Schedule generators
   validated through Protocol.make, and the chunked blockwise engine
   checked bit for bit against the literal Section 3 rule (test/section3.ml)
   on small instances. *)

open Gossip_topology
open Gossip_protocol
open Gossip_simulate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let get = function Some x -> x | None -> Alcotest.fail "expected completion"

(* --- implicit topologies vs materialized families --- *)

let agreement_cases =
  [
    ("cycle 5", Implicit.cycle 5, Families.cycle 5);
    ("cycle 8", Implicit.cycle 8, Families.cycle 8);
    ("hypercube 1", Implicit.hypercube 1, Families.hypercube 1);
    ("hypercube 4", Implicit.hypercube 4, Families.hypercube 4);
    ("torus 3x3", Implicit.torus 3 3, Families.torus 3 3);
    ("torus 3x4", Implicit.torus 3 4, Families.torus 3 4);
    ("torus 5x5", Implicit.torus 5 5, Families.torus 5 5);
    ("ccc 3", Implicit.ccc 3, Extra_families.cube_connected_cycles 3);
    ("ccc 4", Implicit.ccc 4, Extra_families.cube_connected_cycles 4);
    ("db(2,1)", Implicit.de_bruijn 2 1, Families.de_bruijn 2 1);
    ("db(2,3)", Implicit.de_bruijn 2 3, Families.de_bruijn 2 3);
    ("db(3,2)", Implicit.de_bruijn 3 2, Families.de_bruijn 3 2);
    ("db(2,5)", Implicit.de_bruijn 2 5, Families.de_bruijn 2 5);
    ("kautz(2,1)", Implicit.kautz 2 1, Families.kautz 2 1);
    ("kautz(2,3)", Implicit.kautz 2 3, Families.kautz 2 3);
    ("kautz(3,2)", Implicit.kautz 3 2, Families.kautz 3 2);
    ("kautz(2,4)", Implicit.kautz 2 4, Families.kautz 2 4);
  ]

let test_generators_agree () =
  List.iter
    (fun (name, imp, g) ->
      check (name ^ " agrees with materialized family") true
        (Implicit.agrees_with imp g))
    agreement_cases

let test_of_digraph_roundtrip () =
  List.iter
    (fun (name, _, g) ->
      check
        (name ^ " of_digraph round-trips")
        true
        (Implicit.agrees_with (Implicit.of_digraph g) g))
    agreement_cases

let test_fill_neighbors_dedup () =
  (* DB(2,1) has two vertices and only self-loop and duplicate slots *)
  let imp = Implicit.de_bruijn 2 1 in
  let buf = Array.make (Implicit.slots imp) (-1) in
  let c = Implicit.fill_neighbors imp 0 buf in
  check_int "DB(2,1) vertex 0 has one neighbor" 1 c;
  check_int "that neighbor is 1" 1 buf.(0);
  check "degree matches digraph" true
    (List.for_all
       (fun (_, imp, g) ->
         List.for_all
           (fun v ->
             Implicit.degree imp v = Array.length (Digraph.out_neighbors g v))
           (List.init (Implicit.n_vertices imp) Fun.id))
       agreement_cases)

let test_of_family_resolution () =
  (match Implicit.of_family ~family:"hypercube" ~n:100 ~degree:2 with
  | Ok imp -> check_int "hypercube >= 100 resolves to 128" 128
      (Implicit.n_vertices imp)
  | Error e -> Alcotest.fail e);
  (match Implicit.of_family ~family:"db" ~n:1000 ~degree:2 with
  | Ok imp -> check_int "db >= 1000 resolves to 1024" 1024
      (Implicit.n_vertices imp)
  | Error e -> Alcotest.fail e);
  (match Implicit.of_family ~family:"cycle" ~n:77 ~degree:2 with
  | Ok imp -> check_int "cycle is exact" 77 (Implicit.n_vertices imp)
  | Error e -> Alcotest.fail e);
  check "unknown family rejected" true
    (Result.is_error (Implicit.of_family ~family:"moebius" ~n:10 ~degree:2));
  check "tiny n rejected" true
    (Result.is_error (Implicit.of_family ~family:"cycle" ~n:2 ~degree:2))

let test_of_family_rejects_period () =
  (* a result-returning resolver must not raise on a bad period, and
     the structured families, which ignore it, reject it too *)
  List.iter
    (fun family ->
      List.iter
        (fun period ->
          check
            (Printf.sprintf "%s, period %d: Error" family period)
            true
            (match
               Schedule.of_family ~family ~n:100 ~degree:2 ~period
                 ~full_duplex:false ()
             with
            | Error e -> e = "period must be >= 1"
            | Ok _ -> false))
        [ 0; -3 ])
    Implicit.known_families;
  check "period 1 accepted" true
    (Result.is_ok
       (Schedule.of_family ~family:"de-bruijn" ~n:100 ~degree:2 ~period:1
          ~full_duplex:false ()))

(* --- schedules: validity through Protocol.make, on both duplex modes --- *)

let structured_cases full_duplex =
  [
    ( "hypercube sweep",
      Implicit.hypercube 4,
      Schedule.hypercube_sweep ~dim:4 ~full_duplex );
    ( "cycle even",
      Implicit.cycle 8,
      Schedule.cycle_alternating ~n:8 ~full_duplex );
    ( "cycle odd",
      Implicit.cycle 7,
      Schedule.cycle_alternating ~n:7 ~full_duplex );
    ( "torus even/odd",
      Implicit.torus 3 4,
      Schedule.torus_colored ~rows:3 ~cols:4 ~full_duplex );
    ("ccc", Implicit.ccc 3, Schedule.ccc_colored ~dim:3 ~full_duplex);
  ]

let proposal_cases full_duplex =
  List.map
    (fun (name, imp) ->
      (name, imp, Schedule.proposal imp ~period:16 ~seed:7 ~full_duplex))
    [
      ("db proposal", Implicit.de_bruijn 2 5);
      ("kautz proposal", Implicit.kautz 2 4);
    ]

let all_cases full_duplex = structured_cases full_duplex @ proposal_cases full_duplex

let test_schedules_are_valid_protocols () =
  List.iter
    (fun full_duplex ->
      List.iter
        (fun (name, imp, sched) ->
          let g = Implicit.materialize imp in
          (* Protocol.make re-validates every arc and every matching *)
          let sys = Schedule.to_systolic sched g in
          check_int
            (name ^ " period survives materialization")
            (Schedule.period sched) (Systolic.period sys))
        (all_cases full_duplex))
    [ true; false ]

let test_of_systolic_is_inverse () =
  let g = Families.hypercube 3 in
  let sys = Builders.edge_coloring_half_duplex g in
  let sched = Schedule.of_systolic sys in
  check_int "period preserved" (Systolic.period sys) (Schedule.period sched);
  for i = 0 to Systolic.period sys - 1 do
    let expected = List.sort compare (Systolic.period_round sys i) in
    check ("round " ^ string_of_int i ^ " reproduced") true
      (Schedule.round_arcs sched i = expected)
  done

(* --- chunked engine: bit-for-bit equivalence with Section 3 --- *)

let chunked_run ?(domains = 1) ?items sched =
  let st = Chunked.create ?items (Schedule.n_vertices sched) in
  let outcome = Chunked.run ~domains ~checkpoint_every:1 st sched in
  (st, outcome)

let test_chunked_matches_engine () =
  List.iter
    (fun full_duplex ->
      List.iter
        (fun (name, imp, sched) ->
          let g = Implicit.materialize imp in
          let sys = Schedule.to_systolic sched g in
          let time, curve = Section3.gossip sys in
          let _, outcome = chunked_run sched in
          check_int
            (Printf.sprintf "%s (fd=%b): same completion round" name
               full_duplex)
            (get time) (get outcome.Chunked.time);
          let chunked_curve =
            List.map (fun c -> c.Chunked.coverage) outcome.Chunked.checkpoints
          in
          check
            (Printf.sprintf "%s (fd=%b): identical coverage curve" name
               full_duplex)
            true (curve = chunked_curve))
        (all_cases full_duplex))
    [ true; false ]

let test_chunked_broadcast_matches_engine () =
  List.iter
    (fun (name, imp, sched) ->
      let g = Implicit.materialize imp in
      let sys = Schedule.to_systolic sched g in
      let bt = get (fst (Section3.broadcast sys ~src:0)) in
      let _, outcome = chunked_run ~items:1 sched in
      check_int (name ^ ": items=1 is broadcast of item 0") bt
        (get outcome.Chunked.time))
    (all_cases true)

let test_chunked_deterministic_across_domains () =
  List.iter
    (fun (name, _, sched) ->
      let st1, o1 = chunked_run ~domains:1 sched in
      let st4, o4 = chunked_run ~domains:4 sched in
      check_int (name ^ ": same rounds at 1 and 4 domains")
        (get o1.Chunked.time) (get o4.Chunked.time);
      check_int (name ^ ": same final count")
        (Chunked.items_known st1) (Chunked.items_known st4);
      (* project onto the deterministic fields: elapsed/rate/heap are
         wall-clock telemetry and legitimately differ between runs *)
      let curve o =
        List.map
          (fun c -> (c.Chunked.round, c.Chunked.coverage))
          o.Chunked.checkpoints
      in
      check (name ^ ": same curve") true (curve o1 = curve o4))
    (all_cases false)

let test_chunked_initial_state () =
  let st = Chunked.create ~items:3 8 in
  check_int "known = items" 3 (Chunked.items_known st);
  check "vertex 2 knows item 2" true (Chunked.knows st 2 2);
  check "vertex 2 only item 2" false (Chunked.knows st 2 1);
  check "vertex 5 knows nothing" false (Chunked.knows st 5 2);
  check "items clamped to n" true (Chunked.items (Chunked.create ~items:99 4) = 4);
  check "empty state complete" true (Chunked.complete (Chunked.create 0));
  (* > 63 items exercises the multi-word path *)
  let st = Chunked.create 100 in
  check_int "100 items over 2 words" 100 (Chunked.items_known st);
  check "v99 knows item 99" true (Chunked.knows st 99 99)

let test_chunked_multiword_equivalence () =
  (* n = 100 > 63 forces two state words per vertex *)
  let sched = Schedule.cycle_alternating ~n:100 ~full_duplex:true in
  let g = Families.cycle 100 in
  let sys = Schedule.to_systolic sched g in
  let time, _ = Section3.gossip sys in
  let _, outcome = chunked_run sched in
  check_int "100-cycle same completion" (get time) (get outcome.Chunked.time)

let test_checkpoint_streaming_cadence () =
  let sched = Schedule.hypercube_sweep ~dim:4 ~full_duplex:true in
  let st = Chunked.create 16 in
  let outcome = Chunked.run ~domains:1 ~checkpoint_every:3 st sched in
  let t = get outcome.Chunked.time in
  let rounds = List.map (fun c -> c.Chunked.round) outcome.Chunked.checkpoints in
  check "checkpoints at multiples of 3 plus the final round" true
    (List.for_all (fun r -> r mod 3 = 0 || r = t) rounds);
  check "final round present" true (List.mem t rounds);
  let no_cp = Chunked.run ~domains:1 (Chunked.create 16) sched in
  ignore no_cp.Chunked.time;
  check "checkpointing off by default" true (no_cp.Chunked.checkpoints = [])

(* --- drops on implicit arc streams --- *)

let test_drops_p1_stalls () =
  let sched = Schedule.hypercube_sweep ~dim:3 ~full_duplex:false in
  let st = Chunked.create 8 in
  let o =
    Chunked.run ~domains:1 ~cap:50 st
      (Schedule.with_drops sched ~drop:(fun ~round:_ ~u:_ ~v:_ -> true))
  in
  check "p=1 never completes" true (o.Chunked.time = None);
  check_int "p=1 learns nothing" 8 (Chunked.items_known st)

let test_drops_never_speed_up () =
  let sched = Schedule.hypercube_sweep ~dim:4 ~full_duplex:true in
  let _, fault_free = chunked_run sched in
  for salt = 0 to 4 do
    (* about a third of the activations, spread over rounds and arcs *)
    let drop ~round ~u ~v =
      ((round * 7) + (u * 13) + (v * 29) + salt) mod 3 = 0
    in
    let _, slower = chunked_run (Schedule.with_drops sched ~drop) in
    check "drops never speed gossip up" true
      (match (slower.Chunked.time, fault_free.Chunked.time) with
      | Some s, Some f -> s >= f
      | None, Some _ -> true
      | _ -> false)
  done

let test_with_drops_stacking_is_union () =
  (* two stacked predicates suppress exactly the union of their arc
     sets — wrapping twice must not shadow or resurrect anything *)
  let base = Schedule.cycle_alternating ~n:8 ~full_duplex:false in
  let drop1 ~round:_ ~u ~v = (u, v) = (0, 1) in
  let drop2 ~round:_ ~u ~v = (u, v) = (2, 3) in
  let stacked =
    Schedule.with_drops (Schedule.with_drops base ~drop:drop1) ~drop:drop2
  in
  let union ~round ~u ~v = drop1 ~round ~u ~v || drop2 ~round ~u ~v in
  let merged = Schedule.with_drops base ~drop:union in
  let dropped_something = ref false in
  for r = 0 to (2 * Schedule.period base) - 1 do
    let b = Schedule.round_arcs base r in
    let s = Schedule.round_arcs stacked r in
    check "stacked = single union predicate" true
      (s = Schedule.round_arcs merged r);
    check "stacked arcs are base arcs minus the union" true
      (s = List.filter (fun (u, v) -> not (union ~round:r ~u ~v)) b);
    if List.length s < List.length b then dropped_something := true
  done;
  check "the union actually suppressed arcs" true !dropped_something

let test_with_drops_absolute_rounds () =
  (* drops key on the ABSOLUTE round index: killing round period+1 must
     leave round 1 — the same residue one period earlier — untouched *)
  let base = Schedule.cycle_alternating ~n:8 ~full_duplex:false in
  let s = Schedule.period base in
  let lossy =
    Schedule.with_drops base ~drop:(fun ~round ~u:_ ~v:_ -> round = s + 1)
  in
  check "round 1 unaffected" true
    (Schedule.round_arcs lossy 1 = Schedule.round_arcs base 1);
  check "round period+1 emptied" true (Schedule.round_arcs lossy (s + 1) = []);
  check "round period+1 had arcs to lose" true
    (Schedule.round_arcs base (s + 1) <> []);
  check "round 2*period+1 unaffected" true
    (Schedule.round_arcs lossy ((2 * s) + 1)
    = Schedule.round_arcs base ((2 * s) + 1))

(* --- the memo path of proposal schedules --- *)

(* The same rounds without the nomination: [with_drops] clears it, so
   Chunked runs these through Schedule.sender. *)
let sender_path sched =
  Schedule.with_drops sched ~drop:(fun ~round:_ ~u:_ ~v:_ -> false)

let same_knowledge a b =
  let n = Chunked.n_vertices a and k = Chunked.items a in
  let same = ref (n = Chunked.n_vertices b && k = Chunked.items b) in
  for v = 0 to n - 1 do
    for i = 0 to k - 1 do
      if Chunked.knows a v i <> Chunked.knows b v i then same := false
    done
  done;
  !same && Chunked.items_known a = Chunked.items_known b

let test_nomination_only_on_proposals () =
  (* [sender_path] relies on with_drops clearing the nomination and the
     pairing: were either kept, the comparisons below would pit an arm
     against itself *)
  let imp = Implicit.de_bruijn 2 5 in
  let prop = Schedule.proposal imp ~period:4 ~seed:1 ~full_duplex:false in
  check "proposal carries its nomination" true
    (match Schedule.nomination prop with Some (4, _) -> true | _ -> false);
  List.iter
    (fun (name, sched) ->
      check (name ^ " has none") true (Schedule.nomination sched = None))
    [
      ("with_drops", sender_path prop);
      ("replicate", fst (Fault_tolerant.replicate prop ~k:1));
      ("augment", fst (Fault_tolerant.augment prop ~k:1));
      ("hypercube sweep", Schedule.hypercube_sweep ~dim:5 ~full_duplex:false);
      ( "of_systolic",
        Schedule.of_systolic
          (Builders.edge_coloring_half_duplex (Families.hypercube 3)) );
    ];
  (* the structured generators carry their runs, one array per
     pairing; a proposal carries its nomination and no pairing; nothing
     built from either by a transform keeps a pairing *)
  check "proposal has no pairing" true (Schedule.pairing prop = None);
  check "of_pairing alone has no pairing" true
    (Schedule.pairing
       (Schedule.of_pairing ~name:"swap" ~n:4 ~pairings:1 ~full_duplex:true
          (fun _ v -> v lxor 1))
    = None);
  let paired =
    [
      ("hypercube sweep", Schedule.hypercube_sweep ~dim:5 ~full_duplex:false, 5);
      ("cycle 9", Schedule.cycle_alternating ~n:9 ~full_duplex:true, 3);
      ("cycle 10", Schedule.cycle_alternating ~n:10 ~full_duplex:false, 2);
      ("torus", Schedule.torus_colored ~rows:3 ~cols:4 ~full_duplex:true, 5);
      ("ccc", Schedule.ccc_colored ~dim:3 ~full_duplex:false, 4);
    ]
  in
  List.iter
    (fun (name, sched, pairings) ->
      check (name ^ " carries its runs") true
        (match Schedule.pairing sched with
        | Some runs -> Array.length runs = pairings
        | None -> false))
    paired;
  List.iter
    (fun (name, sched) ->
      List.iter
        (fun (transform, t) ->
          check
            (Printf.sprintf "%s %s has no pairing" name transform)
            true
            (Schedule.pairing t = None))
        [
          ("with_drops", sender_path sched);
          ("tabulate", Schedule.tabulate sched);
          ("without_arcs", Schedule.without_arcs sched []);
          ("replicate", fst (Fault_tolerant.replicate sched ~k:1));
          ("concat", Fault_tolerant.concat sched sched);
          ( "make",
            Schedule.make ~name ~n:(Schedule.n_vertices sched)
              ~mode:(Schedule.mode sched) ~period:(Schedule.period sched)
              ~sender:(Schedule.sender sched) );
        ])
    (("proposal", prop)
    :: List.map (fun (name, sched, _) -> (name, sched)) paired);
  check "augment has no pairing" true
    (Schedule.pairing
       (fst
          (Fault_tolerant.augment
             (Schedule.cycle_alternating ~n:12 ~full_duplex:false)
             ~k:1))
    = None);
  check "of_systolic has no pairing" true
    (Schedule.pairing
       (Schedule.of_systolic
          (Builders.edge_coloring_half_duplex (Families.hypercube 3)))
    = None)

let gen_nominated_case =
  QCheck.Gen.(
    let* kautz = bool in
    let* d = int_range 2 4 in
    let family = if kautz then Implicit.kautz d else Implicit.de_bruijn d in
    let rec top dim =
      if Implicit.n_vertices (family (dim + 1)) <= 200 then top (dim + 1)
      else dim
    in
    let* dim = int_range 1 (top 1) in
    let* period = int_range 1 8 in
    let* seed = int_range 0 1_000_000 in
    let* full_duplex = bool in
    let* items = oneofl [ None; Some 64; Some 1 ] in
    let* domains = oneofl [ 1; 2; 4 ] in
    return (family dim, period, seed, full_duplex, items, domains))

let prop_nominated_path_matches_sender_path =
  QCheck.Test.make ~name:"proposal table path = sender path, bit for bit"
    ~count:40
    (QCheck.make
       ~print:(fun (imp, period, seed, full_duplex, items, domains) ->
         Printf.sprintf "%s period=%d seed=%d fd=%b items=%s domains=%d"
           (Implicit.name imp) period seed full_duplex
           (match items with None -> "n" | Some k -> string_of_int k)
           domains)
       gen_nominated_case)
    (fun (imp, period, seed, full_duplex, items, domains) ->
      let sched = Schedule.proposal imp ~period ~seed ~full_duplex in
      let run ~domains sched =
        let st = Chunked.create ?items (Schedule.n_vertices sched) in
        (st, Chunked.run ~domains st sched)
      in
      let st, o = run ~domains sched in
      let st', o' = run ~domains:1 (sender_path sched) in
      o.Chunked.time = o'.Chunked.time
      && o.Chunked.rounds_run = o'.Chunked.rounds_run
      && o.Chunked.final_coverage = o'.Chunked.final_coverage
      && same_knowledge st st')

let test_nominated_buffer_key () =
  (* one state, three proposal schedules interleaved, rounds out of
     order: a pairing's memo row must be filled on its first visit and
     read on every later one only while the schedule that filled it
     holds the state — a new schedule starts a fresh memo, whether at
     the same pairing or another one.  The steps revisit pairings of one
     schedule within a period (a half-duplex pairing's second round, a
     full-duplex round repeated) and in later periods, both before and
     after another schedule takes the state; DB(3,4)'s 81 vertices end
     in a partial word, and three domains split the rows into several
     blocks. *)
  List.iter
    (fun (imp, domains) ->
      let a = Schedule.proposal imp ~period:4 ~seed:3 ~full_duplex:false in
      let b = Schedule.proposal imp ~period:4 ~seed:11 ~full_duplex:false in
      let c = Schedule.proposal imp ~period:3 ~seed:3 ~full_duplex:true in
      let steps =
        [
          (a, 0); (b, 0); (a, 1); (a, 5); (a, 4); (b, 1); (c, 0); (c, 0);
          (a, 2); (b, 7); (c, 4); (a, 3); (b, 6); (c, 2); (a, 9); (b, 2);
          (a, 8); (c, 1); (b, 3); (a, 6);
          (* a holds the state: pairing 3 in this period and the next,
             then pairing 0 filled, revisited, and read again a period
             after pairing 1 *)
          (a, 7); (a, 14); (a, 16); (a, 17); (a, 10); (a, 25);
          (* b takes it at a pairing a has filled, then a comes back *)
          (b, 16); (b, 17); (a, 24); (a, 1); (b, 9);
          (* c's pairings across periods, between b's and a's *)
          (c, 3); (c, 7); (c, 3); (b, 8); (c, 6); (a, 0); (a, 8);
        ]
      in
      let drive path =
        let st = Chunked.create (Implicit.n_vertices imp) in
        List.iter
          (fun (sched, r) -> Chunked.apply_round ~domains st (path sched) r)
          steps;
        st
      in
      let table = drive Fun.id and fresh = drive sender_path in
      let case = Printf.sprintf "%s, %d domains" (Implicit.name imp) domains in
      check (case ^ ": the rounds spread knowledge") true
        (Chunked.items_known fresh > Implicit.n_vertices imp);
      check (case ^ ": interleaved memo rounds = sender rounds") true
        (same_knowledge table fresh))
    [
      (Implicit.de_bruijn 2 6, 1);
      (Implicit.de_bruijn 2 6, 3);
      (Implicit.de_bruijn 3 4, 1);
      (Implicit.de_bruijn 3 4, 3);
    ]

let test_apply_round_validates () =
  let rejects st sched round =
    match Chunked.apply_round ~domains:1 st sched round with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (name, sched) ->
      List.iter
        (fun n ->
          let st = Chunked.create n in
          check
            (Printf.sprintf "%s on a %d-vertex state rejected" name n)
            true (rejects st sched 0);
          check_int "state untouched" n (Chunked.items_known st))
        [ 16; 64 ];
      check (name ^ ": negative round rejected") true
        (rejects (Chunked.create 32) sched (-1)))
    [
      ( "DB(2,5) proposal",
        Schedule.proposal (Implicit.de_bruijn 2 5) ~period:4 ~seed:1
          ~full_duplex:false );
      ("Q5 sweep", Schedule.hypercube_sweep ~dim:5 ~full_duplex:false);
    ]

(* --- tabled schedules: the sender-table arm and without_arcs --- *)

(* Random periodic schedules of every kind the certifier and the engine
   tabulate: the structured colorings, augmented cycles, and materialized
   random protocols in all three modes, paired with a description. *)
let gen_periodic_schedule =
  QCheck.Gen.(
    let* full_duplex = bool in
    let fd = if full_duplex then " fd" else " hd" in
    let random_protocol =
      let* g, mode =
        oneofl
          [
            (Families.de_bruijn_directed 2 3, Protocol.Directed);
            (Families.kautz_directed 2 3, Protocol.Directed);
            (Families.de_bruijn 2 3, Protocol.Half_duplex);
            (Families.grid 3 3, Protocol.Half_duplex);
            (Families.de_bruijn 2 3, Protocol.Full_duplex);
            (Families.kautz 2 3, Protocol.Full_duplex);
          ]
      in
      let* period = int_range 1 6 in
      let* seed = int_range 0 10_000 in
      let* tenths = int_range 3 10 in
      let sys =
        Builders.random_systolic g mode ~period ~seed
          ~density:(float_of_int tenths /. 10.0)
      in
      return
        ( Printf.sprintf "random %s %s period=%d seed=%d density=%d/10"
            (Digraph.name g) (Protocol.mode_to_string mode) period seed tenths,
          Schedule.of_systolic sys )
    in
    let named sched = return (Schedule.name sched ^ fd, sched) in
    oneof
      [
        (let* n = int_range 3 40 in
         named (Schedule.cycle_alternating ~n ~full_duplex));
        (let* rows = int_range 3 6 in
         let* cols = int_range 3 6 in
         named (Schedule.torus_colored ~rows ~cols ~full_duplex));
        (let* dim = int_range 3 4 in
         named (Schedule.ccc_colored ~dim ~full_duplex));
        (let* dim = int_range 1 6 in
         named (Schedule.hypercube_sweep ~dim ~full_duplex));
        (let* n = int_range 5 40 in
         let* k = int_range 0 3 in
         named
           (fst
              (Fault_tolerant.augment
                 (Schedule.cycle_alternating ~n ~full_duplex)
                 ~k)));
        random_protocol;
      ])

let gen_run_config =
  QCheck.Gen.(pair (oneofl [ None; Some 64; Some 1 ]) (oneofl [ 1; 2; 4 ]))

let print_run_config (items, domains) =
  Printf.sprintf "items=%s domains=%d"
    (match items with None -> "n" | Some k -> string_of_int k)
    domains

(* time, rounds, coverage and every knowledge bit of two runs *)
let same_runs ((st : Chunked.state), (o : Chunked.outcome)) (st', o') =
  o.Chunked.time = o'.Chunked.time
  && o.Chunked.rounds_run = o'.Chunked.rounds_run
  && o.Chunked.final_coverage = o'.Chunked.final_coverage
  && same_knowledge st st'

let prop_tabled_path_matches_sender_path =
  QCheck.Test.make ~name:"tabled arm = sender path"
    ~count:150
    (QCheck.make
       ~print:(fun ((name, _), config) ->
         name ^ " " ^ print_run_config config)
       QCheck.Gen.(pair gen_periodic_schedule gen_run_config))
    (fun ((_, sched), (items, domains)) ->
      let tabled = Schedule.tabulate sched in
      (* were the sender path tabled too, the arm would meet itself *)
      Schedule.tables tabled <> None
      && Schedule.tables (sender_path sched) = None
      && same_runs
           (chunked_run ?items ~domains tabled)
           (chunked_run ?items (sender_path sched)))

let prop_without_arcs_matches_with_drops =
  QCheck.Test.make ~name:"without_arcs = with_drops"
    ~count:150
    (QCheck.make
       ~print:(fun (((name, _), config), picks) ->
         Printf.sprintf "%s %s picks=[%s]" name (print_run_config config)
           (String.concat "; " (List.map string_of_int picks)))
       QCheck.Gen.(
         pair
           (pair gen_periodic_schedule gen_run_config)
           (list_size (int_range 0 3) (int_range 0 10_000))))
    (fun (((_, sched), (items, domains)), picks) ->
      let base = Schedule.tabulate sched in
      let arcs = Certifier.period_arcs base in
      let m = Array.length arcs in
      let dead =
        if m = 0 then [] else List.map (fun i -> arcs.(i mod m)) picks
      in
      let s = Schedule.period base in
      let rounds sched = List.init (2 * s) (Schedule.round_arcs sched) in
      let before = rounds base in
      let knocked = Schedule.without_arcs base dead in
      let dropped =
        Schedule.with_drops sched ~drop:(fun ~round:_ ~u ~v ->
            List.mem (u, v) dead)
      in
      Schedule.tables knocked <> None
      && rounds knocked = rounds dropped
      (* the pattern's tables are its own: the base is left as it was *)
      && rounds base = before
      && same_runs
           (chunked_run ?items ~domains knocked)
           (chunked_run ?items dropped))

(* --- staged senders against the per-vertex rule --- *)

(* The per-vertex sender rule that staged schedules replaced, kept as the
   reference the way test/section3.ml keeps the merge rule: a reference
   [r v] redoes the round's work (index within the period, pairing,
   phase, wrapped rounds) for every vertex.  [ref_of_pairing] is
   of_pairing's direction split, literally; the pairings and the
   wrappers' round arithmetic are re-derived below from the generators'
   definitions, never through [Schedule.sender]. *)
let ref_of_pairing ~pairings ~full_duplex pairing r v =
  if full_duplex then pairing (r mod pairings) v
  else
    let r = r mod (2 * pairings) in
    let p = pairing (r / 2) v in
    if p < 0 then -1
    else if r mod 2 = 0 then if p < v then p else -1
    else if p > v then p
    else -1

(* a proposal's pairing: mutual nominations *)
let ref_proposal imp ~period ~seed ~full_duplex =
  let sched = Schedule.proposal imp ~period ~seed ~full_duplex in
  let candidate =
    match Schedule.nomination sched with
    | Some (_, c) -> c
    | None -> Alcotest.fail "a proposal carries its nomination"
  in
  ( sched,
    ref_of_pairing ~pairings:period ~full_duplex (fun t v ->
        let u = candidate t v in
        if u >= 0 && candidate t u = v then u else -1) )

(* [concat]'s round split: one period of [a], then one of [b] *)
let ref_concat (ra, sa) (rb, sb) =
  ( (fun r v ->
      let i = r mod (sa + sb) in
      if i < sa then ra i v else rb (i - sa) v),
    sa + sb )

(* the stride-[off] chord pairing of [augment] and its colour count:
   the arcs {v, v + off} form gcd(n, off) cycles, numbered here by
   walking each from its least vertex (Fault_tolerant locates positions
   with a modular inverse instead), and coloured like a cycle, or with
   one colour when the cycles are single pairs *)
let chord_pairing ~n ~off =
  let pos = Array.make n (-1) and start = Array.make n 0 and len = ref 0 in
  for c = 0 to n - 1 do
    if pos.(c) < 0 then begin
      let u = ref c and p = ref 0 in
      while pos.(!u) < 0 do
        pos.(!u) <- !p;
        start.(!u) <- c;
        u := (!u + off) mod n;
        incr p
      done;
      len := !p
    end
  done;
  let len = !len in
  if len = 2 then ((fun t v -> if t = 0 then (v + off) mod n else -1), 1)
  else
    ( (fun t v ->
        let p' = Schedule.cycle_partner len t pos.(v) in
        if p' < 0 then -1 else (start.(v) + (p' * off)) mod n),
      Schedule.cycle_colors len )

let ref_chord ~n ~off ~full_duplex =
  let pairing, colors = chord_pairing ~n ~off in
  (ref_of_pairing ~pairings:colors ~full_duplex pairing,
   if full_duplex then colors else 2 * colors)

type staged_case = {
  label : string;
  imp : Implicit.t;  (** the base's topology, for concat partners *)
  sched : Schedule.t;
  reference : int -> int -> int;
}

let gen_staged_base =
  QCheck.Gen.(
    let* full_duplex = bool in
    let fd = if full_duplex then " fd" else " hd" in
    let case imp sched reference =
      return { label = Schedule.name sched ^ fd; imp; sched; reference }
    in
    let paired imp sched pairings pairing =
      case imp sched (ref_of_pairing ~pairings ~full_duplex pairing)
    in
    oneof
      [
        (let* dim = int_range 1 6 in
         paired (Implicit.hypercube dim)
           (Schedule.hypercube_sweep ~dim ~full_duplex)
           dim
           (fun t v -> v lxor (1 lsl t)));
        (let* n = int_range 3 40 in
         paired (Implicit.cycle n)
           (Schedule.cycle_alternating ~n ~full_duplex)
           (Schedule.cycle_colors n) (Schedule.cycle_partner n));
        (let* rows = int_range 3 6 in
         let* cols = int_range 3 6 in
         let hc = Schedule.cycle_colors cols in
         paired (Implicit.torus rows cols)
           (Schedule.torus_colored ~rows ~cols ~full_duplex)
           (hc + Schedule.cycle_colors rows)
           (fun t v ->
             let r = v / cols and c = v mod cols in
             if t < hc then
               let c' = Schedule.cycle_partner cols t c in
               if c' < 0 then -1 else (r * cols) + c'
             else
               let r' = Schedule.cycle_partner rows (t - hc) r in
               if r' < 0 then -1 else (r' * cols) + c));
        (let* dim = int_range 3 4 in
         let cc = Schedule.cycle_colors dim in
         paired (Implicit.ccc dim)
           (Schedule.ccc_colored ~dim ~full_duplex)
           (cc + 1)
           (fun t v ->
             let w = v / dim and i = v mod dim in
             if t < cc then
               let i' = Schedule.cycle_partner dim t i in
               if i' < 0 then -1 else (w * dim) + i'
             else ((w lxor (1 lsl i)) * dim) + i));
        (let* kautz = bool in
         let* dim = int_range 1 4 in
         let imp = (if kautz then Implicit.kautz 2 else Implicit.de_bruijn 2) dim in
         let* period = int_range 1 6 in
         let* seed = int_range 0 1_000_000 in
         let sched, reference = ref_proposal imp ~period ~seed ~full_duplex in
         case imp sched reference);
      ])

(* one wrapper over [c]: the identity, tabulate, without_arcs, with_drops,
   concat, replicate, or augment (n >= 5) *)
let gen_staged_wrap c =
  QCheck.Gen.(
    let n = Schedule.n_vertices c.sched and s = Schedule.period c.sched in
    let full_duplex = Schedule.mode c.sched = Protocol.Full_duplex in
    let wrap label sched reference =
      return { c with label = c.label ^ " | " ^ label; sched; reference }
    in
    let period_arcs =
      List.concat
        (List.init s (fun i ->
             List.filter_map
               (fun v ->
                 let x = c.reference i v in
                 if x >= 0 then Some (x, v) else None)
               (List.init n Fun.id)))
    in
    oneof
      ([
         return c;
         wrap "tabulate" (Schedule.tabulate c.sched) (fun r v ->
             c.reference (r mod s) v);
         (let* picks = list_size (int_range 0 3) (int_range 0 10_000) in
          let m = List.length period_arcs in
          let dead =
            if m = 0 then [] else List.map (fun i -> List.nth period_arcs (i mod m)) picks
          in
          wrap
            (Printf.sprintf "without_arcs [%s]"
               (String.concat "; "
                  (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) dead)))
            (Schedule.without_arcs c.sched dead)
            (fun r v ->
              let x = c.reference (r mod s) v in
              if x >= 0 && List.mem (x, v) dead then -1 else x));
         (let* salt = int_range 0 1_000_000 in
          (* drops depend on the absolute round *)
          let drop ~round ~u ~v = Hashtbl.hash (salt, round, u, v) mod 3 = 0 in
          wrap
            (Printf.sprintf "with_drops salt=%d" salt)
            (Schedule.with_drops c.sched ~drop)
            (fun r v ->
              let x = c.reference r v in
              if x < 0 || drop ~round:r ~u:x ~v then -1 else x));
         (let* period = int_range 1 4 in
          let* seed = int_range 0 1_000_000 in
          let* first = bool in
          let other, other_ref = ref_proposal c.imp ~period ~seed ~full_duplex in
          let a, ra, b, rb =
            if first then (c.sched, c.reference, other, other_ref)
            else (other, other_ref, c.sched, c.reference)
          in
          wrap
            (Printf.sprintf "concat %s proposal(s=%d,seed=%d)"
               (if first then "before" else "after") period seed)
            (Fault_tolerant.concat a b)
            (fst
               (ref_concat
                  (ra, Schedule.period a)
                  (rb, Schedule.period b))));
         (let* k = int_range 0 3 in
          wrap
            (Printf.sprintf "replicate k=%d" k)
            (fst (Fault_tolerant.replicate c.sched ~k))
            (fun r v -> c.reference (r mod (s * (k + 1)) / (k + 1)) v));
       ]
      @
      if n < 5 then []
      else
        [
          (let* k = int_range 0 3 in
           wrap
             (Printf.sprintf "augment k=%d" k)
             (fst (Fault_tolerant.augment c.sched ~k))
             (fst
                (List.fold_left
                   (fun acc off -> ref_concat acc (ref_chord ~n ~off ~full_duplex))
                   (c.reference, s)
                   (Fault_tolerant.strides ~n ~k))));
        ]))

let prop_staged_sender_matches_reference =
  QCheck.Test.make
    ~name:"staged sender = per-vertex rule, every vertex, three periods"
    ~count:300
    (QCheck.make
       ~print:(fun c -> c.label)
       QCheck.Gen.(
         let* c = gen_staged_base in
         let* c = gen_staged_wrap c in
         let* twice = bool in
         if twice then gen_staged_wrap c else return c))
    (fun c ->
      let n = Schedule.n_vertices c.sched in
      let ok = ref true in
      for r = 0 to (3 * Schedule.period c.sched) - 1 do
        (* staged once per round, applied to every vertex *)
        let sender = Schedule.sender c.sched r in
        for v = 0 to n - 1 do
          if sender v <> c.reference r v then ok := false
        done
      done;
      !ok)

(* --- a state complete before its first round --- *)

let test_complete_before_first_round () =
  List.iter
    (fun (label, st, sched) ->
      let o = Chunked.run ~cap:0 st sched in
      check (label ^ ": time 0 under cap 0") true (o.Chunked.time = Some 0);
      check_int (label ^ ": no round run") 0 o.Chunked.rounds_run;
      check (label ^ ": coverage 1") true (o.Chunked.final_coverage = 1.0);
      (* a checkpointing run records its final checkpoint at round 0 *)
      let o = Chunked.run ~checkpoint_every:4 st sched in
      check (label ^ ": time 0") true (o.Chunked.time = Some 0);
      check_int (label ^ ": no round run, no cap") 0 o.Chunked.rounds_run;
      check (label ^ ": one checkpoint, at round 0") true
        (match o.Chunked.checkpoints with
        | [ cp ] -> cp.Chunked.round = 0 && cp.Chunked.coverage = 1.0
        | _ -> false);
      let report =
        Chunked.report_to_json ~family:"test" ~requested_n:0 ~sched ~st
          ~outcome:o ~wall_seconds:0.0 ~domains:1
      in
      check (label ^ ": report says 0 rounds") true
        (Gossip_util.Json.member "rounds" report = Some (Gossip_util.Json.Int 0)))
    [
      ( "Q10 sweep, zero items",
        Chunked.create ~items:0 1024,
        Schedule.hypercube_sweep ~dim:10 ~full_duplex:false );
      ( "one vertex",
        Chunked.create 1,
        Schedule.of_systolic
          (Systolic.make (Families.path 1) Protocol.Half_duplex [ [] ]) );
    ]

(* --- a proposal's nominees, pinned to their definition --- *)

(* The nominee of [v] in pairing [t], written out: the avalanche hash of
   (seed, t, v), reduced [mod slots] and read through the checked
   [Implicit.slot]; self- and out-of-range slots idle.  The memo path
   and the sender path both derive their pairing from the schedule's own
   [candidate], so only a reference like this one pins [candidate]
   itself. *)
let reference_nominee imp ~seed t v =
  let h = seed + (t * 0x9E3779B97F4A7C) + (v * 0xBF58476D1CE4E5) in
  let h = h lxor (h lsr 21) in
  let h = h * 0xFF51AFD7ED558C in
  let h = h lxor (h lsr 17) in
  let h = h * 0xC4CEB9FE1A85EC in
  let h = (h lxor (h lsr 26)) land max_int in
  let u = Implicit.slot imp v (h mod Implicit.slots imp) in
  if u = v || u < 0 || u >= Implicit.n_vertices imp then -1 else u

let test_proposal_nominees () =
  List.iter
    (fun (imp, slots) ->
      let name = Implicit.name imp and n = Implicit.n_vertices imp in
      check_int (name ^ " slot count") slots (Implicit.slots imp);
      List.iter
        (fun seed ->
          let sched = Schedule.proposal imp ~period:6 ~seed ~full_duplex:false in
          let pairings, candidate =
            match Schedule.nomination sched with
            | Some c -> c
            | None -> Alcotest.fail "a proposal carries its nomination"
          in
          let staged = ref 0 and full = ref 0 in
          for t = 0 to pairings - 1 do
            let nominee = candidate t in
            for v = 0 to n - 1 do
              let expected = reference_nominee imp ~seed t v in
              if nominee v <> expected then incr staged;
              if candidate t v <> expected then incr full
            done
          done;
          let case = Printf.sprintf "%s seed %d" name seed in
          check_int (case ^ ": staged nominees off definition") 0 !staged;
          check_int (case ^ ": full applications off definition") 0 !full)
        [ 1; 2; 7; 1_000_003; -5 ])
    [
      (Implicit.de_bruijn 2 7, 4);
      (Implicit.de_bruijn 3 5, 6);
      (Implicit.de_bruijn 4 4, 8);
      (Implicit.kautz 2 6, 4);
      (Implicit.kautz 3 4, 6);
    ]

(* Every raw slot of K(d, D) against the string it names: out-slot k
   prepends the symbol of rank k among those other than the first and
   drops the last; in-slot d + j appends the j-th symbol other than the
   last and drops the first.  The agreement cases above compare arc
   sets only, so they cannot see a permutation of one vertex's slots. *)
let test_kautz_slots_name_strings () =
  let other excluded r = if r + 1 < excluded then r + 1 else r + 2 in
  List.iter
    (fun d ->
      for dim = 1 to 5 do
        let imp = Implicit.kautz d dim in
        for v = 0 to Implicit.n_vertices imp - 1 do
          let s = Families.kautz_string_of_vertex ~d ~dim v in
          for k = 0 to (2 * d) - 1 do
            let t =
              if k < d then
                Array.init dim (fun i -> if i = 0 then other s.(0) k else s.(i - 1))
              else
                Array.init dim (fun i ->
                    if i = dim - 1 then other s.(dim - 1) (k - d) else s.(i + 1))
            in
            check_int
              (Printf.sprintf "K(%d,%d) slot %d of %d" d dim k v)
              (Families.kautz_vertex_of_string ~d t)
              (Implicit.slot imp v k)
          done
        done
      done)
    [ 2; 3; 4 ]

(* Every raw slot of DB(d, D) against the shift it names: out-slot k
   shifts digit k in, (v·d mod n) + k, and in-slot d + j shifts one out,
   ⌊v/d⌋ + j·d^(D-1).  A power-of-two d takes the generator's shifts
   and masks, any other d its divisions.  The agreement cases compare
   arc sets only, and the proposal's reference nominee reads
   [Implicit.slot] itself, so neither sees a permutation of one
   vertex's slots, on which the nominees depend. *)
let test_de_bruijn_slots_name_shifts () =
  List.iter
    (fun d ->
      for dim = 1 to 5 do
        let imp = Implicit.de_bruijn d dim in
        let n = Implicit.n_vertices imp in
        for v = 0 to n - 1 do
          Alcotest.(check (array int))
            (Printf.sprintf "DB(%d,%d) slots of %d" d dim v)
            (Array.init (2 * d) (fun k ->
                 if k < d then (v * d mod n) + k
                 else (v / d) + ((k - d) * (n / d))))
            (Array.init (2 * d) (Implicit.slot imp v))
        done
      done)
    [ 2; 3; 4; 8 ]

(* --- the runs arm and 64-bit knowledge words --- *)

(* The structured colorings, which run on the runs arm: hypercube
   sweeps, cycles of both parities, tori and CCC, in both duplex modes,
   some above 128 vertices so that every tracked item count below is
   reached. *)
let gen_paired_schedule =
  QCheck.Gen.(
    let* full_duplex = bool in
    oneof
      [
        (let* dim = int_range 1 8 in
         return (Schedule.hypercube_sweep ~dim ~full_duplex));
        (let* n = int_range 3 140 in
         return (Schedule.cycle_alternating ~n ~full_duplex));
        (let* rows = int_range 3 12 in
         let* cols = int_range 3 12 in
         return (Schedule.torus_colored ~rows ~cols ~full_duplex));
        (let* dim = int_range 3 5 in
         return (Schedule.ccc_colored ~dim ~full_duplex));
      ])

let prop_pairing_arm_matches_sender_path =
  QCheck.Test.make ~name:"pairing arm = sender path, bit for bit" ~count:120
    (QCheck.make
       ~print:(fun (sched, items, domains) ->
         Printf.sprintf "%s %s items=%s domains=%d" (Schedule.name sched)
           (Protocol.mode_to_string (Schedule.mode sched))
           (match items with None -> "n" | Some k -> string_of_int k)
           domains)
       QCheck.Gen.(
         triple gen_paired_schedule
           (oneofl
              [ Some 0; Some 1; Some 63; Some 64; Some 65; Some 127; Some 128;
                None ])
           (oneofl [ 1; 2; 4 ])))
    (fun (sched, items, domains) ->
      (* were the sender path paired too, the arm would meet itself *)
      Schedule.pairing sched <> None
      && Schedule.pairing (sender_path sched) = None
      && same_runs
           (chunked_run ?items ~domains sched)
           (chunked_run ?items (sender_path sched)))

let test_word_boundary () =
  (* 64 items per word: item 63 is the top (sign) bit of word 0 and
     item 64 the lowest bit of word 1 *)
  let st = Chunked.create ~items:65 65 in
  check_int "65 items known" 65 (Chunked.items_known st);
  check "v63 knows item 63" true (Chunked.knows st 63 63);
  check "v64 knows item 64" true (Chunked.knows st 64 64);
  check "v63 not item 64" false (Chunked.knows st 63 64);
  check "v64 not item 63" false (Chunked.knows st 64 63);
  check "item 65 is beyond the range" false (Chunked.knows st 64 65);
  (* 63 <-> 64 exchange across the boundary, and 0 <- 63 absorbs the
     sign bit alone *)
  let sched =
    Schedule.make ~name:"boundary" ~n:65 ~mode:Protocol.Full_duplex ~period:1
      ~sender:(fun _ v ->
        match v with 63 -> 64 | 64 -> 63 | 0 -> 63 | _ -> -1)
  in
  Chunked.apply_round ~domains:1 st sched 0;
  check "v63 learned item 64" true (Chunked.knows st 63 64);
  check "v64 learned item 63" true (Chunked.knows st 64 63);
  check "v0 learned item 63" true (Chunked.knows st 0 63);
  check "v0 did not learn item 64" false (Chunked.knows st 0 64);
  check_int "three new bits counted" 68 (Chunked.items_known st);
  (* one word per vertex at 64 items, two at 65 *)
  let words items =
    Obj.reachable_words (Obj.repr (Chunked.create ~items 1024))
  in
  check "64 items take one word per vertex" true
    (words 64 > 1024 && words 64 < 1024 + 64);
  check "65 items take two" true
    (words 65 > 2048 && words 65 < 2048 + 64);
  (* complete runs over 63, 64, 65 and 128 items count every bit *)
  List.iter
    (fun items ->
      let st, o =
        chunked_run ~items (Schedule.hypercube_sweep ~dim:8 ~full_duplex:false)
      in
      check (Printf.sprintf "%d items complete" items) true
        (o.Chunked.time <> None);
      check_int (Printf.sprintf "%d items all known" items) (256 * items)
        (Chunked.items_known st);
      check (Printf.sprintf "%d items: v255 knows the last" items) true
        (Chunked.knows st 255 (items - 1)))
    [ 63; 64; 65; 128 ]

let popcount64_reference x =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical x i) 1L <> 0L then incr c
  done;
  !c

let prop_popcount64_matches_bit_loop =
  QCheck.Test.make ~name:"int64 popcount = bit loop" ~count:2000
    (QCheck.make ~print:Int64.to_string
       QCheck.Gen.(
         oneof
           [
             ui64;
             map Int64.neg ui64;
             oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 1L ];
             map (fun i -> Int64.shift_left 1L i) (int_range 0 63);
             map
               (fun i -> Int64.logor Int64.min_int (Int64.shift_left 1L i))
               (int_range 0 63);
           ]))
    (fun x -> Chunked.popcount64 x = popcount64_reference x)

(* --- run against a round-by-round loop --- *)

(* [Chunked.run]'s contract, literally, one [apply_round] per round:
   completion tested before the first round and after every round, a
   checkpoint every [checkpoint_every] rounds and at the last.  [run]
   merges a half-duplex pairing's two rounds in one pass; this loop never
   does. *)
let round_by_round ~domains ~cap ~checkpoint_every st sched =
  let time = ref None and i = ref 0 and checkpoints = ref [] in
  let checkpoint () = checkpoints := (!i, Chunked.coverage st) :: !checkpoints in
  if Chunked.complete st then begin
    time := Some 0;
    if checkpoint_every > 0 then checkpoint ()
  end;
  while !time = None && !i < cap do
    Chunked.apply_round ~domains st sched !i;
    incr i;
    if Chunked.complete st then time := Some !i;
    if checkpoint_every > 0 && (!i mod checkpoint_every = 0 || !time <> None)
    then checkpoint ()
  done;
  (!time, !i, Chunked.coverage st, List.rev !checkpoints)

let checkpoint_curve o =
  List.map (fun c -> (c.Chunked.round, c.Chunked.coverage)) o.Chunked.checkpoints

(* the pair-arm schedules, the structured colorings above and
   proposals, and an augment's chord pairing, which [of_pairing] builds
   without runs, so it runs on the sender path *)
let gen_pair_arm_schedule =
  QCheck.Gen.(
    let* full_duplex = bool in
    frequency
      [
        (4, gen_paired_schedule);
        ( 1,
          let* n = int_range 5 60 in
          let* off = int_range 2 (n / 2) in
          let pairing, pairings = chord_pairing ~n ~off in
          return
            (Schedule.of_pairing
               ~name:(Printf.sprintf "chord%d of %d" off n)
               ~n ~pairings ~full_duplex pairing) );
        ( 1,
          let* kautz = bool in
          let* d = int_range 2 3 in
          let family = if kautz then Implicit.kautz d else Implicit.de_bruijn d in
          let* dim = int_range 1 (if d = 2 then 6 else 4) in
          let* period = int_range 1 8 in
          let* seed = int_range 0 1_000_000 in
          return (Schedule.proposal (family dim) ~period ~seed ~full_duplex) );
      ])

let prop_run_matches_round_loop =
  QCheck.Test.make ~name:"run = a round-by-round apply_round loop" ~count:200
    (QCheck.make
       ~print:(fun (sched, items, cap, checkpoint_every, domains) ->
         Printf.sprintf "%s %s items=%s cap=%d checkpoint_every=%d domains=%d"
           (Schedule.name sched)
           (Protocol.mode_to_string (Schedule.mode sched))
           (match items with None -> "n" | Some k -> string_of_int k)
           cap checkpoint_every domains)
       QCheck.Gen.(
         let* sched = gen_pair_arm_schedule in
         let* items = oneofl [ None; Some 64; Some 1 ] in
         let* cap = oneof [ oneofl [ 1; 2; 3; 4 ]; int_range 5 80; return 400 ] in
         let* checkpoint_every = oneofl [ 0; 1; 3 ] in
         let* domains = oneofl [ 1; 2 ] in
         return (sched, items, cap, checkpoint_every, domains)))
    (fun (sched, items, cap, checkpoint_every, domains) ->
      let n = Schedule.n_vertices sched in
      let st = Chunked.create ?items n and st' = Chunked.create ?items n in
      let o = Chunked.run ~domains ~cap ~checkpoint_every st sched in
      let time, rounds_run, coverage, checkpoints =
        round_by_round ~domains ~cap ~checkpoint_every st' sched
      in
      o.Chunked.time = time
      && o.Chunked.rounds_run = rounds_run
      && o.Chunked.final_coverage = coverage
      && checkpoint_curve o = checkpoints
      && same_knowledge st st')

let test_sweep_completes_on_a_pairs_first_round () =
  (* item 0 alone, or 64 items on a cube of more than 64 vertices, is
     known everywhere once the last pairing's lower endpoints have sent:
     after round 2d - 2, the first of that pairing's two rounds *)
  List.iter
    (fun (items, dims) ->
      List.iter
        (fun d ->
          let sched = Schedule.hypercube_sweep ~dim:d ~full_duplex:false in
          let n = 1 lsl d in
          let case = Printf.sprintf "Q(%d) hd, %d items" d items in
          let st = Chunked.create ~items n and st' = Chunked.create ~items n in
          let o = Chunked.run ~domains:1 ~checkpoint_every:1 st sched in
          let time, rounds_run, _, checkpoints =
            round_by_round ~domains:1 ~cap:max_int ~checkpoint_every:1 st' sched
          in
          check_int (case ^ ": completes at 2d - 1") ((2 * d) - 1)
            (get o.Chunked.time);
          check_int (case ^ ": runs 2d - 1 rounds") ((2 * d) - 1)
            o.Chunked.rounds_run;
          check (case ^ ": incomplete after 2d - 2 rounds") true
            (d = 1 || List.assoc ((2 * d) - 2) checkpoints < 1.0);
          check (case ^ ": the loop stops there too") true
            (time = o.Chunked.time && rounds_run = o.Chunked.rounds_run);
          check (case ^ ": the loop's checkpoints") true
            (checkpoint_curve o = checkpoints);
          check (case ^ ": the loop's state") true (same_knowledge st st'))
        dims)
    [ (1, [ 1; 2; 3; 5; 8; 12 ]); (64, [ 7; 8; 10; 12 ]) ]

(* The structured generators declare each pairing as runs of pairs,
   which the chunked engine walks in place of the partner closure: the
   runs of pairing [p] must name exactly the pairs [(v, x)], [v < x],
   whose arcs [v -> x] the sender forms in round [p] (full duplex) or
   [2p] (half duplex, where the lower endpoint sends first), each lower
   endpoint once and every endpoint a vertex. *)
let test_runs_name_the_senders_pairs () =
  let schedules full_duplex =
    List.init 12 (fun d -> Schedule.hypercube_sweep ~dim:(d + 1) ~full_duplex)
    @ List.init 69 (fun i -> Schedule.cycle_alternating ~n:(i + 3) ~full_duplex)
    @ List.concat_map
        (fun rows ->
          List.init 7 (fun c ->
              Schedule.torus_colored ~rows:(rows + 3) ~cols:(c + 3) ~full_duplex))
        (List.init 7 Fun.id)
    @ List.init 5 (fun d -> Schedule.ccc_colored ~dim:(d + 3) ~full_duplex)
  in
  List.iter
    (fun sched ->
      let n = Schedule.n_vertices sched in
      let full_duplex = Schedule.mode sched = Protocol.Full_duplex in
      let case =
        Printf.sprintf "%s %s" (Schedule.name sched)
          (Protocol.mode_to_string (Schedule.mode sched))
      in
      let pairings =
        match Schedule.pairing sched with
        | Some runs -> runs
        | None -> Alcotest.failf "%s: no runs" case
      in
      check_int (case ^ ": pairings per period") (Schedule.period sched)
        ((if full_duplex then 1 else 2) * Array.length pairings);
      Array.iteri
        (fun p runs ->
          let case = Printf.sprintf "%s, pairing %d" case p in
          let named = ref [] in
          Array.iter
            (fun { Schedule.first; count; stride; len; step; offset } ->
              for i = 0 to count - 1 do
                for j = 0 to len - 1 do
                  let v = first + (i * stride) + (j * step) in
                  named := (v, v + offset) :: !named
                done
              done)
            runs;
          let named = List.sort compare !named in
          let sender = Schedule.sender sched (if full_duplex then p else 2 * p) in
          let formed = ref [] in
          for x = 0 to n - 1 do
            let v = sender x in
            if v >= 0 && v < x then formed := (v, x) :: !formed
          done;
          check (case ^ ": endpoints are vertices") true
            (List.for_all (fun (v, x) -> 0 <= v && v < x && x < n) named);
          check (case ^ ": each lower endpoint once") true
            (List.length (List.sort_uniq compare (List.map fst named))
            = List.length named);
          check (case ^ ": the sender's pairs") true
            (named = List.sort compare !formed))
        pairings)
    (schedules false @ schedules true)

let suite =
  [
    ("implicit generators agree", `Quick, test_generators_agree);
    ("of_digraph round-trips", `Quick, test_of_digraph_roundtrip);
    ("fill_neighbors dedups", `Quick, test_fill_neighbors_dedup);
    ("of_family resolution", `Quick, test_of_family_resolution);
    ("schedules are valid protocols", `Quick, test_schedules_are_valid_protocols);
    ("of_systolic inverse", `Quick, test_of_systolic_is_inverse);
    ("chunked = engine (gossip)", `Quick, test_chunked_matches_engine);
    ("chunked = engine (broadcast)", `Quick, test_chunked_broadcast_matches_engine);
    ("chunked deterministic across domains", `Quick,
     test_chunked_deterministic_across_domains);
    ("chunked initial state", `Quick, test_chunked_initial_state);
    ("chunked multi-word state", `Quick, test_chunked_multiword_equivalence);
    ("checkpoint cadence", `Quick, test_checkpoint_streaming_cadence);
    ("implicit faults p=1 stalls", `Quick, test_drops_p1_stalls);
    ("drops never speed gossip up", `Quick, test_drops_never_speed_up);
    ("with_drops stacking is union", `Quick, test_with_drops_stacking_is_union);
    ("with_drops keys absolute rounds", `Quick, test_with_drops_absolute_rounds);
    ("of_family rejects a bad period", `Quick, test_of_family_rejects_period);
    ("nomination only on proposals", `Quick, test_nomination_only_on_proposals);
    QCheck_alcotest.to_alcotest prop_nominated_path_matches_sender_path;
    ("table path buffer key", `Quick, test_nominated_buffer_key);
    ("apply_round validates its input", `Quick, test_apply_round_validates);
    QCheck_alcotest.to_alcotest prop_tabled_path_matches_sender_path;
    QCheck_alcotest.to_alcotest prop_without_arcs_matches_with_drops;
    QCheck_alcotest.to_alcotest prop_staged_sender_matches_reference;
    ("complete before the first round", `Quick, test_complete_before_first_round);
    ("proposal nominees match their definition", `Quick, test_proposal_nominees);
    ("kautz slots name their strings", `Quick, test_kautz_slots_name_strings);
    ("de Bruijn slots name their shifts", `Quick, test_de_bruijn_slots_name_shifts);
    QCheck_alcotest.to_alcotest prop_pairing_arm_matches_sender_path;
    ("knowledge words at the 64-item boundary", `Quick, test_word_boundary);
    QCheck_alcotest.to_alcotest prop_popcount64_matches_bit_loop;
    QCheck_alcotest.to_alcotest prop_run_matches_round_loop;
    ("half-duplex Q(d) completes at 2d - 1", `Quick,
     test_sweep_completes_on_a_pairs_first_round);
    ("runs name the sender's pairs", `Quick, test_runs_name_the_senders_pairs);
  ]
