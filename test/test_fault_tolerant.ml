(* Tests for the robustness stack: Fault_tolerant redundancy transforms
   (replicate / augment) and the adversarial <=k-failure Certifier.
   The empirical anchors: the plain alternating 12-cycle fails k = 1
   with minimal counterexample {0->1}, its augmented version certifies
   exhaustively, and both verdicts are deterministic per seed. *)

open Gossip_protocol
open Gossip_simulate
module Json = Gossip_util.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base12 () = Schedule.cycle_alternating ~n:12 ~full_duplex:false

(* --- transforms --- *)

let test_replicate_report () =
  let t = base12 () in
  let rep, r = Fault_tolerant.replicate t ~k:2 in
  check_int "period triples" (3 * Schedule.period t) (Schedule.period rep);
  check_int "calls triple" (3 * r.Fault_tolerant.base_calls)
    r.Fault_tolerant.calls;
  check_int "added_rounds consistent"
    (r.Fault_tolerant.period - r.Fault_tolerant.base_period)
    r.Fault_tolerant.added_rounds;
  check_int "added_calls consistent"
    (r.Fault_tolerant.calls - r.Fault_tolerant.base_calls)
    r.Fault_tolerant.added_calls;
  (* each base round appears k+1 times back to back *)
  let s = Schedule.period t in
  for i = 0 to (3 * s) - 1 do
    check "round i replays base round i/3" true
      (Schedule.round_arcs rep i = Schedule.round_arcs t (i / 3))
  done;
  Alcotest.check_raises "negative k"
    (Invalid_argument "Fault_tolerant.replicate: k must be >= 0") (fun () ->
      ignore (Fault_tolerant.replicate t ~k:(-1)))

let test_strides_doubling_walk () =
  Alcotest.(check (list int)) "n=12 doubles then caps" [ 2; 4 ]
    (Fault_tolerant.strides ~n:12 ~k:2);
  Alcotest.(check (list int)) "n=64 doubles" [ 2; 4; 8 ]
    (Fault_tolerant.strides ~n:64 ~k:3);
  Alcotest.(check (list int)) "short ring fills smallest unused" [ 2; 3 ]
    (Fault_tolerant.strides ~n:6 ~k:3);
  Alcotest.(check (list int)) "antipodal matching is the only n=4 chord" [ 2 ]
    (Fault_tolerant.strides ~n:4 ~k:2);
  Alcotest.(check (list int)) "too short for any chord" []
    (Fault_tolerant.strides ~n:3 ~k:2)

let test_concat_period_sum () =
  let t = base12 () in
  let c = Fault_tolerant.concat t t in
  check_int "periods add" (2 * Schedule.period t) (Schedule.period c);
  check "second period replays the first" true
    (Schedule.round_arcs c (Schedule.period t) = Schedule.round_arcs t 0);
  let other = Schedule.cycle_alternating ~n:8 ~full_duplex:false in
  check "vertex-count mismatch rejected" true
    (match Fault_tolerant.concat t other with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_augment_chords_are_disjoint () =
  let t = base12 () in
  let aug, r = Fault_tolerant.augment t ~k:1 in
  check "period grows" true (r.Fault_tolerant.added_rounds > 0);
  check "calls grow" true (r.Fault_tolerant.added_calls > 0);
  (* the appended chord rounds (stride 2) never re-use a base cycle arc *)
  let base_arcs = Certifier.period_arcs t in
  let is_base a = Array.exists (( = ) a) base_arcs in
  let s = Schedule.period t in
  for i = s to Schedule.period aug - 1 do
    List.iter
      (fun (u, v) ->
        check "chord arc is not a cycle arc" false (is_base (u, v));
        check "chord spans stride 2" true
          (let d = (v - u + 12) mod 12 in
           d = 2 || d = 10))
      (Schedule.round_arcs aug i)
  done;
  Alcotest.check_raises "too few vertices for chords"
    (Invalid_argument "Fault_tolerant.augment: n must be >= 5") (fun () ->
      ignore
        (Fault_tolerant.augment
           (Schedule.cycle_alternating ~n:4 ~full_duplex:false)
           ~k:1))

let test_harden_dispatch () =
  let t = base12 () in
  (match Fault_tolerant.harden t ~transform:"none" ~k:1 with
  | Ok (t', r) ->
      check "none is identity" true (Schedule.period t' = Schedule.period t);
      check_int "none costs nothing" 0 r.Fault_tolerant.added_calls
  | Error e -> Alcotest.fail e);
  check "replicate resolves" true
    (Result.is_ok (Fault_tolerant.harden t ~transform:"replicate" ~k:1));
  check "augment resolves" true
    (Result.is_ok (Fault_tolerant.harden t ~transform:"augment" ~k:1));
  check "unknown transform is an Error" true
    (Result.is_error (Fault_tolerant.harden t ~transform:"bogus" ~k:1));
  (* harden is total: transform preconditions come back as Error, not
     as an escaping Invalid_argument *)
  (match
     Fault_tolerant.harden
       (Schedule.cycle_alternating ~n:4 ~full_duplex:false)
       ~transform:"augment" ~k:1
   with
  | Error e -> check "n<5 precondition surfaces" true (e <> "")
  | Ok _ -> Alcotest.fail "augment on n=4 must be an Error");
  check "negative k is an Error" true
    (Result.is_error (Fault_tolerant.harden t ~transform:"replicate" ~k:(-1)));
  match Fault_tolerant.harden t ~transform:"augment" ~k:1 with
  | Ok (_, r) -> (
      match Json.member "transform" (Fault_tolerant.report_to_json r) with
      | Some (Json.Str "augment") -> ()
      | _ -> Alcotest.fail "report_to_json lacks the transform name")
  | Error e -> Alcotest.fail e

(* --- certifier --- *)

let test_certify_unhardened_cycle_fails () =
  let t = base12 () in
  let v = Certifier.certify ~domains:1 ~budget:512 t ~k:1 ~seed:7 in
  check "alternating cycle is not 1-fault-tolerant" false v.Certifier.certified;
  check "exhaustive regime" true (v.Certifier.cert_mode = Certifier.Exhaustive);
  check_int "C(24, <=1) patterns" 25 v.Certifier.patterns_total;
  (match v.Certifier.counterexample with
  | Some cx ->
      (* greedy shrink lands on the first arc in enumeration order *)
      check "minimal counterexample is one dead arc" true
        (cx.Certifier.cx_pattern = [ (0, 1) ]);
      check "coverage below 1" true (cx.Certifier.cx_coverage < 1.0)
  | None -> Alcotest.fail "uncertified verdict must carry a counterexample");
  (* deterministic per seed: byte-identical verdicts *)
  let v' = Certifier.certify ~domains:1 ~budget:512 t ~k:1 ~seed:7 in
  check "same seed, same verdict" true (v = v')

let test_certify_augmented_cycle_passes () =
  let t = base12 () in
  let aug, _ = Fault_tolerant.augment t ~k:1 in
  let v = Certifier.certify ~domains:1 ~budget:512 aug ~k:1 ~seed:7 in
  check "augmented cycle certifies k=1" true v.Certifier.certified;
  check "exhaustively" true (v.Certifier.cert_mode = Certifier.Exhaustive);
  check_int "every pattern checked" v.Certifier.patterns_total
    v.Certifier.patterns_checked;
  check "no counterexample" true (v.Certifier.counterexample = None);
  (match (v.Certifier.worst_time, v.Certifier.fault_free_time) with
  | Some w, Some t0 ->
      check "faults cost rounds" true (w >= t0);
      check "worst within cap" true (w <= v.Certifier.cap)
  | _ -> Alcotest.fail "certified verdict must carry both times");
  check "worst pattern recorded" true (v.Certifier.worst_pattern <> [])

let test_certify_sampled_mode_deterministic () =
  let t = base12 () in
  let aug, _ = Fault_tolerant.augment t ~k:2 in
  (* C(48, <=2) = 1177 > 64: sampled regime *)
  let v = Certifier.certify ~domains:1 ~budget:64 aug ~k:2 ~seed:5 in
  check "sampled regime" true (v.Certifier.cert_mode = Certifier.Sampled);
  check "checked the budget plus the fault-free run" true
    (v.Certifier.patterns_checked <= v.Certifier.budget + 1);
  check "total is the full space" true
    (v.Certifier.patterns_total > v.Certifier.patterns_checked);
  let v' = Certifier.certify ~domains:1 ~budget:64 aug ~k:2 ~seed:5 in
  check "same seed, same sample, same verdict" true (v = v')

let test_certify_validation_and_json () =
  let t = base12 () in
  check "negative k rejected" true
    (match Certifier.certify ~domains:1 t ~k:(-1) ~seed:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "k beyond arc universe rejected" true
    (match Certifier.certify ~domains:1 t ~k:1000 ~seed:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let v = Certifier.certify ~domains:1 ~budget:512 t ~k:1 ~seed:7 in
  let j = Certifier.to_json t v in
  check "schema tag" true
    (Json.member "schema" j = Some (Json.Str "gossip-fault-cert/1"));
  check "fingerprint on the wire" true
    (Json.member "fingerprint" j = Some (Json.Str (Certifier.fingerprint t)));
  check "certified serialized" true
    (Json.member "certified" j = Some (Json.Bool false));
  check "exhaustive confidence is 1" true
    (Json.member "confidence" j = Some (Json.Float 1.0));
  match Json.member "counterexample" j with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "counterexample must serialize as an object"

let test_fingerprint_separates_schedules () =
  let t = base12 () in
  let aug, _ = Fault_tolerant.augment t ~k:1 in
  let rep, _ = Fault_tolerant.replicate t ~k:1 in
  let fps = [ Certifier.fingerprint t; Certifier.fingerprint aug;
              Certifier.fingerprint rep ] in
  check "three distinct fingerprints" true
    (List.length (List.sort_uniq compare fps) = 3);
  check "fingerprint is stable" true
    (Certifier.fingerprint t = Certifier.fingerprint (base12 ()))

(* Every verdict field, recorded before patterns ran on sender tables:
   exhaustive passes, the shrink of the failing C32 and a sampled run.
   A pattern that lost an arc in one round of the period only, or
   patterns that shared tables, change them. *)
let test_certify_verdict_goldens () =
  let cyc n = Schedule.cycle_alternating ~n ~full_duplex:false in
  let aug n = fst (Fault_tolerant.augment (cyc n) ~k:2) in
  let certified ~mode ~k ~budget ~arcs ~total ~checked ~t0 ~cap ~worst
      worst_pattern =
    {
      Certifier.certified = true;
      cert_mode = mode;
      k;
      seed = 7;
      budget;
      arcs;
      patterns_total = total;
      patterns_checked = checked;
      fault_free_time = Some t0;
      cap;
      worst_time = Some worst;
      worst_pattern;
      counterexample = None;
    }
  in
  let exhaustive = certified ~mode:Certifier.Exhaustive ~budget:16384 in
  List.iter
    (fun (label, sched, expected) ->
      let v =
        Certifier.certify ~domains:1 ~budget:expected.Certifier.budget sched
          ~k:expected.Certifier.k ~seed:7
      in
      let show v = Json.to_string (Certifier.to_json sched v) in
      Alcotest.(check string) label (show expected) (show v);
      check (label ^ ": every field") true (v = expected))
    [
      ( "augmented C12 k=2",
        aug 12,
        exhaustive ~k:2 ~arcs:72 ~total:2629 ~checked:2629 ~t0:11 ~cap:31
          ~worst:18 [ (0, 1); (0, 11) ] );
      ( "augmented C16 k=2",
        aug 16,
        exhaustive ~k:2 ~arcs:96 ~total:4657 ~checked:4657 ~t0:12 ~cap:30
          ~worst:16 [ (0, 1); (0, 15) ] );
      ( "Q16 k=2",
        Schedule.hypercube_sweep ~dim:4 ~full_duplex:false,
        exhaustive ~k:2 ~arcs:64 ~total:2081 ~checked:2081 ~t0:8 ~cap:20
          ~worst:14 [ (0, 1); (0, 2) ] );
      ( "torus 4x4 k=1",
        Schedule.torus_colored ~rows:4 ~cols:4 ~full_duplex:false,
        exhaustive ~k:1 ~arcs:64 ~total:65 ~checked:65 ~t0:8 ~cap:20 ~worst:12
          [ (0, 1) ] );
      ( "CCC(3) k=1",
        Schedule.ccc_colored ~dim:3 ~full_duplex:false,
        exhaustive ~k:1 ~arcs:72 ~total:73 ~checked:73 ~t0:24 ~cap:44
          ~worst:27 [ (2, 14) ] );
      ( "C32 k=1",
        cyc 32,
        {
          Certifier.certified = false;
          cert_mode = Certifier.Exhaustive;
          k = 1;
          seed = 7;
          budget = 16384;
          arcs = 64;
          patterns_total = 65;
          patterns_checked = 9;
          fault_free_time = Some 32;
          cap = 52;
          worst_time = None;
          worst_pattern = [];
          counterexample =
            Some
              {
                Certifier.cx_pattern = [ (0, 1) ];
                cx_rounds_run = 52;
                cx_coverage = 0x1.f7p-1;
              };
        } );
      ( "augmented C32 k=2 (sampled)",
        aug 32,
        certified ~mode:Certifier.Sampled ~k:2 ~budget:512 ~arcs:192
          ~total:18529 ~checked:513 ~t0:20 ~cap:42 ~worst:23
          [ (12, 8); (23, 24) ] );
    ]

(* A given cap bounds the fault-free run too: a scheme that cannot
   gossip within it is uncertified before any pattern runs, whatever k. *)
let test_certify_cap_bounds_fault_free_run () =
  let q16 = Schedule.hypercube_sweep ~dim:4 ~full_duplex:false in
  List.iter
    (fun k ->
      let v = Certifier.certify ~domains:1 ~cap:5 q16 ~k ~seed:1 in
      let name = Printf.sprintf "Q16 (fault-free time 8), k=%d, cap 5: " k in
      check (name ^ "not certified") false v.Certifier.certified;
      check (name ^ "no fault-free time") true
        (v.Certifier.fault_free_time = None);
      check_int (name ^ "cap kept") 5 v.Certifier.cap;
      check_int (name ^ "only the fault-free run") 1
        v.Certifier.patterns_checked;
      match v.Certifier.counterexample with
      | Some cx ->
          check (name ^ "empty counterexample") true
            (cx.Certifier.cx_pattern = []);
          check_int (name ^ "ran to the cap") 5 cx.Certifier.cx_rounds_run
      | None -> Alcotest.fail (name ^ "expected a counterexample"))
    [ 0; 1 ];
  (* a cap the fault-free run meets still certifies *)
  let v = Certifier.certify ~domains:1 ~cap:8 q16 ~k:0 ~seed:1 in
  check "cap 8 meets the fault-free time" true
    (v.Certifier.certified && v.Certifier.fault_free_time = Some 8)

let test_certify_rejects_cap_below_one () =
  (* validated before anything runs, so a schedule that never completes
     raises too instead of returning a verdict that carries the cap *)
  let idle =
    Schedule.make ~name:"idle" ~n:4 ~mode:Protocol.Half_duplex ~period:1
      ~sender:(fun _ _ -> -1)
  in
  List.iter
    (fun (name, sched) ->
      List.iter
        (fun cap ->
          Alcotest.check_raises
            (Printf.sprintf "%s, cap %d" name cap)
            (Invalid_argument "Certifier.certify: cap must be >= 1")
            (fun () ->
              ignore (Certifier.certify ~domains:1 ~cap sched ~k:0 ~seed:1)))
        [ 0; -3 ])
    [
      ("never completes", idle);
      ("Q16", Schedule.hypercube_sweep ~dim:4 ~full_duplex:false);
    ]

let suite =
  [
    ("replicate report", `Quick, test_replicate_report);
    ("strides doubling walk", `Quick, test_strides_doubling_walk);
    ("concat periods", `Quick, test_concat_period_sum);
    ("augment chords disjoint", `Quick, test_augment_chords_are_disjoint);
    ("harden dispatch", `Quick, test_harden_dispatch);
    ("unhardened cycle fails k=1", `Quick, test_certify_unhardened_cycle_fails);
    ("augmented cycle certifies k=1", `Quick, test_certify_augmented_cycle_passes);
    ("sampled mode deterministic", `Quick, test_certify_sampled_mode_deterministic);
    ("validation and json", `Quick, test_certify_validation_and_json);
    ("fingerprints separate schedules", `Quick, test_fingerprint_separates_schedules);
    ("certifier verdict goldens", `Quick, test_certify_verdict_goldens);
    ("cap bounds the fault-free run", `Quick, test_certify_cap_bounds_fault_free_run);
    ("cap below 1 rejected up front", `Quick, test_certify_rejects_cap_below_one);
  ]
