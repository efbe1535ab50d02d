(* Smoke test of the benchmark: BENCHMARK.json is well formed and agrees
   with the program, two batch workloads run on cut-down inputs and print
   every declared metric with its unit, and the correctness gates trip
   on corrupted results. *)

open Bench_kit
module Json = Core.Util.Json
module B = Core.Protocol.Builders
module F = Core.Topology.Families

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let declared_units spec section =
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.member "unit" m) with
      | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
      | _ -> None)
    (match Json.member section spec with Some (Json.List l) -> l | _ -> [])

(* The result line carries every declared metric, each with the unit
   BENCHMARK.json gives it. *)
let check_printed ~what ~traced spec (out : Outcome.t) =
  let line = Runner.result_line ~correct:true ~attempted:1 ~failed:0
      (List.filter_map (fun (m, v) -> Option.map (fun v -> (m, v)) v) (Runner.declared ~traced out))
  in
  let printed = match Json.member "metrics" line with Some (Json.Obj ms) -> ms | _ -> [] in
  List.iter
    (fun (name, unit) ->
      check
        (Printf.sprintf "%s prints %s in %s" what name unit)
        (match List.assoc_opt name printed with
        | Some m -> Json.member "unit" m = Some (Json.Str unit) && Json.member "value" m <> None
        | None -> false))
    (declared_units spec (if traced then "per_layer" else "end_to_end"))

let () =
  let path = Sys.argv.(1) in
  let spec = match Spec.load path with Ok j -> j | Error e -> failwith e in
  List.iter (fun p -> check ("BENCHMARK.json: " ^ p) false) (Spec.problems spec);
  (* a malformed declaration is refused *)
  let broken =
    match spec with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "per_layer" then
                 (k, Json.List [ Json.Obj [ ("name", Json.Str "bad name!"); ("unit", Json.Str "s"); ("better", Json.Str "lower") ] ])
               else (k, v))
             fields)
    | j -> j
  in
  check "a bad metric name is refused" (Spec.problems broken <> []);
  (* cut-down certify-sweep, untraced then traced *)
  let small ~seed:_ =
    Batch.certify_sweep_of
      [
        ("Q5 fd sweep", B.hypercube_sweep ~dim:5 ~full_duplex:true);
        ("C16 rotate", B.cycle_rotate 16);
        ("Q5 hd sweep", B.hypercube_sweep ~dim:5 ~full_duplex:false);
      ]
  in
  let out = Batch.run small ~seed:1 ~seconds:0.0 ~traced:false in
  check "certify-sweep gates hold" (out.Outcome.problems = [] && out.Outcome.failed = 0);
  check_printed ~what:"certify-sweep" ~traced:false spec out;
  let traced = Batch.run small ~seed:1 ~seconds:0.0 ~traced:true in
  check_printed ~what:"traced certify-sweep" ~traced:true spec traced;
  check "traced certify-sweep counts norm solves"
    (match List.assoc_opt "delay_matrix.norm.calls" traced.Outcome.metrics with
    | Some c -> c > 0.0
    | None -> false);
  (* cut-down fault-cert, including the failing scheme and its
     recorded counterexample *)
  let schemes =
    List.filter (fun (l, _, _, _) -> List.mem l [ "Q16 k=2"; "torus 4x4 k=1"; "C32 k=1" ]) Batch.fault_schemes
  in
  let out = Batch.run (fun ~seed -> Batch.fault_cert_of ~seed schemes) ~seed:1 ~seconds:0.0 ~traced:false in
  check "fault-cert verdicts match the record" (out.Outcome.problems = [] && out.Outcome.failed = 0);
  check_printed ~what:"fault-cert" ~traced:false spec out;
  let wrong =
    List.map
      (fun (l, s, k, e) -> (l, s, k, if l = "C32 k=1" then "certified=false mode=exhaustive checked=9/65 cx=1>2" else e))
      schemes
  in
  let out = Batch.run (fun ~seed -> Batch.fault_cert_of ~seed wrong) ~seed:1 ~seconds:0.0 ~traced:false in
  check "a wrong recorded counterexample trips the gate" (out.Outcome.failed > 0 && out.Outcome.problems <> []);
  (* a corrupted certificate trips the Theorem 4.1 gates *)
  let ctx = Core.Context.create ~domains:1 () in
  let sys = B.hypercube_sweep ~dim:4 ~full_duplex:false in
  let t = Option.get (Core.Context.gossip_time ctx sys) in
  let cert =
    Core.Context.certify ctx (Core.Context.delay_digraph ctx sys ~length:t) ~mode:(Core.Protocol.Systolic.mode sys)
  in
  check "a sound certificate passes" (Batch.check_certificate ~label:"Q4" ~measured:t cert = []);
  check "a bound above the gossip time is caught"
    (Batch.check_certificate ~label:"Q4" ~measured:t { cert with Core.Delay.Certificate.bound = t + 1 } <> []);
  check "a norm above the closed form is caught"
    (Batch.check_certificate ~label:"Q4" ~measured:t
       { cert with Core.Delay.Certificate.norm = cert.Core.Delay.Certificate.closed_form *. 1.01 }
    <> []);
  (* the host-speed adjustment *)
  check "a time taken at the reference speed is left as it is"
    (Pace.adjust ~elasticity:0.7 ~probe_s:Pace.reference_s 2.0 = 2.0);
  check "a time taken at half speed is halved at elasticity 1"
    (Float.abs (Pace.adjust ~elasticity:1.0 ~probe_s:(2.0 *. Pace.reference_s) 2.0 -. 1.0) < 1e-12);
  (* the block-pattern counts the certify-sweep layer table reports *)
  let patterns sys =
    let t = Option.get (Core.Context.gossip_time ctx sys) in
    Batch.block_patterns (Core.Context.delay_digraph ctx sys ~length:t)
  in
  check "WBF(2,4) has 4 distinct block patterns in 64"
    (patterns (B.edge_coloring_half_duplex (F.wrapped_butterfly 2 4)) = (64, 4));
  check "Q5 has 32 distinct block patterns in 32"
    (patterns (B.hypercube_sweep ~dim:5 ~full_duplex:false) = (32, 32));
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke test: ok"
