(* End-to-end integration: for every catalog family, build an instance,
   run a concrete systolic protocol, certify it with the delay machinery
   and check that all the bounds line up:

       certificate <= measured gossip time,
       diameter    <= measured gossip time,
       broadcast   <= measured gossip time.

   Also exercises the Core facade and Analysis one-call helpers. *)

open Gossip_topology
open Gossip_protocol
module Engine = Gossip_simulate.Engine
module Certificate = Gossip_delay.Certificate
module Delay_digraph = Gossip_delay.Delay_digraph
module Catalog = Gossip_bounds.Catalog

let check = Alcotest.(check bool)

let dim_for (f : Catalog.t) = if f.Catalog.d = 2 then 4 else 3

let protocol_for (f : Catalog.t) g =
  if f.Catalog.directed then
    Builders.random_systolic g Protocol.Directed ~period:6 ~seed:17
      ~density:1.0
  else Builders.edge_coloring_half_duplex g

let test_pipeline_family (f : Catalog.t) () =
  let g = f.Catalog.build (dim_for f) in
  let sys = protocol_for f g in
  let cap = 40 * Systolic.period sys in
  match Engine.gossip_time ~cap sys with
  | None ->
      (* random directed protocols may not gossip; the delay machinery
         must still run on the expanded horizon *)
      let dg = Delay_digraph.of_systolic sys ~length:(4 * Systolic.period sys) in
      check (f.Catalog.key ^ " delay digraph built") true
        (Delay_digraph.n_activations dg > 0)
  | Some t ->
      let diam = Metrics.diameter g in
      check (f.Catalog.key ^ " gossip >= diameter") true (t >= diam);
      (match Engine.broadcast_time ~cap sys ~src:0 with
      | Some b -> check (f.Catalog.key ^ " broadcast <= gossip") true (b <= t)
      | None -> Alcotest.fail "broadcast incomplete though gossip complete");
      let dg = Delay_digraph.of_systolic sys ~length:t in
      let cert = Certificate.certify dg ~mode:(Systolic.mode sys) in
      check (f.Catalog.key ^ " certificate sound") true
        (cert.Certificate.bound <= t);
      (* Lemma 4.3/6.1: the norm estimate from below sits below the
         closed form at the chosen λ *)
      check (f.Catalog.key ^ " norm below closed form") true
        (cert.Certificate.norm_lower <= cert.Certificate.closed_form +. 1e-7)

let test_separator_certificate_all_directed () =
  List.iter
    (fun (f : Catalog.t) ->
      if f.Catalog.directed then begin
        let dim = dim_for f in
        let g = f.Catalog.build dim in
        let sep = f.Catalog.separator dim in
        let sys =
          Builders.random_systolic g Protocol.Directed ~period:5 ~seed:23
            ~density:1.0
        in
        let horizon = 12 * Systolic.period sys in
        let dg = Delay_digraph.of_systolic sys ~length:horizon in
        let cert =
          Certificate.certify_separator dg ~mode:Protocol.Directed ~sep
        in
        let dist =
          Metrics.set_distance g sep.Gossip_topology.Separator.v1
            sep.Gossip_topology.Separator.v2
        in
        check
          (f.Catalog.key ^ " separator certificate >= set distance")
          true
          (cert.Certificate.bound >= dist)
      end)
    Catalog.families

let test_core_facade () =
  (* the facade exposes every sub-library under Core *)
  let g = Core.Topology.Families.de_bruijn 2 4 in
  let r = Core.Analysis.analyze_network g in
  check "facade analyze" true
    (r.Core.Analysis.n = 16 && r.Core.Analysis.symmetric
    && r.Core.Analysis.diameter = 4);
  check "bounds accessible" true
    (Float.abs (Core.Bounds.General.e 4 -. 1.8133) < 2e-4);
  check "nonsystolic bound = 1.4404·log n" true
    (Float.abs (r.Core.Analysis.nonsystolic_bound -. (1.4404 *. 4.0)) < 1e-2)

let test_analysis_certify_protocol () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:true in
  let rep = Core.Analysis.certify_protocol sys in
  check "gossip measured" true (rep.Core.Analysis.gossip_time = Some 4);
  check "certificate sound" true
    (rep.Core.Analysis.certificate.Certificate.bound <= 4);
  check "diameter recorded" true (rep.Core.Analysis.diameter = 4);
  (* report printing does not raise *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Core.Analysis.pp_protocol_report ppf rep;
  Format.pp_print_flush ppf ();
  check "report nonempty" true (Buffer.length buf > 0)

let test_analysis_network_report_printing () =
  let r = Core.Analysis.analyze_network (Families.kautz 2 3) in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Core.Analysis.pp_network_report ppf r;
  Format.pp_print_flush ppf ();
  check "network report nonempty" true (Buffer.length buf > 0)

(* Upper-vs-lower sandwich on growing hypercubes: the measured full-duplex
   gossip time log n sits between the full-duplex lower bound main term
   (~ e_fd(s)·log n with s = log n, tending to log n) and 2·log n. *)
let test_sandwich_hypercubes () =
  List.iter
    (fun dim ->
      let sys = Builders.hypercube_sweep ~dim ~full_duplex:true in
      let t = Option.get (Engine.gossip_time sys) in
      check
        (Printf.sprintf "Q%d fd gossip time = dim" dim)
        true (t = dim))
    [ 3; 4; 5; 6; 7 ]

(* The certificate bound grows with n along a family — the finite-n shadow
   of the Ω(log n) lower bound. *)
let test_certificate_grows_with_n () =
  let bound_for dim =
    let sys = Builders.hypercube_sweep ~dim ~full_duplex:false in
    let t = Option.get (Engine.gossip_time sys) in
    let dg = Delay_digraph.of_systolic sys ~length:t in
    (Certificate.certify dg ~mode:Protocol.Half_duplex).Certificate.bound
  in
  let b3 = bound_for 3 and b6 = bound_for 6 in
  check "certificate grows from Q3 to Q6" true (b6 > b3)

let suite =
  let per_family =
    List.map
      (fun (f : Catalog.t) ->
        ("pipeline " ^ f.Catalog.key, `Quick, test_pipeline_family f))
      Catalog.families
  in
  per_family
  @ [
      ("separator certificates (directed)", `Quick, test_separator_certificate_all_directed);
      ("core facade", `Quick, test_core_facade);
      ("analysis certify_protocol", `Quick, test_analysis_certify_protocol);
      ("analysis report printing", `Quick, test_analysis_network_report_printing);
      ("hypercube sandwich", `Quick, test_sandwich_hypercubes);
      ("certificate grows with n", `Quick, test_certificate_grows_with_n);
    ]
