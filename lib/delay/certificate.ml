module Protocol = Gossip_protocol.Protocol
module Spectral = Gossip_linalg.Spectral

type t = {
  lambda : float;
  norm : float;
  norm_lower : float;
  iterations : int;
  converged : bool;
  closed_form : float;
  bound : int;
  activations : int;
}

let default_lambdas =
  List.init 19 (fun i -> 0.05 +. (0.05 *. float_of_int i))

let impossible_t ~nu ~lambda ~pairs ~m ~start t =
  if t < start then true
  else begin
    (* Σ_{k=start}^{t} ν^k, computed stably. *)
    let sum = ref 0.0 and pw = ref (nu ** float_of_int start) in
    for _ = start to t do
      sum := !sum +. !pw;
      pw := !pw *. nu
    done;
    !sum < (lambda ** float_of_int t) *. pairs /. m
  end

(* Cumulative activation counts per round horizon, filtered by a
   predicate on the activation. *)
let cumulative_counts dg pred =
  let horizon = Delay_digraph.protocol_length dg in
  let per_round = Array.make (horizon + 1) 0 in
  for k = 0 to Delay_digraph.n_activations dg - 1 do
    let a = Delay_digraph.activation dg k in
    if pred a then
      per_round.(a.Delay_digraph.round + 1) <-
        per_round.(a.Delay_digraph.round + 1) + 1
  done;
  for i = 1 to horizon do
    per_round.(i) <- per_round.(i) + per_round.(i - 1)
  done;
  per_round
(* per_round.(t) = matching activations strictly before round index t,
   i.e. within the first t rounds. *)

(* Non-increasing in [nu]: each partial sum of [impossible_t] is built
   from [nu ** start] by correctly rounded multiplies and adds of
   nonnegative numbers, all monotone, so a larger [nu] rules out no
   round count that a smaller one keeps. *)
let smallest_feasible ~nu ~lambda ~pairs ~m1 ~m2 ~start ~horizon =
  let rec scan t =
    if t > horizon then horizon + 1
    else begin
      let m1t = float_of_int (max 1 m1.(t)) in
      let m2t = float_of_int (max 1 m2.(t)) in
      let m = sqrt (m1t *. m2t) in
      if impossible_t ~nu ~lambda ~pairs ~m ~start t then scan (t + 1) else t
    end
  in
  scan 1

(* Branch and bound over the λ grid.  Every λ gets a cap U(λ): the bound
   its lower end ν̲(λ) ≤ ‖M(λ)‖ ({!Delay_matrix.norm_lower_bounds})
   would certify.  A full solve certifies from an [upper ≥ ‖M(λ)‖ ≥ ν̲(λ)],
   and [smallest_feasible] is non-increasing in ν, so λ's certified bound
   is at most U(λ).  With [start = 1], [nu ** start] is [nu] exactly;
   with [start > 1] ([certify_separator]) [**] may err by under one unit
   in the last place, but ν̲(λ) sits at least the 1e-12 relative slack of
   [upper] below it, thousands of units, so the order of the two powers
   is kept.  The coarse grid keeps the first λ with the largest bound;
   visited by cap descending (ties by grid position), a λ whose cap is
   below the best bound, or equal to it at a later grid position, cannot
   displace it and is not solved.  The winner's fields come from its own
   [norm] call, so the certificate is the exhaustive sweep's, bit for
   bit. *)
let certify_generic ?(refine = false)
    ?(norm = fun dg lambda -> Delay_matrix.norm_blockwise dg lambda) dg ~mode
    ~pairs ~pred_src ~pred_dst ~start =
  let horizon = Delay_digraph.protocol_length dg in
  let m1 = cumulative_counts dg pred_src in
  let m2 = cumulative_counts dg pred_dst in
  let window = Delay_digraph.window dg in
  let feasible nu lambda =
    smallest_feasible ~nu ~lambda ~pairs ~m1 ~m2 ~start ~horizon
  in
  let solve lambda =
    (* Theorem 4.1 needs ν ≥ ‖M(λ)‖: certify from the bracket's upper
       end, never from the estimate below it *)
    let b = norm dg lambda in
    let nu = b.Spectral.upper in
    {
      lambda;
      norm = nu;
      norm_lower = b.Spectral.lower;
      iterations = b.Spectral.iterations;
      converged = b.Spectral.converged;
      closed_form = Delay_matrix.closed_form_bound ~mode ~window lambda;
      bound = feasible nu lambda;
      activations = Delay_digraph.n_activations dg;
    }
  in
  (* (U(λ), grid position, λ) for every λ of [lambdas] *)
  let capped lambdas =
    let lows = Delay_matrix.norm_lower_bounds dg lambdas in
    List.mapi (fun i lambda -> (feasible lows.(i) lambda, i, lambda)) lambdas
  in
  (* would a bound at grid position [i] displace [best] under the
     first-strict-max rule? *)
  let beats bound i = function
    | None -> true
    | Some (b, j) -> bound > b.bound || (bound = b.bound && i < j)
  in
  let best =
    List.fold_left
      (fun best (cap, i, lambda) ->
        if not (beats cap i best) then best
        else
          let c = solve lambda in
          if beats c.bound i best then Some (c, i) else best)
      None
      (List.stable_sort
         (fun (u, _, _) (v, _, _) -> compare v u)
         (capped default_lambdas))
  in
  (* the grid lies inside (0, 1), so the first λ visited sets [best] *)
  let coarse, _ = Option.get best in
  if not refine then coarse
  else
    (* finer sweep around the coarse winner in grid order, replacing only
       on strict improvement, so a cap at or below the best bound cannot
       win; the offset 0 is the coarse winner itself *)
    let finer =
      List.filter
        (fun l -> l > 0.0 && l < 1.0 && l <> coarse.lambda)
        (List.init 21 (fun k ->
             coarse.lambda +. (0.005 *. float_of_int (k - 10))))
    in
    List.fold_left
      (fun best (cap, _, lambda) ->
        if cap <= best.bound then best
        else
          let c = solve lambda in
          if c.bound > best.bound then c else best)
      coarse (capped finer)

(* Structural span tags: the digest identifies which delay digraph a
   recorded certificate search ran over, so traces of repeated runs can
   be diffed artifact by artifact. *)
let span_attrs dg =
  [
    ("dg", Gossip_util.Json.Str (Delay_digraph.fingerprint dg));
    ("activations", Gossip_util.Json.Int (Delay_digraph.n_activations dg));
    ("window", Gossip_util.Json.Int (Delay_digraph.window dg));
  ]

let certify ?refine ?norm dg ~mode =
  let n =
    float_of_int (Gossip_topology.Digraph.n_vertices (Delay_digraph.graph dg))
  in
  Gossip_util.Instrument.span "delay.certify" ~attrs:(span_attrs dg) (fun () ->
      certify_generic ?refine ?norm dg ~mode
        ~pairs:(n *. (n -. 1.0))
        ~pred_src:(fun _ -> true)
        ~pred_dst:(fun _ -> true)
        ~start:1)

let certify_separator dg ~mode ~sep =
  let open Gossip_topology.Separator in
  let g = Delay_digraph.graph dg in
  let v1 = Hashtbl.create 64 and v2 = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace v1 v ()) sep.v1;
  List.iter (fun v -> Hashtbl.replace v2 v ()) sep.v2;
  let c1 = List.length sep.v1 and c2 = List.length sep.v2 in
  let dist = Gossip_topology.Metrics.set_distance g sep.v1 sep.v2 in
  Gossip_util.Instrument.span "delay.certify-separator" ~attrs:(span_attrs dg)
    (fun () ->
      certify_generic dg ~mode
        ~pairs:(float_of_int c1 *. float_of_int c2)
        ~pred_src:(fun a -> Hashtbl.mem v1 a.Delay_digraph.src)
        ~pred_dst:(fun a -> Hashtbl.mem v2 a.Delay_digraph.dst)
        ~start:(max 1 (dist - 1)))

let certify_systolic ?refine sys =
  let module Systolic = Gossip_protocol.Systolic in
  let s = Systolic.period sys in
  let mode = Systolic.mode sys in
  let n =
    Gossip_topology.Digraph.n_vertices (Systolic.graph sys)
  in
  (* Grow the expansion until the certified bound stops changing between
     doublings; cap the growth at a generous multiple of the trivial
     completion scale. *)
  let max_length = max (8 * s) (4 * s * n) in
  let rec go length previous =
    let dg = Delay_digraph.of_systolic sys ~length in
    let cert = certify ?refine dg ~mode in
    match previous with
    | Some p when p.bound = cert.bound -> cert
    | _ when 2 * length > max_length -> cert
    | _ -> go (2 * length) (Some cert)
  in
  go (4 * s) None

let to_json c =
  let module J = Gossip_util.Json in
  J.Obj
    [
      ("bound", J.Int c.bound);
      ("lambda", J.Float c.lambda);
      ("norm", J.Float c.norm);
      ("norm_lower", J.Float c.norm_lower);
      ("closed_form", J.Float c.closed_form);
      ("activations", J.Int c.activations);
      ("iterations", J.Int c.iterations);
      ("converged", J.Bool c.converged);
    ]
