module Dense = Gossip_linalg.Dense
module Sparse = Gossip_linalg.Sparse
module Spectral = Gossip_linalg.Spectral
module Poly = Gossip_linalg.Poly

let check_lambda lambda =
  if not (lambda > 0.0 && lambda < 1.0) then
    invalid_arg "Delay_matrix: lambda must be in (0, 1)"

let sparse dg lambda =
  check_lambda lambda;
  let m = Delay_digraph.n_activations dg in
  let entries = ref [] in
  Delay_digraph.iter_arcs
    (fun ~tail ~head ~delay ->
      entries := (tail, head, lambda ** float_of_int delay) :: !entries)
    dg;
  Sparse.of_triplets ~rows:m ~cols:m !entries

(* The rounds of vertex [x]'s in- and out-activations, both shifted by its
   first in-round.  A block entry is λ^(j-i) for the round difference of
   its activations, so vertices with equal patterns have equal blocks,
   entry for entry. *)
let round_pattern dg x =
  let rounds ids =
    Array.map (fun k -> (Delay_digraph.activation dg k).Delay_digraph.round) ids
  in
  let ins = rounds (Delay_digraph.activations_in dg x) in
  let outs = rounds (Delay_digraph.activations_out dg x) in
  let r0 = if Array.length ins > 0 then ins.(0) else 0 in
  let shift = Array.map (fun r -> r - r0) in
  (shift ins, shift outs)

let block_of_pattern ~window lambda (ins, outs) =
  Dense.init (Array.length ins) (Array.length outs) (fun i j ->
      let delay = outs.(j) - ins.(i) in
      if delay >= 1 && delay < window then lambda ** float_of_int delay else 0.0)

let vertex_block dg lambda x =
  check_lambda lambda;
  block_of_pattern ~window:(Delay_digraph.window dg) lambda (round_pattern dg x)

let norm dg lambda =
  check_lambda lambda;
  Spectral.norm2_sparse (sparse dg lambda)

(* One pattern per class of equal blocks, in order of first vertex. *)
let distinct_patterns dg =
  let n = Gossip_topology.Digraph.n_vertices (Delay_digraph.graph dg) in
  let seen = Hashtbl.create n in
  let distinct = ref [] in
  for x = 0 to n - 1 do
    let p = round_pattern dg x in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      distinct := p :: !distinct
    end
  done;
  Array.of_list (List.rev !distinct)

let norm_blockwise ?domains dg lambda =
  check_lambda lambda;
  Gossip_util.Instrument.span "delay.norm-blockwise" (fun () ->
      let window = Delay_digraph.window dg in
      let patterns = distinct_patterns dg in
      Gossip_util.Instrument.add "delay.blocks"
        (Gossip_topology.Digraph.n_vertices (Delay_digraph.graph dg));
      Gossip_util.Instrument.add "delay.blocks.distinct"
        (Array.length patterns);
      let block_bracket k =
        Spectral.norm2_bracket (block_of_pattern ~window lambda patterns.(k))
      in
      (* Fused per-worker reduction over the distinct blocks: every field
         of [bracket_max] is exact, so the result is the per-vertex
         bracket bit for bit at any domain count. *)
      let b =
        Gossip_util.Parallel.reduce ?domains (Array.length patterns)
          block_bracket Spectral.bracket_max Spectral.zero_bracket
      in
      Gossip_util.Instrument.add "delay.iterations" b.Spectral.iterations;
      Gossip_util.Instrument.add "delay.unconverged"
        (if b.Spectral.converged then 0 else 1);
      b)

let norm_lower_bounds dg lambdas =
  List.iter check_lambda lambdas;
  let window = Delay_digraph.window dg in
  let patterns = distinct_patterns dg in
  let pw = Array.make window 0.0 in
  Array.of_list
    (List.map
       (fun lambda ->
         for d = 1 to window - 1 do
           pw.(d) <- lambda ** float_of_int d
         done;
         let best = ref 0.0 in
         (* The 2-norm of one row ([sign = 1], in-round [r], entries at
            the out-rounds [others]) or one column ([sign = -1], out-round
            [r], entries at the in-rounds [others]).  Its [k] squares,
            their sum and the square root err by at most (k + 2)·ε/4,
            relative, so deflating by (k + 2)·ε keeps it below the
            line's exact norm. *)
         let line sign r others =
           let sq = ref 0.0 and k = ref 0 in
           for p = 0 to Array.length others - 1 do
             let d = sign * (others.(p) - r) in
             if d >= 1 && d < window then begin
               sq := !sq +. (pw.(d) *. pw.(d));
               incr k
             end
           done;
           let norm =
             sqrt !sq *. (1.0 -. (float_of_int (!k + 2) *. epsilon_float))
           in
           if norm > !best then best := norm
         in
         Array.iter
           (fun (ins, outs) ->
             Array.iter (fun i -> line 1 i outs) ins;
             Array.iter (fun j -> line (-1) j ins) outs)
           patterns;
         !best)
       lambdas)

let closed_form_bound ~mode ~window lambda =
  check_lambda lambda;
  if window < 2 then invalid_arg "Delay_matrix.closed_form_bound: window < 2";
  match mode with
  | Gossip_protocol.Protocol.Directed | Gossip_protocol.Protocol.Half_duplex ->
      let hi = (window + 1) / 2 and lo = window / 2 in
      lambda
      *. sqrt (Poly.delay_eval hi lambda)
      *. sqrt (Poly.delay_eval lo lambda)
  | Gossip_protocol.Protocol.Full_duplex -> Poly.geometric lambda (window - 1)
