(* The whispering rule of Section 3, literally: the reference the
   simulator is tested against.  At the start of every round each
   knowledge set is copied, then every active arc (x, y) unions x's copy
   into y, so no update made during a round is visible within it.  It
   shares no code with Simulate.Chunked, which writes exchanges in place
   and owns each one from its lower endpoint. *)

module Digraph = Gossip_topology.Digraph
module Systolic = Gossip_protocol.Systolic

let step know round =
  let start = Array.map Bitset.copy know in
  List.iter (fun (x, y) -> Bitset.union_into ~src:start.(x) ~dst:know.(y)) round

let coverage know =
  let n = Array.length know in
  let known = Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 know in
  float_of_int known /. float_of_int (n * n)

(* [run ?cap ~done_ sys] executes rounds of [sys] until [done_] holds,
   before the first round (which answers 0) or after one, or [cap]
   rounds ran (default 8·s·n + 64, the documented default of Engine):
   the completion round, if any, and the coverage after every executed
   round. *)
let run ?cap ~done_ sys =
  let n = Digraph.n_vertices (Systolic.graph sys) in
  let cap =
    match cap with Some c -> c | None -> (8 * Systolic.period sys * n) + 64
  in
  let know = Array.init n (fun v -> Bitset.singleton n v) in
  let rec go i curve =
    if done_ know then (Some i, List.rev curve)
    else if i >= cap then (None, List.rev curve)
    else begin
      step know (Systolic.period_round sys i);
      go (i + 1) (coverage know :: curve)
    end
  in
  go 0 []

let gossip ?cap sys = run ?cap ~done_:(Array.for_all Bitset.is_full) sys

let broadcast ?cap sys ~src =
  run ?cap ~done_:(Array.for_all (fun s -> Bitset.mem s src)) sys
