module Protocol = Gossip_protocol.Protocol
module Schedule = Gossip_protocol.Schedule
module Systolic = Gossip_protocol.Systolic

(* Every entry point is this one loop: rounds of [p] as a schedule on a
   fresh all-items chunked state, until [done_] holds (before the first
   round too, which answers 0) or [cap] rounds ran.  One domain: the
   engine serves worker domains and parallel loops that would otherwise
   spawn domains on every round. *)
let drive ?probe ~cap ~done_ p =
  let sched = Schedule.of_systolic p in
  let st = Chunked.create (Schedule.n_vertices sched) in
  let time = ref (if done_ st then Some 0 else None) in
  let i = ref 0 in
  while !time = None && !i < cap do
    Chunked.apply_round ~domains:1 st sched !i;
    incr i;
    (match probe with
    | Some f -> f ~round:!i ~coverage:(Chunked.coverage st)
    | None -> ());
    if done_ st then time := Some !i
  done;
  (st, !i, !time)

type outcome = {
  completed_at : int option;
  rounds_run : int;
  coverage : float;
}

let run_protocol p =
  let total = Protocol.length p in
  if total = 0 then
    let n = Gossip_topology.Digraph.n_vertices (Protocol.graph p) in
    let st = Chunked.create n in
    { completed_at = (if Chunked.complete st then Some 0 else None);
      rounds_run = 0; coverage = Chunked.coverage st }
  else
    let st, rounds_run, completed_at =
      drive ~cap:total ~done_:Chunked.complete (Systolic.of_protocol p)
    in
    { completed_at; rounds_run; coverage = Chunked.coverage st }

let default_cap p =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  (8 * Systolic.period p * n) + 64

let gossip_time ?probe ?cap p =
  let cap = match cap with Some c -> c | None -> default_cap p in
  let _, _, time = drive ?probe ~cap ~done_:Chunked.complete p in
  time

let broadcast_time ?probe ?cap p ~src =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  if src < 0 || src >= n then
    invalid_arg
      (Printf.sprintf "Engine.broadcast_time: src %d outside [0, %d)" src n);
  let cap = match cap with Some c -> c | None -> default_cap p in
  let everyone_knows st =
    let rec go v = v >= n || (Chunked.knows st v src && go (v + 1)) in
    go 0
  in
  let _, _, time = drive ?probe ~cap ~done_:everyone_knows p in
  time

type run = { time : int option; curve : float array }

let gossip_run ?cap p =
  let module Instrument = Gossip_util.Instrument in
  let module Json = Gossip_util.Json in
  let curve = ref [] in
  let streaming = Instrument.tracing () in
  let probe ~round ~coverage =
    curve := coverage :: !curve;
    if streaming then
      Instrument.event "engine.round"
        ~attrs:[ ("round", Json.Int round); ("coverage", Json.Float coverage) ]
  in
  let time =
    Instrument.span "simulate.gossip-run" (fun () -> gossip_time ~probe ?cap p)
  in
  { time; curve = Array.of_list (List.rev !curve) }

type message_costs = { transmissions : int; useful : int; rounds : int }

let message_complexity ?horizon p =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  let horizon = match horizon with Some h -> h | None -> default_cap p in
  let sched = Schedule.of_systolic p in
  let st = Chunked.create n in
  (* an activation is useful when, at the start of its round, the sender
     knows an item the receiver does not *)
  let teaches (x, y) =
    let rec go i =
      i < n && ((Chunked.knows st x i && not (Chunked.knows st y i)) || go (i + 1))
    in
    go 0
  in
  let transmissions = ref 0 and useful = ref 0 in
  let rounds = ref 0 in
  while !rounds < horizon && not (Chunked.complete st) do
    List.iter
      (fun arc ->
        incr transmissions;
        if teaches arc then incr useful)
      (Systolic.period_round p !rounds);
    Chunked.apply_round ~domains:1 st sched !rounds;
    incr rounds
  done;
  { transmissions = !transmissions; useful = !useful; rounds = !rounds }
