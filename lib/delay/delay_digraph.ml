module Protocol = Gossip_protocol.Protocol
module Systolic = Gossip_protocol.Systolic

type activation = { src : int; dst : int; round : int }

(* Only the activations and the per-vertex lists are stored: the delay
   arcs out of (x, y, i) are the activations of [by_src.(y)] whose round
   j has 1 <= j - i < window, so they are enumerated on demand. *)
type t = {
  graph : Gossip_topology.Digraph.t;
  window : int;
  protocol_length : int;
  activations : activation array;
  by_dst : int array array; (* per network vertex, sorted by round *)
  by_src : int array array;
  n_delay_arcs : int;
}

(* The position in [ids] (sorted by round) of the first activation whose
   round exceeds [round]. *)
let first_after activations ids round =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if activations.(ids.(mid)).round <= round then lo := mid + 1 else hi := mid
  done;
  !lo

(* [f head delay] for every delay arc out of activation [a], in round
   order: the activations leaving [a.dst] at rounds a.round + 1 up to
   a.round + window - 1. *)
let iter_succs activations by_src ~window a f =
  let ids = by_src.(a.dst) in
  let n = Array.length ids in
  let rec go p =
    if p < n then begin
      let head = ids.(p) in
      let delay = activations.(head).round - a.round in
      if delay < window then begin
        f head delay;
        go (p + 1)
      end
    end
  in
  go (first_after activations ids a.round)

let build p ~window =
  if window < 2 then invalid_arg "Delay_digraph.build: window must be >= 2";
  let g = Protocol.graph p in
  let n = Gossip_topology.Digraph.n_vertices g in
  let t = Protocol.length p in
  let acts = ref [] in
  for i = t - 1 downto 0 do
    List.iter
      (fun (x, y) -> acts := { src = x; dst = y; round = i } :: !acts)
      (Protocol.round p i)
  done;
  let activations = Array.of_list !acts in
  let by_dst_l = Array.make n [] and by_src_l = Array.make n [] in
  (* activations are sorted by round already; collect in reverse to keep
     the by-round order after the final List.rev *)
  for id = Array.length activations - 1 downto 0 do
    let a = activations.(id) in
    by_dst_l.(a.dst) <- id :: by_dst_l.(a.dst);
    by_src_l.(a.src) <- id :: by_src_l.(a.src)
  done;
  let by_dst = Array.map Array.of_list by_dst_l in
  let by_src = Array.map Array.of_list by_src_l in
  let n_delay_arcs = ref 0 in
  Array.iter
    (fun a ->
      iter_succs activations by_src ~window a (fun _ _ -> incr n_delay_arcs))
    activations;
  {
    graph = g;
    window;
    protocol_length = t;
    activations;
    by_dst;
    by_src;
    n_delay_arcs = !n_delay_arcs;
  }

let of_systolic p ~length =
  (* clamp the window to 2 for period-1 protocols: the extra delay-1 arcs
     (full-duplex bounce-backs) only enlarge the delay digraph, which
     weakens but never unsounds the certificates built on it *)
  build (Systolic.expand p ~length) ~window:(max 2 (Systolic.period p))

let n_activations dg = Array.length dg.activations

let activation dg k = dg.activations.(k)

let find dg ~src ~dst ~round =
  if src < 0 || src >= Array.length dg.by_src then None
  else
    Array.find_opt
      (fun k ->
        let a = dg.activations.(k) in
        a.dst = dst && a.round = round)
      dg.by_src.(src)

let n_delay_arcs dg = dg.n_delay_arcs

let iter_arcs f dg =
  Array.iteri
    (fun tail a ->
      iter_succs dg.activations dg.by_src ~window:dg.window a (fun head delay ->
          f ~tail ~head ~delay))
    dg.activations

let window dg = dg.window
let protocol_length dg = dg.protocol_length
let graph dg = dg.graph

let activations_in dg x = dg.by_dst.(x)
let activations_out dg x = dg.by_src.(x)

(* The activations determine the whole delay digraph (its arcs follow
   from the window), so hashing them plus the dimensions is a faithful
   structural digest.  O(activations) per call — negligible next to any
   norm solve over the same digraph. *)
let fingerprint dg =
  let h = ref 0x7f4a7c15 in
  let mix x = h := (!h * 1_000_003) lxor x in
  mix dg.window;
  mix dg.protocol_length;
  let m = n_activations dg in
  mix m;
  for k = 0 to m - 1 do
    let a = dg.activations.(k) in
    mix a.src;
    mix a.dst;
    mix a.round
  done;
  Printf.sprintf "%s|n%d|dg%d@%d|%x"
    (Gossip_topology.Digraph.name dg.graph)
    (Gossip_topology.Digraph.n_vertices dg.graph)
    dg.window dg.protocol_length (!h land max_int)

let distances_from dg k =
  let m = n_activations dg in
  let dist = Array.make m max_int in
  let queue = Queue.create () in
  dist.(k) <- 0;
  Queue.add k queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter_succs dg.activations dg.by_src ~window:dg.window dg.activations.(u)
      (fun v delay ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + delay;
          Queue.add v queue
        end)
  done;
  dist

let to_dot dg =
  let g = graph dg in
  let vertex_label k =
    let a = activation dg k in
    Printf.sprintf "%s->%s @%d"
      (Gossip_topology.Digraph.label g a.src)
      (Gossip_topology.Digraph.label g a.dst)
      (a.round + 1)
  in
  let arcs = ref [] in
  iter_arcs
    (fun ~tail ~head ~delay ->
      arcs := (tail, head, Printf.sprintf "label=\"%d\"" delay) :: !arcs)
    dg;
  Gossip_topology.Dot.of_arcs ~name:"delay digraph" ~directed:true
    ~vertex_label ~n:(n_activations dg) (List.rev !arcs)
