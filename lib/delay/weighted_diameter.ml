module Sparse = Gossip_linalg.Sparse
module Spectral = Gossip_linalg.Spectral

type t = { n : int; arcs : (int * int * int) array }

let make n arcs =
  if n < 0 then invalid_arg "Weighted_diameter.make: negative vertex count";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Weighted_diameter.make: vertex out of range";
      if u = v then invalid_arg "Weighted_diameter.make: self-loop";
      if w < 1 then invalid_arg "Weighted_diameter.make: weight must be >= 1";
      if Hashtbl.mem seen (u, v) then
        invalid_arg "Weighted_diameter.make: duplicate arc";
      Hashtbl.replace seen (u, v) ())
    arcs;
  { n; arcs = Array.of_list arcs }

let of_digraph ?(weight = 1) g =
  if weight < 1 then invalid_arg "Weighted_diameter.of_digraph: bad weight";
  let arcs = List.map (fun (u, v) -> (u, v, weight)) (Gossip_topology.Digraph.arcs g) in
  make (Gossip_topology.Digraph.n_vertices g) arcs

let n_vertices w = w.n
let n_arcs w = Array.length w.arcs

let matrix w lambda =
  if not (lambda > 0.0 && lambda < 1.0) then
    invalid_arg "Weighted_diameter.matrix: lambda must be in (0, 1)";
  Sparse.of_triplets ~rows:w.n ~cols:w.n
    (Array.to_list
       (Array.map (fun (u, v, wt) -> (u, v, lambda ** float_of_int wt)) w.arcs))

(* Dijkstra with a simple binary-heap-free O(n²+m) scan: fine for the
   sizes this module targets. *)
let dijkstra w src =
  let dist = Array.make w.n max_int in
  let visited = Array.make w.n false in
  let adj = Array.make w.n [] in
  Array.iter (fun (u, v, wt) -> adj.(u) <- (v, wt) :: adj.(u)) w.arcs;
  dist.(src) <- 0;
  for _ = 1 to w.n do
    let u = ref (-1) in
    for v = 0 to w.n - 1 do
      if (not visited.(v)) && dist.(v) < max_int
         && (!u = -1 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u >= 0 then begin
      visited.(!u) <- true;
      List.iter
        (fun (v, wt) ->
          if dist.(!u) + wt < dist.(v) then dist.(v) <- dist.(!u) + wt)
        adj.(!u)
    end
  done;
  dist

let diameter w =
  let best = ref 0 in
  (try
     for v = 0 to w.n - 1 do
       let dist = dijkstra w v in
       Array.iter
         (fun d ->
           if d = max_int then begin
             best := max_int;
             raise Exit
           end
           else if d > !best then best := d)
         dist
     done
   with Exit -> ());
  !best

let default_lambdas = List.init 18 (fun i -> 0.05 +. (0.05 *. float_of_int i))

let lower_bound ?(lambdas = default_lambdas) w =
  if w.n <= 1 then 0
  else begin
    let log2 = Gossip_util.Numeric.log2 in
    let best = ref 1 in
    List.iter
      (fun lambda ->
        if lambda > 0.0 && lambda < 1.0 then begin
          (* a larger ν only weakens the bound, so take the bracket's
             rigorous upper end, never an estimate from below *)
          let nu =
            (Spectral.norm2_bracket (Sparse.to_dense (matrix w lambda)))
              .Spectral.upper
          in
          if nu < 1.0 && nu > 0.0 then begin
            let bound =
              (log2 (float_of_int (w.n - 1)) -. log2 (nu /. (1.0 -. nu)))
              /. log2 (1.0 /. lambda)
            in
            let bound = int_of_float (ceil bound) in
            if bound > !best then best := bound
          end
        end)
      lambdas;
    !best
  end
