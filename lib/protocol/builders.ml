module Digraph = Gossip_topology.Digraph
module Families = Gossip_topology.Families
module Coloring = Gossip_topology.Coloring

let forward classes = List.map (fun cls -> List.map (fun (u, v) -> (u, v)) cls) classes

let backward classes = List.map (fun cls -> List.map (fun (u, v) -> (v, u)) cls) classes

let edge_coloring_half_duplex g =
  let classes = Coloring.best g in
  Systolic.make g Protocol.Half_duplex (forward classes @ backward classes)

let edge_coloring_full_duplex g =
  let classes = Coloring.best g in
  Systolic.make g Protocol.Full_duplex (forward classes)

let hypercube_rounds ~dim ~full_duplex =
  let rounds = ref [] in
  for k = dim - 1 downto 0 do
    let bit = 1 lsl k in
    let lows = List.init (1 lsl dim) (fun v -> v) in
    let pairs = List.filter (fun v -> v land bit = 0) lows in
    let fwd = List.map (fun v -> (v, v lxor bit)) pairs in
    if full_duplex then rounds := fwd :: !rounds
    else begin
      let bwd = List.map (fun v -> (v lxor bit, v)) pairs in
      rounds := fwd :: bwd :: !rounds
    end
  done;
  !rounds

let hypercube_sweep ~dim ~full_duplex =
  let g = Families.hypercube dim in
  let mode = if full_duplex then Protocol.Full_duplex else Protocol.Half_duplex in
  Systolic.make g mode (hypercube_rounds ~dim ~full_duplex)

let complete_doubling ~dim ~full_duplex =
  let g = Families.complete (1 lsl dim) in
  let mode = if full_duplex then Protocol.Full_duplex else Protocol.Half_duplex in
  Systolic.make g mode (hypercube_rounds ~dim ~full_duplex)

let path_wave n =
  let g = Families.path n in
  let edges parity = List.filter (fun i -> i mod 2 = parity) (List.init (n - 1) Fun.id) in
  let fwd parity = List.map (fun i -> (i, i + 1)) (edges parity) in
  let bwd parity = List.map (fun i -> (i + 1, i)) (edges parity) in
  Systolic.make g Protocol.Half_duplex [ fwd 0; fwd 1; bwd 0; bwd 1 ]

let cycle_rotate n =
  if n mod 2 <> 0 then invalid_arg "Builders.cycle_rotate: n must be even";
  let g = Families.cycle n in
  let matching parity =
    List.filter_map
      (fun i -> if i mod 2 = parity then Some (i, (i + 1) mod n) else None)
      (List.init n Fun.id)
  in
  let rev = List.map (fun (u, v) -> (v, u)) in
  let m0 = matching 0 and m1 = matching 1 in
  Systolic.make g Protocol.Half_duplex [ m0; m1; rev m0; rev m1 ]

let random_round rng g mode density =
  let busy = Hashtbl.create 64 in
  let free v = not (Hashtbl.mem busy v) in
  let take u v =
    Hashtbl.replace busy u ();
    Hashtbl.replace busy v ()
  in
  match mode with
  | Protocol.Full_duplex ->
      let edges = Array.of_list (Digraph.undirected_edges g) in
      Gossip_util.Prng.shuffle rng edges;
      let budget =
        int_of_float (ceil (density *. float_of_int (Array.length edges)))
      in
      let picked = ref [] and count = ref 0 in
      Array.iter
        (fun (u, v) ->
          if !count < budget && free u && free v then begin
            take u v;
            picked := (u, v) :: !picked;
            incr count
          end)
        edges;
      !picked
  | Protocol.Directed | Protocol.Half_duplex ->
      let arcs = Array.of_list (Digraph.arcs g) in
      Gossip_util.Prng.shuffle rng arcs;
      let budget =
        int_of_float (ceil (density *. float_of_int (Array.length arcs) /. 2.0))
      in
      let picked = ref [] and count = ref 0 in
      Array.iter
        (fun (u, v) ->
          if !count < budget && free u && free v then begin
            take u v;
            picked := (u, v) :: !picked;
            incr count
          end)
        arcs;
      !picked

let random_systolic g mode ~period ~seed ~density =
  if period < 1 then invalid_arg "Builders.random_systolic: period must be >= 1";
  if density < 0.0 || density > 1.0 then
    invalid_arg "Builders.random_systolic: density must be in [0, 1]";
  let rng = Gossip_util.Prng.create seed in
  let rounds = List.init period (fun _ -> random_round rng g mode density) in
  Systolic.make g mode rounds

let tree_updown ~d ~depth =
  let g = Families.complete_dary_tree d depth in
  let n = Digraph.n_vertices g in
  (* vertices are level-ordered: children of i are d·i + 1 .. d·i + d *)
  let level v =
    let rec go v acc = if v = 0 then acc else go ((v - 1) / d) (acc + 1) in
    go v 0
  in
  let class_edges k j =
    (* parent at level k, its j-th child (1-based j) *)
    List.filter_map
      (fun p ->
        if level p = k && (d * p) + j < n then Some (p, (d * p) + j) else None)
      (List.init n Fun.id)
  in
  let up = ref [] and down = ref [] in
  for k = depth - 1 downto 0 do
    for j = 1 to d do
      let edges = class_edges k j in
      if edges <> [] then begin
        up := List.map (fun (p, c) -> (c, p)) edges :: !up;
        down := List.map (fun (p, c) -> (p, c)) edges :: !down
      end
    done
  done;
  (* up sweeps deepest-first (they were pushed in k-descending order, so
     reverse the accumulated list), down sweeps shallowest-first *)
  Systolic.make g Protocol.Half_duplex (List.rev !up @ !down)

let grid_rowcol ~rows ~cols =
  let g = Families.grid rows cols in
  let idx r c = (r * cols) + c in
  let row_edges parity =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun c ->
            if c mod 2 = parity && c + 1 < cols then Some (idx r c, idx r (c + 1))
            else None)
          (List.init cols Fun.id))
      (List.init rows Fun.id)
  in
  let col_edges parity =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun r ->
            if r mod 2 = parity && r + 1 < rows then Some (idx r c, idx (r + 1) c)
            else None)
          (List.init rows Fun.id))
      (List.init cols Fun.id)
  in
  let rev = List.map (fun (u, v) -> (v, u)) in
  let re = row_edges 0 and ro = row_edges 1 in
  let ce = col_edges 0 and co = col_edges 1 in
  Systolic.make g Protocol.Half_duplex
    [ re; ro; rev re; rev ro; ce; co; rev ce; rev co ]

let knoedel_sweep ~delta ~n =
  let g = Gossip_topology.Extra_families.knoedel ~delta ~n in
  let half = n / 2 in
  let round k =
    List.init half (fun j -> (j, half + ((j + (1 lsl k) - 1) mod half)))
  in
  Systolic.make g Protocol.Full_duplex (List.init delta round)

let default_systolic g ~full_duplex =
  if Digraph.is_symmetric g then
    if full_duplex then edge_coloring_full_duplex g
    else edge_coloring_half_duplex g
  else random_systolic g Protocol.Directed ~period:8 ~seed:1 ~density:1.0
