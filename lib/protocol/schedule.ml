module Digraph = Gossip_topology.Digraph
module Implicit = Gossip_topology.Implicit

type run = {
  first : int;
  count : int;
  stride : int;
  len : int;
  step : int;
  offset : int;
}

type t = {
  name : string;
  n : int;
  mode : Protocol.mode;
  period : int;
  sender : int -> int -> int;
      (* [sender round] does the round's work once and returns the
         receiver -> sender function *)
  nomination : (int * (int -> int -> int)) option;
      (* (pairings, candidate): set by [proposal] only *)
  pairing : run array array option;
      (* each pairing's runs of pairs: set by the structured generators
         only *)
  tables : int array array option;
      (* one receiver-indexed sender table per period round: set by
         [of_systolic], [tabulate] and [without_arcs] only *)
}

let make ~name ~n ~mode ~period ~sender =
  if n < 0 then invalid_arg "Schedule.make: negative vertex count";
  if period < 1 then invalid_arg "Schedule.make: period must be >= 1";
  { name; n; mode; period; sender; nomination = None; pairing = None;
    tables = None }

let name t = t.name
let n_vertices t = t.n
let mode t = t.mode
let period t = t.period
let nomination t = t.nomination
let pairing t = t.pairing
let tables t = t.tables

let sender t round =
  if round < 0 then invalid_arg "Schedule.sender: negative round";
  t.sender round

(* --- tabled schedules: one period of receiver-indexed sender tables -- *)

let of_tables ~name ~n ~mode tables =
  let s = Array.length tables in
  {
    name;
    n;
    mode;
    period = s;
    sender =
      (fun r ->
        let snd = tables.(r mod s) in
        fun v -> snd.(v));
    nomination = None;
    pairing = None;
    tables = Some tables;
  }

let tabulate t =
  match t.tables with
  | Some _ -> t
  | None ->
      of_tables ~name:t.name ~n:t.n ~mode:t.mode
        (Array.init t.period (fun r ->
             let sender = t.sender r in
             let snd = Array.make (max 1 t.n) (-1) in
             for v = 0 to t.n - 1 do
               snd.(v) <- sender v
             done;
             snd))

let without_arcs t dead =
  let t = tabulate t in
  let base = Option.get t.tables in
  let tables = Array.copy base in
  List.iter
    (fun (u, v) ->
      if u >= 0 && v >= 0 && v < t.n then
        Array.iteri
          (fun i snd ->
            if snd.(v) = u then begin
              (* copy a round's table the first time it changes; the
                 rounds left alone stay shared with [t] *)
              let snd = if snd == base.(i) then Array.copy snd else snd in
              snd.(v) <- -1;
              tables.(i) <- snd
            end)
          tables)
    dead;
  of_tables ~name:t.name ~n:t.n ~mode:t.mode tables

(* --- the materialized protocols as one instance ---------------------- *)

let of_systolic sys =
  let g = Systolic.graph sys in
  let n = Digraph.n_vertices g in
  (* receiver-indexed sender tables, one per period round: a round is a
     matching, so every receiver has exactly one sender *)
  of_tables ~name:(Digraph.name g) ~n ~mode:(Systolic.mode sys)
    (Array.init (Systolic.period sys) (fun i ->
         let snd = Array.make (max 1 n) (-1) in
         List.iter (fun (x, y) -> snd.(y) <- x) (Systolic.period_round sys i);
         snd))

(* --- bridging back to the materialized world (small n only) ---------- *)

let round_arcs t i =
  let sender = t.sender i in
  let arcs = ref [] in
  for v = t.n - 1 downto 0 do
    let x = sender v in
    if x >= 0 then arcs := (x, v) :: !arcs
  done;
  !arcs

let to_systolic t g =
  if Digraph.n_vertices g <> t.n then
    invalid_arg "Schedule.to_systolic: vertex count mismatch";
  Systolic.make g t.mode (List.init t.period (round_arcs t))

(* --- faults on the arc stream ---------------------------------------- *)

let with_drops t ~drop =
  {
    t with
    name = t.name ^ "+drops";
    nomination = None;
    pairing = None;
    tables = None;
    sender =
      (fun r ->
        let sender = t.sender r in
        fun v ->
          let x = sender v in
          if x < 0 || drop ~round:r ~u:x ~v then -1 else x);
  }

(* --- structured periodic matchings ----------------------------------- *)

(* Direction-split wrapper: an exchange pairing becomes a half-duplex
   schedule of twice the period — lower endpoint sends on even rounds,
   higher on odd.  [pairing t v] is the partner of [v] in pairing [t]
   (or -1), and must be an involution: pairing t (pairing t v) = v.
   The round's pairing index and phase are settled once, when the round
   is staged; [pairing t] is applied once per round too, so a pairing
   written [fun t -> ... fun v -> ...] stages its own per-round work. *)
let of_pairing ~name ~n ~pairings ~full_duplex pairing =
  if full_duplex then
    make ~name ~n ~mode:Protocol.Full_duplex ~period:pairings
      ~sender:(fun r -> pairing (r mod pairings))
  else
    make ~name ~n ~mode:Protocol.Half_duplex
      ~period:(2 * pairings)
      ~sender:(fun r ->
        let r = r mod (2 * pairings) in
        let partner = pairing (r / 2) in
        if r mod 2 = 0 then fun v ->
          let p = partner v in
          if p >= 0 && p < v then p else -1
        else fun v ->
          let p = partner v in
          if p > v then p else -1)

(* A structured generator's schedule: [partner] serves [sender], and
   [runs.(p)] names the same pairs of pairing [p] for the chunked
   engine, which walks them with no closure call per vertex. *)
let structured ~name ~n ~full_duplex runs partner =
  {
    (of_pairing ~name ~n ~pairings:(Array.length runs) ~full_duplex partner)
    with
    pairing = Some runs;
  }

(* The pairs [(v, v + offset)], [v = first + i·stride + j·step] for
   [i < count] and [j < len].  The loop with the smaller step goes
   inside, and a column of single pairs ([len = 1]) becomes one row, so
   the generators' passes walk the state in ascending order, in rows as
   long as the layout allows. *)
let run ~first ~count ~stride ~len ~step ~offset =
  if len = 1 || (count > 1 && stride < step) then
    { first; count = len; stride = step; len = count; step = stride; offset }
  else { first; count; stride; len; step; offset }

(* Proper coloring of the cycle on [len] vertices: edge j joins j and
   j+1 mod len; colors alternate, with the closing edge taking a third
   color when [len] is odd. *)
let cycle_colors len = if len mod 2 = 0 then 2 else 3

let cycle_edge_color len j = if j = len - 1 && len land 1 = 1 then 2 else j land 1

(* [x]'s two edges are [x] and [x - 1] (mod len); on [0 <= x < len] the
   neighbours are stepped to with a compare and a wrap, not a division *)
let cycle_partner len color x =
  if cycle_edge_color len x = color then if x = len - 1 then 0 else x + 1
  else
    let prev = if x = 0 then len - 1 else x - 1 in
    if cycle_edge_color len prev = color then prev else -1

(* The runs of [cycle_partner]'s coloring, one array per color, on
   [count] cycles of [len] vertices, cycle [i]'s vertex [c] at
   [base + i·stride + c·scale]: edges [c, c + 1] of one parity, then the
   closing edge [0, len - 1], alone (odd [len]) or with the odd edges. *)
let cycle_runs ~len ~base ~count ~stride ~scale =
  let edges first k =
    run ~first ~count ~stride ~len:k ~step:(2 * scale) ~offset:scale
  in
  let closing =
    run ~first:base ~count ~stride ~len:1 ~step:scale
      ~offset:((len - 1) * scale)
  in
  if len mod 2 = 0 then
    [|
      [| edges base (len / 2) |];
      [| edges (base + scale) ((len / 2) - 1); closing |];
    |]
  else
    [|
      [| edges base (len / 2) |];
      [| edges (base + scale) (len / 2) |];
      [| closing |];
    |]

let hypercube_sweep ~dim ~full_duplex =
  if dim < 1 then invalid_arg "Schedule.hypercube_sweep: dim must be >= 1";
  let n = 1 lsl dim in
  structured
    ~name:(Printf.sprintf "Q(%d) sweep" dim)
    ~n ~full_duplex
    (* pairing t: v with bit t clear, v = i·2^(t+1) + j, and v + 2^t *)
    (Array.init dim (fun t ->
         let m = 1 lsl t in
         [| run ~first:0 ~count:(n / (2 * m)) ~stride:(2 * m) ~len:m ~step:1
              ~offset:m |]))
    (fun t ->
      let m = 1 lsl t in
      fun v -> v lxor m)

let cycle_alternating ~n ~full_duplex =
  if n < 3 then invalid_arg "Schedule.cycle_alternating: n must be >= 3";
  structured
    ~name:(Printf.sprintf "C(%d) alternating" n)
    ~n ~full_duplex
    (cycle_runs ~len:n ~base:0 ~count:1 ~stride:0 ~scale:1)
    (fun t v -> cycle_partner n t v)

let torus_colored ~rows ~cols ~full_duplex =
  if rows < 3 || cols < 3 then
    invalid_arg "Schedule.torus_colored: sides must be >= 3";
  let hc = cycle_colors cols in
  structured
    ~name:(Printf.sprintf "Torus(%dx%d) colored" rows cols)
    ~n:(rows * cols) ~full_duplex
    (Array.append
       (cycle_runs ~len:cols ~base:0 ~count:rows ~stride:cols ~scale:1)
       (cycle_runs ~len:rows ~base:0 ~count:cols ~stride:1 ~scale:cols))
    (fun t v ->
      let r = v / cols in
      let c = v - (r * cols) in
      if t < hc then
        let c' = cycle_partner cols t c in
        if c' < 0 then -1 else (r * cols) + c'
      else
        let r' = cycle_partner rows (t - hc) r in
        if r' < 0 then -1 else (r' * cols) + c)

let ccc_colored ~dim ~full_duplex =
  if dim < 3 then invalid_arg "Schedule.ccc_colored: dim must be >= 3";
  let cc = cycle_colors dim in
  structured
    ~name:(Printf.sprintf "CCC(%d) colored" dim)
    ~n:(dim * (1 lsl dim))
    ~full_duplex
    (Array.append
       (cycle_runs ~len:dim ~base:0 ~count:(1 lsl dim) ~stride:dim ~scale:1)
       (* rung i: (w, i) with bit i of w clear, w = k·2^(i+1) + j, and
          (w + 2^i, i) *)
       [|
         Array.init dim (fun i ->
             let m = 1 lsl i in
             run ~first:i ~count:(1 lsl (dim - i - 1)) ~stride:(2 * m * dim)
               ~len:m ~step:dim ~offset:(m * dim));
       |])
    (fun t v ->
      let w = v / dim in
      let i = v - (w * dim) in
      if t < cc then
        let i' = cycle_partner dim t i in
        if i' < 0 then -1 else (w * dim) + i'
      else (w lxor (1 lsl i)) * dim + i)

(* --- seeded mutual-proposal matchings over any implicit topology ----- *)

(* Deterministic avalanche mix of (seed, round, vertex) — no state, safe
   to evaluate from any worker domain.  [base] is the round's share
   [seed + r * 0x9E3779B97F4A7C], staged once per pairing; integer
   addition wraps, so it is associative and splitting the sum there
   changes no hash. *)
let[@inline] mix base v =
  let h = base + (v * 0xBF58476D1CE4E5) in
  let h = h lxor (h lsr 21) in
  let h = h * 0xFF51AFD7ED558C in
  let h = h lxor (h lsr 17) in
  let h = h * 0xC4CEB9FE1A85EC in
  (h lxor (h lsr 26)) land max_int

(* a raw slot value [u] of [v] as a nominee: self- and out-of-range
   slots idle *)
let[@inline] nominee n v u = if u = v || u < 0 || u >= n then -1 else u

let proposal imp ~period ~seed ~full_duplex =
  if period < 1 then invalid_arg "Schedule.proposal: period must be >= 1";
  let n = Implicit.n_vertices imp in
  let slots = Implicit.slots imp in
  (* in range by construction: [v < n], and the hash is non-negative and
     reduced below [slots] *)
  let slot = Implicit.unchecked_slot imp in
  (* Every vertex nominates one raw candidate slot per pairing; an
     exchange happens exactly when two nominations are mutual.  Each
     vertex has at most one mutual partner, so the pairing is a matching
     by construction.  [candidate t] stages pairing [t]: the hash's round
     share is computed once, and the hash is reduced to a slot by a mask
     when [slots] is a power of two (every binary de Bruijn and Kautz
     graph), which picks the same slot as [mod slots] on a non-negative
     hash. *)
  let candidate =
    if slots land (slots - 1) = 0 then
      let mask = slots - 1 in
      fun t ->
        let base = seed + (t * 0x9E3779B97F4A7C) in
        fun v -> nominee n v (slot v (mix base v land mask))
    else fun t ->
      let base = seed + (t * 0x9E3779B97F4A7C) in
      fun v -> nominee n v (slot v (mix base v mod slots))
  in
  let pairing t =
    let candidate = candidate t in
    fun v ->
      let u = candidate v in
      if u >= 0 && candidate u = v then u else -1
  in
  let sched =
    of_pairing
      ~name:(Printf.sprintf "%s proposal(s=%d,seed=%d)" (Implicit.name imp)
               period seed)
      ~n ~pairings:period ~full_duplex pairing
  in
  { sched with nomination = Some (period, candidate) }

(* --- family resolution ------------------------------------------------ *)

let of_family ~family ~n ~degree ?(period = 64) ?(seed = 1) ~full_duplex () =
  match Implicit.of_family ~family ~n ~degree with
  | Error _ as e -> e
  | Ok _ when period < 1 -> Error "period must be >= 1"
  | Ok imp -> (
      let actual = Implicit.n_vertices imp in
      match family with
      | "hypercube" ->
          let dim =
            let rec go d = if 1 lsl d >= actual then d else go (d + 1) in
            go 1
          in
          Ok (imp, hypercube_sweep ~dim ~full_duplex)
      | "cycle" -> Ok (imp, cycle_alternating ~n:actual ~full_duplex)
      | "torus" ->
          let side = int_of_float (sqrt (float_of_int actual) +. 0.5) in
          Ok (imp, torus_colored ~rows:side ~cols:side ~full_duplex)
      | "ccc" ->
          let dim =
            let rec go d = if d * (1 lsl d) >= actual then d else go (d + 1) in
            go 3
          in
          Ok (imp, ccc_colored ~dim ~full_duplex)
      | _ -> Ok (imp, proposal imp ~period ~seed ~full_duplex))
