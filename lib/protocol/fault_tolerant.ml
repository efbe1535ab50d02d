type report = {
  transform : string;
  k : int;
  base_period : int;
  period : int;
  base_calls : int;
  calls : int;
  added_rounds : int;
  added_calls : int;
}

(* The arcs of one period, counted from each round's staged sender
   without listing them: a 2^20-vertex schedule's arc lists would be
   hundreds of millions of words per period. *)
let calls_per_period t =
  let total = ref 0 in
  for i = 0 to Schedule.period t - 1 do
    let sender = Schedule.sender t i in
    for v = 0 to Schedule.n_vertices t - 1 do
      if sender v >= 0 then incr total
    done
  done;
  !total

let report ~transform ~k ~base t =
  let base_period = Schedule.period base and period = Schedule.period t in
  let base_calls = calls_per_period base and calls = calls_per_period t in
  {
    transform;
    k;
    base_period;
    period;
    base_calls;
    calls;
    added_rounds = period - base_period;
    added_calls = calls - base_calls;
  }

let concat a b =
  let n = Schedule.n_vertices a in
  if Schedule.n_vertices b <> n then
    invalid_arg "Fault_tolerant.concat: vertex count mismatch";
  let sa = Schedule.period a and sb = Schedule.period b in
  let s = sa + sb in
  Schedule.make
    ~name:(Schedule.name a ^ "+" ^ Schedule.name b)
    ~n ~mode:(Schedule.mode a) ~period:s
    ~sender:(fun r ->
      let i = r mod s in
      if i < sa then Schedule.sender a i else Schedule.sender b (i - sa))

let replicate t ~k =
  if k < 0 then invalid_arg "Fault_tolerant.replicate: k must be >= 0";
  let s = Schedule.period t in
  let s' = s * (k + 1) in
  let hardened =
    Schedule.make
      ~name:(Printf.sprintf "%s rep%d" (Schedule.name t) (k + 1))
      ~n:(Schedule.n_vertices t) ~mode:(Schedule.mode t) ~period:s'
      ~sender:(fun r -> Schedule.sender t (r mod s' / (k + 1)))
  in
  (hardened, report ~transform:"replicate" ~k ~base:t hardened)

(* The Chord-style walk: doubling strides 2, 4, 8, ... capped at n/2
   (stride o and n - o generate the same circulant graph), then the
   smallest unused strides fill the remainder on rings too short for k
   doublings. *)
let strides ~n ~k =
  if k < 0 then invalid_arg "Fault_tolerant.strides: k must be >= 0";
  let hi = n / 2 in
  if hi < 2 then []
  else begin
    let seen = Hashtbl.create 8 in
    let out = ref [] and count = ref 0 in
    let add o =
      if !count < k && not (Hashtbl.mem seen o) then begin
        Hashtbl.add seen o ();
        out := o :: !out;
        incr count
      end
    in
    let j = ref 1 in
    while !count < k && !j < 30 && 1 lsl !j <= hi do
      add (1 lsl !j);
      incr j
    done;
    let o = ref 2 in
    while !count < k && !o <= hi do
      add !o;
      incr o
    done;
    List.rev !out
  end

(* Extended gcd: returns (g, x) with x·a ≡ g (mod b), used to locate a
   vertex's position along its stride cycle. *)
let egcd a b =
  let rec go r0 r1 s0 s1 =
    if r1 = 0 then (r0, s0)
    else
      let q = r0 / r1 in
      go r1 (r0 - (q * r1)) s1 (s0 - (q * s1))
  in
  go a b 1 0

let modinv a m =
  let _, x = egcd a m in
  ((x mod m) + m) mod m

(* Pairing along the stride-[off] circulant: the arcs {v, v + off} form
   gcd(n, off) disjoint cycles of length n / gcd; color each with the
   cycle coloring.  Position of v on its cycle: v = c + p·off (mod n)
   with c = v mod g, so p = ((v - c) / g) · (off / g)⁻¹  (mod n/g). *)
let stride_pairing ~n ~off =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = gcd n off in
  let len = n / g in
  if len = 2 then
    (* the antipodal stride: a perfect matching, one color *)
    ((fun t v -> if t = 0 then (v + off) mod n else -1), 1)
  else begin
    let inv = modinv (off / g) len in
    let pairing t v =
      let c = v mod g in
      let p = (v - c) / g * inv mod len in
      let p' = Schedule.cycle_partner len t p in
      if p' < 0 then -1 else (c + (p' * off)) mod n
    in
    (pairing, Schedule.cycle_colors len)
  end

let augment t ~k =
  if k < 0 then invalid_arg "Fault_tolerant.augment: k must be >= 0";
  let n = Schedule.n_vertices t in
  if n < 5 then invalid_arg "Fault_tolerant.augment: n must be >= 5";
  let full_duplex = Schedule.mode t = Protocol.Full_duplex in
  let chords =
    List.map
      (fun off ->
        let pairing, colors = stride_pairing ~n ~off in
        Schedule.of_pairing
          ~name:(Printf.sprintf "chord%d" off)
          ~n ~pairings:colors ~full_duplex pairing)
      (strides ~n ~k)
  in
  let hardened =
    match chords with
    | [] -> t
    | cs ->
        let joined = List.fold_left concat t cs in
        Schedule.make
          ~name:(Printf.sprintf "%s aug%d" (Schedule.name t) k)
          ~n ~mode:(Schedule.mode t) ~period:(Schedule.period joined)
          ~sender:(Schedule.sender joined)
  in
  (hardened, report ~transform:"augment" ~k ~base:t hardened)

let harden t ~transform ~k =
  match transform with
  | "none" ->
      let z = calls_per_period t and s = Schedule.period t in
      Ok
        ( t,
          {
            transform = "none";
            k;
            base_period = s;
            period = s;
            base_calls = z;
            calls = z;
            added_rounds = 0;
            added_calls = 0;
          } )
  | "replicate" -> (
      try Ok (replicate t ~k) with Invalid_argument msg -> Error msg)
  | "augment" -> (
      try Ok (augment t ~k) with Invalid_argument msg -> Error msg)
  | other ->
      Error
        (Printf.sprintf
           "unknown transform %S (expected none, replicate or augment)" other)

let report_to_json r =
  let module J = Gossip_util.Json in
  J.Obj
    [
      ("transform", J.Str r.transform);
      ("k", J.Int r.k);
      ("base_period", J.Int r.base_period);
      ("period", J.Int r.period);
      ("base_calls", J.Int r.base_calls);
      ("calls", J.Int r.calls);
      ("added_rounds", J.Int r.added_rounds);
      ("added_calls", J.Int r.added_calls);
    ]
