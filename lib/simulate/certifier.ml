module Schedule = Gossip_protocol.Schedule
module Protocol = Gossip_protocol.Protocol
module Parallel = Gossip_util.Parallel
module Prng = Gossip_util.Prng

type cert_mode = Exhaustive | Sampled

type counterexample = {
  cx_pattern : (int * int) list;
  cx_rounds_run : int;
  cx_coverage : float;
}

type verdict = {
  certified : bool;
  cert_mode : cert_mode;
  k : int;
  seed : int;
  budget : int;
  arcs : int;
  patterns_total : int;
  patterns_checked : int;
  fault_free_time : int option;
  cap : int;
  worst_time : int option;
  worst_pattern : (int * int) list;
  counterexample : counterexample option;
}

let period_arcs sched =
  let seen = Hashtbl.create 64 in
  for i = 0 to Schedule.period sched - 1 do
    List.iter
      (fun arc -> if not (Hashtbl.mem seen arc) then Hashtbl.add seen arc ())
      (Schedule.round_arcs sched i)
  done;
  let arcs = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort compare arcs;
  arcs

let fingerprint sched =
  let h = ref 0x51ed270b in
  let mix x = h := (!h * 1_000_003) lxor x in
  for i = 0 to Schedule.period sched - 1 do
    mix 0x2545f49;
    List.iter (fun (u, v) -> mix ((u * 65_599) + v + 1)) (Schedule.round_arcs sched i)
  done;
  Printf.sprintf "%s|%d|%s|s%d|%x" (Schedule.name sched)
    (Schedule.n_vertices sched)
    (Protocol.mode_to_string (Schedule.mode sched))
    (Schedule.period sched) (!h land max_int)

(* C(m, i) with saturation: pattern spaces overflow long before they can
   be enumerated, and a saturated total just means "sampled mode". *)
let saturation = max_int / 4

let binomial m i =
  let rec go acc j =
    if j > i then acc
    else if acc > saturation then saturation
    else go (acc * (m - j + 1) / j) (j + 1)
  in
  if i < 0 || i > m then 0 else go 1 1

let space_size m k =
  let rec go acc i =
    if i > k then acc
    else
      let acc = acc + binomial m i in
      if acc > saturation then saturation else go acc (i + 1)
  in
  go 0 0

(* Lexicographic i-combinations of [0, m), as index arrays. *)
let combinations m i =
  if i = 0 then [ [||] ]
  else begin
    let out = ref [] in
    let c = Array.init i (fun j -> j) in
    let continue_ = ref (i <= m) in
    while !continue_ do
      out := Array.copy c :: !out;
      (* advance to the next combination *)
      let j = ref (i - 1) in
      while !j >= 0 && c.(!j) = m - i + !j do
        decr j
      done;
      if !j < 0 then continue_ := false
      else begin
        c.(!j) <- c.(!j) + 1;
        for l = !j + 1 to i - 1 do
          c.(l) <- c.(l - 1) + 1
        done
      end
    done;
    List.rev !out
  end

(* A seeded pattern sample: size i drawn with weight C(m, i) — the
   verdict concentrates where the adversary has the most choices — then
   a uniform i-subset by partial Fisher-Yates. *)
let sample_patterns ~m ~k ~budget ~seed =
  let rng = Prng.create (seed lxor 0x5bf0_3635) in
  let weights = Array.init k (fun i -> float_of_int (binomial m (i + 1))) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let draw_size () =
    let u = Prng.float rng total in
    let rec go acc i =
      if i >= k - 1 then k
      else
        let acc = acc +. weights.(i) in
        if u < acc then i + 1 else go acc (i + 1)
    in
    go 0.0 0
  in
  let idx = Array.init m (fun j -> j) in
  Array.init budget (fun _ ->
      let size = draw_size () in
      for j = 0 to size - 1 do
        let t = j + Prng.int rng (m - j) in
        let tmp = idx.(j) in
        idx.(j) <- idx.(t);
        idx.(t) <- tmp
      done;
      let p = Array.sub idx 0 size in
      Array.sort compare p;
      p)

let certify ?domains ?cap ?(slack = 1.5) ?(budget = 512) sched ~k ~seed =
  if k < 0 then invalid_arg "Certifier.certify: k must be >= 0";
  if budget < 1 then invalid_arg "Certifier.certify: budget must be >= 1";
  if slack < 1.0 then invalid_arg "Certifier.certify: slack must be >= 1.0";
  (match cap with
  | Some c when c < 1 -> invalid_arg "Certifier.certify: cap must be >= 1"
  | _ -> ());
  let n = Schedule.n_vertices sched in
  (* one period as sender tables: every pattern knocks its dead arcs out
     of them and runs on Chunked's sender-table arm *)
  let base = Schedule.tabulate sched in
  let arcs = period_arcs base in
  let m = Array.length arcs in
  if k > m then
    invalid_arg
      (Printf.sprintf
         "Certifier.certify: k = %d exceeds the period's %d distinct arcs" k m);
  let domains =
    match domains with Some d -> max 1 d | None -> Parallel.recommended_domains ()
  in
  (* [run_pattern] is pure — it also runs on worker domains, where a
     shared counter increment would race — so the checked-pattern count
     is kept at the (sequential) call sites. *)
  let checked = ref 0 in
  let pattern_arcs p = List.map (fun i -> arcs.(i)) (Array.to_list p) in
  let run_pattern ?cap (pattern : int array) =
    Chunked.run ~domains:1 ?cap (Chunked.create n)
      (Schedule.without_arcs base (pattern_arcs pattern))
  in
  (* under the given cap: a fault-free run that misses it leaves nothing
     to certify *)
  let free = run_pattern ?cap [||] in
  incr checked;
  match free.Chunked.time with
  | None ->
      {
        certified = false;
        cert_mode = Exhaustive;
        k;
        seed;
        budget;
        arcs = m;
        patterns_total = space_size m k;
        patterns_checked = !checked;
        fault_free_time = None;
        cap = (match cap with Some c -> c | None -> 0);
        worst_time = None;
        worst_pattern = [];
        counterexample =
          Some
            {
              cx_pattern = [];
              cx_rounds_run = free.Chunked.rounds_run;
              cx_coverage = free.Chunked.final_coverage;
            };
      }
  | Some t0 ->
      let cap =
        match cap with
        | Some c -> c
        | None ->
            int_of_float (ceil (slack *. float_of_int t0)) + Schedule.period sched
      in
      let total = space_size m k in
      let cert_mode = if total - 1 <= budget then Exhaustive else Sampled in
      let patterns =
        match cert_mode with
        | Exhaustive ->
            Array.of_list
              (List.concat_map (fun i -> combinations m i)
                 (List.init k (fun i -> i + 1)))
        | Sampled -> sample_patterns ~m ~k ~budget ~seed
      in
      let worst = ref (Some t0) and worst_pat = ref [||] in
      let cx = ref None in
      let batch = max 8 (domains * 4) in
      let pos = ref 0 in
      while !cx = None && !pos < Array.length patterns do
        let len = min batch (Array.length patterns - !pos) in
        let slice = Array.sub patterns !pos len in
        let outcomes =
          Parallel.map ~domains (fun p -> run_pattern ~cap p) slice
        in
        checked := !checked + len;
        Array.iteri
          (fun i (o : Chunked.outcome) ->
            if !cx = None then
              match o.Chunked.time with
              | Some t ->
                  if match !worst with Some w -> t > w | None -> true then begin
                    worst := Some t;
                    worst_pat := slice.(i)
                  end
              | None -> cx := Some (slice.(i), o))
          outcomes;
        pos := !pos + len
      done;
      let counterexample =
        match !cx with
        | None -> None
        | Some (pat, out) ->
            (* greedy 1-minimal shrink: drop arcs one at a time while the
               pattern still fails *)
            let rec shrink pat (out : Chunked.outcome) =
              let len = Array.length pat in
              let rec try_drop i =
                if len <= 1 || i >= len then (pat, out)
                else
                  let cand =
                    Array.init (len - 1) (fun j ->
                        if j < i then pat.(j) else pat.(j + 1))
                  in
                  begin
                    incr checked;
                    match run_pattern ~cap cand with
                    | { Chunked.time = None; _ } as o -> shrink cand o
                    | _ -> try_drop (i + 1)
                  end
              in
              try_drop 0
            in
            let pat, out = shrink pat out in
            Some
              {
                cx_pattern = pattern_arcs pat;
                cx_rounds_run = out.Chunked.rounds_run;
                cx_coverage = out.Chunked.final_coverage;
              }
      in
      {
        certified = counterexample = None;
        cert_mode;
        k;
        seed;
        budget;
        arcs = m;
        patterns_total = total;
        patterns_checked = !checked;
        fault_free_time = Some t0;
        cap;
        worst_time = (if counterexample = None then !worst else None);
        worst_pattern = pattern_arcs !worst_pat;
        counterexample;
      }

let cert_mode_name = function Exhaustive -> "exhaustive" | Sampled -> "sampled"

let to_json sched v =
  let module J = Gossip_util.Json in
  let arc_list l = J.List (List.map (fun (u, w) -> J.List [ J.Int u; J.Int w ]) l) in
  let confidence =
    match v.cert_mode with
    | Exhaustive -> 1.0
    | Sampled ->
        if v.patterns_total <= 0 then 0.0
        else
          min 1.0
            (float_of_int v.patterns_checked /. float_of_int v.patterns_total)
  in
  J.Obj
    [
      ("schema", J.Str "gossip-fault-cert/1");
      ("scheme", J.Str (Schedule.name sched));
      ("fingerprint", J.Str (fingerprint sched));
      ("n", J.Int (Schedule.n_vertices sched));
      ("mode", J.Str (Protocol.mode_to_string (Schedule.mode sched)));
      ("period", J.Int (Schedule.period sched));
      ("k", J.Int v.k);
      ("seed", J.Int v.seed);
      ("budget", J.Int v.budget);
      ("arcs", J.Int v.arcs);
      ("cert_mode", J.Str (cert_mode_name v.cert_mode));
      ("patterns_total", J.Int v.patterns_total);
      ("patterns_checked", J.Int v.patterns_checked);
      ("confidence", J.Float confidence);
      ("cap", J.Int v.cap);
      ( "fault_free_time",
        match v.fault_free_time with Some t -> J.Int t | None -> J.Null );
      ("worst_time", match v.worst_time with Some t -> J.Int t | None -> J.Null);
      ("worst_pattern", arc_list v.worst_pattern);
      ("certified", J.Bool v.certified);
      ( "counterexample",
        match v.counterexample with
        | None -> J.Null
        | Some c ->
            J.Obj
              [
                ("pattern", arc_list c.cx_pattern);
                ("rounds_run", J.Int c.cx_rounds_run);
                ("coverage", J.Float c.cx_coverage);
              ] );
    ]
