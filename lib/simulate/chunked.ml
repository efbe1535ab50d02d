module Parallel = Gossip_util.Parallel
module Instrument = Gossip_util.Instrument
module Json = Gossip_util.Json
module Protocol = Gossip_protocol.Protocol
module Schedule = Gossip_protocol.Schedule

(* One contiguous buffer of n·words 64-bit knowledge words, processed in
   contiguous vertex blocks by worker domains.  Tracking [items <= n]
   items (instead of the full n² gossip state) is what keeps a
   million-vertex simulation in memory proportional to state: items
   defaults to n, exact gossip as {!Engine} runs it, while items = 64
   at n = 2^20 takes one word per vertex, 8 MB instead of ~137 GB.
   Words are read and written with the bounds-checked
   [Bytes.get_int64_ne] / [Bytes.set_int64_ne], which the native
   compiler keeps unboxed. *)

type state = {
  n : int;
  items : int;
  words : int;
  state : Bytes.t;
      (* vertex v's word w at byte offset [((v * words) + w) * 8] *)
  mutable known : int;
  mutable memo_key : (int -> int -> int) option;
      (* the candidate function whose pairings [memo] holds *)
  mutable memo : Bytes.t array;
      (* row p: one bit per vertex, set at the lower endpoint of each of
         pairing p's mutual pairs, in ⌈n/64⌉ 64-bit words; empty until
         the pairing's first visit *)
}

(* SWAR over the 64-bit word, bit 63 (the sign bit) included: 2-, 4-
   and 8-bit partial counts, then one multiply sums the eight bytes into
   the top one.  It lives beside the merges: dune's default profile
   compiles with [-opaque], so a call into another module is never
   inlined and would box its [int64] argument. *)
let[@inline] popcount64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555_5555_5555_5555L) in
  let x =
    add
      (logand x 0x3333_3333_3333_3333L)
      (logand (shift_right_logical x 2) 0x3333_3333_3333_3333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F_0F0F_0F0F_0F0FL in
  to_int (shift_right_logical (mul x 0x0101_0101_0101_0101L) 56)

let create ?items n =
  if n < 0 then invalid_arg "Chunked.create: negative vertex count";
  let items =
    match items with None -> n | Some k -> max 0 (min k n)
  in
  let words = max 1 ((items + 63) / 64) in
  let state = Bytes.make (8 * max 1 (n * words)) '\000' in
  (* vertex v starts knowing item v, restricted to the first [items]
     items *)
  for v = 0 to items - 1 do
    Bytes.set_int64_ne state
      (8 * ((v * words) + (v lsr 6)))
      (Int64.shift_left 1L (v land 63))
  done;
  { n; items; words; state; known = items; memo_key = None; memo = [||] }

let n_vertices st = st.n
let items st = st.items
let items_known st = st.known

let knows st v i =
  if v < 0 || v >= st.n then invalid_arg "Chunked.knows: vertex out of range";
  i >= 0 && i < st.items
  && Int64.logand
       (Bytes.get_int64_ne st.state (8 * ((v * st.words) + (i lsr 6))))
       (Int64.shift_left 1L (i land 63))
     <> 0L

let coverage st =
  if st.n = 0 || st.items = 0 then 1.0
  else float_of_int st.known /. float_of_int (st.n * st.items)

let complete st = st.known = st.n * st.items

(* The one merge rule, on the word rows of vertices [v] and [x] at byte
   offsets [dv] and [dx]; each counts the newly-set bits with
   [popcount64].  [exchange] is a full-duplex pair: both rows get
   old(v) | old(x), identical to the start-of-round snapshot semantics,
   so the pair's lower endpoint owns the write.  It counts its two
   directions apart: it returns the bits new to x,
   popcount(old v & ~old x), and adds those new to v,
   popcount(old x & ~old v), to the caller's counter [to_v].  [absorb]
   is a one-directional arc x -> v: x is not written in a round it sends
   in, so v |= x in place is race-free; it returns the bits new to v. *)
let[@inline] exchange state words dv dx ~to_v =
  let to_x = ref 0 in
  for w = 0 to words - 1 do
    let ov = dv + (8 * w) and ox = dx + (8 * w) in
    let a = Bytes.get_int64_ne state ov and b = Bytes.get_int64_ne state ox in
    let u = Int64.logor a b in
    if u <> a then begin
      to_v := !to_v + popcount64 (Int64.logand b (Int64.lognot a));
      Bytes.set_int64_ne state ov u
    end;
    if u <> b then begin
      to_x := !to_x + popcount64 (Int64.logand a (Int64.lognot b));
      Bytes.set_int64_ne state ox u
    end
  done;
  !to_x

let[@inline] absorb state words dv dx =
  let delta = ref 0 in
  for w = 0 to words - 1 do
    let ov = dv + (8 * w) in
    let a = Bytes.get_int64_ne state ov in
    let u = Int64.logor a (Bytes.get_int64_ne state (dx + (8 * w))) in
    if u <> a then begin
      delta := !delta + popcount64 (Int64.logand u (Int64.lognot a));
      Bytes.set_int64_ne state ov u
    end
  done;
  !delta

(* One pair [v < x] of a pairing, merged by [phase], as [of_pairing]
   splits a pairing into rounds: [phase < 0] is a full-duplex round, and
   the pair exchanges; in half duplex the lower endpoint [v] sends when
   [phase = 0] and the higher [x] when [phase = 1], and the other end
   absorbs.  It counts by direction as [exchange] does: it returns the
   bits new to [x] and adds those new to [v] to [to_v].  Only the pair's
   own two rows are read or written. *)
let[@inline] merge_pair state words phase v x ~to_v =
  let dv = 8 * v * words and dx = 8 * x * words in
  if phase < 0 then exchange state words dv dx ~to_v
  else if phase = 0 then absorb state words dx dv
  else begin
    to_v := !to_v + absorb state words dv dx;
    0
  end

(* One vertex block of one round, in place.  [sender] is the round's
   receiver -> sender function, staged once per block by [Schedule.sender]
   so the round's own work (its index within the period, pairing, phase,
   table) is not redone per vertex.  A round is a matching, so a sender
   is never also a receiver except through a full-duplex exchange
   ([sender v = x] and [sender x = v]).  Returns the newly-set bits as
   two counts, the exchanges' lower endpoints' apart; the cross-block
   sums are exact integers, so results are identical for any worker
   count. *)
let block_delta st sender lo hi =
  let words = st.words and state = st.state in
  let delta = ref 0 and to_lower = ref 0 in
  for v = lo to hi - 1 do
    let x = sender v in
    if x >= 0 && x < st.n && x <> v then
      if sender x = v then begin
        if v < x then
          delta :=
            !delta
            + exchange state words (8 * v * words) (8 * x * words)
                ~to_v:to_lower
      end
      else delta := !delta + absorb state words (8 * v * words) (8 * x * words)
  done;
  (!delta, !to_lower)

(* The sender-table arm, for tabled schedules ({!Schedule.tables}): [snd]
   is the round's receiver-indexed sender table, and the merge is
   [block_delta]'s rule read from it — [x = snd.(v)], an exchange exactly
   when [snd.(x) = v], under the same [0 <= x < n] guard — so results
   are identical to the sender path's, with no closure call per vertex. *)
let tabled_block_delta st snd lo hi =
  let words = st.words and state = st.state and n = st.n in
  let delta = ref 0 and to_lower = ref 0 in
  for v = lo to hi - 1 do
    let x = snd.(v) in
    if x >= 0 && x < n && x <> v then
      if snd.(x) = v then begin
        if v < x then
          delta :=
            !delta
            + exchange state words (8 * v * words) (8 * x * words)
                ~to_v:to_lower
      end
      else delta := !delta + absorb state words (8 * v * words) (8 * x * words)
  done;
  (!delta, !to_lower)

(* The runs arm, for the structured generators' schedules
   ({!Schedule.pairing}): pairs [lo, hi) of the round's pairing, its
   runs taken in order and each run's [count·len] pairs [i]-major.  A
   block finds its first pair with one division and walks on by [step],
   and by [stride] from row to row.  Each pair [v < x = v + offset] is
   merged by [phase] as [merge_pair] merges it.  One-word rows are
   merged in the loop body itself, with the counters in local refs,
   which stay unboxed (a ref passed to [merge_pair] is a heap block):
   [x] learns [v] unless [phase = 1], and [v] learns [x] unless
   [phase = 0].  The runs name disjoint pairs, so any split of the pair
   indices writes disjoint rows.  Returns the bits new to higher
   endpoints, then to lower ones. *)
let runs_delta st runs phase lo hi =
  let words = st.words and state = st.state in
  let to_higher = ref 0 and to_lower = ref 0 in
  (* [merge_pair]'s count of bits new to lower endpoints, kept apart so
     that [to_lower] stays unboxed *)
  let to_v = ref 0 in
  let start = ref 0 in
  for k = 0 to Array.length runs - 1 do
    let { Schedule.first; count; stride; len; step; offset } = runs.(k) in
    let size = count * len in
    (* the run's pairs [p0, p1) fall in the block *)
    let p0 = if lo > !start then lo - !start else 0 in
    let p1 = if hi < !start + size then hi - !start else size in
    if p0 < p1 then begin
      let i = ref (p0 / len) in
      let j = ref (p0 - (!i * len)) in
      let left = ref (p1 - p0) in
      while !left > 0 do
        let m = if len - !j < !left then len - !j else !left in
        let v = first + (!i * stride) + (!j * step) in
        if words = 1 then
          for t = 0 to m - 1 do
            let dv = 8 * (v + (t * step)) in
            let dx = dv + (8 * offset) in
            let a = Bytes.get_int64_ne state dv
            and b = Bytes.get_int64_ne state dx in
            let u = Int64.logor a b in
            if phase <> 1 && u <> b then begin
              to_higher :=
                !to_higher + popcount64 (Int64.logand a (Int64.lognot b));
              Bytes.set_int64_ne state dx u
            end;
            if phase <> 0 && u <> a then begin
              to_lower :=
                !to_lower + popcount64 (Int64.logand b (Int64.lognot a));
              Bytes.set_int64_ne state dv u
            end
          done
        else
          for t = 0 to m - 1 do
            let v = v + (t * step) in
            to_higher :=
              !to_higher + merge_pair state words phase v (v + offset) ~to_v
          done;
        left := !left - m;
        incr i;
        j := 0
      done
    end;
    start := !start + size
  done;
  (!to_higher, !to_lower + !to_v)

(* The proposal arm, for schedules with a {!Schedule.nomination}, over
   the 64-vertex words [wlo, whi) of [row], the memo row of the pairing
   whose nominee function is [nominee]: each lower endpoint [v] of a
   mutual pair, whose partner is [x = nominee v > v], is merged and
   counted as [merge_pair] merges and counts it.  On the pairing's
   first visit, [fill], the pass finds the pairs ([x > v] and
   [nominee x = v]) and writes their bits; on a later one it reads them
   back, lowest set bit first, with no mutual test.  Either way it takes
   the pairs in ascending order of [v].  Pairs are disjoint and each
   block owns its words, so any split on word boundaries is race-free. *)
let nominated_delta st nominee row ~fill phase wlo whi =
  let words = st.words and state = st.state and n = st.n in
  let to_higher = ref 0 and to_lower = ref 0 in
  for w = wlo to whi - 1 do
    let base = w lsl 6 in
    if fill then begin
      let bits = ref 0L in
      for v = base to min n (base + 64) - 1 do
        let x = nominee v in
        if x > v && nominee x = v then begin
          bits := Int64.logor !bits (Int64.shift_left 1L (v - base));
          to_higher :=
            !to_higher + merge_pair state words phase v x ~to_v:to_lower
        end
      done;
      Bytes.set_int64_ne row (8 * w) !bits
    end
    else begin
      let bits = ref (Bytes.get_int64_ne row (8 * w)) in
      while !bits <> 0L do
        let b = !bits in
        (* the lowest set bit's index: the ones below it, counted *)
        let v = base + popcount64 (Int64.pred (Int64.logand b (Int64.neg b))) in
        to_higher :=
          !to_higher
          + merge_pair state words phase v (nominee v) ~to_v:to_lower;
        bits := Int64.logand b (Int64.pred b)
      done
    end
  done;
  (!to_higher, !to_lower)

(* [f lo hi] over a split of [0, len) into blocks, its two counts summed
   apart: one block at one worker, else a few blocks per worker, which
   keeps the strided distribution balanced when block costs differ. *)
let over_blocks workers len f =
  if workers = 1 then f 0 len
  else
    let nblocks = max 1 (min len (workers * 4)) in
    Parallel.reduce ~domains:workers nblocks
      (fun b -> f (b * len / nblocks) ((b + 1) * len / nblocks))
      (fun (a, b) (c, d) -> (a + c, b + d))
      (0, 0)

(* The round's pairing index and merge phase, as [of_pairing] lays the
   rounds out: pairing [r mod pairings] in full duplex (phase -1), and
   in half duplex pairing [(r mod 2·pairings) / 2], phase [r mod 2] —
   or, [fused], phase -1 for the pairing's two rounds as one exchange. *)
let pairing_phase ~fused mode pairings round =
  if mode = Protocol.Full_duplex then (round mod pairings, -1)
  else
    let r = round mod (2 * pairings) in
    (r / 2, if fused then -1 else r mod 2)

(* Merges the round's pairing [p] from its memo row, staging
   [candidate p] once per block.  The first visit fills a fresh row and
   stores it only once the pass completes, so a pass cut short by an
   exception leaves no row; a pairing revisited, in the same period or a
   later one, merges from its row alone.  A schedule whose candidate
   function is not the memo's, compared physically, starts a fresh
   memo. *)
let nominated_round workers st mode (pairings, candidate) round ~fused =
  let p, phase = pairing_phase ~fused mode pairings round in
  (match st.memo_key with
  | Some c when c == candidate -> ()
  | _ ->
      st.memo <- Array.make pairings Bytes.empty;
      st.memo_key <- Some candidate);
  let nwords = (st.n + 63) / 64 in
  let fill = Bytes.length st.memo.(p) = 0 in
  let row = if fill then Bytes.create (8 * nwords) else st.memo.(p) in
  let counts =
    over_blocks workers nwords (fun lo hi ->
        nominated_delta st (candidate p) row ~fill phase lo hi)
  in
  if fill then st.memo.(p) <- row;
  counts

(* One pass over the state: round [round] of [sched], or, [fused], the
   two half-duplex rounds [round] (even) and [round + 1] of one pairing
   on a pair arm.  Four arms: a tabled schedule merges from its period's
   sender tables, a proposal schedule from its pairing's memo row, a
   structured generator's schedule from its pairing's runs, split into
   blocks by pair index, and every other schedule stages
   [Schedule.sender sched round] once per block and applies it per
   vertex.  Returns two counts
   whose sum is the pass's newly-set bits; a pair arm's are the bits new
   to higher endpoints and to lower ones, so a fused pass's are
   [round]'s and [round + 1]'s (see [run]). *)
let pass workers st sched round ~fused =
  match
    (Schedule.tables sched, Schedule.nomination sched, Schedule.pairing sched)
  with
  | Some tables, _, _ ->
      let snd = tables.(round mod Array.length tables) in
      over_blocks workers st.n (tabled_block_delta st snd)
  | None, Some nomination, _ ->
      nominated_round workers st (Schedule.mode sched) nomination round ~fused
  | None, None, Some pairings ->
      let p, phase =
        pairing_phase ~fused (Schedule.mode sched) (Array.length pairings) round
      in
      let runs = pairings.(p) in
      let pairs =
        Array.fold_left (fun acc r -> acc + (r.Schedule.count * r.len)) 0 runs
      in
      over_blocks workers pairs (runs_delta st runs phase)
  | None, None, None ->
      over_blocks workers st.n (fun lo hi ->
          block_delta st (Schedule.sender sched round) lo hi)

let workers_of = function
  | Some d -> max 1 d
  | None -> Parallel.recommended_domains ()

let apply_round ?domains st sched round =
  if Schedule.n_vertices sched <> st.n then
    invalid_arg
      "Chunked.apply_round: schedule and state disagree on vertex count";
  if round < 0 then invalid_arg "Chunked.apply_round: negative round";
  let first, second = pass (workers_of domains) st sched round ~fused:false in
  st.known <- st.known + first + second

type checkpoint = {
  round : int;
  coverage : float;
  elapsed_s : float;
  rounds_per_s : float;
  eta_s : float option;
  heap_mb : float;
  rss_mb : float option;
}

type outcome = {
  time : int option;
  rounds_run : int;
  final_coverage : float;
  checkpoints : checkpoint list;
}

let ceil_log2 n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

(* Generous: covers both logarithmic-diameter families and the
   linear-diameter cycle/torus, while runs that complete stop early. *)
let default_cap n period =
  (2 * n) + (8 * period * max 1 (ceil_log2 n)) + 64

let run ?domains ?cap ?(checkpoint_every = 0) ?on_checkpoint st sched =
  if Schedule.n_vertices sched <> st.n then
    invalid_arg "Chunked.run: schedule and state disagree on vertex count";
  let cap =
    match cap with Some c -> c | None -> default_cap st.n (Schedule.period sched)
  in
  let streaming = Instrument.tracing () in
  let checkpoints = ref [] in
  let time = ref None in
  let i = ref 0 in
  let t0 = Instrument.now_ns () in
  (* previous checkpoint's (elapsed, coverage): the ETA extrapolates the
     most recent inter-checkpoint coverage slope to coverage 1.0 —
     robust to warm-up, and None once coverage stalls (an incomplete run
     heading for the cap has no honest ETA). *)
  let prev = ref (0.0, coverage st) in
  let note_checkpoint () =
    let c = coverage st in
    let elapsed_s = Int64.to_float (Int64.sub (Instrument.now_ns ()) t0) /. 1e9 in
    let rounds_per_s =
      if elapsed_s > 0.0 then float_of_int !i /. elapsed_s else 0.0
    in
    let eta_s =
      if !time <> None then Some 0.0
      else
        let prev_t, prev_c = !prev in
        let slope = (c -. prev_c) /. Float.max 1e-9 (elapsed_s -. prev_t) in
        if slope > 0.0 then Some ((1.0 -. c) /. slope) else None
    in
    prev := (elapsed_s, c);
    let res = Gossip_util.Resource.sample () in
    let cp =
      {
        round = !i;
        coverage = c;
        elapsed_s;
        rounds_per_s;
        eta_s;
        heap_mb = res.Gossip_util.Resource.heap_mb;
        rss_mb = res.Gossip_util.Resource.rss_mb;
      }
    in
    checkpoints := cp :: !checkpoints;
    if streaming then
      Instrument.event "engine.checkpoint"
        ~attrs:
          [
            ("round", Json.Int !i);
            ("coverage", Json.Float c);
            ("elapsed_s", Json.Float elapsed_s);
            ("rounds_per_s", Json.Float rounds_per_s);
            ( "eta_s",
              match eta_s with Some e -> Json.Float e | None -> Json.Null );
            ("heap_mb", Json.Float cp.heap_mb);
            ( "rss_mb",
              match cp.rss_mb with Some r -> Json.Float r | None -> Json.Null
            );
          ];
    match on_checkpoint with Some f -> f cp | None -> ()
  in
  let end_round () =
    incr i;
    if complete st then time := Some !i;
    if checkpoint_every > 0 && (!i mod checkpoint_every = 0 || !time <> None)
    then note_checkpoint ()
  in
  let workers = workers_of domains in
  (* On a pair arm, a half-duplex pairing's two rounds r (even) and
     r + 1 run as one exchange pass.  After round r, x holds
     old(x) | old(v); after round r + 1, v holds old(v) | old(x): both
     rows end as the exchange writes them, and the pass's two counts are
     round r's new bits (set in x) and round r + 1's (set in v).  Round
     r's count alone gives the completion test and the coverage between
     the rounds, though the state, which [on_checkpoint] might read
     there, already holds round r + 1's merges.  A state complete after
     round r is full, so round r + 1 writes nothing and stopping at
     r + 1 leaves the per-round loop's state.  When r + 1 = cap, round r
     runs alone. *)
  let pairs =
    Schedule.mode sched = Protocol.Half_duplex
    && Schedule.tables sched = None
    && (Schedule.nomination sched <> None || Schedule.pairing sched <> None)
  in
  Instrument.span "simulate.chunked-run" (fun () ->
      (* a state complete before its first round takes no round *)
      if complete st then begin
        time := Some 0;
        if checkpoint_every > 0 then note_checkpoint ()
      end;
      while !time = None && !i < cap do
        let fused = pairs && !i mod 2 = 0 && !i + 1 < cap in
        let first, second = pass workers st sched !i ~fused in
        st.known <- st.known + first + (if fused then 0 else second);
        end_round ();
        if fused && !time = None then begin
          st.known <- st.known + second;
          end_round ()
        end
      done);
  {
    time = !time;
    rounds_run = !i;
    final_coverage = coverage st;
    checkpoints = List.rev !checkpoints;
  }

(* --- the gossip-simulate/1 report, shared by the CLI and the server --- *)

let report_to_json ~family ~requested_n ~sched ~st ~outcome ~wall_seconds
    ~domains =
  let mode = Protocol.mode_to_string (Schedule.mode sched) in
  let rate =
    if wall_seconds > 0.0 then
      float_of_int st.n *. float_of_int outcome.rounds_run /. wall_seconds
    else 0.0
  in
  Json.Obj
    [
      ("schema", Json.Str "gossip-simulate/1");
      ("family", Json.Str family);
      ("schedule", Json.Str (Schedule.name sched));
      ("requested_n", Json.Int requested_n);
      ("n", Json.Int st.n);
      ("items", Json.Int st.items);
      ("period", Json.Int (Schedule.period sched));
      ("mode", Json.Str mode);
      ("completed", Json.Bool (outcome.time <> None));
      ( "rounds",
        Json.Int
          (match outcome.time with Some t -> t | None -> outcome.rounds_run) );
      ("coverage", Json.Float outcome.final_coverage);
      ( "checkpoints",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("round", Json.Int c.round);
                   ("coverage", Json.Float c.coverage);
                   ("elapsed_s", Json.Float c.elapsed_s);
                   ("rounds_per_s", Json.Float c.rounds_per_s);
                   ( "eta_s",
                     match c.eta_s with
                     | Some e -> Json.Float e
                     | None -> Json.Null );
                   ("heap_mb", Json.Float c.heap_mb);
                   ( "rss_mb",
                     match c.rss_mb with
                     | Some r -> Json.Float r
                     | None -> Json.Null );
                 ])
             outcome.checkpoints) );
      ("wall_seconds", Json.Float wall_seconds);
      ("nodes_rounds_per_sec", Json.Float rate);
      ("domains", Json.Int domains);
    ]
