module Parallel = Gossip_util.Parallel
module Bitset = Gossip_util.Bitset
module Instrument = Gossip_util.Instrument
module Json = Gossip_util.Json
module Protocol = Gossip_protocol.Protocol
module Schedule = Gossip_protocol.Schedule

(* One contiguous int array of n·words knowledge bits, processed in
   contiguous vertex blocks by worker domains.  Tracking [items <= n]
   items (instead of the full n² gossip state) is what keeps a
   million-vertex simulation in memory proportional to state: items
   defaults to n, exact gossip as {!Engine} runs it, while items = 64
   at n = 10^6 takes two 63-bit words per vertex, 16 MB instead of
   ~125 GB. *)

let bits_per_word = 63

type state = {
  n : int;
  items : int;
  words : int;
  state : int array;
  mutable known : int;
  mutable cand : int array;
      (* nominees of one pairing instance; allocated (n words) on the
         first round of a schedule with a nomination *)
  mutable pairs : int array;
      (* the lower endpoints of [cand]'s mutual pairs, ascending, in
         [pairs.(0 .. npairs - 1)]; allocated (⌊n/2⌋ words) with [cand] *)
  mutable npairs : int;
  mutable cand_key : ((int -> int -> int) * int) option;
      (* the (candidate, pairing) that [cand] and [pairs] currently
         hold *)
}

let create ?items n =
  if n < 0 then invalid_arg "Chunked.create: negative vertex count";
  let items =
    match items with None -> n | Some k -> max 0 (min k n)
  in
  let words = max 1 ((items + bits_per_word - 1) / bits_per_word) in
  let state = Array.make (max 1 (n * words)) 0 in
  let st =
    {
      n;
      items;
      words;
      state;
      known = 0;
      cand = [||];
      pairs = [||];
      npairs = 0;
      cand_key = None;
    }
  in
  (* vertex v starts knowing item v, restricted to the first [items]
     items *)
  for v = 0 to items - 1 do
    st.state.((v * words) + (v / bits_per_word)) <-
      1 lsl (v mod bits_per_word)
  done;
  st.known <- items;
  st

let n_vertices st = st.n
let items st = st.items
let items_known st = st.known

let knows st v i =
  if v < 0 || v >= st.n then invalid_arg "Chunked.knows: vertex out of range";
  if i < 0 || i >= st.items then false
  else
    st.state.((v * st.words) + (i / bits_per_word))
    land (1 lsl (i mod bits_per_word))
    <> 0

let coverage st =
  if st.n = 0 || st.items = 0 then 1.0
  else float_of_int st.known /. float_of_int (st.n * st.items)

let complete st = st.known = st.n * st.items

(* The one merge rule, on the word rows of vertices [v] and [x] at
   [dv = v * words] and [dx = x * words]; each returns the number of
   newly-set bits, counted by the one constant-time [Bitset.popcount].
   [exchange] is a full-duplex pair: both rows get old(v) | old(x),
   identical to the start-of-round snapshot semantics, so the pair's
   lower endpoint owns the write.  [absorb] is a one-directional arc
   x -> v: x is not written in a round it sends in, so v |= x in place
   is race-free. *)
let[@inline] exchange state words dv dx =
  let delta = ref 0 in
  for w = 0 to words - 1 do
    let a = state.(dv + w) and b = state.(dx + w) in
    let u = a lor b in
    if u <> a then begin
      delta := !delta + Bitset.popcount (u land lnot a);
      state.(dv + w) <- u
    end;
    if u <> b then begin
      delta := !delta + Bitset.popcount (u land lnot b);
      state.(dx + w) <- u
    end
  done;
  !delta

let[@inline] absorb state words dv dx =
  let delta = ref 0 in
  for w = 0 to words - 1 do
    let a = state.(dv + w) in
    let u = a lor state.(dx + w) in
    if u <> a then begin
      delta := !delta + Bitset.popcount (u land lnot a);
      state.(dv + w) <- u
    end
  done;
  !delta

(* One vertex block of one round, in place.  [sender] is the round's
   receiver -> sender function, staged once per block by [Schedule.sender]
   so the round's own work (its index within the period, pairing, phase,
   table) is not redone per vertex.  A round is a matching, so a sender
   is never also a receiver except through a full-duplex exchange
   ([sender v = x] and [sender x = v]).  The cross-block sum of newly-set
   bits is an exact integer, so results are identical for any worker
   count. *)
let block_delta st sender lo hi =
  let words = st.words and state = st.state in
  let delta = ref 0 in
  for v = lo to hi - 1 do
    let x = sender v in
    if x >= 0 && x < st.n && x <> v then
      if sender x = v then begin
        if v < x then
          delta := !delta + exchange state words (v * words) (x * words)
      end
      else delta := !delta + absorb state words (v * words) (x * words)
  done;
  !delta

(* The sender-table arm, for tabled schedules ({!Schedule.tables}): [snd]
   is the round's receiver-indexed sender table, and the merge is
   [block_delta]'s rule read from it — [x = snd.(v)], an exchange exactly
   when [snd.(x) = v], under the same [0 <= x < n] guard — so results
   are identical to the sender path's, with no closure call per vertex. *)
let tabled_block_delta st snd lo hi =
  let words = st.words and state = st.state and n = st.n in
  let delta = ref 0 in
  for v = lo to hi - 1 do
    let x = snd.(v) in
    if x >= 0 && x < n && x <> v then
      if snd.(x) = v then begin
        if v < x then
          delta := !delta + exchange state words (v * words) (x * words)
      end
      else delta := !delta + absorb state words (v * words) (x * words)
  done;
  !delta

(* The candidate-table arm, for schedules with a {!Schedule.nomination}:
   [st.pairs.(lo .. hi - 1)] are lower endpoints [v] of mutual pairs,
   whose partner is [x = cand.(v) > v].  [phase < 0] is a full-duplex
   round: the pair exchanges, owned by its lower endpoint as in
   [block_delta].  Otherwise it is a half-duplex round, as [of_pairing]
   splits it: the lower endpoint sends when [phase = 0] and the higher
   one when [phase = 1], and the other end absorbs.  Pairs are disjoint,
   so any split of the list into ranges is race-free. *)
let pairs_delta st phase lo hi =
  let words = st.words and state = st.state in
  let cand = st.cand and pairs = st.pairs in
  let delta = ref 0 in
  for i = lo to hi - 1 do
    let v = pairs.(i) in
    let dv = v * words and dx = cand.(v) * words in
    let d =
      if phase < 0 then exchange state words dv dx
      else if phase = 0 then absorb state words dx dv
      else absorb state words dv dx
    in
    delta := !delta + d
  done;
  !delta

(* [f lo hi] over a split of [0, len) into blocks, summed: one block at
   one worker, else a few blocks per worker, which keeps the strided
   distribution balanced when block costs differ. *)
let over_blocks workers len f =
  if workers = 1 then f 0 len
  else
    let nblocks = max 1 (min len (workers * 4)) in
    Parallel.reduce ~domains:workers nblocks
      (fun b -> f (b * len / nblocks) ((b + 1) * len / nblocks))
      ( + ) 0

(* Refills [st.cand] only when the pairing instance changes — every
   round in full duplex, every second round in half duplex — staging
   [candidate p] once and applying it to every vertex over the vertex
   blocks, then lists the pairing's mutual pairs in one sequential
   pass; every round of the pairing merges from that list alone.  The
   fill writes only its own block and finishes before the pass reads
   the table. *)
let nominated_round workers st mode (pairings, candidate) round =
  let full_duplex = mode = Protocol.Full_duplex in
  let r = round mod (if full_duplex then pairings else 2 * pairings) in
  let p = if full_duplex then r else r / 2 in
  (match st.cand_key with
  | Some (c, q) when c == candidate && q = p -> ()
  | _ ->
      if Array.length st.cand <> st.n then begin
        st.cand <- Array.make st.n (-1);
        st.pairs <- Array.make (st.n / 2) 0
      end;
      (* a fill or pass cut short by an exception must not leave a
         valid key *)
      st.cand_key <- None;
      let nominee = candidate p and cand = st.cand in
      ignore
        (over_blocks workers st.n (fun lo hi ->
             for v = lo to hi - 1 do
               cand.(v) <- nominee v
             done;
             0));
      let pairs = st.pairs and np = ref 0 in
      for v = 0 to st.n - 1 do
        let x = cand.(v) in
        if x > v && cand.(x) = v then begin
          pairs.(!np) <- v;
          incr np
        end
      done;
      st.npairs <- !np;
      st.cand_key <- Some (candidate, p));
  let phase = if full_duplex then -1 else r mod 2 in
  over_blocks workers st.npairs (pairs_delta st phase)

let apply_round ?domains st sched round =
  if Schedule.n_vertices sched <> st.n then
    invalid_arg
      "Chunked.apply_round: schedule and state disagree on vertex count";
  if round < 0 then invalid_arg "Chunked.apply_round: negative round";
  let workers =
    match domains with
    | Some d -> max 1 d
    | None -> Parallel.recommended_domains ()
  in
  (* three arms: a tabled schedule merges from its period's sender
     tables, a proposal schedule from its candidate table's pair list,
     and every other schedule stages [Schedule.sender sched round] once
     per block and applies it per vertex *)
  let delta =
    match (Schedule.tables sched, Schedule.nomination sched) with
    | Some tables, _ ->
        let snd = tables.(round mod Array.length tables) in
        over_blocks workers st.n (tabled_block_delta st snd)
    | None, Some nomination ->
        nominated_round workers st (Schedule.mode sched) nomination round
    | None, None ->
        over_blocks workers st.n (fun lo hi ->
            block_delta st (Schedule.sender sched round) lo hi)
  in
  st.known <- st.known + delta

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
  Instrument.span "simulate.chunked-run" (fun () ->
      (* a state complete before its first round takes no round *)
      if complete st then begin
        time := Some 0;
        if checkpoint_every > 0 then note_checkpoint ()
      end;
      while !time = None && !i < cap do
        apply_round ?domains st sched !i;
        incr i;
        if complete st then time := Some !i;
        if checkpoint_every > 0 && (!i mod checkpoint_every = 0 || !time <> None)
        then note_checkpoint ()
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
