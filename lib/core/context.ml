module Digraph = Gossip_topology.Digraph
module Metrics = Gossip_topology.Metrics
module Protocol = Gossip_protocol.Protocol
module Systolic = Gossip_protocol.Systolic
module Delay_digraph = Gossip_delay.Delay_digraph
module Delay_matrix = Gossip_delay.Delay_matrix
module Certificate = Gossip_delay.Certificate
module General = Gossip_bounds.General
module Oracle = Gossip_bounds.Oracle
module Engine = Gossip_simulate.Engine
module Instrument = Gossip_util.Instrument

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type kind_stats = {
  k_hits : int;
  k_misses : int;
  k_evictions : int;
  k_entries : int;
}

type 'v entry = { value : 'v; mutable last_use : int }

(* Mutable per-artifact-kind accounting behind a {!kind_stats} snapshot. *)
type kind_acc = {
  mutable a_hits : int;
  mutable a_misses : int;
  mutable a_evictions : int;
}

(* One artifact table, erased to the operations the LRU sweep needs so
   heterogeneous tables can share a single eviction policy. *)
type shelf = {
  shelf_kind : string;
  acc : kind_acc;
  occupancy : unit -> int;
  oldest : unit -> (int * (unit -> unit)) option;
      (* last-use tick of the least recently used entry, and a closure
         removing exactly that entry *)
  drop_all : unit -> unit;
}

let make_shelf shelf_kind (tbl : ('k, 'v entry) Hashtbl.t) =
  {
    shelf_kind;
    acc = { a_hits = 0; a_misses = 0; a_evictions = 0 };
    occupancy = (fun () -> Hashtbl.length tbl);
    oldest =
      (fun () ->
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (t, _) when t <= e.last_use -> acc
            | _ -> Some (e.last_use, fun () -> Hashtbl.remove tbl k))
          tbl None);
    drop_all = (fun () -> Hashtbl.reset tbl);
  }

type t = {
  capacity : int;
  domains : int option;
  lock : Mutex.t;
  mutable tick : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  diameters : (string, int entry) Hashtbl.t;
  dgs : (string * int, Delay_digraph.t entry) Hashtbl.t;
  norms : (string * float, Gossip_linalg.Spectral.bracket entry) Hashtbl.t;
  lambdas : (string * int, float entry) Hashtbl.t;
  times : (string * int, int option entry) Hashtbl.t;
  fault_certs :
    (string * int * int * int * int, Gossip_util.Json.t entry) Hashtbl.t;
  shelves : shelf list;
      (* the shelf list doubles as the kind registry: artifact accessors
         name their shelf and per-kind hit/miss/eviction counters live
         on it *)
}

let create ?(capacity = 4096) ?domains () =
  if capacity < 1 then invalid_arg "Context.create: capacity < 1";
  let diameters = Hashtbl.create 32 in
  let dgs = Hashtbl.create 32 in
  let norms = Hashtbl.create 256 in
  let lambdas = Hashtbl.create 32 in
  let times = Hashtbl.create 32 in
  let fault_certs = Hashtbl.create 32 in
  {
    capacity;
    domains;
    lock = Mutex.create ();
    tick = 0;
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
    diameters;
    dgs;
    norms;
    lambdas;
    times;
    fault_certs;
    shelves =
      [
        make_shelf "diameter" diameters;
        make_shelf "delay_digraph" dgs;
        make_shelf "norm" norms;
        make_shelf "lambda_star" lambdas;
        make_shelf "gossip_time" times;
        make_shelf "fault_cert" fault_certs;
      ];
  }

let domains ctx = ctx.domains

(* {2 Fingerprints} *)

let mix h x = h := (!h * 1_000_003) lxor x

let fingerprint g =
  let h = ref 0x9e3779b9 in
  mix h (Digraph.n_vertices g);
  Digraph.iter_arcs (fun u v -> mix h ((u * 65_599) + v + 1)) g;
  Printf.sprintf "%s|%d|%d|%x" (Digraph.name g) (Digraph.n_vertices g)
    (Digraph.n_arcs g) (!h land max_int)

let protocol_fingerprint sys =
  let h = ref 0x51ed270b in
  List.iter
    (fun round ->
      mix h 0x2545f49;
      List.iter (fun (u, v) -> mix h ((u * 65_599) + v + 1)) round)
    (Systolic.period_rounds sys);
  Printf.sprintf "%s|%s|s%d|%x"
    (fingerprint (Systolic.graph sys))
    (Protocol.mode_to_string (Systolic.mode sys))
    (Systolic.period sys) (!h land max_int)

(* The delay digraph digest now lives with the structure itself (the
   certificate telemetry tags its spans with the same string); the
   context only prefixes it with the full network fingerprint so cache
   keys keep distinguishing same-named graphs with different arc lists. *)
let dg_fingerprint dg =
  fingerprint (Delay_digraph.graph dg) ^ "|" ^ Delay_digraph.fingerprint dg

(* {2 Bookkeeping core} *)

let total_entries ctx =
  List.fold_left (fun acc s -> acc + s.occupancy ()) 0 ctx.shelves

(* Caller holds [ctx.lock].  Returns how many entries were dropped. *)
let evict_locked ctx =
  let evicted = ref 0 in
  let stuck = ref false in
  while (not !stuck) && total_entries ctx > ctx.capacity do
    let victim =
      List.fold_left
        (fun acc shelf ->
          match shelf.oldest () with
          | None -> acc
          | Some (t, remove) -> (
              match acc with
              | Some (t', _, _) when t' <= t -> acc
              | _ -> Some (t, shelf, remove)))
        None ctx.shelves
    in
    match victim with
    | None -> stuck := true
    | Some (_, shelf, remove) ->
        remove ();
        ctx.n_evictions <- ctx.n_evictions + 1;
        shelf.acc.a_evictions <- shelf.acc.a_evictions + 1;
        incr evicted
  done;
  !evicted

let shelf_named ctx kind =
  List.find (fun s -> s.shelf_kind = kind) ctx.shelves

let lookup ctx ~kind tbl key =
  let shelf = shelf_named ctx kind in
  Mutex.lock ctx.lock;
  let found =
    match Hashtbl.find_opt tbl key with
    | Some e ->
        ctx.tick <- ctx.tick + 1;
        e.last_use <- ctx.tick;
        ctx.n_hits <- ctx.n_hits + 1;
        shelf.acc.a_hits <- shelf.acc.a_hits + 1;
        Some e.value
    | None ->
        ctx.n_misses <- ctx.n_misses + 1;
        shelf.acc.a_misses <- shelf.acc.a_misses + 1;
        None
  in
  Mutex.unlock ctx.lock;
  (match found with
  | Some _ -> Instrument.add "context.hit" 1
  | None -> Instrument.add "context.miss" 1);
  (* one point event per lookup when a trace is streaming: with the
     serving layer's ambient request attributes this is what lets the
     offline analyzer split a request into cache-hit and rebuild work *)
  if Instrument.tracing () then
    Instrument.event "context.lookup"
      ~attrs:
        [
          ("kind", Gossip_util.Json.Str kind);
          ( "outcome",
            Gossip_util.Json.Str
              (match found with Some _ -> "hit" | None -> "miss") );
        ];
  found

let store ctx tbl key v =
  Mutex.lock ctx.lock;
  let evicted =
    if Hashtbl.mem tbl key then 0 (* a racing miss beat us; keep theirs *)
    else begin
      ctx.tick <- ctx.tick + 1;
      Hashtbl.replace tbl key { value = v; last_use = ctx.tick };
      evict_locked ctx
    end
  in
  let entries = total_entries ctx in
  Mutex.unlock ctx.lock;
  if evicted > 0 then Instrument.add "context.evict" evicted;
  Instrument.set_gauge "context.entries" (float_of_int entries)

(* Lookup under the lock, compute outside it (artifact builders can be
   expensive and may themselves run parallel workers), insert under the
   lock.  A racing miss computes twice; both arrive at the same value. *)
let memo ctx ~kind tbl key compute =
  match lookup ctx ~kind tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      store ctx tbl key v;
      v

(* {2 Cached artifacts} *)

let diameter ctx g =
  memo ctx ~kind:"diameter" ctx.diameters (fingerprint g) (fun () ->
      Metrics.diameter ?domains:ctx.domains g)

let delay_digraph ctx sys ~length =
  memo ctx ~kind:"delay_digraph" ctx.dgs
    (protocol_fingerprint sys, length)
    (fun () -> Delay_digraph.of_systolic sys ~length)

let norm ctx dg lambda =
  memo ctx ~kind:"norm" ctx.norms (dg_fingerprint dg, lambda) (fun () ->
      Delay_matrix.norm_blockwise ?domains:ctx.domains dg lambda)

let lambda_star ctx ~mode s =
  let cls =
    match mode with
    | Protocol.Directed | Protocol.Half_duplex -> "hd"
    | Protocol.Full_duplex -> "fd"
  in
  memo ctx ~kind:"lambda_star" ctx.lambdas (cls, s) (fun () ->
      match mode with
      | Protocol.Directed | Protocol.Half_duplex -> General.lambda_star s
      | Protocol.Full_duplex -> General.lambda_star_fd s)

let gossip_time ctx ?cap sys =
  let cap_key = match cap with Some c -> c | None -> -1 in
  memo ctx ~kind:"gossip_time" ctx.times
    (protocol_fingerprint sys, cap_key)
    (fun () -> Engine.gossip_time ?cap sys)

(* The certifier lives below this library (Gossip_simulate.Certifier),
   so the context memoizes the finished artifact against the scheme
   fingerprint and takes the decision procedure as a closure. *)
let fault_certificate ctx ~fingerprint ~k ~seed ~budget ~cap ~compute =
  memo ctx ~kind:"fault_cert" ctx.fault_certs
    (fingerprint, k, seed, budget, cap)
    compute

(* {2 Context-aware pipeline entry points} *)

let certify ctx ?refine dg ~mode =
  Certificate.certify ?refine ~norm:(norm ctx) dg ~mode

let lower_bounds ctx ?family g ~mode ~s =
  Oracle.lower_bounds ?family ~diameter:(diameter ctx g) g ~mode ~s

(* {2 Accounting} *)

let stats ctx =
  Mutex.lock ctx.lock;
  let s =
    {
      hits = ctx.n_hits;
      misses = ctx.n_misses;
      evictions = ctx.n_evictions;
      entries = total_entries ctx;
      capacity = ctx.capacity;
    }
  in
  Mutex.unlock ctx.lock;
  s

let stats_by_kind ctx =
  Mutex.lock ctx.lock;
  let per =
    List.map
      (fun s ->
        ( s.shelf_kind,
          {
            k_hits = s.acc.a_hits;
            k_misses = s.acc.a_misses;
            k_evictions = s.acc.a_evictions;
            k_entries = s.occupancy ();
          } ))
      ctx.shelves
  in
  Mutex.unlock ctx.lock;
  per

let reset_kind_accs ctx =
  List.iter
    (fun s ->
      s.acc.a_hits <- 0;
      s.acc.a_misses <- 0;
      s.acc.a_evictions <- 0)
    ctx.shelves

let reset_stats ctx =
  Mutex.lock ctx.lock;
  ctx.n_hits <- 0;
  ctx.n_misses <- 0;
  ctx.n_evictions <- 0;
  reset_kind_accs ctx;
  Mutex.unlock ctx.lock

let clear ctx =
  Mutex.lock ctx.lock;
  List.iter (fun s -> s.drop_all ()) ctx.shelves;
  ctx.n_hits <- 0;
  ctx.n_misses <- 0;
  ctx.n_evictions <- 0;
  reset_kind_accs ctx;
  ctx.tick <- 0;
  Mutex.unlock ctx.lock

let stats_json ctx =
  let module J = Gossip_util.Json in
  let s = stats ctx in
  let per = stats_by_kind ctx in
  J.Obj
    [
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("evictions", J.Int s.evictions);
      ("entries", J.Int s.entries);
      ("capacity", J.Int s.capacity);
      ( "by_kind",
        J.Obj
          (List.map
             (fun (kind, k) ->
               ( kind,
                 J.Obj
                   [
                     ("hits", J.Int k.k_hits);
                     ("misses", J.Int k.k_misses);
                     ("evictions", J.Int k.k_evictions);
                     ("entries", J.Int k.k_entries);
                   ] ))
             per) );
      (* memory next to hit rates: cache-size tuning needs both *)
      ("resource", Gossip_util.Resource.(to_json (sample ())));
    ]

let pp_stats ppf ctx =
  let s = stats ctx in
  let total = s.hits + s.misses in
  let rate =
    if total = 0 then 0.0
    else 100.0 *. float_of_int s.hits /. float_of_int total
  in
  Format.fprintf ppf
    "cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d/%d entries"
    s.hits s.misses rate s.evictions s.entries s.capacity
