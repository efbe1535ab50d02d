module Json = Gossip_util.Json
module Instrument = Gossip_util.Instrument
open Core

type t = {
  ctx : Context.t;
  metrics : Metrics.t;
  (* whole-response memo for the tables op: identical parameters are by
     far the most repeated query, and the result is a pure function of
     them.  Bounded like the context, but tiny in practice. *)
  tables_memo : (string, Json.t) Hashtbl.t;
  memo_mu : Mutex.t;
  (* cluster-plane ops (gossip / digest / drain) are owned by the
     membership layer, which lives above this library; a member process
     installs its handler here.  Mutable because membership is created
     after the server (it needs the server's bound address). *)
  mutable cluster : (Wire.op -> (Json.t, string) result) option;
}

let create ?ctx ?metrics () =
  let ctx =
    match ctx with
    | Some ctx -> ctx
    | None ->
        (* builders pinned to one domain each: a serving process gets its
           parallelism from concurrent worker domains, not nested spawns *)
        Context.create ~domains:1 ()
  in
  let metrics =
    match metrics with
    | Some m -> m
    | None ->
        (* standalone dispatcher (tests, embedding): a metrics value with
           no workers and no queue still answers the observability ops *)
        Metrics.create ~workers:0 ~queue_capacity:0 ()
  in
  {
    ctx;
    metrics;
    tables_memo = Hashtbl.create 16;
    memo_mu = Mutex.create ();
    cluster = None;
  }

let context d = d.ctx
let set_cluster_handler d h = d.cluster <- Some h

(* --- network construction with a size gate --- *)

let ( let* ) = Result.bind

(* Vertex-count cap: the server exists for small cacheable queries, and
   the worst request (simulate) walks the full protocol expansion.  The
   estimate must run BEFORE the family constructor — building
   hypercube(60) would allocate before any post-hoc check could fire. *)
let max_vertices = 4096

let pow_capped b e =
  let rec go acc i =
    if i <= 0 || acc > max_vertices then acc else go (acc * b) (i - 1)
  in
  if b <= 1 then 1 else go 1 e

let estimated_vertices { Wire.family; dim; degree } =
  let d = max 2 degree in
  match family with
  | "path" | "cycle" | "complete" -> dim
  | "hypercube" -> pow_capped 2 dim
  | "grid" | "torus" -> dim * dim
  | "tree" -> pow_capped d (dim + 1)
  | "bf" | "wbf" | "dwbf" -> (dim + 1) * pow_capped d dim
  | "db" | "ddb" -> pow_capped d dim
  | "dk" | "k" -> (d + 1) * pow_capped d (max 0 (dim - 1))
  | _ -> max_vertices + 1

let build_network (net : Wire.net) =
  if estimated_vertices net > max_vertices then
    Error
      (Printf.sprintf "network too large to serve (over %d vertices)"
         max_vertices)
  else
    let { Wire.family; dim; degree } = net in
    let* g = Topology.Families.of_family ~family ~dim ~degree in
    if Topology.Digraph.n_vertices g > max_vertices then
      Error
        (Printf.sprintf "network too large to serve (%d > %d vertices)"
           (Topology.Digraph.n_vertices g) max_vertices)
    else Ok g

let network_mode g ~full_duplex =
  if not (Topology.Digraph.is_symmetric g) then Protocol.Protocol.Directed
  else if full_duplex then Protocol.Protocol.Full_duplex
  else Protocol.Protocol.Half_duplex

(* --- per-operation evaluation --- *)

let tables_key s_max ss =
  Printf.sprintf "s_max=%d;ss=%s" s_max
    (String.concat "," (List.map string_of_int ss))

let eval_tables d ~s_max ~ss =
  (* λ*(s) is a context artifact; touching it per query makes repeated
     table queries visible as context cache hits, not just memo hits. *)
  List.iter
    (fun s ->
      ignore (Context.lambda_star d.ctx ~mode:Protocol.Protocol.Half_duplex s);
      ignore (Context.lambda_star d.ctx ~mode:Protocol.Protocol.Full_duplex s))
    ss;
  let key = tables_key s_max ss in
  let cached =
    Mutex.lock d.memo_mu;
    let r = Hashtbl.find_opt d.tables_memo key in
    Mutex.unlock d.memo_mu;
    r
  in
  match cached with
  | Some j ->
      Instrument.add "serve.tables_memo.hit" 1;
      Ok j
  | None ->
      Instrument.add "serve.tables_memo.miss" 1;
      let j = Bounds.Tables.to_json ~s_max ~ss () in
      Mutex.lock d.memo_mu;
      if Hashtbl.length d.tables_memo < 64 then
        Hashtbl.replace d.tables_memo key j;
      Mutex.unlock d.memo_mu;
      Ok j

let oracle_to_json g ~mode ~s (o : Bounds.Oracle.t) =
  Json.Obj
    [
      ("network", Json.Str (Topology.Digraph.name g));
      ("mode", Json.Str (Protocol.Protocol.mode_to_string mode));
      ("s", match s with Some s -> Json.Int s | None -> Json.Null);
      ("sound", Json.Int o.Bounds.Oracle.sound);
      ("diameter", Json.Int o.Bounds.Oracle.diameter);
      ("doubling", Json.Int o.Bounds.Oracle.doubling);
      ( "two_systolic",
        match o.Bounds.Oracle.two_systolic with
        | Some v -> Json.Int v
        | None -> Json.Null );
      ("asymptotic_general", Json.Float o.Bounds.Oracle.asymptotic_general);
      ( "asymptotic_refined",
        match o.Bounds.Oracle.asymptotic_refined with
        | Some v -> Json.Float v
        | None -> Json.Null );
    ]

let eval_bound d ~net ~s ~full_duplex =
  let* g = build_network net in
  let mode = network_mode g ~full_duplex in
  let o = Context.lower_bounds d.ctx g ~mode ~s in
  Ok (oracle_to_json g ~mode ~s o)

let eval_simulate d ~net ~full_duplex =
  let* g = build_network net in
  let sys = Protocol.Builders.default_systolic g ~full_duplex in
  let r = Analysis.certify_protocol ~ctx:d.ctx sys in
  let run = Simulate.Engine.gossip_run sys in
  Ok (Analysis.protocol_report_to_json ~coverage:run.Simulate.Engine.curve r)

(* Family resolution rounds the target up to the smallest instance, so a
   parse-gated [n] can still overshoot (up to the family's growth factor);
   a post-resolution gate keeps the worst case bounded. *)
let max_implicit_vertices = 1 lsl 18

let eval_simulate_implicit ~family ~n ~items ~checkpoint_every ~period ~seed
    ~degree ~full_duplex =
  let* imp, sched =
    Protocol.Schedule.of_family ~family ~n ~degree ~period ~seed ~full_duplex ()
  in
  let nv = Topology.Implicit.n_vertices imp in
  if nv > max_implicit_vertices then
    Error
      (Printf.sprintf
         "implicit network too large to serve (%d > %d vertices)" nv
         max_implicit_vertices)
  else begin
    let st = Simulate.Chunked.create ~items nv in
    let t0 = Instrument.now_ns () in
    (* one domain: a serving process gets its parallelism from concurrent
       worker domains, not nested spawns *)
    let outcome = Simulate.Chunked.run ~domains:1 ~checkpoint_every st sched in
    let wall_seconds = Int64.to_float (Int64.sub (Instrument.now_ns ()) t0) /. 1e9 in
    Ok
      (Simulate.Chunked.report_to_json ~family ~requested_n:n ~sched ~st
         ~outcome ~wall_seconds ~domains:1)
  end

let eval_certify d ~spec ~refine =
  let* sys =
    match spec with
    | Wire.Inline text -> (
        match Protocol.Protocol_io.of_string text with
        | sys ->
            let n =
              Topology.Digraph.n_vertices (Protocol.Systolic.graph sys)
            in
            if n > max_vertices then
              Error
                (Printf.sprintf
                   "protocol network too large to serve (%d > %d vertices)" n
                   max_vertices)
            else Ok sys
        | exception (Failure msg | Invalid_argument msg) ->
            Error (Printf.sprintf "unparsable protocol: %s" msg))
    | Wire.Built { net; full_duplex } ->
        let* g = build_network net in
        Ok (Protocol.Builders.default_systolic g ~full_duplex)
  in
  let report = Analysis.certify_protocol ~ctx:d.ctx sys in
  let refined =
    if not refine then None
    else
      match report.Analysis.gossip_time with
      | Some t ->
          let dg = Context.delay_digraph d.ctx sys ~length:t in
          Some
            (Context.certify d.ctx ~refine:true dg
               ~mode:(Protocol.Systolic.mode sys))
      | None -> None
  in
  Ok
    (match Analysis.protocol_report_to_json report with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @
          match refined with
          | Some cert -> [ ("refined", Delay.Certificate.to_json cert) ]
          | None -> [])
    | other -> other)

(* Post-resolution vertex gate for certify_faults: family resolution
   rounds n up, and every enumerated pattern costs a full chunked run. *)
let max_certify_faults_vertices = 512

let eval_certify_faults d ~family ~n ~k ~budget ~seed ~degree ~full_duplex
    ~harden ~cap =
  let* _imp, sched =
    Protocol.Schedule.of_family ~family ~n ~degree ~seed ~full_duplex ()
  in
  let nv = Protocol.Schedule.n_vertices sched in
  if nv > max_certify_faults_vertices then
    Error
      (Printf.sprintf
         "network too large to certify (%d > %d vertices)" nv
         max_certify_faults_vertices)
  else
    let* sched, report =
      Protocol.Fault_tolerant.harden sched ~transform:harden ~k
    in
    let cap = if cap = 0 then None else Some cap in
    let fingerprint = Simulate.Certifier.fingerprint sched in
    let cert =
      Context.fault_certificate d.ctx ~fingerprint ~k ~seed ~budget
        ~cap:(Option.value ~default:(-1) cap) ~compute:(fun () ->
          (* one domain: a serving process gets its parallelism from
             concurrent worker domains, not nested spawns *)
          Simulate.Certifier.to_json sched
            (Simulate.Certifier.certify ~domains:1 ?cap ~budget sched ~k ~seed))
    in
    Ok
      (Json.Obj
         [
           ("certificate", cert);
           ("hardening", Protocol.Fault_tolerant.report_to_json report);
         ])

let eval_op d (op : Wire.op) =
  match op with
  | Wire.Ping -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Wire.Version -> Ok (Json.Obj [ ("version", Json.Str Version.string) ])
  | Wire.Shutdown ->
      (* the server intercepts this op to start its drain; the dispatcher
         only supplies the acknowledgement payload *)
      Ok (Json.Obj [ ("stopping", Json.Bool true) ])
  | Wire.Stats ->
      Ok
        (Json.Obj
           [
             ("cache", Context.stats_json d.ctx);
             ("metrics", Instrument.metrics_json ());
           ])
  | Wire.Metrics -> Ok (Metrics.metrics_json d.metrics)
  | Wire.Health -> Ok (Metrics.health_json d.metrics)
  | Wire.Spans -> Ok (Metrics.spans_json ())
  | Wire.Sleep { ms } ->
      Unix.sleepf (float_of_int ms /. 1000.0);
      Ok (Json.Obj [ ("slept_ms", Json.Int ms) ])
  | Wire.Tables { s_max; ss } -> eval_tables d ~s_max ~ss
  | Wire.Bound { net; s; full_duplex } -> eval_bound d ~net ~s ~full_duplex
  | Wire.Simulate { net; full_duplex } -> eval_simulate d ~net ~full_duplex
  | Wire.Simulate_implicit
      { family; n; items; checkpoint_every; period; seed; degree; full_duplex }
    ->
      eval_simulate_implicit ~family ~n ~items ~checkpoint_every ~period ~seed
        ~degree ~full_duplex
  | Wire.Certify { spec; refine } -> eval_certify d ~spec ~refine
  | Wire.Certify_faults
      { family; n; k; budget; seed; degree; full_duplex; harden; cap } ->
      eval_certify_faults d ~family ~n ~k ~budget ~seed ~degree ~full_duplex
        ~harden ~cap
  | Wire.Trace_pull { max } -> Ok (Metrics.traces_json d.metrics ~max)
  | Wire.Gossip _ | Wire.Mem_digest | Wire.Drain _ -> (
      match d.cluster with
      | Some handler -> handler op
      | None ->
          Error
            "not a cluster member (start the server with --join / --node-id)")

let eval d op =
  match
    Instrument.span "serve.eval"
      ~attrs:[ ("op", Json.Str (Wire.op_name op)) ]
      (fun () -> eval_op d op)
  with
  | Ok j -> Ok j
  | Error msg -> Error (Wire.Bad_request, msg)
  | exception (Failure msg | Invalid_argument msg) ->
      Error (Wire.Bad_request, msg)
  | exception exn -> Error (Wire.Internal, Printexc.to_string exn)
