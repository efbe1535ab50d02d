module Json = Gossip_util.Json
module Instrument = Gossip_util.Instrument
module Trace = Gossip_util.Trace
module Wire = Gossip_serve.Wire
module Metrics = Gossip_serve.Metrics

let routing_key (op : Wire.op) =
  match op with
  | Wire.Tables _ | Wire.Bound _ | Wire.Simulate _ | Wire.Simulate_implicit _
  | Wire.Certify _ | Wire.Certify_faults _ ->
      (* the canonical request serialization: op name + exact params,
         field order fixed by [Wire.request_to_json] — precisely the
         identity the shard-side caches key on.  [trace] stays [None]:
         trace context is per-call identity, never part of the affinity
         key, or identical queries would scatter across shards. *)
      Some
        (Json.to_string
           (Wire.request_to_json
              { Wire.id = Json.Null; op; timeout_ms = None; trace = None }))
  | _ -> None

type t = {
  membership : Membership.t;
  metrics : Metrics.t;
  vnodes : int;
  replicas : int;
  sample_rate : float;  (* head-sampling rate for router-minted traces *)
  transport_key : Transport.t Domain.DLS.key;
  rr : int Atomic.t;  (* round-robin cursor for keyless ops *)
  mu : Mutex.t;  (* guards the ring cache and the warned set *)
  mutable ring_gen : int;
  mutable ring_cache : Ring.t;
  warned_versions : (string, unit) Hashtbl.t;
}

let create ~membership ~metrics ?(vnodes = 64) ?(replicas = 2)
    ?(sample_rate = 1.0) ?(policy = Transport.default_policy) ?(seed = 0) () =
  if replicas < 1 then invalid_arg "Router.create: replicas must be >= 1";
  {
    membership;
    metrics;
    vnodes;
    replicas;
    sample_rate;
    transport_key =
      Domain.DLS.new_key (fun () -> Transport.create ~policy ~seed ());
    rr = Atomic.make 0;
    mu = Mutex.create ();
    ring_gen = -1;
    ring_cache = Ring.create ~vnodes [];
    warned_versions = Hashtbl.create 4;
  }

let transport t = Domain.DLS.get t.transport_key

let is_shard (e : Membership.entry) = e.role = "shard" && e.addr <> ""

(* Routable = may receive NEW keys: alive and suspect (a suspect is
   innocent until the detector settles — its replicas cover the gap).
   Draining and dead are out; excluding a draining shard from the ring
   IS the drain. *)
let routable (e : Membership.entry) =
  is_shard e
  && match e.status with
     | Membership.Alive | Membership.Suspect -> true
     | Membership.Draining | Membership.Dead -> false

let ring t =
  let gen = Membership.generation t.membership in
  Mutex.lock t.mu;
  let r =
    if gen = t.ring_gen then t.ring_cache
    else begin
      let nodes =
        List.filter routable (Membership.entries t.membership)
        |> List.map (fun (e : Membership.entry) -> e.Membership.node)
      in
      let r = Ring.create ~vnodes:t.vnodes nodes in
      t.ring_gen <- gen;
      t.ring_cache <- r;
      r
    end
  in
  Mutex.unlock t.mu;
  r

let note_version_skew t =
  let entries = Membership.entries t.membership in
  let skew = Membership.version_skew entries in
  Instrument.set_gauge "cluster.version_skew" (float_of_int skew);
  if skew > 0 then begin
    let own = Core.Version.string in
    Mutex.lock t.mu;
    List.iter
      (fun (e : Membership.entry) ->
        if
          e.Membership.version <> own
          && not (Hashtbl.mem t.warned_versions e.Membership.node)
        then begin
          Hashtbl.replace t.warned_versions e.Membership.node ();
          Printf.eprintf
            "gossip_router: version skew: node %s runs %s, this router %s\n%!"
            e.Membership.node e.Membership.version own
        end)
      entries;
    Mutex.unlock t.mu
  end

(* --- forwarding --- *)

let addr_of t node =
  match Membership.find t.membership node with
  | Some e when e.Membership.addr <> "" -> Some e.Membership.addr
  | _ -> None

let status_of t node =
  match Membership.find t.membership node with
  | Some e -> e.Membership.status
  | None -> Membership.Dead

(* One wire exchange with [node], wrapped — when the request rides a
   sampled trace and streaming is live — in its own ["router.forward"]
   hop span.  Each hop mints a fresh span id and re-parents the
   downstream context onto it, so a failover shows up as {e sibling}
   hop spans under the router's request span, each bracketing exactly
   the wire time of its attempt; the stitcher also uses the bracket to
   align the shard's clock.  The hop span's own parent comes from the
   ambient attributes the server installed (the router's
   [serve.request] span). *)
let exchange_hop t ~trace ~node ~addr op =
  match trace with
  | Some tr when tr.Trace.sampled && Instrument.tracing () ->
      let hop_id = Trace.fresh_span_id () in
      Instrument.span "router.forward"
        ~attrs:
          [
            ("trace_id", Json.Str tr.Trace.trace_id);
            ("span_id", Json.Str hop_id);
            ("peer", Json.Str node);
            ("addr", Json.Str addr);
          ]
        (fun () ->
          Transport.exchange (transport t) addr
            ~trace:(Trace.child tr ~span_id:hop_id)
            op)
  | Some tr -> Transport.exchange (transport t) addr ~trace:tr op
  | None -> Transport.exchange (transport t) addr op

(* Try the candidate shards in order; a definitive client-side
   rejection is relayed, everything transport-shaped steps on. *)
let rec forward t ~trace op ~last_err = function
  | [] ->
      Error
        ( Wire.Internal,
          Printf.sprintf "no replica answered for this request (%s)" last_err )
  | node :: rest -> (
      match addr_of t node with
      | None -> forward t ~trace op ~last_err:(node ^ ": no address") rest
      | Some addr -> (
          Instrument.add "cluster.router.forwards" 1;
          match exchange_hop t ~trace ~node ~addr op with
          | Ok j -> Ok j
          | Error (`Fatal ((Wire.Bad_request | Wire.Oversized_frame), _)) as e
            ->
              (match e with
              | Error (`Fatal (code, msg)) -> Error (code, msg)
              | _ -> assert false)
          | Error (`Fatal (code, msg)) ->
              Instrument.add "cluster.router.failovers" 1;
              forward t ~trace op
                ~last_err:
                  (Printf.sprintf "%s: %s: %s" node
                     (Wire.error_code_to_string code)
                     msg)
                rest
          | Error (`Down msg) ->
              Instrument.add "cluster.router.failovers" 1;
              forward t ~trace op
                ~last_err:(Printf.sprintf "%s: %s" node msg)
                rest))

let severity_rank t node = Membership.severity (status_of t node)

let route_keyed t ~trace key op =
  let r = ring t in
  match Ring.replicas r ~k:t.replicas key with
  | [] -> Error (Wire.Internal, "no shards are routable (cluster empty?)")
  | candidates ->
      (* alive before suspect, walk order within a rank; [List.stable_sort]
         keeps the ring's replica order as the tiebreak *)
      let ordered =
        List.stable_sort
          (fun a b -> compare (severity_rank t a) (severity_rank t b))
          candidates
      in
      forward t ~trace op ~last_err:"no candidates tried" ordered

let route_any t ~trace op =
  let alive =
    List.filter
      (fun (e : Membership.entry) ->
        is_shard e && e.Membership.status = Membership.Alive)
      (Membership.entries t.membership)
  in
  let pool =
    if alive <> [] then alive
    else List.filter routable (Membership.entries t.membership)
  in
  match pool with
  | [] -> Error (Wire.Internal, "no shards are routable (cluster empty?)")
  | pool ->
      let n = List.length pool in
      let start = Atomic.fetch_and_add t.rr 1 in
      let ordered =
        List.init n (fun i ->
            (List.nth pool ((start + i) mod n)).Membership.node)
      in
      forward t ~trace op ~last_err:"no candidates tried" ordered

(* --- cluster-wide observability --- *)

(* Shards worth asking: everyone not settled dead. *)
let reachable_shards t =
  List.filter
    (fun (e : Membership.entry) ->
      is_shard e && e.Membership.status <> Membership.Dead)
    (Membership.entries t.membership)

let fan_out t op =
  List.map
    (fun (e : Membership.entry) ->
      ( e,
        match Transport.exchange (transport t) e.Membership.addr op with
        | Ok j -> Ok j
        | Error (`Fatal (code, msg)) ->
            Error (Printf.sprintf "%s: %s" (Wire.error_code_to_string code) msg)
        | Error (`Down msg) -> Error msg ))
    (reachable_shards t)

let shard_reply_json ((e : Membership.entry), outcome) ~payload_field =
  Json.Obj
    ([
       ("node", Json.Str e.Membership.node);
       ("status", Json.Str (Membership.status_to_string e.Membership.status));
       ("reachable", Json.Bool (Result.is_ok outcome));
     ]
    @
    match outcome with
    | Ok j -> [ (payload_field, j) ]
    | Error msg -> [ ("error", Json.Str msg) ])

let envelope t ~schema fields =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("version", Json.Str Core.Version.string);
       ("node", Json.Str (Membership.self t.membership));
     ]
    @ fields)

let agg_metrics t =
  note_version_skew t;
  let replies = fan_out t Wire.Metrics in
  let skew = Membership.version_skew (Membership.entries t.membership) in
  envelope t ~schema:"gossip-cluster-metrics/1"
    [
      ("version_skew", Json.Int skew);
      ("router", Metrics.metrics_json t.metrics);
      ( "shards",
        Json.List
          (List.map (shard_reply_json ~payload_field:"metrics") replies) );
    ]

let agg_health t =
  note_version_skew t;
  let entries = Membership.entries t.membership in
  let replies = fan_out t Wire.Health in
  let shard_ok (_, outcome) =
    match outcome with
    | Ok j -> (
        match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false)
    | Error _ -> false
  in
  let suspects =
    List.filter
      (fun (e : Membership.entry) -> e.Membership.status = Membership.Suspect)
      entries
  in
  let alive_shards =
    List.filter
      (fun (e : Membership.entry) ->
        is_shard e && e.Membership.status = Membership.Alive)
      entries
  in
  (* a draining shard's replies (or silence) are voluntary; only the
     members that claim to serve can degrade the fleet *)
  let serving_replies =
    List.filter
      (fun ((e : Membership.entry), _) ->
        e.Membership.status <> Membership.Draining)
      replies
  in
  let reasons =
    (if alive_shards = [] then [ "no alive shards" ] else [])
    @ List.map
        (fun (e : Membership.entry) ->
          Printf.sprintf "member %s is suspect" e.Membership.node)
        suspects
    @ List.filter_map
        (fun (((e : Membership.entry), outcome) as reply) ->
          if shard_ok reply then None
          else
            Some
              (match outcome with
              | Error msg ->
                  Printf.sprintf "shard %s unreachable: %s" e.Membership.node
                    msg
              | Ok _ ->
                  Printf.sprintf "shard %s reports degraded" e.Membership.node))
        serving_replies
    @
    if Metrics.healthy t.metrics then [] else [ "router itself is degraded" ]
  in
  let ok = reasons = [] in
  envelope t ~schema:"gossip-cluster-health/1"
    [
      ("status", Json.Str (if ok then "ok" else "degraded"));
      ("ok", Json.Bool ok);
      ("reasons", Json.List (List.map (fun r -> Json.Str r) reasons));
      ("alive_shards", Json.Int (List.length alive_shards));
      ("suspect_members", Json.Int (List.length suspects));
      ("router", Metrics.health_json t.metrics);
      ( "shards",
        Json.List (List.map (shard_reply_json ~payload_field:"health") replies)
      );
    ]

let agg_stats t =
  note_version_skew t;
  let replies = fan_out t Wire.Stats in
  let r = ring t in
  envelope t ~schema:"gossip-cluster-stats/1"
    [
      ("membership", Membership.view_json t.membership);
      ( "ring",
        match Ring.spec_json r with
        | Json.Obj fields ->
            Json.Obj (fields @ [ ("replicas", Json.Int t.replicas) ])
        | j -> j );
      ( "shards",
        Json.List (List.map (shard_reply_json ~payload_field:"stats") replies)
      );
    ]

(* Fleet-wide trace collection: drain the router's own ring plus every
   reachable shard's, one [trace_pull] each.  Destructive on every node
   (each event is handed out once), so one collector owns the pull. *)
let agg_traces t ~max =
  let replies = fan_out t (Wire.Trace_pull { max }) in
  envelope t ~schema:"gossip-cluster-traces/1"
    [
      ("router", Metrics.traces_json t.metrics ~max);
      ( "shards",
        Json.List (List.map (shard_reply_json ~payload_field:"traces") replies)
      );
    ]

(* --- drain --- *)

let drain t node =
  match node with
  | None ->
      Error
        ( Wire.Bad_request,
          "drain: the router needs an explicit node (params.node)" )
  | Some node when node = Membership.self t.membership ->
      Error (Wire.Bad_request, "drain: refusing to drain the router itself")
  | Some node -> (
      match Membership.find t.membership node with
      | None -> Error (Wire.Bad_request, Printf.sprintf "drain: unknown node %S" node)
      | Some e when not (is_shard e) ->
          Error (Wire.Bad_request, Printf.sprintf "drain: %S is not a shard" node)
      | Some e -> (
          (* ask the shard itself first: its own draining entry carries a
             bumped incarnation and dominates fleet-wide *)
          let forwarded =
            Transport.exchange (transport t) e.Membership.addr
              (Wire.Drain { node = Some node })
          in
          (match forwarded with
          | Ok view -> (
              match Membership.entries_of_view view with
              | Ok remote -> ignore (Membership.merge t.membership remote)
              | Error _ -> ())
          | Error _ ->
              (* unreachable: spread the drain as a same-freshness rumor —
                 severity wins the merge tie everywhere *)
              ignore
                (Membership.merge t.membership
                   [ { e with Membership.status = Membership.Draining } ]));
          Instrument.add "cluster.router.drains" 1;
          match forwarded with
          | Ok _ ->
              Ok
                (Json.Obj
                   [
                     ("draining", Json.Str node);
                     ("acknowledged", Json.Bool true);
                   ])
          | Error _ ->
              Ok
                (Json.Obj
                   [
                     ("draining", Json.Str node);
                     ("acknowledged", Json.Bool false);
                   ])))

(* --- the evaluator --- *)

let evaluate t ~trace (op : Wire.op) =
  match op with
  | Wire.Gossip _ | Wire.Mem_digest -> (
      match Membership.handle t.membership op with
      | Ok j ->
          note_version_skew t;
          Ok j
      | Error msg -> Error (Wire.Bad_request, msg))
  | Wire.Drain { node } -> drain t node
  | Wire.Metrics -> Ok (agg_metrics t)
  | Wire.Health -> Ok (agg_health t)
  | Wire.Stats -> Ok (agg_stats t)
  | Wire.Spans -> Ok (Metrics.spans_json ())
  | Wire.Trace_pull { max } -> Ok (agg_traces t ~max)
  | op ->
      (* the router is the trace edge: a request that arrives without
         context gets one minted here — head-sampled by [sample_rate],
         the verdict pure in the trace id so every downstream node
         agrees without coordination.  A freshly minted sampled-out
         context also silences the {e rest of the router's own}
         evaluation (the hop spans), matching what the shards will do. *)
      let trace, minted_out =
        match trace with
        | Some _ -> (trace, false)
        | None ->
            let tr = Trace.mint ~sample_rate:t.sample_rate () in
            (Some tr, not tr.Trace.sampled)
      in
      let route () =
        match routing_key op with
        | Some key -> route_keyed t ~trace key op
        | None -> route_any t ~trace op
      in
      if minted_out then Instrument.with_sampled_out route else route ()
