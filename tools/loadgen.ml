(* loadgen: hammer a running gossip_served with concurrent connections.

   usage: loadgen (--socket PATH | --tcp HOST:PORT)
            [--connections N]   client connections, one thread each (2)
            [--requests N]      total requests across connections (100)
            [--mix SPEC]        weighted op mix, e.g. "tables:4,bound:3,
                                ping:2,simulate:1" (that is the default)
            [--timeout-ms MS]   per-request deadline sent with each call
            [--trace-sample-rate RATE]
                                mint a distributed trace context on each
                                request (loadgen is the trace edge),
                                head-sampled at RATE; the report and
                                stdout gain the top slowest requests
                                with their trace ids, ready to grep in
                                stitched trace_report output (0, off)
            [--report PATH]     write the JSON report there (default stdout)
            [--require-cache-hits]  exit 1 unless the server reports
                                    context cache hits > 0
            [--expect-healthy]  exit 1 unless `health` reports "ok"
                                (polled for up to 5 s after the drain)
            [--chaos-tolerant]  drive each connection through
                                Serve.Resilient_client: reconnects,
                                bounded retries with backoff, per-call
                                budgets, stale-reply dropping
            [--max-attempts N]        retry policy (chaos mode; 6)
            [--attempt-timeout-ms MS] per-attempt reply deadline (1000)
            [--call-budget-ms MS]     per-call wall budget (10000)
            [--min-restarts N]  exit 1 unless the server's
                                worker_restarts gauge is >= N

   Emits a `gossip-loadgen/1` JSON report: throughput, latency
   percentiles (p50/p95/p99), per-op and per-error-code counts, and the
   server's own view fetched post-run: `stats` (cache), `metrics`
   (rolling windows + cumulative totals) and `health`.  In chaos mode
   the report adds a `resilience` object (attempts, retries,
   reconnects, stale replies dropped, garbled frames tolerated) and a
   `gave_ups` count of calls whose retries ran out.

   Every request must be accounted for exactly once — success, explicit
   server error, protocol error, connect failure (a request never sent
   because its connection could not be opened), or gave-up; the
   report's `unaccounted` field is the difference and any non-zero
   value fails the run.  That is the chaos soak's headline guarantee:
   injected faults may slow calls down or fail them *explicitly*, but
   can never lose one silently.

   The server totals are cross-checked against the client-side per-op
   counts: because the server records each request before sending its
   reply, by the time every reply has arrived the server-side count for
   an op can never be below the client-side count (it can be above —
   retried attempts and earlier runs against the same server also
   accumulated).  A lower server count on a clean run means lost
   accounting and fails the run.

   Exit status: 0 on a clean run; 1 when any reply was dropped or
   garbled (a *protocol* error — valid error replies such as queue_full
   are counted separately, not failures), when any connection could not
   be opened (its requests are connect failures), when any request is
   unaccounted, when the metrics cross-check fails on an otherwise
   clean run, or when --require-cache-hits / --expect-healthy /
   --min-restarts is not met.  Used by CI as the end-to-end gate
   (doc/serving.md, doc/robustness.md). *)

module Json = Gossip_util.Json
module Serve = Gossip_serve

let usage () =
  prerr_endline
    "usage: loadgen (--socket PATH | --tcp HOST:PORT) [--connections N]\n\
    \         [--requests N] [--mix SPEC] [--timeout-ms MS]\n\
    \         [--trace-sample-rate RATE] [--report PATH]\n\
    \         [--require-cache-hits] [--expect-healthy] [--chaos-tolerant]\n\
    \         [--max-attempts N] [--attempt-timeout-ms MS]\n\
    \         [--call-budget-ms MS] [--min-restarts N] [--cluster]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("loadgen: " ^ m); exit 2) fmt

(* --- request mix --- *)

(* Parameter sets rotated through by request index: repetition is the
   point (the server's cache should absorb it), variety keeps more than
   one artifact in play. *)
let nets =
  [|
    { Serve.Wire.family = "cycle"; dim = 16; degree = 2 };
    { Serve.Wire.family = "hypercube"; dim = 4; degree = 2 };
    { Serve.Wire.family = "db"; dim = 3; degree = 2 };
    { Serve.Wire.family = "complete"; dim = 8; degree = 2 };
  |]

let op_of_name name i =
  let net = nets.(i mod Array.length nets) in
  match name with
  | "ping" -> Serve.Wire.Ping
  | "version" -> Serve.Wire.Version
  | "stats" -> Serve.Wire.Stats
  | "metrics" -> Serve.Wire.Metrics
  | "health" -> Serve.Wire.Health
  | "spans" -> Serve.Wire.Spans
  | "sleep" -> Serve.Wire.Sleep { ms = 10 }
  | "tables" -> Serve.Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6; 7; 8 ] }
  | "bound" -> Serve.Wire.Bound { net; s = Some 4; full_duplex = false }
  | "simulate" -> Serve.Wire.Simulate { net; full_duplex = false }
  | "certify" ->
      Serve.Wire.Certify
        { spec = Serve.Wire.Built { net; full_duplex = false }; refine = false }
  | "certify_faults" ->
      (* deliberately small and parameter-stable: repeats hit the
         context's fault_cert shelf, which --require-cache-hits gates *)
      Serve.Wire.Certify_faults
        {
          family = "cycle";
          n = 12;
          k = 1;
          budget = 64;
          seed = 1;
          degree = 2;
          full_duplex = false;
          harden = "augment";
          cap = 0;
        }
  | other -> fail "unknown op %S in mix" other

let parse_mix spec =
  let entries =
    List.filter_map
      (fun tok ->
        let tok = String.trim tok in
        if tok = "" then None
        else
          match String.split_on_char ':' tok with
          | [ name; weight ] -> (
              match int_of_string_opt weight with
              | Some w when w > 0 -> Some (name, w)
              | _ -> fail "bad weight in mix entry %S" tok)
          | [ name ] -> Some (name, 1)
          | _ -> fail "bad mix entry %S" tok)
      (String.split_on_char ',' spec)
  in
  if entries = [] then fail "empty mix";
  (* weighted round-robin: expand weights into a repeating schedule *)
  Array.of_list
    (List.concat_map (fun (name, w) -> List.init w (fun _ -> name)) entries)

(* --- argument parsing --- *)

type args = {
  target : Serve.Server.listen;
  connections : int;
  requests : int;
  mix : string array;
  timeout_ms : int option;
  trace_sample_rate : float;
      (* > 0 makes the loadgen the trace edge: every request carries a
         freshly minted context, head-sampled at this rate *)
  report : string option;
  require_cache_hits : bool;
  expect_healthy : bool;
  chaos_tolerant : bool;
  max_attempts : int;
  attempt_timeout_ms : int;
  call_budget_ms : int;
  min_restarts : int;
  cluster : bool;
      (* the target is a gossip_router: post-run snapshots are the
         gossip-cluster-*/1 envelopes, the metrics cross-check reads the
         router's own totals, and the run additionally audits
         fingerprint affinity by recomputing every request's ring
         placement *)
}

let parse_args () =
  let target = ref None
  and connections = ref 2
  and requests = ref 100
  and mix = ref "tables:4,bound:3,ping:2,simulate:1"
  and timeout_ms = ref None
  and trace_sample_rate = ref 0.0
  and report = ref None
  and require_cache_hits = ref false
  and expect_healthy = ref false
  and chaos_tolerant = ref false
  and max_attempts = ref 6
  and attempt_timeout_ms = ref 1000
  and call_budget_ms = ref 10_000
  and min_restarts = ref 0
  and cluster = ref false in
  let rec go = function
    | [] -> ()
    | "--socket" :: path :: rest ->
        target := Some (Serve.Server.Unix_socket path);
        go rest
    | "--tcp" :: hostport :: rest ->
        (match Serve.Server.tcp_of_string hostport with
        | Ok listen -> target := Some listen
        | Error e -> fail "--tcp: %s" e);
        go rest
    | "--connections" :: n :: rest ->
        connections := (match int_of_string_opt n with Some v when v >= 1 -> v | _ -> usage ());
        go rest
    | "--requests" :: n :: rest ->
        requests := (match int_of_string_opt n with Some v when v >= 1 -> v | _ -> usage ());
        go rest
    | "--mix" :: spec :: rest ->
        mix := spec;
        go rest
    | "--timeout-ms" :: ms :: rest ->
        timeout_ms := (match int_of_string_opt ms with Some v when v >= 0 -> Some v | _ -> usage ());
        go rest
    | "--trace-sample-rate" :: rate :: rest ->
        trace_sample_rate :=
          (match float_of_string_opt rate with
          | Some v when v >= 0.0 && v <= 1.0 -> v
          | _ -> usage ());
        go rest
    | "--report" :: path :: rest ->
        report := Some path;
        go rest
    | "--require-cache-hits" :: rest ->
        require_cache_hits := true;
        go rest
    | "--expect-healthy" :: rest ->
        expect_healthy := true;
        go rest
    | "--chaos-tolerant" :: rest ->
        chaos_tolerant := true;
        go rest
    | "--max-attempts" :: n :: rest ->
        max_attempts := (match int_of_string_opt n with Some v when v >= 1 -> v | _ -> usage ());
        go rest
    | "--attempt-timeout-ms" :: ms :: rest ->
        attempt_timeout_ms := (match int_of_string_opt ms with Some v when v >= 1 -> v | _ -> usage ());
        go rest
    | "--call-budget-ms" :: ms :: rest ->
        call_budget_ms := (match int_of_string_opt ms with Some v when v >= 1 -> v | _ -> usage ());
        go rest
    | "--min-restarts" :: n :: rest ->
        min_restarts := (match int_of_string_opt n with Some v when v >= 0 -> v | _ -> usage ());
        go rest
    | "--cluster" :: rest ->
        cluster := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !target with
  | None -> usage ()
  | Some target ->
      {
        target;
        connections = !connections;
        requests = !requests;
        mix = parse_mix !mix;
        timeout_ms = !timeout_ms;
        trace_sample_rate = !trace_sample_rate;
        report = !report;
        require_cache_hits = !require_cache_hits;
        expect_healthy = !expect_healthy;
        chaos_tolerant = !chaos_tolerant;
        max_attempts = !max_attempts;
        attempt_timeout_ms = !attempt_timeout_ms;
        call_budget_ms = !call_budget_ms;
        min_restarts = !min_restarts;
        cluster = !cluster;
      }

(* --- measurement --- *)

type tally = {
  mutable ok : int;
  mutable protocol_errors : int;
      (* garbled or dropped replies and id mismatches *)
  mutable connect_failures : int;
      (* requests never sent: their connection could not be opened *)
  mutable gave_ups : int;  (* chaos mode: retries/budget ran out *)
  by_code : (string, int) Hashtbl.t;
  by_op : (string, int * float) Hashtbl.t;  (* count, summed ms *)
  mutable latencies_ms : float list;
  (* requests that carried a sampled trace context: (latency_ms, op,
     trace_id), for the slowest-requests exemplar table *)
  mutable traced : (float * string * string) list;
  (* resilience counters, merged from each connection's client *)
  mutable r_attempts : int;
  mutable r_retries : int;
  mutable r_reconnects : int;
  mutable r_stale_dropped : int;
  mutable r_garbled : int;
  mu : Mutex.t;
}

let now_s () = Unix.gettimeofday ()

let record tally ?trace_id ~op_name ~latency_ms outcome =
  Mutex.lock tally.mu;
  (match trace_id with
  | Some tid -> tally.traced <- (latency_ms, op_name, tid) :: tally.traced
  | None -> ());
  (match outcome with
  | `Ok -> tally.ok <- tally.ok + 1
  | `Server_error code ->
      let key = Serve.Wire.error_code_to_string code in
      Hashtbl.replace tally.by_code key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally.by_code key))
  | `Gave_up msg ->
      tally.gave_ups <- tally.gave_ups + 1;
      Printf.eprintf "loadgen: gave up: %s\n%!" msg
  | `Protocol msg ->
      tally.protocol_errors <- tally.protocol_errors + 1;
      Printf.eprintf "loadgen: protocol error: %s\n%!" msg);
  let count, sum =
    Option.value ~default:(0, 0.0) (Hashtbl.find_opt tally.by_op op_name)
  in
  Hashtbl.replace tally.by_op op_name (count + 1, sum +. latency_ms);
  tally.latencies_ms <- latency_ms :: tally.latencies_ms;
  Mutex.unlock tally.mu

let merge_resilience tally (s : Serve.Resilient_client.stats) =
  Mutex.lock tally.mu;
  tally.r_attempts <- tally.r_attempts + s.Serve.Resilient_client.attempts;
  tally.r_retries <- tally.r_retries + s.Serve.Resilient_client.retries;
  tally.r_reconnects <- tally.r_reconnects + s.Serve.Resilient_client.reconnects;
  tally.r_stale_dropped <-
    tally.r_stale_dropped + s.Serve.Resilient_client.stale_dropped;
  tally.r_garbled <- tally.r_garbled + s.Serve.Resilient_client.garbled;
  Mutex.unlock tally.mu

(* The loadgen is the trace edge: a fresh root context per request,
   head-sampled so fleets under heavy storms stream only a slice.  The
   trace id is recorded only when the verdict was "keep" — an exemplar
   pointing at spans nobody streamed would be noise. *)
let mint_trace args =
  if args.trace_sample_rate > 0.0 then
    Some (Gossip_util.Trace.mint ~sample_rate:args.trace_sample_rate ())
  else None

let trace_id_if_sampled trace =
  match trace with
  | Some tr when tr.Gossip_util.Trace.sampled ->
      Some tr.Gossip_util.Trace.trace_id
  | _ -> None

(* A connection that could not be opened sends none of its [count]
   requests: they are connect failures, not protocol errors. *)
let connect_failed tally ~conn_index ~count e =
  Mutex.lock tally.mu;
  tally.connect_failures <- tally.connect_failures + count;
  Mutex.unlock tally.mu;
  Printf.eprintf "loadgen: connection %d failed: %s\n%!" conn_index
    (Printexc.to_string e)

let run_connection args tally ~conn_index ~first ~count =
  match Serve.Client.connect_retry args.target with
  | exception e -> connect_failed tally ~conn_index ~count e
  | client ->
      for k = 0 to count - 1 do
        let i = first + k in
        let name = args.mix.(i mod Array.length args.mix) in
        let op = op_of_name name i in
        let id = Json.Int i in
        let trace = mint_trace args in
        let t0 = now_s () in
        let outcome =
          match
            Serve.Client.call client ~id ?timeout_ms:args.timeout_ms ?trace op
          with
          | Error msg -> `Protocol msg
          | Ok resp ->
              if resp.Serve.Wire.resp_id <> id then
                `Protocol
                  (Printf.sprintf "response id mismatch on request %d" i)
              else (
                match resp.Serve.Wire.outcome with
                | Ok _ -> `Ok
                | Error (code, _) -> `Server_error code)
        in
        record tally
          ?trace_id:(trace_id_if_sampled trace)
          ~op_name:name
          ~latency_ms:((now_s () -. t0) *. 1000.0)
          outcome
      done;
      Serve.Client.close client

(* Chaos-tolerant twin of [run_connection]: the resilient client retries
   transport faults and retryable server errors internally, so every
   call lands in exactly one bucket — ok, explicit server error, or
   gave-up.  Each connection gets its own jitter seed so backoffs
   decorrelate. *)
let run_connection_resilient args tally ~conn_index ~first ~count =
  let policy =
    {
      Serve.Resilient_client.default_policy with
      Serve.Resilient_client.max_attempts = args.max_attempts;
      attempt_timeout_ms = args.attempt_timeout_ms;
      call_budget_ms = args.call_budget_ms;
    }
  in
  match
    Serve.Resilient_client.connect ~policy ~seed:(0x10ad + conn_index)
      args.target
  with
  | exception e -> connect_failed tally ~conn_index ~count e
  | client ->
      for k = 0 to count - 1 do
        let i = first + k in
        let name = args.mix.(i mod Array.length args.mix) in
        let op = op_of_name name i in
        let trace = mint_trace args in
        let t0 = now_s () in
        let outcome =
          match
            Serve.Resilient_client.call client ?timeout_ms:args.timeout_ms
              ?trace op
          with
          | Ok _ -> `Ok
          | Error (Serve.Resilient_client.Fatal (code, _)) ->
              `Server_error code
          | Error (Serve.Resilient_client.Exhausted msg) ->
              `Gave_up (Printf.sprintf "request %d (%s): %s" i name msg)
        in
        record tally
          ?trace_id:(trace_id_if_sampled trace)
          ~op_name:name
          ~latency_ms:((now_s () -. t0) *. 1000.0)
          outcome
      done;
      merge_resilience tally (Serve.Resilient_client.stats client);
      Serve.Resilient_client.close client

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(min hi (n - 1)) *. frac)

let fetch_op args op =
  match Serve.Client.connect_retry args.target with
  | exception _ -> None
  | client ->
      let r = Serve.Client.call client op in
      Serve.Client.close client;
      (match r with
      | Ok { Serve.Wire.outcome = Ok result; _ } -> Some result
      | _ -> None)

(* Ops the loadgen itself (or its post-run probes) may have issued
   outside the measured mix; excluded from the count cross-check. *)
let meta_ops = [ "stats"; "metrics"; "health"; "spans" ]

(* Server-side count for [op] from the metrics snapshot's cumulative
   totals; None when the snapshot lacks it. *)
let server_op_count metrics op =
  Option.bind (Json.member "totals" metrics) (fun t ->
      Option.bind (Json.member "ops" t) (fun ops ->
          Option.bind (Json.member op ops) (fun o ->
              Option.bind (Json.member "count" o) Json.to_int_opt)))

(* The invariant (server observes before it replies) gives
   server >= client per op once all replies are in; strict equality
   would be wrong when earlier runs hit the same server. *)
let crosscheck tally metrics =
  match metrics with
  | None -> (Json.Null, true)
  | Some m ->
      let rows, all_ok =
        Hashtbl.fold
          (fun op (client_count, _) (rows, all_ok) ->
            if List.mem op meta_ops then (rows, all_ok)
            else
              let server = server_op_count m op in
              let consistent =
                match server with Some s -> s >= client_count | None -> false
              in
              ( ( op,
                  Json.Obj
                    [
                      ("client", Json.Int client_count);
                      ( "server",
                        match server with
                        | Some s -> Json.Int s
                        | None -> Json.Null );
                      ("consistent", Json.Bool consistent);
                    ] )
                :: rows,
                all_ok && consistent ))
          tally.by_op ([], true)
      in
      ( Json.Obj
          (List.sort compare rows @ [ ("consistent", Json.Bool all_ok) ]),
        all_ok )

(* --- cluster mode: fingerprint-affinity audit --- *)

module Cluster = Gossip_cluster

(* Recompute every keyed request's placement exactly as the router
   places it — same routing key, same ring construction — over ALL
   shards the membership has ever seen, dead and draining included:
   consistent hashing only moves the departed node's keys, so a key
   whose full-ring primary survived the whole run was routed there the
   whole run.  The audit gates [reported >= expected] per (shard, op),
   but only for shards still alive at the end — a killed or drained
   shard cannot answer the metrics probe, and its keys' counts landed
   on replicas.  [>=] rather than [=]: rejected requests, retried
   attempts and earlier runs also accumulate server-side. *)
let cluster_audit args ~stats ~metrics =
  match (stats : Json.t option) with
  | None -> (Json.Null, false, [])
  | Some s ->
      let entries =
        match Json.member "membership" s with
        | Some view -> (
            match Cluster.Membership.entries_of_view view with
            | Ok e -> e
            | Error _ -> [])
        | None -> []
      in
      let shards =
        List.filter
          (fun (e : Cluster.Membership.entry) ->
            e.Cluster.Membership.role = "shard")
          entries
      in
      let vnodes =
        Option.value ~default:64
          (Option.bind (Json.member "ring" s) (fun r ->
               Option.bind (Json.member "vnodes" r) Json.to_int_opt))
      in
      let ring =
        Cluster.Ring.create ~vnodes
          (List.map
             (fun (e : Cluster.Membership.entry) -> e.Cluster.Membership.node)
             shards)
      in
      let expected = Hashtbl.create 16 in
      for i = 0 to args.requests - 1 do
        let name = args.mix.(i mod Array.length args.mix) in
        let op = op_of_name name i in
        match Cluster.Router.routing_key op with
        | None -> ()
        | Some key -> (
            match Cluster.Ring.lookup ring key with
            | None -> ()
            | Some node ->
                let k = (node, name) in
                Hashtbl.replace expected k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt expected k)))
      done;
      let shard_metrics node =
        Option.bind metrics (fun m ->
            Option.bind (Json.member "shards" m) (function
              | Json.List items ->
                  List.find_map
                    (fun item ->
                      match Json.member "node" item with
                      | Some (Json.Str n) when n = node ->
                          Json.member "metrics" item
                      | _ -> None)
                    items
              | _ -> None))
      in
      let alive node =
        List.exists
          (fun (e : Cluster.Membership.entry) ->
            e.Cluster.Membership.node = node
            && e.Cluster.Membership.status = Cluster.Membership.Alive)
          shards
      in
      let rows, all_ok =
        Hashtbl.fold
          (fun (node, op) exp (rows, all_ok) ->
            let reported =
              Option.bind (shard_metrics node) (fun m -> server_op_count m op)
            in
            let gated = alive node in
            let ok =
              (not gated)
              || match reported with Some r -> r >= exp | None -> false
            in
            ( ( Printf.sprintf "%s/%s" node op,
                Json.Obj
                  [
                    ("expected", Json.Int exp);
                    ( "reported",
                      match reported with
                      | Some r -> Json.Int r
                      | None -> Json.Null );
                    ("gated", Json.Bool gated);
                    ("ok", Json.Bool ok);
                  ] )
              :: rows,
              all_ok && ok ))
          expected ([], true)
      in
      ( Json.Obj
          [
            ( "membership",
              Json.List
                (List.map Cluster.Membership.entry_json
                   (List.filter
                      (fun (e : Cluster.Membership.entry) ->
                        e.Cluster.Membership.role <> "")
                      entries)) );
            ( "ring",
              Json.Obj
                [
                  ("vnodes", Json.Int vnodes);
                  ( "nodes",
                    Json.List
                      (List.map
                         (fun n -> Json.Str n)
                         (Cluster.Ring.nodes ring)) );
                ] );
            ("affinity", Json.Obj (List.sort compare rows));
            ("affinity_consistent", Json.Bool all_ok);
          ],
        all_ok,
        (* nodes the schedule actually sent keyed (cacheable) work to —
           a small mix can leave a shard legitimately cold *)
        Hashtbl.fold
          (fun (node, _) _ acc -> if List.mem node acc then acc else node :: acc)
          expected [] )

(* Per-shard cache hits from the gossip-cluster-stats/1 envelope:
   [(node, alive, hits)] for every shard that answered. *)
let cluster_cache_hits stats =
  match stats with
  | None -> []
  | Some s -> (
      match Json.member "shards" s with
      | Some (Json.List items) ->
          List.filter_map
            (fun item ->
              match (Json.member "node" item, Json.member "status" item) with
              | Some (Json.Str node), Some (Json.Str status) ->
                  let hits =
                    Option.bind (Json.member "stats" item) (fun st ->
                        Option.bind (Json.member "cache" st) (fun c ->
                            Option.bind (Json.member "hits" c) Json.to_int_opt))
                  in
                  Some (node, status = "alive", hits)
              | _ -> None)
            items
      | _ -> [])

let () =
  let args = parse_args () in
  let tally =
    {
      ok = 0;
      protocol_errors = 0;
      connect_failures = 0;
      gave_ups = 0;
      by_code = Hashtbl.create 8;
      by_op = Hashtbl.create 8;
      latencies_ms = [];
      traced = [];
      r_attempts = 0;
      r_retries = 0;
      r_reconnects = 0;
      r_stale_dropped = 0;
      r_garbled = 0;
      mu = Mutex.create ();
    }
  in
  let per_conn = args.requests / args.connections in
  let extra = args.requests mod args.connections in
  let run_one =
    if args.chaos_tolerant then run_connection_resilient else run_connection
  in
  let resource_start = Gossip_util.Resource.sample () in
  let t_start = now_s () in
  let threads =
    List.init args.connections (fun c ->
        let count = per_conn + if c < extra then 1 else 0 in
        let first = (c * per_conn) + min c extra in
        Thread.create
          (fun () -> run_one args tally ~conn_index:c ~first ~count)
          ())
  in
  List.iter Thread.join threads;
  let duration = now_s () -. t_start in
  let stats = fetch_op args Serve.Wire.Stats in
  let server_metrics = fetch_op args Serve.Wire.Metrics in
  let server_health = fetch_op args Serve.Wire.Health in
  (* --expect-healthy allows the storm to settle: a panic on one of the
     last requests leaves the pool briefly incomplete until the
     supervisor's next heartbeat respawns the worker. *)
  let server_health =
    if not args.expect_healthy then server_health
    else begin
      let deadline = now_s () +. 5.0 in
      let is_ok h =
        Option.bind h (fun h -> Json.member "status" h)
        = Some (Json.Str "ok")
      in
      let rec settle h =
        if is_ok h || now_s () > deadline then h
        else begin
          Thread.delay 0.2;
          settle (fetch_op args Serve.Wire.Health)
        end
      in
      settle server_health
    end
  in
  (* In cluster mode the snapshots are fleet envelopes; the process-level
     invariants (totals cross-check, worker_restarts) read the router's
     own section — every measured request passed through the router. *)
  let router_metrics =
    if args.cluster then Option.bind server_metrics (Json.member "router")
    else server_metrics
  in
  let crosscheck_json, counts_consistent = crosscheck tally router_metrics in
  let cluster_json, affinity_consistent, keyed_nodes =
    if args.cluster then
      cluster_audit args ~stats ~metrics:server_metrics
    else (Json.Null, true, [])
  in
  let latencies = Array.of_list tally.latencies_ms in
  Array.sort compare latencies;
  let mean =
    if Array.length latencies = 0 then nan
    else Array.fold_left ( +. ) 0.0 latencies /. float_of_int (Array.length latencies)
  in
  let fin v = if Float.is_finite v then Json.Float v else Json.Null in
  let cache_hits =
    match stats with
    | Some s -> (
        match Json.member "cache" s with
        | Some c -> (
            match Json.member "hits" c with
            | Some (Json.Int h) -> Some h
            | _ -> None)
        | None -> None)
    | None -> None
  in
  let errors_by_code_total =
    Hashtbl.fold (fun _ v acc -> acc + v) tally.by_code 0
  in
  let unaccounted =
    args.requests - tally.ok - errors_by_code_total - tally.protocol_errors
    - tally.connect_failures - tally.gave_ups
  in
  let worker_restarts =
    Option.bind router_metrics (fun m ->
        Option.bind (Json.member "gauges" m) (fun g ->
            Option.bind (Json.member "worker_restarts" g) Json.to_int_opt))
  in
  (* the exemplar table: worst sampled requests with the trace ids to
     look them up in a stitched trace_report *)
  let slowest_traced =
    List.sort (fun (a, _, _) (b, _, _) -> compare b a) tally.traced
    |> List.filteri (fun i _ -> i < 5)
  in
  let report =
    Json.Obj
      [
        ("schema", Json.Str "gossip-loadgen/1");
        ("version", Json.Str Core.Version.string);
        ("target", Json.Str (Serve.Server.string_of_listen args.target));
        ("connections", Json.Int args.connections);
        ("requests", Json.Int args.requests);
        ("ok", Json.Int tally.ok);
        ("protocol_errors", Json.Int tally.protocol_errors);
        ("connect_failures", Json.Int tally.connect_failures);
        ("gave_ups", Json.Int tally.gave_ups);
        ("unaccounted", Json.Int unaccounted);
        ("chaos_tolerant", Json.Bool args.chaos_tolerant);
        ( "resilience",
          if args.chaos_tolerant then
            Json.Obj
              [
                ("attempts", Json.Int tally.r_attempts);
                ("retries", Json.Int tally.r_retries);
                ("reconnects", Json.Int tally.r_reconnects);
                ("stale_dropped", Json.Int tally.r_stale_dropped);
                ("garbled", Json.Int tally.r_garbled);
              ]
          else Json.Null );
        ( "errors_by_code",
          Json.Obj
            (List.sort compare
               (Hashtbl.fold
                  (fun k v acc -> (k, Json.Int v) :: acc)
                  tally.by_code [])) );
        ("duration_seconds", Json.Float duration);
        ( "throughput_rps",
          fin (float_of_int args.requests /. Float.max duration 1e-9) );
        ( "latency_ms",
          Json.Obj
            [
              ("mean", fin mean);
              ("p50", fin (quantile latencies 0.50));
              ("p95", fin (quantile latencies 0.95));
              ("p99", fin (quantile latencies 0.99));
              ( "max",
                if Array.length latencies = 0 then Json.Null
                else fin latencies.(Array.length latencies - 1) );
            ] );
        ( "by_op",
          Json.Obj
            (List.sort compare
               (Hashtbl.fold
                  (fun name (count, sum) acc ->
                    ( name,
                      Json.Obj
                        [
                          ("count", Json.Int count);
                          ("mean_ms", fin (sum /. float_of_int count));
                        ] )
                    :: acc)
                  tally.by_op [])) );
        ("trace_sample_rate", Json.Float args.trace_sample_rate);
        ( "slowest_traces",
          Json.List
            (List.map
               (fun (ms, op, tid) ->
                 Json.Obj
                   [
                     ("trace_id", Json.Str tid);
                     ("op", Json.Str op);
                     ("latency_ms", fin ms);
                   ])
               slowest_traced) );
        ( "server_stats",
          match stats with Some s -> s | None -> Json.Null );
        ( "server_health",
          match server_health with Some h -> h | None -> Json.Null );
        (* client-side GC/RSS next to the server's resource section, so
           one artifact answers "who paid for this storm" *)
        ( "client_resource",
          let final = Gossip_util.Resource.sample () in
          Json.Obj
            [
              ("final", Gossip_util.Resource.to_json final);
              ( "delta",
                Gossip_util.Resource.delta_json ~before:resource_start
                  ~after:final );
            ] );
        ("metrics_crosscheck", crosscheck_json);
        ("cluster", cluster_json);
      ]
  in
  let rendered = Json.to_string_pretty report ^ "\n" in
  (match args.report with
  | Some path ->
      let oc = open_out path in
      output_string oc rendered;
      close_out oc;
      Printf.printf "loadgen report written to %s\n" path
  | None -> print_string rendered);
  if slowest_traced <> [] then begin
    Printf.printf "slowest sampled requests (trace ids for trace_report):\n";
    List.iter
      (fun (ms, op, tid) ->
        Printf.printf "  %10.3f ms  %-10s trace_id=%s\n" ms op tid)
      slowest_traced
  end;
  if tally.protocol_errors > 0 || tally.connect_failures > 0 then begin
    Printf.eprintf "loadgen: %d protocol errors, %d connect failures\n%!"
      tally.protocol_errors tally.connect_failures;
    exit 1
  end;
  if unaccounted <> 0 then begin
    Printf.eprintf "loadgen: %d requests unaccounted for (silent loss!)\n%!"
      unaccounted;
    exit 1
  end;
  (* only meaningful on a clean run: a dropped reply already explains a
     low client count *)
  if not counts_consistent then begin
    prerr_endline
      "loadgen: metrics cross-check failed: server-side op counts below \
       client-side";
    exit 1
  end;
  if args.expect_healthy then begin
    let status =
      Option.bind server_health (fun h ->
          Option.bind (Json.member "status" h) Json.to_string_opt)
    in
    match status with
    | Some "ok" -> ()
    | Some other ->
        Printf.eprintf "loadgen: --expect-healthy: server reports %S\n%!" other;
        exit 1
    | None ->
        prerr_endline "loadgen: --expect-healthy: could not read server health";
        exit 1
  end;
  if args.min_restarts > 0 then begin
    match worker_restarts with
    | Some n when n >= args.min_restarts -> ()
    | Some n ->
        Printf.eprintf
          "loadgen: --min-restarts: server reports %d worker restarts, \
           wanted >= %d\n\
           %!"
          n args.min_restarts;
        exit 1
    | None ->
        prerr_endline
          "loadgen: --min-restarts: could not read worker_restarts gauge";
        exit 1
  end;
  if args.require_cache_hits then begin
    if args.cluster then begin
      (* fingerprint affinity is only real if every live shard the
         schedule sent keyed work to absorbed its repeats in cache *)
      let per_shard = cluster_cache_hits stats in
      if per_shard = [] then begin
        prerr_endline
          "loadgen: --require-cache-hits: no shard stats in the cluster \
           envelope";
        exit 1
      end;
      List.iter
        (fun (node, alive, hits) ->
          match (alive && List.mem node keyed_nodes, hits) with
          | false, _ -> ()
          | true, Some h when h > 0 -> ()
          | true, _ ->
              Printf.eprintf
                "loadgen: --require-cache-hits: shard %s reports no cache \
                 hits\n\
                 %!"
                node;
              exit 1)
        per_shard
    end
    else
      match cache_hits with
      | Some h when h > 0 -> ()
      | Some _ ->
          prerr_endline "loadgen: --require-cache-hits: server reports 0 hits";
          exit 1
      | None ->
          prerr_endline
            "loadgen: --require-cache-hits: could not read server cache stats";
          exit 1
  end;
  if args.cluster && not affinity_consistent then begin
    prerr_endline
      "loadgen: cluster affinity audit failed: a live shard reported fewer \
       requests than its ring placement predicts";
    exit 1
  end
