(** The concurrent analysis server behind [gossip_served].

    Architecture (doc/serving.md has the full story):

    - an {e accept thread} takes connections on a Unix-domain or TCP
      socket and starts one lightweight {e reader thread} per connection;
    - readers decode newline-delimited JSON frames ({!Wire}), validate
      them, and [try_push] jobs onto one {e bounded queue}
      ({!Bounded_queue}) — a full queue is answered immediately with a
      [queue_full] error reply (backpressure, never unbounded buffering);
    - a pool of {e worker domains} pops jobs, checks the per-request
      deadline, evaluates through the shared {!Dispatch} (one memoizing
      {!Core.Context} for the whole process) and writes the reply under
      the connection's write mutex — replies may therefore leave in
      completion order, not request order;
    - malformed input is answered with [bad_request] and the connection
      {e survives}; only an oversized frame (framing no longer
      trustworthy) closes it;
    - {!shutdown} (also triggered by the [shutdown] operation and by the
      daemon's SIGTERM/SIGINT handlers) stops accepting, lets the queue
      drain, joins the workers and closes every connection.

    Telemetry: every request is assigned a process-unique [req_id] when
    its frame is parsed — node-namespaced ([s1-r42]) when [config.node]
    is set, so merged fleet traces never collide — and runs in a
    ["serve.request"] span tagged [req_id] / [op] / [conn] /
    [queue_wait_ns]; admission and refusal are marked by
    ["serve.admit"] / ["serve.reject"] point events with the same
    identity, so a JSONL trace reconstructs each request's critical
    path (queue wait vs service).  During evaluation the same
    attributes are installed as {e ambient}
    ({!Gossip_util.Instrument.with_ambient_attrs}), so context lookups
    and solver spans deep in the library tag themselves with the
    request.  Latencies land in the ["serve.request_seconds"] and
    ["serve.queue_wait_seconds"] histograms, queue occupancy on the
    ["serve.queue_depth"] gauge, and the
    ["serve.accepted"]/["serve.requests"]/["serve.rejected.*"] counters
    track admission.  Independently of tracing, a {!Metrics.t} keeps
    rolling per-op windows behind the [metrics] / [health] / [spans] /
    [trace_pull] operations — those are answered inline by the reader
    thread, bypassing the queue, so they stay responsive exactly when
    the queue is saturated.

    Distributed tracing: a request whose envelope carries trace context
    ({!Wire.request}[.trace]) runs its ["serve.request"] span with
    [trace_id], a freshly minted [span_id] and the sender's
    [parent_span_id]; the ambient attributes re-parent every child span
    under the request span, so a multi-file stitch
    ({!Trace_analysis.stitch}) reconstructs the cross-node waterfall.
    A context marked {e sampled-out} suppresses event streaming for the
    whole evaluation ({!Gossip_util.Instrument.with_sampled_out}) — the
    request is served and metered normally but leaves no trace.  The
    inline observability ops always run sampled-out: scrape traffic
    must not bury real requests in the trace ring.

    When [config.access_log] is set, every answered request appends one
    compact JSON line [{ts, req_id, conn, op, status, queue_wait_ms,
    service_ms, id}] to that file (see doc/serving.md).

    Robustness (doc/robustness.md has the full story): each worker runs
    its jobs under an {e exception barrier} — an exception escaping the
    serving path answers the client [internal] instead of losing the
    request; a worker domain that nevertheless dies is respawned by a
    {!Supervisor} heartbeat (counted in [worker_restarts], health
    degraded while the pool is incomplete); reply writes that fail
    because the peer vanished (EPIPE / ECONNRESET) close only that
    connection and bump [write_errors].  When [config.chaos] is set
    ({!Chaos}), queued requests suffer seeded, deterministic faults —
    dropped / corrupted / delayed replies, injected dispatch latency,
    worker panics — while the inline observability ops stay exempt so
    the storm remains observable. *)

type listen =
  | Unix_socket of string  (** path; unlinked on bind and on shutdown *)
  | Tcp of string * int  (** bind address and port *)

(** {2 Listen addresses}

    The one codec for the [unix:PATH] / [tcp:HOST:PORT] form in which
    cluster members advertise themselves and the daemons' [--join] and
    [--advertise] flags name peers. *)

(** [listen_of_string "unix:/tmp/x.sock"] / ["tcp:127.0.0.1:7001"] —
    parse an address: a non-empty path, or a non-empty host and a port
    in 1–65535.  [Error] names the defect. *)
val listen_of_string : string -> (listen, string) result

(** [tcp_of_string "HOST:PORT"] — the [tcp:] form without its scheme,
    as the tools' [--tcp] flag takes it. *)
val tcp_of_string : string -> (listen, string) result

(** The inverse of {!listen_of_string}: [unix:PATH] or [tcp:HOST:PORT]. *)
val string_of_listen : listen -> string

(** [sockaddr l] — the socket address to bind or dial: a TCP host is
    read as a numeric address first, then resolved by name.
    @raise Not_found when the host name does not resolve. *)
val sockaddr : listen -> Unix.sockaddr

type config = {
  listen : listen;
  workers : int;  (** worker domains evaluating requests *)
  queue_capacity : int;  (** bounded queue length — the backpressure knob *)
  max_frame_bytes : int;  (** per-frame size limit *)
  default_timeout_ms : int option;
      (** deadline applied to requests that carry no [timeout_ms] *)
  access_log : string option;
      (** when set, one JSON line per answered request is appended to
          this file (truncated on open) *)
  chaos : Chaos.t option;
      (** fault-injection plan for queued requests; [None] (the
          default) disables injection entirely — the hot path then pays
          a single pattern match *)
  inline_observability : bool;
      (** answer [metrics] / [health] / [spans] / [trace_pull] from the
          reader thread, bypassing the queue (the default, [true]) —
          they must stay answerable when the queue is saturated.  The
          cluster router sets [false] so those ops reach its own
          evaluator, which aggregates across the whole fleet instead of
          answering for one process. *)
  node : string option;
      (** cluster node id (default [None]); when set, request and
          connection identities are namespaced with it ([s1-r42],
          [s1-c7]) in trace attributes and access-log lines, so a
          fleet's merged telemetry stays collision-free and
          attributable *)
}

(** [default_config ~listen] — {!Gossip_util.Parallel.recommended_domains}
    workers, queue capacity 64, 1 MiB frames, no default deadline, no
    access log, no chaos. *)
val default_config : listen:listen -> config

type t

(** [create ?dispatch ?metrics ?evaluate config] binds and listens (so
    a subsequent client [connect] cannot race the bind) but accepts
    nothing yet.  [metrics] (default: fresh, sized to the config)
    receives every observation; pass your own to share it with an
    embedding process.  When [dispatch] is omitted the server's
    dispatcher is created over the same metrics value, so the
    observability ops answer identically whether evaluated inline or
    through the queue.  [evaluate] (default: [Dispatch.eval] on that
    dispatcher) is what worker domains run queued requests through —
    the cluster router substitutes its ring-routing forwarder here and
    reuses the rest of the server machinery (accept/readers/queue/
    workers/supervisor) unchanged.  [trace] is the request's
    distributed-trace context (already installed in the span and
    ambient attributes by the server); a forwarding evaluator
    propagates it downstream, a leaf evaluator may ignore it.  It must
    be safe to call from several domains at once.
    @raise Unix.Unix_error when the address is unavailable. *)
val create :
  ?dispatch:Dispatch.t ->
  ?metrics:Metrics.t ->
  ?evaluate:
    (trace:Gossip_util.Trace.t option ->
    Wire.op ->
    (Gossip_util.Json.t, Wire.error_code * string) result) ->
  config ->
  t

(** [start t] spawns the worker domains and the accept thread and
    returns immediately. *)
val start : t -> unit

(** [shutdown t] — graceful drain, callable from any thread and
    idempotent: stop accepting, answer nothing new, finish every job
    already admitted, join the workers, close every connection (and
    unlink the Unix socket).  Blocks until done. *)
val shutdown : t -> unit

(** [stop_requested t] — has a drain been requested (by {!shutdown}, the
    [shutdown] operation, or a signal handler via {!request_stop})? *)
val stop_requested : t -> bool

(** [request_stop t] — async-signal-safe trigger: marks the server as
    stopping and unblocks the accept thread, without draining.  The
    thread sitting in {!join} performs the drain. *)
val request_stop : t -> unit

(** [join t] blocks until a stop is requested, then runs the {!shutdown}
    drain.  The daemon's main thread lives here. *)
val join : t -> unit

(** [dispatch t] — the dispatcher (hence context) this server evaluates
    with; useful for in-process tests. *)
val dispatch : t -> Dispatch.t

(** [metrics t] — the live observability state this server feeds; the
    same value the [metrics] and [health] operations snapshot. *)
val metrics : t -> Metrics.t
