module Json = Gossip_util.Json
module Instrument = Gossip_util.Instrument
module Trace = Gossip_util.Trace

type listen = Unix_socket of string | Tcp of string * int

(* --- the listen-address codec: unix:PATH | tcp:HOST:PORT --- *)

let parse_tcp ~form addr hostport =
  let bad what = Error (Printf.sprintf "address %S: %s" addr what) in
  match String.rindex_opt hostport ':' with
  | None -> bad ("expected " ^ form)
  | Some j -> (
      let host = String.sub hostport 0 j in
      let port = String.sub hostport (j + 1) (String.length hostport - j - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> bad "bad host or port")

let listen_of_string addr =
  let bad what = Error (Printf.sprintf "address %S: %s" addr what) in
  match String.index_opt addr ':' with
  | None -> bad "expected unix:PATH or tcp:HOST:PORT"
  | Some i -> (
      let rest = String.sub addr (i + 1) (String.length addr - i - 1) in
      match String.sub addr 0 i with
      | "unix" -> if rest = "" then bad "empty path" else Ok (Unix_socket rest)
      | "tcp" -> parse_tcp ~form:"tcp:HOST:PORT" addr rest
      | scheme -> bad (Printf.sprintf "unknown scheme %S (unix | tcp)" scheme))

let tcp_of_string hostport = parse_tcp ~form:"HOST:PORT" hostport hostport

let string_of_listen = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.ADDR_INET (addr, port)

type config = {
  listen : listen;
  workers : int;
  queue_capacity : int;
  max_frame_bytes : int;
  default_timeout_ms : int option;
  access_log : string option;
  chaos : Chaos.t option;  (** fault injection; [None] = disabled *)
  inline_observability : bool;
      (** answer [metrics]/[health]/[spans]/[trace_pull] from the reader
          thread, bypassing the queue (the default).  The router turns
          this off: its observability ops aggregate across the fleet,
          which is worker business, not reader business. *)
  node : string option;
      (** cluster node id; when set, request and connection identities
          are namespaced with it ([s1-r42], [s1-c7]) so merged fleet
          traces and access logs never collide across processes *)
}

let default_config ~listen =
  {
    listen;
    workers = Gossip_util.Parallel.recommended_domains ();
    queue_capacity = 64;
    max_frame_bytes = Wire.default_max_frame_bytes;
    default_timeout_ms = None;
    access_log = None;
    chaos = None;
    inline_observability = true;
    node = None;
  }

(* A connection is shared between its reader thread and any worker
   holding one of its jobs.  [refs] counts the reader (1) plus admitted
   jobs; the fd closes only when it reaches 0, so a worker never writes
   to a recycled descriptor.  To unblock a reader stuck in [read] we
   [Unix.shutdown] the socket (close(2) would not interrupt it on
   Linux); the actual close happens on the last release. *)
type conn = {
  conn_name : string;
      (** minted at accept, node-namespaced ([s1-c7]); the [conn] trace
          attribute *)
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  write_mu : Mutex.t;
  state_mu : Mutex.t;
  mutable refs : int;
  mutable dead : bool;  (** stop writing: peer gone or kill requested *)
  mutable shut : bool;  (** Unix.shutdown already issued *)
  mutable closed : bool;
}

type job = {
  conn : conn;
  request : Wire.request;
  req_id : int;  (** process-unique, minted when the frame was accepted *)
  admitted_ns : int64;  (** monotonic queue-entry stamp *)
  deadline_ns : int64 option;  (** monotonic, measured from admission *)
}

type t = {
  config : config;
  id_prefix : string;  (** [node ^ "-"], or [""] outside a cluster *)
  disp : Dispatch.t;
  evaluate :
    trace:Trace.t option ->
    Wire.op ->
    (Json.t, Wire.error_code * string) result;
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  queue : job Bounded_queue.t;
  stopping : bool Atomic.t;
  req_counter : int Atomic.t;
  conn_counter : int Atomic.t;
  access_mu : Mutex.t;
  mutable access_oc : out_channel option;
  mutable super : Supervisor.t option;
  mutable accept_thread : Thread.t option;
  conns_mu : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable drained : bool;
  drain_mu : Mutex.t;
}

(* --- request identity and observability plumbing --- *)

let next_req_id t = Atomic.fetch_and_add t.req_counter 1

(* Identities are node-namespaced strings ([s1-r42]): merged fleet
   traces keep per-process counters from colliding, and the stitcher
   keys spans by (node, req_id) without guessing. *)
let req_name t n = t.id_prefix ^ "r" ^ string_of_int n

let req_attrs ~req_id ~op ~conn =
  [ ("req_id", Json.Str req_id); ("op", Json.Str op); ("conn", Json.Str conn) ]

(* One compact JSON object per answered request — the access log.  The
   line is self-contained (wall timestamp, request identity, outcome,
   queue-wait/service split in milliseconds, the client's echoed id), so
   the file is greppable without the trace. *)
let access_log t ~req_id ~conn ~op ~status ~queue_wait_s ~service_s ~id =
  match t.access_oc with
  | None -> ()
  | Some oc ->
      let line =
        Json.to_string
          (Json.Obj
             [
               ("ts", Json.Float (Unix.gettimeofday ()));
               ("req_id", Json.Str req_id);
               ("conn", Json.Str conn);
               ("op", Json.Str op);
               ("status", Json.Str status);
               ("queue_wait_ms", Json.Float (1000.0 *. queue_wait_s));
               ("service_ms", Json.Float (1000.0 *. service_s));
               ("id", id);
             ])
      in
      Mutex.lock t.access_mu;
      (try
         output_string oc line;
         output_char oc '\n';
         flush oc
       with Sys_error _ -> ());
      Mutex.unlock t.access_mu

let note_queue_depth t =
  let depth = Bounded_queue.length t.queue in
  Metrics.set_queue_depth t.metrics depth;
  Instrument.set_gauge "serve.queue_depth" (float_of_int depth)

(* --- connection lifecycle --- *)

let conn_release c =
  Mutex.lock c.state_mu;
  c.refs <- c.refs - 1;
  if c.refs <= 0 && not c.closed then begin
    c.closed <- true;
    (* [oc] owns the fd; [ic] shares it and must NOT be closed too — a
       second close(2) could hit a recycled descriptor of another
       thread.  The channel buffer is reclaimed by the GC. *)
    close_out_noerr c.oc
  end;
  Mutex.unlock c.state_mu

let conn_retain_for_job c =
  Mutex.lock c.state_mu;
  c.refs <- c.refs + 1;
  Mutex.unlock c.state_mu

(* Stop the conversation without closing: wakes a reader blocked in
   [read]; the last {!conn_release} then closes the descriptor. *)
let conn_kill c =
  Mutex.lock c.state_mu;
  c.dead <- true;
  if (not c.shut) && not c.closed then begin
    c.shut <- true;
    try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock c.state_mu

(* A failed write (EPIPE / ECONNRESET / any I/O error: the peer hung up
   mid-conversation) marks only this connection dead and is counted; the
   calling worker or reader carries on.  SIGPIPE is already ignored
   process-wide (see [create]), so the failure arrives as an exception,
   never a signal. *)
let send t c json =
  Mutex.lock c.write_mu;
  let ok =
    if c.dead || c.closed then false
    else
      try
        Wire.write_frame c.oc json;
        true
      with Sys_error _ | Unix.Unix_error _ ->
        c.dead <- true;
        Instrument.add "serve.write_errors" 1;
        Metrics.note_write_error t.metrics;
        false
  in
  Mutex.unlock c.write_mu;
  ok

(* Chaos only: emit a deliberately unparsable reply line.  Framing is
   preserved (one '\n'-terminated line) so the client can resync; the
   payload is not valid JSON, so the client must treat it as garbage. *)
let send_corrupt t c json =
  Mutex.lock c.write_mu;
  let ok =
    if c.dead || c.closed then false
    else
      try
        output_string c.oc "#chaos-corrupt ";
        output_string c.oc (Json.to_string json);
        output_char c.oc '\n';
        flush c.oc;
        true
      with Sys_error _ | Unix.Unix_error _ ->
        c.dead <- true;
        Instrument.add "serve.write_errors" 1;
        Metrics.note_write_error t.metrics;
        false
  in
  Mutex.unlock c.write_mu;
  ok

(* --- worker pool --- *)

(* Write one reply under an (optional) injected reply fault.  Faults
   strike after evaluation and accounting — the work was done and
   observed; only the reply is lost, garbled or late, exactly the
   failure a real network serves up. *)
let send_reply t conn ~(fault : Chaos.reply_fault option) json =
  match fault with
  | None -> ignore (send t conn json)
  | Some Chaos.Drop -> Instrument.add "serve.chaos.dropped_replies" 1
  | Some Chaos.Corrupt ->
      Instrument.add "serve.chaos.corrupted_replies" 1;
      ignore (send_corrupt t conn json)
  | Some (Chaos.Delay_ms ms) ->
      Instrument.add "serve.chaos.delayed_replies" 1;
      Thread.delay (float_of_int ms /. 1000.0);
      ignore (send t conn json)

(* NOTE: the caller ([worker_loop]) owns the job's connection reference
   and releases it whether we return or raise. *)
let process_job t ~worker job =
  note_queue_depth t;
  let req = job.request in
  let id = req.Wire.id in
  let op = Wire.op_name req.Wire.op in
  let trace = req.Wire.trace in
  let req_id = req_name t job.req_id in
  let conn = job.conn.conn_name in
  let now = Instrument.now_ns () in
  let queue_wait_s =
    Int64.to_float (Int64.sub now job.admitted_ns) /. 1e9
  in
  Instrument.observe "serve.queue_wait_seconds" queue_wait_s;
  let expired =
    match job.deadline_ns with Some d -> now > d | None -> false
  in
  if expired then begin
    Instrument.add "serve.rejected.deadline" 1;
    (match trace with
    | Some tr when not tr.Trace.sampled -> ()
    | _ ->
        Instrument.event "serve.reject"
          ~attrs:
            (req_attrs ~req_id ~op ~conn
            @ [ ("code", Json.Str "deadline_exceeded") ]));
    Metrics.observe_rejected t.metrics ~op ~code:"deadline_exceeded";
    access_log t ~req_id ~conn ~op ~status:"deadline_exceeded" ~queue_wait_s
      ~service_s:0.0 ~id;
    ignore
      (send t job.conn
         (Wire.error_response ~id ~code:Wire.Deadline_exceeded
            ~message:"request expired before a worker picked it up"))
  end
  else begin
    (* one match on an option when chaos is off — the entire hot-path
       cost of the fault-injection layer (measured in bench Part 25) *)
    let decision =
      match t.config.chaos with
      | None -> Chaos.no_fault
      | Some plan -> Chaos.decide plan ~req_id:job.req_id
    in
    Metrics.worker_busy t.metrics worker;
    let serve_one () =
      (* request attributes are only consumed by the streaming trace;
         skip building and installing them when no trace is attached so
         the untraced hot path pays nothing for them *)
      let tracing = Instrument.tracing () in
      (* the request's own span id: the parent every child span the
         evaluation emits links to, and the hop id a downstream peer
         would have seen had we forwarded (the server is a leaf) *)
      let span_id = if tracing then Some (Trace.fresh_span_id ()) else None in
      let trace_attrs =
        match (trace, span_id) with
        | Some tr, Some sid -> ("span_id", Json.Str sid) :: Trace.attrs tr
        | _ -> []
      in
      let attrs =
        if tracing then
          req_attrs ~req_id ~op ~conn
          @ trace_attrs
          @ [
              ( "queue_wait_ns",
                Json.Int (Int64.to_int (Int64.sub now job.admitted_ns)) );
            ]
        else []
      in
      let t0 = Instrument.now_ns () in
      if decision.Chaos.dispatch_latency_ms > 0 then begin
        Instrument.add "serve.chaos.dispatch_latency" 1;
        (* inside the busy window and the service clock: the stall is
           real worker time, and wedge detection must see it *)
        Thread.delay
          (float_of_int decision.Chaos.dispatch_latency_ms /. 1000.0)
      end;
      (* ambient attributes: every span/event the evaluation triggers —
         context lookups, norm solves, engine rounds — tags itself with
         this request, and (when a trace context rode in) with the trace
         id and this request span as its parent, so child spans stitch
         under it.  Safe: each worker domain runs exactly one thread.
         An injected panic raises from inside the span: [Instrument.span]
         is exception-safe, so the trace stays balanced and the barrier
         above us answers the client. *)
      let outcome =
        Instrument.span "serve.request" ~attrs (fun () ->
            let eval () =
              if decision.Chaos.panic then begin
                Instrument.add "serve.chaos.panics" 1;
                raise Chaos.Panic
              end;
              t.evaluate ~trace req.Wire.op
            in
            if tracing then
              let ambient =
                req_attrs ~req_id ~op ~conn
                @
                match (trace, span_id) with
                | Some tr, Some sid ->
                    [
                      ("trace_id", Json.Str tr.Trace.trace_id);
                      ("parent_span_id", Json.Str sid);
                    ]
                | _ -> []
              in
              Instrument.with_ambient_attrs ambient eval
            else eval ())
      in
      let service_s =
        Int64.to_float (Int64.sub (Instrument.now_ns ()) t0) /. 1e9
      in
      Metrics.worker_idle t.metrics worker;
      Instrument.observe "serve.request_seconds" service_s;
      Instrument.add "serve.requests" 1;
      let ok, status =
        match outcome with
        | Ok _ -> (true, "ok")
        | Error (code, _) -> (false, Wire.error_code_to_string code)
      in
      let trace_id =
        match trace with
        | Some tr when tr.Trace.sampled -> Some tr.Trace.trace_id
        | _ -> None
      in
      Metrics.observe ?trace_id t.metrics ~op ~ok ~queue_wait_s ~service_s;
      access_log t ~req_id ~conn ~op ~status ~queue_wait_s ~service_s ~id;
      send_reply t job.conn ~fault:decision.Chaos.reply
        (match outcome with
        | Ok result -> Wire.ok_response ~id result
        | Error (code, message) -> Wire.error_response ~id ~code ~message)
    in
    (* head sampling: a context that rode in sampled-out suppresses
       event streaming for the whole evaluation on this domain — the
       request is served and metered normally, it just leaves no trace *)
    match trace with
    | Some tr when not tr.Trace.sampled -> Instrument.with_sampled_out serve_one
    | _ -> serve_one ()
  end

(* The per-job exception barrier.  [Dispatch.eval] already converts
   evaluation failures into error replies, so anything arriving here is
   a worker-level fault: an injected {!Chaos.Panic} or a genuine bug in
   the serving path itself.  Either way the client gets a definitive
   [internal] answer — a job must never vanish silently — and the
   request is observed so loadgen's reconciliation still balances. *)
let answer_panicked_job t ~worker job exn =
  let req = job.request in
  let op = Wire.op_name req.Wire.op in
  let req_id = req_name t job.req_id in
  let conn = job.conn.conn_name in
  (* the panic interrupted the busy window; clear the stamp or the
     wedge detector would count this worker busy forever *)
  Metrics.worker_idle t.metrics worker;
  Instrument.add "serve.job_panics" 1;
  Instrument.event "serve.panic"
    ~attrs:
      (req_attrs ~req_id ~op ~conn
      @ [ ("exn", Json.Str (Printexc.to_string exn)) ]);
  Metrics.observe t.metrics ~op ~ok:false ~queue_wait_s:0.0 ~service_s:0.0;
  access_log t ~req_id ~conn ~op ~status:"internal" ~queue_wait_s:0.0
    ~service_s:0.0 ~id:req.Wire.id;
  let message =
    match exn with
    | Chaos.Panic -> "worker panicked (injected fault); request not served"
    | e -> Printf.sprintf "worker panicked: %s" (Printexc.to_string e)
  in
  ignore
    (send t job.conn
       (Wire.error_response ~id:req.Wire.id ~code:Wire.Internal ~message))

let worker_loop t worker () =
  let rec go () =
    match Bounded_queue.pop t.queue with
    | Some job ->
        (* the finally runs on every exit path, so the connection's
           refcount balances even when the job panics *)
        let fatal =
          Fun.protect
            ~finally:(fun () -> conn_release job.conn)
            (fun () ->
              try
                process_job t ~worker job;
                None
              with exn ->
                answer_panicked_job t ~worker job exn;
                (* an injected panic is a simulated domain crash: after
                   answering, die for real so the supervisor's respawn
                   path runs end to end.  Everything else is survived —
                   the barrier's whole purpose. *)
                (match exn with Chaos.Panic -> Some exn | _ -> None))
        in
        (match fatal with Some exn -> raise exn | None -> go ())
    | None -> ()
  in
  go ()

(* --- stopping --- *)

let stop_requested t = Atomic.get t.stopping

(* Also runs inside signal handlers: no locks, only an atomic flip and a
   syscall.  shutdown(2) on the listening socket makes a blocked
   accept(2) return, which is how the accept thread learns to exit. *)
let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()

(* --- readers --- *)

let admit t conn (req : Wire.request) ~req_id =
  let op = Wire.op_name req.Wire.op in
  let req_name = req_name t req_id in
  let timeout_ms =
    match req.Wire.timeout_ms with
    | Some _ as x -> x
    | None -> t.config.default_timeout_ms
  in
  let admitted_ns = Instrument.now_ns () in
  let deadline_ns =
    Option.map
      (fun ms -> Int64.add admitted_ns (Int64.of_int (ms * 1_000_000)))
      timeout_ms
  in
  (* an unsampled context means this request streams nothing, anywhere:
     the admit/reject point events below must honor the verdict just
     like the worker's spans do, or sub-1.0 sampling leaves admitted
     requests with no serve.request span and trips trace_report. *)
  let sampled =
    match req.Wire.trace with
    | Some tr -> tr.Gossip_util.Trace.sampled
    | None -> true
  in
  conn_retain_for_job conn;
  let job = { conn; request = req; req_id; admitted_ns; deadline_ns } in
  match Bounded_queue.try_push t.queue job with
  | `Ok ->
      note_queue_depth t;
      if sampled && Instrument.tracing () then
        Instrument.event "serve.admit"
          ~attrs:
            (req_attrs ~req_id:req_name ~op ~conn:conn.conn_name
            @ [ ("queue_depth", Json.Int (Bounded_queue.length t.queue)) ])
  | `Full ->
      conn_release conn;
      Instrument.add "serve.rejected.queue_full" 1;
      if sampled then
        Instrument.event "serve.reject"
          ~attrs:
            (req_attrs ~req_id:req_name ~op ~conn:conn.conn_name
            @ [ ("code", Json.Str "queue_full") ]);
      Metrics.observe_rejected t.metrics ~op ~code:"queue_full";
      access_log t ~req_id:req_name ~conn:conn.conn_name ~op
        ~status:"queue_full" ~queue_wait_s:0.0 ~service_s:0.0 ~id:req.Wire.id;
      ignore
        (send t conn
           (Wire.error_response ~id:req.Wire.id ~code:Wire.Queue_full
              ~message:
                (Printf.sprintf "request queue full (capacity %d); retry later"
                   t.config.queue_capacity)))
  | `Closed ->
      conn_release conn;
      Metrics.observe_rejected t.metrics ~op ~code:"shutting_down";
      access_log t ~req_id:req_name ~conn:conn.conn_name ~op
        ~status:"shutting_down" ~queue_wait_s:0.0 ~service_s:0.0
        ~id:req.Wire.id;
      ignore
        (send t conn
           (Wire.error_response ~id:req.Wire.id ~code:Wire.Shutting_down
              ~message:"server is draining"))

(* The observability ops answer from the reader thread, bypassing the
   queue and the worker pool: [health] must stay answerable when the
   queue is saturated or every worker is wedged — that is exactly when
   it matters — and the snapshots they serialize are cheap.  They run
   sampled-out unconditionally: scrapers poll these ops continuously,
   and self-observation spamming the very ring [trace_pull] drains
   would bury the fleet's real traffic.  The span still aggregates
   (sampled-out only suppresses streaming). *)
let eval_inline t (req : Wire.request) ~req_id ~conn =
  Instrument.with_sampled_out @@ fun () ->
  let op = Wire.op_name req.Wire.op in
  let req_id = req_name t req_id in
  let t0 = Instrument.now_ns () in
  let result =
    Instrument.span "serve.request" (fun () ->
        match req.Wire.op with
        | Wire.Metrics -> Metrics.metrics_json t.metrics
        | Wire.Health -> Metrics.health_json t.metrics
        | Wire.Trace_pull { max } -> Metrics.traces_json t.metrics ~max
        | _ -> Metrics.spans_json ())
  in
  let service_s = Int64.to_float (Int64.sub (Instrument.now_ns ()) t0) /. 1e9 in
  Instrument.add "serve.requests" 1;
  Metrics.observe t.metrics ~op ~ok:true ~queue_wait_s:0.0 ~service_s;
  access_log t ~req_id ~conn ~op ~status:"ok" ~queue_wait_s:0.0 ~service_s
    ~id:req.Wire.id;
  Wire.ok_response ~id:req.Wire.id result

let reader_loop t conn () =
  let max_bytes = t.config.max_frame_bytes in
  let rec go () =
    match Wire.read_frame conn.ic ~max_bytes with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | Error Wire.Eof -> ()
    | Error Wire.Oversized ->
        Instrument.add "serve.rejected.oversized" 1;
        ignore
          (send t conn
             (Wire.error_response ~id:Json.Null ~code:Wire.Oversized_frame
                ~message:
                  (Printf.sprintf "frame exceeds %d bytes; closing connection"
                     max_bytes)));
        (* the stream is no longer framed; don't try to resync *)
        conn_kill conn
    | Ok "" -> go () (* tolerated keep-alive *)
    | Ok line ->
        (match Json.of_string line with
        | Error e ->
            (* malformed input answers an error but the connection —
               still correctly framed — survives *)
            Metrics.observe_rejected t.metrics ~op:"invalid" ~code:"bad_request";
            access_log t ~req_id:(req_name t (next_req_id t))
              ~conn:conn.conn_name ~op:"invalid" ~status:"bad_request"
              ~queue_wait_s:0.0 ~service_s:0.0 ~id:Json.Null;
            ignore
              (send t conn
                 (Wire.error_response ~id:Json.Null ~code:Wire.Bad_request
                    ~message:(Printf.sprintf "invalid JSON: %s" e)))
        | Ok frame -> (
            match Wire.parse_request frame with
            | Error msg ->
                let id =
                  Option.value ~default:Json.Null (Json.member "id" frame)
                in
                Metrics.observe_rejected t.metrics ~op:"invalid"
                  ~code:"bad_request";
                access_log t ~req_id:(req_name t (next_req_id t))
                  ~conn:conn.conn_name ~op:"invalid" ~status:"bad_request"
                  ~queue_wait_s:0.0 ~service_s:0.0 ~id;
                ignore
                  (send t conn
                     (Wire.error_response ~id ~code:Wire.Bad_request
                        ~message:msg))
            | Ok ({
                    Wire.op =
                      Wire.Metrics | Wire.Health | Wire.Spans
                      | Wire.Trace_pull _;
                    _;
                  } as req)
              when t.config.inline_observability ->
                (* observability stays on even while draining *)
                ignore
                  (send t conn
                     (eval_inline t req ~req_id:(next_req_id t)
                        ~conn:conn.conn_name))
            | Ok req when stop_requested t ->
                ignore
                  (send t conn
                     (Wire.error_response ~id:req.Wire.id
                        ~code:Wire.Shutting_down ~message:"server is draining"))
            | Ok ({ Wire.op = Wire.Shutdown; _ } as req) ->
                (* mark the server as stopping BEFORE the ack leaves, so a
                   client that saw the ack observes [stop_requested]; the
                   actual drain runs in [join]/[shutdown], not here *)
                request_stop t;
                ignore
                  (send t conn
                     (Wire.ok_response ~id:req.Wire.id
                        (Json.Obj [ ("stopping", Json.Bool true) ])))
            | Ok req -> admit t conn req ~req_id:(next_req_id t)));
        if not conn.dead then go ()
  in
  go ();
  Metrics.conn_closed t.metrics;
  conn_release conn

(* --- accept loop --- *)

let accept_loop t () =
  let rec go () =
    if stop_requested t then ()
    else
      match Unix.accept ~cloexec:true t.listen_fd with
      | exception Unix.Unix_error _ ->
          if stop_requested t then ()
          else begin
            (* transient accept failure (ECONNABORTED, EMFILE…): don't
               spin at full speed *)
            Thread.delay 0.05;
            go ()
          end
      | fd, _addr ->
          if stop_requested t then (try Unix.close fd with _ -> ())
          else begin
            Instrument.add "serve.accepted" 1;
            Metrics.conn_opened t.metrics;
            let conn_name =
              t.id_prefix ^ "c"
              ^ string_of_int (Atomic.fetch_and_add t.conn_counter 1)
            in
            Instrument.event "serve.accept"
              ~attrs:[ ("conn", Json.Str conn_name) ];
            let conn =
              {
                conn_name;
                fd;
                ic = Unix.in_channel_of_descr fd;
                oc = Unix.out_channel_of_descr fd;
                write_mu = Mutex.create ();
                state_mu = Mutex.create ();
                refs = 1 (* the reader *);
                dead = false;
                shut = false;
                closed = false;
              }
            in
            let reader = Thread.create (reader_loop t conn) () in
            Mutex.lock t.conns_mu;
            t.conns <- conn :: t.conns;
            t.readers <- reader :: t.readers;
            Mutex.unlock t.conns_mu;
            go ()
          end
  in
  go ()

(* --- lifecycle --- *)

let unlink_if_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let create ?dispatch ?metrics ?evaluate (config : config) =
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.create: queue_capacity < 1";
  if config.max_frame_bytes < 2 then
    invalid_arg "Server.create: max_frame_bytes < 2";
  (* a peer that disappears mid-reply must surface as EPIPE on the
     write, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let metrics =
    match metrics with
    | Some m -> m
    | None ->
        Metrics.create ~workers:config.workers
          ~queue_capacity:config.queue_capacity ()
  in
  let disp =
    match dispatch with Some d -> d | None -> Dispatch.create ~metrics ()
  in
  let evaluate =
    match evaluate with
    | Some f -> f
    | None ->
        (* the local dispatcher is a leaf: it never forwards, so the
           trace context has already done its job (span attrs, sampling)
           by the time evaluation starts *)
        fun ~trace:_ op -> Dispatch.eval disp op
  in
  let access_oc = Option.map open_out config.access_log in
  let listen_fd =
    let addr = sockaddr config.listen in
    let fd =
      match config.listen with
      | Unix_socket path ->
          unlink_if_socket path;
          Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      | Tcp _ ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          fd
    in
    (try Unix.bind fd addr
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    Unix.listen fd 64;
    fd
  in
  {
    config;
    id_prefix =
      (match config.node with Some node -> node ^ "-" | None -> "");
    disp;
    evaluate;
    metrics;
    listen_fd;
    queue = Bounded_queue.create ~capacity:config.queue_capacity;
    stopping = Atomic.make false;
    req_counter = Atomic.make 1;
    conn_counter = Atomic.make 1;
    access_mu = Mutex.create ();
    access_oc;
    super = None;
    accept_thread = None;
    conns_mu = Mutex.create ();
    conns = [];
    readers = [];
    drained = false;
    drain_mu = Mutex.create ();
  }

let start t =
  t.super <-
    Some
      (Supervisor.start ~workers:t.config.workers
         ~stopping:(fun () -> stop_requested t)
         ~on_restart:(fun slot ->
           Instrument.add "serve.worker_restarts" 1;
           Metrics.note_worker_restart t.metrics;
           Instrument.event "serve.worker_restart"
             ~attrs:[ ("worker", Json.Int slot) ])
         ~on_missing:(fun n -> Metrics.set_workers_missing t.metrics n)
         ~body:(fun slot -> worker_loop t slot ())
         ());
  t.accept_thread <- Some (Thread.create (accept_loop t) ())

let shutdown t =
  request_stop t;
  Mutex.lock t.drain_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.drain_mu)
    (fun () ->
      if not t.drained then begin
        t.drained <- true;
        (match t.accept_thread with Some th -> Thread.join th | None -> ());
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (* no new admissions; the workers drain what was accepted.
           [stop_requested] is already true, so the supervisor will not
           respawn the workers as they exit. *)
        Bounded_queue.close t.queue;
        (match t.super with
        | Some s ->
            Supervisor.shutdown s;
            t.super <- None
        | None -> ());
        (* every admitted job has been answered; wake the readers and
           collect them *)
        Mutex.lock t.conns_mu;
        let conns = t.conns and readers = t.readers in
        t.conns <- [];
        t.readers <- [];
        Mutex.unlock t.conns_mu;
        List.iter conn_kill conns;
        List.iter Thread.join readers;
        (match t.access_oc with
        | Some oc ->
            t.access_oc <- None;
            (try flush oc; close_out oc with Sys_error _ -> ())
        | None -> ());
        match t.config.listen with
        | Unix_socket path -> unlink_if_socket path
        | Tcp _ -> ()
      end)

let join t =
  (* poll rather than sleep on a condition: request_stop must stay
     callable from a signal handler, where taking a mutex could deadlock
     against the very thread the handler interrupted *)
  while not (stop_requested t) do
    Thread.delay 0.1
  done;
  shutdown t

let dispatch t = t.disp
let metrics t = t.metrics
