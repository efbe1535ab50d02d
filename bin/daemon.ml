(* The front end gossip_served and gossip_router share: the seventeen
   flags both daemons take, their checks, and the boot that brings up
   tracing, the server, and cluster membership when the process has a
   node id.  Each daemon adds its own flags, banner and evaluator.

   Every value is checked here, before anything is bound: a bad one is
   a usage error (exit 124) that names its flag, never an uncaught
   exception from deeper in the library. *)

open Gossip_serve
open Gossip_cluster
module C = Cmdliner
module Instrument = Core.Util.Instrument

type t = {
  listen : Server.listen;
  workers : int;
  queue_capacity : int;
  max_frame_bytes : int;
  default_timeout_ms : int option;
  trace : bool;
  trace_out : string option;
  trace_ring : int;
  access_log : string option;
  node_id : string option;
  join : Server.listen list;
  advertise : Server.listen option;
  gossip_interval_ms : int;
  suspicion_timeout_ms : int;
  dead_timeout_ms : int;
}

let at_least flag low v =
  if v < low then Some (Printf.sprintf "%s: value must be at least %d" flag low)
  else None

(* a listen address built from --socket or --host/--tcp obeys the same
   codec as one parsed from a string *)
let checked_listen flag l =
  Result.map_error (fun e -> flag ^ ": " ^ e)
    (Server.listen_of_string (Server.string_of_listen l))

let make ~default_socket socket tcp host workers queue_capacity
    max_frame_bytes default_timeout_ms trace trace_out trace_ring access_log
    node_id join advertise gossip_interval_ms suspicion_timeout_ms
    dead_timeout_ms =
  let listen =
    match (socket, tcp) with
    | Some _, Some _ -> Error "--socket and --tcp are exclusive"
    | None, Some port -> checked_listen "--tcp" (Server.Tcp (host, port))
    | _, None ->
        checked_listen "--socket"
          (Server.Unix_socket (Option.value socket ~default:default_socket))
  in
  let bad =
    List.find_map Fun.id
      [
        at_least "--workers" 1 workers;
        at_least "--queue-capacity" 1 queue_capacity;
        at_least "--max-frame-bytes" 2 max_frame_bytes;
        at_least "--default-timeout-ms" 0
          (Option.value default_timeout_ms ~default:0);
        at_least "--gossip-interval-ms" 1 gossip_interval_ms;
        at_least "--suspicion-timeout-ms" 1 suspicion_timeout_ms;
        (if dead_timeout_ms < suspicion_timeout_ms then
           Some "--dead-timeout-ms: value must be at least --suspicion-timeout-ms"
         else None);
      ]
  in
  match (listen, bad) with
  | Error msg, _ | _, Some msg -> `Error (true, msg)
  | Ok listen, None ->
      `Ok
        {
          listen;
          workers;
          queue_capacity;
          max_frame_bytes;
          default_timeout_ms;
          trace;
          trace_out;
          trace_ring;
          access_log;
          node_id;
          join;
          advertise;
          gossip_interval_ms;
          suspicion_timeout_ms;
          dead_timeout_ms;
        }

(* The shared flags.  The arguments are the defaults that differ between
   the daemons; [node_id], when given, is the id used without --node-id. *)
let term ~default_socket ~workers ~queue_capacity ?node_id () =
  let open C.Arg in
  let address =
    conv'
      ( Server.listen_of_string,
        fun ppf l -> Format.pp_print_string ppf (Server.string_of_listen l) )
  in
  let int_flag default flag_info = value & opt int default & flag_info in
  let string_flag flag_info = value & opt (some string) None & flag_info in
  let socket =
    string_flag
      (info [ "socket" ] ~docv:"PATH"
         ~doc:
           (Printf.sprintf
              "Listen on a Unix-domain socket at $(docv) (the default, at \
               ./%s)."
              default_socket))
  in
  let tcp =
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on TCP port $(docv) instead."
  in
  let host =
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address for --tcp."
  in
  let workers =
    int_flag workers
      (info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains evaluating requests concurrently.")
  in
  let queue_capacity =
    int_flag queue_capacity
      (info [ "queue-capacity" ] ~docv:"N"
         ~doc:"Bounded request queue length; a full queue answers \
               queue_full immediately (backpressure).")
  in
  let max_frame_bytes =
    int_flag Wire.default_max_frame_bytes
      (info [ "max-frame-bytes" ] ~docv:"N"
         ~doc:"Reject request frames longer than $(docv) bytes.")
  in
  let default_timeout_ms =
    value
    & opt (some int) None
    & info [ "default-timeout-ms" ] ~docv:"MS"
        ~doc:"Deadline for requests that carry no timeout_ms of their own."
  in
  let trace =
    value & flag
    & info [ "trace" ] ~doc:"Aggregate span timings (GOSSIP_TRACE=1)."
  in
  let trace_out =
    string_flag
      (info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Stream spans and events as JSON Lines to $(docv).")
  in
  let trace_ring =
    int_flag 4096
      (info [ "trace-ring" ] ~docv:"N"
         ~doc:"Keep the last $(docv) trace events in memory for the \
               trace_pull operation (0 disables the ring).")
  in
  let access_log =
    string_flag
      (info [ "access-log" ] ~docv:"FILE"
         ~doc:"Append one JSON line per answered request to $(docv): {ts, \
               req_id, conn, op, status, queue_wait_ms, service_ms, id}.")
  in
  let node_id =
    value
    & opt (some string) node_id
    & info [ "node-id" ] ~docv:"ID"
        ~doc:"Cluster-unique member id.  With one, this process answers the \
              gossip/digest/drain membership ops and heartbeats to the \
              --join seeds; without one, those ops answer bad_request."
  in
  let join =
    value & opt_all address []
    & info [ "join" ] ~docv:"ADDR"
        ~doc:"Seed addresses (unix:PATH | tcp:HOST:PORT) gossiped to while \
              no live peer is known; repeatable.  A shard typically joins \
              the router's address; a seedless router still learns every \
              shard that joins it."
  in
  let advertise =
    value
    & opt (some address) None
    & info [ "advertise" ] ~docv:"ADDR"
        ~doc:"Address other members should dial for this process (default: \
              the listen address)."
  in
  let gossip_interval_ms =
    int_flag 500
      (info [ "gossip-interval-ms" ] ~docv:"MS"
         ~doc:"Membership gossip round interval.")
  in
  let suspicion_timeout_ms =
    int_flag 2_000
      (info [ "suspicion-timeout-ms" ] ~docv:"MS"
         ~doc:"A member unheard-of for $(docv) ms becomes suspect.")
  in
  let dead_timeout_ms =
    int_flag 6_000
      (info [ "dead-timeout-ms" ] ~docv:"MS"
         ~doc:"A member unheard-of for $(docv) ms is declared dead.")
  in
  C.Term.(
    ret
      (const (make ~default_socket)
      $ socket $ tcp $ host $ workers $ queue_capacity $ max_frame_bytes
      $ default_timeout_ms $ trace $ trace_out $ trace_ring $ access_log
      $ node_id $ join $ advertise $ gossip_interval_ms $ suspicion_timeout_ms
      $ dead_timeout_ms))

(* [run d ~name ~role started] boots the daemon and blocks until it has
   drained.  [evaluate], given the node's membership and metrics,
   replaces the local dispatcher; [started server] runs once the server
   and the gossiper are up and returns what to do after the drain. *)
let run d ~name ~role ?max_heap_mb ?(config = Fun.id) ?evaluate started =
  match Option.iter (fun p -> Instrument.set_trace_file (Some p)) d.trace_out with
  | exception Sys_error msg -> `Error (false, "--trace-out: " ^ msg)
  | () -> (
      if d.trace then Instrument.set_enabled true;
      Instrument.set_ring_capacity d.trace_ring;
      (* every streamed trace line names this node, so merged fleet
         traces stay attributable per line *)
      Option.iter
        (fun node ->
          Instrument.set_global_attrs [ ("node", Core.Util.Json.Str node) ])
        d.node_id;
      let membership =
        Option.map
          (fun self ->
            Membership.create ~self ~role
              ~addr:
                (Server.string_of_listen
                   (Option.value d.advertise ~default:d.listen))
              ~suspicion_timeout_ms:d.suspicion_timeout_ms
              ~dead_timeout_ms:d.dead_timeout_ms
              ~seeds:(List.map Server.string_of_listen d.join)
              ())
          d.node_id
      in
      let metrics =
        Metrics.create ?node:d.node_id ?max_heap_mb ~workers:d.workers
          ~queue_capacity:d.queue_capacity ()
      in
      let config =
        config
          {
            (Server.default_config ~listen:d.listen) with
            Server.workers = d.workers;
            queue_capacity = d.queue_capacity;
            max_frame_bytes = d.max_frame_bytes;
            default_timeout_ms = d.default_timeout_ms;
            access_log = d.access_log;
            node = d.node_id;
          }
      in
      let evaluate =
        Option.bind evaluate (fun f ->
            Option.map (fun m -> f m metrics) membership)
      in
      match Server.create ~metrics ?evaluate config with
      | exception Sys_error msg -> `Error (false, "--access-log: " ^ msg)
      | exception Unix.Unix_error (err, _, arg) ->
          `Error
            ( false,
              Printf.sprintf "cannot listen on %s: %s"
                (Server.string_of_listen d.listen)
                (Unix.error_message err ^ if arg = "" then "" else " " ^ arg)
            )
      | server ->
          let stop _ = Server.request_stop server in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Server.start server;
          (* With a node id this process answers the membership ops and
             rumor-spreads its heartbeat to the --join seeds until live
             peers are learned.  A router's evaluator answers those ops
             itself, ahead of the dispatcher. *)
          let gossiper =
            Option.map
              (fun membership ->
                Dispatch.set_cluster_handler (Server.dispatch server)
                  (Membership.handle membership);
                Gossiper.start ~membership
                  ~transport:
                    (Transport.create ~policy:Transport.gossip_policy ())
                  ~interval_ms:d.gossip_interval_ms
                  ~stopping:(fun () -> Server.stop_requested server)
                  ())
              membership
          in
          let finish = started server in
          Server.join server;
          Option.iter Gossiper.join gossiper;
          finish ();
          prerr_endline (name ^ ": drained, bye");
          `Ok ())
