(* gossip_served: long-lived concurrent analysis server.

   Serves the library's analyses (tables / bound / simulate / certify /
   stats) over newline-delimited JSON on a Unix-domain or TCP socket,
   evaluating requests on a pool of worker domains that share one
   memoizing Core.Context — repeated queries are cache hits instead of
   cold CLI runs.  Wire schema and semantics: doc/serving.md.

   Subcommands:
     serve     run the daemon (default)
     version   print the build version

   The daemon drains gracefully on SIGTERM/SIGINT or a `shutdown`
   request: stop accepting, answer everything already admitted, exit. *)

open Gossip_serve
module C = Cmdliner

let serve_run d eval_domains metrics_dump metrics_dump_interval_ms
    max_heap_mb resource_interval_ms chaos_args =
  (* Parallelism comes from concurrent worker domains; nested parallel
     loops inside one request default to a single domain so [workers]
     requests never oversubscribe the machine. *)
  Core.Util.Parallel.set_default_domains (Some (max 1 eval_domains));
  let seed, drop, corrupt, delay, delay_ms, panic, disp_lat, disp_lat_ms =
    chaos_args
  in
  match
    Chaos.make ~seed ~drop ~corrupt ~delay ~delay_ms ~panic
      ~dispatch_latency:disp_lat ~dispatch_latency_ms:disp_lat_ms ()
  with
  | exception Invalid_argument msg -> `Error (true, msg)
  | chaos ->
      Daemon.run d ~name:"gossip_served" ~role:"shard" ~max_heap_mb
        ~config:(fun c -> { c with Server.chaos })
        (fun server ->
          let metrics = Server.metrics server in
          (* Background resource sampler: keeps gc.*/proc.* gauges fresh
             and feeds the metrics/health wire ops their live memory
             numbers (the runaway-heap health check reads the latest
             sample). *)
          ignore
            (Core.Util.Resource.start_sampler
               ~interval_ms:resource_interval_ms
               ~on_sample:(Metrics.note_resource metrics)
               ());
          (* Periodic metrics snapshots: write-then-rename so a scraper
             never reads a torn file; one final dump at shutdown so the
             file reflects the whole run. *)
          let dump_metrics path =
            let tmp = path ^ ".tmp" in
            match open_out tmp with
            | exception Sys_error _ -> ()
            | oc ->
                output_string oc
                  (Core.Util.Json.to_string_pretty (Metrics.metrics_json metrics));
                output_char oc '\n';
                close_out oc;
                (try Sys.rename tmp path with Sys_error _ -> ())
          in
          let dumper =
            Option.map
              (fun path ->
                Thread.create
                  (fun () ->
                    let interval =
                      Float.max 0.05
                        (float_of_int metrics_dump_interval_ms /. 1000.0)
                    in
                    while not (Server.stop_requested server) do
                      Thread.delay interval;
                      dump_metrics path
                    done)
                  ())
              metrics_dump
          in
          Printf.eprintf
            "gossip_served %s listening on %s (%d workers, queue %d)\n%!"
            Core.Version.string
            (Server.string_of_listen d.Daemon.listen)
            d.workers d.queue_capacity;
          Option.iter
            (fun plan ->
              Printf.eprintf "gossip_served: CHAOS ENABLED (%s)\n%!"
                (Chaos.describe plan))
            chaos;
          fun () ->
            Core.Util.Resource.stop_sampler ();
            Option.iter Thread.join dumper;
            Option.iter dump_metrics metrics_dump)

let serve_term =
  let eval_domains =
    C.Arg.(
      value & opt int 1
      & info [ "eval-domains" ] ~docv:"N"
          ~doc:"Worker domains available to parallel loops INSIDE one \
                request evaluation (default 1: the pool itself is the \
                parallelism).")
  in
  let metrics_dump =
    C.Arg.(
      value
      & opt (some string) None
      & info [ "metrics-dump" ] ~docv:"FILE"
          ~doc:"Periodically write the gossip-metrics/1 snapshot to $(docv) \
                (atomic write-then-rename), plus a final dump at shutdown.")
  in
  let metrics_dump_interval_ms =
    C.Arg.(
      value & opt int 5000
      & info
          [ "metrics-dump-interval-ms" ]
          ~docv:"MS" ~doc:"Interval between --metrics-dump snapshots.")
  in
  let max_heap_mb =
    C.Arg.(
      value & opt float 4096.0
      & info [ "max-heap-mb" ] ~docv:"MB"
          ~doc:"Degrade health once the GC heap exceeds $(docv) MB (a \
                runaway heap will eventually take the process down); 0 \
                disables the check.")
  in
  let resource_interval_ms =
    C.Arg.(
      value & opt int 1000
      & info
          [ "resource-interval-ms" ]
          ~docv:"MS"
          ~doc:"Interval of the background GC/RSS resource sampler feeding \
                the metrics and health operations.")
  in
  (* The chaos flags bundle into one term: they configure a single
     Chaos.make call and stand or fall together. *)
  let chaos_args =
    let p name doc =
      C.Arg.(value & opt float 0.0 & info [ name ] ~docv:"P" ~doc)
    in
    let ms name doc =
      C.Arg.(value & opt int 25 & info [ name ] ~docv:"MS" ~doc)
    in
    let seed =
      C.Arg.(
        value & opt int 0
        & info [ "chaos-seed" ] ~docv:"N"
            ~doc:"Seed for the fault plan; decisions are a pure function \
                  of (seed, req_id), so a run reproduces from its seed.")
    in
    let drop = p "chaos-drop" "Probability a reply is silently dropped." in
    let corrupt =
      p "chaos-corrupt" "Probability a reply frame is corrupted on write."
    in
    let delay = p "chaos-delay" "Probability a reply is delayed." in
    let delay_ms = ms "chaos-delay-ms" "Delay applied by --chaos-delay." in
    let panic =
      p "chaos-panic"
        "Probability the worker domain panics on a request (answered \
         internal_error, then the domain dies and is respawned by the \
         supervisor)."
    in
    let disp_lat =
      p "chaos-dispatch-latency"
        "Probability of an artificial stall before evaluation."
    in
    let disp_lat_ms =
      ms "chaos-dispatch-latency-ms"
        "Stall applied by --chaos-dispatch-latency."
    in
    C.Term.(
      const (fun seed drop corrupt delay delay_ms panic dl dl_ms ->
          (seed, drop, corrupt, delay, delay_ms, panic, dl, dl_ms))
      $ seed $ drop $ corrupt $ delay $ delay_ms $ panic $ disp_lat
      $ disp_lat_ms)
  in
  C.Term.(
    ret
      (const serve_run
      $ Daemon.term ~default_socket:"gossip_served.sock"
          ~workers:(Core.Util.Parallel.recommended_domains ())
          ~queue_capacity:64 ()
      $ eval_domains $ metrics_dump $ metrics_dump_interval_ms $ max_heap_mb
      $ resource_interval_ms $ chaos_args))

let serve_cmd =
  C.Cmd.v
    (C.Cmd.info "serve" ~doc:"Run the analysis server (default command).")
    serve_term

let version_cmd =
  C.Cmd.v
    (C.Cmd.info "version" ~doc:"Print the build version.")
    C.Term.(const (fun () -> print_endline Core.Version.string) $ const ())

let () =
  let doc = "concurrent systolic-gossip analysis server" in
  exit
    (C.Cmd.eval
       (C.Cmd.group
          ~default:serve_term
          (C.Cmd.info "gossip_served" ~doc ~version:Core.Version.string)
          [ serve_cmd; version_cmd ]))
