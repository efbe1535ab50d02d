(* gossip_router: one wire endpoint in front of N gossip_served shards.

   Speaks the ordinary newline-delimited JSON protocol and forwards:
   analysis requests are placed by consistent hashing on their
   parameters (so identical queries always hit the same shard's warm
   cache), keyless ops round-robin, metrics/health/stats aggregate
   across the fleet.  Shard liveness comes from the same epidemic
   membership the shards run (lib/cluster); doc/cluster.md has the
   protocol and the drain runbook. *)

open Gossip_serve
open Gossip_cluster
module C = Cmdliner

let run d vnodes replicas trace_sample_rate =
  if vnodes < 1 then `Error (true, "--vnodes: value must be at least 1")
  else if replicas < 1 then
    `Error (true, "--replicas: value must be at least 1")
  else if trace_sample_rate < 0.0 || trace_sample_rate > 1.0 then
    `Error (true, "--trace-sample-rate: value must be in [0,1]")
  else
    Daemon.run d ~name:"gossip_router" ~role:"router"
      (* metrics/health/stats/trace_pull must reach Router.evaluate —
         they aggregate the fleet, not this process *)
      ~config:(fun c -> { c with Server.inline_observability = false })
      ~evaluate:(fun membership metrics ->
        Router.evaluate
          (Router.create ~membership ~metrics ~vnodes ~replicas
             ~sample_rate:trace_sample_rate ()))
      (fun _ ->
        Printf.eprintf
          "gossip_router %s (%s) listening on %s (%d workers, %d vnodes, %d \
           replicas)\n\
           %!"
          Core.Version.string
          (* --node-id defaults to "router" here, so there always is one *)
          (Option.get d.Daemon.node_id)
          (Server.string_of_listen d.listen)
          d.workers vnodes replicas;
        ignore)

let term =
  let vnodes =
    C.Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let replicas =
    C.Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"K"
          ~doc:"Ring candidates tried per keyed request (failover \
                fan-out).")
  in
  let trace_sample_rate =
    C.Arg.(
      value & opt float 1.0
      & info [ "trace-sample-rate" ] ~docv:"RATE"
          ~doc:"Head-sample traces minted at this router: the fraction of \
                context-free routed requests that stream spans, decided \
                purely from the trace id so every node agrees.")
  in
  C.Term.(
    ret
      (const run
      $ Daemon.term ~default_socket:"gossip_router.sock" ~workers:4
          ~queue_capacity:128 ~node_id:"router" ()
      $ vnodes $ replicas $ trace_sample_rate))

let () =
  let doc = "consistent-hashing router over gossip_served shards" in
  exit
    (C.Cmd.eval
       (C.Cmd.v (C.Cmd.info "gossip_router" ~doc ~version:Core.Version.string)
          term))
