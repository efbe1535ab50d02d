(* cluster_ctl: poke a running cluster (or a single shard) over the wire.

   usage: cluster_ctl (--socket PATH | --tcp HOST:PORT) COMMAND
     health            print the health probe (cluster envelope on a router)
     metrics           print the metrics snapshot
     stats             print stats (membership + ring + shards on a router)
     members           print the membership table, one line per node
     digest            print the membership digest (convergence probe:
                       converged processes print the SAME digest)
     drain --node ID   mark shard ID draining: the router stops routing
                       new keys there while in-flight work completes
     traces [--max N] [--jsonl]
                       drain the recent-span ring buffers (the whole
                       fleet's when the target is a router); --jsonl
                       flattens the reply to raw JSON Lines ready to
                       stitch with trace_report.  Destructive: each
                       event is handed out once.
     shutdown          ask the target process to drain and exit

   Exit status: 0 on an ok reply, 1 on an error reply or unreachable
   target, 2 on usage errors.  CI's cluster soak scripts are built on
   `digest` (convergence equality across survivors), `drain`, `health`
   and `traces --jsonl` (trace stitching). *)

module Json = Gossip_util.Json
module Serve = Gossip_serve

let usage () =
  prerr_endline
    "usage: cluster_ctl (--socket PATH | --tcp HOST:PORT)\n\
    \         (health | metrics | stats | members | digest |\n\
    \          drain --node ID | traces [--max N] [--jsonl] | shutdown)";
  exit 2

let parse_target = function
  | "--socket" :: path :: rest -> (Serve.Server.Unix_socket path, rest)
  | "--tcp" :: hostport :: rest -> (
      match Serve.Server.tcp_of_string hostport with
      | Ok listen -> (listen, rest)
      | Error e ->
          prerr_endline ("cluster_ctl: --tcp: " ^ e);
          usage ())
  | _ -> usage ()

let call target op =
  match Serve.Client.connect_retry ~attempts:5 ~delay:0.1 target with
  | exception e ->
      Printf.eprintf "cluster_ctl: cannot connect: %s\n%!"
        (Printexc.to_string e);
      exit 1
  | client -> (
      let r = Serve.Client.call client op in
      Serve.Client.close client;
      match r with
      | Error msg ->
          Printf.eprintf "cluster_ctl: %s\n%!" msg;
          exit 1
      | Ok { Serve.Wire.outcome = Error (code, msg); _ } ->
          Printf.eprintf "cluster_ctl: %s: %s\n%!"
            (Serve.Wire.error_code_to_string code)
            msg;
          exit 1
      | Ok { Serve.Wire.outcome = Ok result; _ } -> result)

let print_json j = print_endline (Json.to_string_pretty j)

(* Flatten a trace_pull reply to JSON Lines on stdout — the same shape
   a --trace-out file has, so `cluster_ctl traces --jsonl >> node.jsonl`
   composes directly with trace_report's multi-file stitch.  A shard
   answers gossip-traces/1; a router wraps its own ring plus every
   reachable shard's behind gossip-cluster-traces/1. *)
let rec print_trace_events j =
  let events j =
    match Json.member "events" j with
    | Some (Json.List evs) ->
        List.iter (fun e -> print_endline (Json.to_string e)) evs
    | _ -> ()
  in
  match Json.member "schema" j with
  | Some (Json.Str "gossip-traces/1") -> events j
  | Some (Json.Str "gossip-cluster-traces/1") ->
      (match Json.member "router" j with
      | Some r -> print_trace_events r
      | None -> ());
      (match Json.member "shards" j with
      | Some (Json.List shards) ->
          List.iter
            (fun s ->
              match Json.member "traces" s with
              | Some tr -> print_trace_events tr
              | None -> ())
            shards
      | _ -> ())
  | _ ->
      prerr_endline "cluster_ctl: unrecognized traces reply schema";
      exit 1

(* One readable line per member, for humans and for grep-based CI
   assertions: "node status inc hb role addr version". *)
let print_members view =
  match Gossip_cluster.Membership.entries_of_view view with
  | Error e ->
      Printf.eprintf "cluster_ctl: bad membership view: %s\n%!" e;
      exit 1
  | Ok entries ->
      List.iter
        (fun (e : Gossip_cluster.Membership.entry) ->
          Printf.printf "%s %s inc=%d hb=%d %s %s %s\n"
            e.Gossip_cluster.Membership.node
            (Gossip_cluster.Membership.status_to_string
               e.Gossip_cluster.Membership.status)
            e.Gossip_cluster.Membership.incarnation
            e.Gossip_cluster.Membership.heartbeat
            e.Gossip_cluster.Membership.role e.Gossip_cluster.Membership.addr
            e.Gossip_cluster.Membership.version)
        entries

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let target, rest = parse_target argv in
  match rest with
  | [ "health" ] -> print_json (call target Serve.Wire.Health)
  | [ "metrics" ] -> print_json (call target Serve.Wire.Metrics)
  | [ "stats" ] -> print_json (call target Serve.Wire.Stats)
  | [ "members" ] -> (
      (* a router's stats embed the view; a bare shard answers gossip
         ops directly, so fall back to an empty-merge gossip exchange *)
      let stats = call target Serve.Wire.Stats in
      match Json.member "membership" stats with
      | Some view -> print_members view
      | None ->
          Printf.eprintf
            "cluster_ctl: target has no membership view (not a router?)\n%!";
          exit 1)
  | [ "digest" ] -> (
      let r = call target Serve.Wire.Mem_digest in
      match Json.member "digest" r with
      | Some (Json.Str d) -> print_endline d
      | _ ->
          prerr_endline "cluster_ctl: malformed digest reply";
          exit 1)
  | [ "drain"; "--node"; node ] ->
      print_json (call target (Serve.Wire.Drain { node = Some node }))
  | "traces" :: rest ->
      let max_n = ref 512 and jsonl = ref false in
      let rec go = function
        | [] -> ()
        | "--max" :: n :: r ->
            (match int_of_string_opt n with
            | Some v when v >= 1 -> max_n := v
            | _ -> usage ());
            go r
        | "--jsonl" :: r ->
            jsonl := true;
            go r
        | _ -> usage ()
      in
      go rest;
      let reply = call target (Serve.Wire.Trace_pull { max = !max_n }) in
      if !jsonl then print_trace_events reply else print_json reply
  | [ "shutdown" ] -> print_json (call target Serve.Wire.Shutdown)
  | _ -> usage ()
