(* gossip_lab: command-line front end for the systolic gossip library.

   Subcommands:
     tables                    regenerate the paper's numeric tables
     analyze  FAMILY DIM       closed-form bounds for one network
     simulate FAMILY DIM       run a periodic protocol and certify it
     info     FAMILY DIM       structural facts about a network
     stats    FAMILY DIM       exercise the memoizing pipeline, dump stats

   FAMILY is one of: path cycle complete hypercube grid torus tree
   bf dwbf wbf ddb db dk k (the latter seven take a degree with -d).

   Every subcommand accepts --domains N (worker domains for the parallel
   stages), --trace (record span timings / cache counters and print a
   summary after the run) and --trace-out FILE (stream every span and
   event as JSONL to FILE; see doc/telemetry.md).  The data-producing
   subcommands additionally accept --json (emit the result as a JSON
   object on stdout instead of the human rendering). *)

open Core
module C = Cmdliner

(* --- shared --domains / --trace plumbing --- *)

let domains_arg =
  C.Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel stages (table rows, blockwise \
           norms, BFS sweeps, candidate batches).  Default: automatic.")

let trace_arg =
  C.Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record span timings and cache counters and print a summary after \
           the run (equivalent to setting GOSSIP_TRACE=1).")

let trace_out_arg =
  C.Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream spans and events as JSON Lines to $(docv) (equivalent to \
           setting GOSSIP_TRACE_FILE; schema in doc/telemetry.md).")

(* Evaluated before the positional arguments of every subcommand; returns
   unit so command runners just prepend it. *)
let setup_term =
  let setup domains trace trace_out =
    match domains with
    | Some d when d < 1 ->
        `Error (true, "option '--domains': value must be at least 1")
    | _ ->
        Util.Parallel.set_default_domains domains;
        if trace then Util.Instrument.set_enabled true;
        (match trace_out with
        | Some path -> Util.Instrument.set_trace_file (Some path)
        | None -> ());
        `Ok ()
  in
  C.Term.(ret (const setup $ domains_arg $ trace_arg $ trace_out_arg))

let json_arg =
  C.Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the result as a JSON object on stdout instead of the human \
           rendering (suppresses the --trace summary; cache statistics are \
           embedded in the object).")

let report ?ctx () =
  if Util.Instrument.enabled () then begin
    (match ctx with
    | Some ctx -> Format.printf "%a@." Context.pp_stats ctx
    | None -> ());
    Format.printf "%a@?" Util.Instrument.pp_summary ()
  end

(* Append fields (cache stats, coverage, …) to an object result. *)
let obj_with extra = function
  | Util.Json.Obj fields -> Util.Json.Obj (fields @ extra)
  | other -> other

(* Every --json envelope leads with the build version, mirroring the
   server's response envelopes (doc/serving.md). *)
let print_json j =
  print_endline
    (Util.Json.to_string_pretty
       (match j with
       | Util.Json.Obj fields ->
           Util.Json.Obj (("version", Util.Json.Str Version.string) :: fields)
       | other -> other))

(* FAMILY DIM -d D as a network; an unknown name or a size the generator
   rejects is a usage error *)
let network family d dim =
  match Topology.Families.of_family ~family ~dim ~degree:d with
  | Ok g -> `Ok g
  | Error e -> `Error (false, e)

(* A numeric option below its least valid value is a usage error naming
   the option and the value given. *)
let at_least option least v =
  if v < least then
    Some
      (Printf.sprintf "option '%s': value %d must be at least %d" option v
         least)
  else None

let family_arg =
  C.Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FAMILY" ~doc:"Network family name.")

let dim_arg =
  C.Arg.(
    required
    & pos 1 (some int) None
    & info [] ~docv:"DIM" ~doc:"Dimension / size parameter.")

let degree_arg =
  C.Arg.(
    value & opt int 2
    & info [ "d"; "degree" ] ~docv:"D" ~doc:"Degree for string families.")

let network_term =
  C.Term.(ret (const network $ family_arg $ degree_arg $ dim_arg))

(* --- tables --- *)

let print_fig4 () =
  let t =
    Util.Table.make ~title:"Fig. 4 — general systolic bounds (half-duplex)"
      [ "s"; "lambda"; "e(s)" ]
  in
  List.iter
    (fun (r : Bounds.Tables.fig4_row) ->
      Util.Table.add_row t
        [
          string_of_int r.Bounds.Tables.s;
          Util.Table.cell_f r.Bounds.Tables.lambda;
          Util.Table.cell_f r.Bounds.Tables.e;
        ])
    (Bounds.Tables.fig4 ~s_max:8);
  Util.Table.add_row t
    [
      "inf";
      Util.Table.cell_f Bounds.Tables.fig4_inf.Bounds.Tables.lambda;
      Util.Table.cell_f Bounds.Tables.fig4_inf.Bounds.Tables.e;
    ];
  Util.Table.print t

let print_family_table ~title rows ss =
  let t =
    Util.Table.make ~title
      ("family" :: List.map (fun s -> "s=" ^ string_of_int s) ss)
  in
  List.iter
    (fun (r : Bounds.Tables.family_row) ->
      Util.Table.add_row t
        (r.Bounds.Tables.key
        :: List.map
             (fun (_, (c : Bounds.Tables.cell)) ->
               Util.Table.cell_f c.Bounds.Tables.value
               ^ if c.Bounds.Tables.improves then "" else "*")
             r.Bounds.Tables.cells))
    rows;
  Util.Table.print t;
  print_endline "(* = coincides with the general bound of Fig. 4)"

let print_fig6 () =
  let t =
    Util.Table.make ~title:"Fig. 6 — non-systolic bounds (half-duplex)"
      [ "family"; "separator"; "baseline"; "diam coeff"; "best" ]
  in
  List.iter
    (fun (r : Bounds.Tables.fig6_row) ->
      Util.Table.add_row t
        [
          r.Bounds.Tables.key;
          Util.Table.cell_f r.Bounds.Tables.separator_value;
          Util.Table.cell_f r.Bounds.Tables.baseline;
          Util.Table.cell_f r.Bounds.Tables.diameter_coeff;
          Util.Table.cell_f r.Bounds.Tables.best;
        ])
    (Bounds.Tables.fig6 ());
  Util.Table.print t

let tables_cmd =
  let run () json =
    let ss = [ 3; 4; 5; 6; 7; 8 ] in
    if json then print_json (Bounds.Tables.to_json ~s_max:8 ~ss ())
    else begin
      print_fig4 ();
      print_family_table ~title:"Fig. 5 — separator-refined systolic bounds"
        (Bounds.Tables.fig5 ~ss) ss;
      print_fig6 ();
      print_family_table ~title:"Fig. 8 — full-duplex systolic bounds"
        (Bounds.Tables.fig8 ~ss) ss;
      report ()
    end
  in
  C.Cmd.v (C.Cmd.info "tables" ~doc:"Regenerate the paper's numeric tables.")
    C.Term.(const run $ setup_term $ json_arg)

(* --- analyze --- *)

let analyze_cmd =
  let run () g =
    let ctx = Context.create () in
    Format.printf "%a@." Analysis.pp_network_report
      (Analysis.analyze_network ~ctx g);
    report ~ctx ()
  in
  C.Cmd.v
    (C.Cmd.info "analyze" ~doc:"Closed-form lower bounds for one network.")
    C.Term.(const run $ setup_term $ network_term)

(* --- simulate --- *)

(* The materialized path: build the digraph, certify the protocol. *)
let simulate_materialized g full_duplex json =
  let sys = Protocol.Builders.default_systolic g ~full_duplex in
  let ctx = Context.create () in
  let r = Analysis.certify_protocol ~ctx sys in
  if json then begin
    (* The report cached only the completion time; replay the run to
       capture the full dissemination curve for the JSON consumer. *)
    let run = Simulate.Engine.gossip_run sys in
    print_json
      (obj_with
         [ ("cache", Context.stats_json ctx) ]
         (Analysis.protocol_report_to_json ~coverage:run.Simulate.Engine.curve r))
  end
  else begin
    Format.printf "%a@." Analysis.pp_protocol_report r;
    report ~ctx ()
  end

(* The implicit path: no digraph, no stored rounds — a Schedule sender
   function drives the chunked engine blockwise.  This is the only way
   to reach 10^6+ vertices. *)
let simulate_implicit ~family ~n ~degree ~items ~checkpoint_every ~cap ~period
    ~seed ~full_duplex ~progress ~json =
  match
    Protocol.Schedule.of_family ~family ~n ~degree ~period ~seed ~full_duplex ()
  with
  | Error e -> `Error (false, e)
  | Ok (imp, sched) ->
      let nv = Topology.Implicit.n_vertices imp in
      let items = match items with Some k -> k | None -> min nv 64 in
      let st = Simulate.Chunked.create ~items nv in
      (* the ticker needs checkpoints to fire from; give it a cadence
         even when the user left checkpointing off *)
      let checkpoint_every =
        if progress && checkpoint_every = 0 then 32 else checkpoint_every
      in
      let on_checkpoint =
        if not progress then None
        else
          Some
            (fun (c : Simulate.Chunked.checkpoint) ->
              Printf.eprintf
                "\rround %-8d cov %6.4f  %8.1f r/s  eta %-8s heap %.0f MB%s \
                 %!"
                c.Simulate.Chunked.round c.Simulate.Chunked.coverage
                c.Simulate.Chunked.rounds_per_s
                (match c.Simulate.Chunked.eta_s with
                | Some e when e < 1.0 -> "<1s"
                | Some e -> Printf.sprintf "%.0fs" e
                | None -> "?")
                c.Simulate.Chunked.heap_mb
                (match c.Simulate.Chunked.rss_mb with
                | Some r -> Printf.sprintf "  rss %.0f MB" r
                | None -> ""))
      in
      let t0 = Util.Instrument.now_ns () in
      let outcome =
        Simulate.Chunked.run ?cap ~checkpoint_every ?on_checkpoint st sched
      in
      if progress then prerr_newline ();
      let wall_seconds =
        Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e9
      in
      let domains = Util.Parallel.recommended_domains () in
      if json then
        print_json
          (Simulate.Chunked.report_to_json ~family ~requested_n:n ~sched ~st
             ~outcome ~wall_seconds ~domains)
      else begin
        Printf.printf "network   : %s (n = %d, requested %d)\n"
          (Topology.Implicit.name imp) nv n;
        Printf.printf "schedule  : %s (period %d, %s)\n"
          (Protocol.Schedule.name sched)
          (Protocol.Schedule.period sched)
          (Protocol.Protocol.mode_to_string (Protocol.Schedule.mode sched));
        Printf.printf "items     : %d tracked\n" items;
        (match outcome.Simulate.Chunked.time with
        | Some t -> Printf.printf "completed : after %d rounds\n" t
        | None ->
            Printf.printf "incomplete: stopped after %d rounds\n"
              outcome.Simulate.Chunked.rounds_run);
        Printf.printf "coverage  : %.6f\n"
          outcome.Simulate.Chunked.final_coverage;
        List.iter
          (fun { Simulate.Chunked.round; coverage; rounds_per_s; _ } ->
            Printf.printf "  round %6d  coverage %.6f  (%.1f rounds/s)\n" round
              coverage rounds_per_s)
          outcome.Simulate.Chunked.checkpoints;
        Printf.printf "wall      : %.3f s  (%.3g nodes*rounds/sec, %d domains)\n"
          wall_seconds
          (if wall_seconds > 0.0 then
             float_of_int nv
             *. float_of_int outcome.Simulate.Chunked.rounds_run
             /. wall_seconds
           else 0.0)
          domains;
        report ()
      end;
      `Ok ()

let simulate_cmd =
  let run () family_pos d dim_pos full_duplex json ifamily n items
      checkpoint_every cap period seed progress =
    let bad_option =
      List.find_map Fun.id
        [
          Option.bind items (at_least "--items" 1);
          at_least "--checkpoint-every" 0 checkpoint_every;
          Option.bind cap (at_least "--cap" 1);
        ]
    in
    match (ifamily, bad_option) with
    | Some _, Some msg -> `Error (true, msg)
    | Some family, None ->
        simulate_implicit ~family ~n ~degree:d ~items ~checkpoint_every ~cap
          ~period ~seed ~full_duplex ~progress ~json
    | None, _ -> (
        match (family_pos, dim_pos) with
        | Some family, Some dim -> (
            match network family d dim with
            | `Ok g ->
                simulate_materialized g full_duplex json;
                `Ok ()
            | `Error _ as e -> e)
        | _ ->
            `Error
              ( true,
                "FAMILY and DIM are required unless --family is given (the \
                 implicit large-scale path)" ))
  in
  let fd =
    C.Arg.(
      value & flag
      & info [ "full-duplex" ] ~doc:"Use a full-duplex protocol.")
  in
  let family_opt =
    C.Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Simulate an $(i,implicit) topology family with the chunked \
             engine instead of materializing a digraph: one of de-bruijn, \
             kautz, hypercube, torus, cycle, ccc.  Scales to millions of \
             vertices; combine with --n.")
  in
  let n_opt =
    C.Arg.(
      value & opt int 1024
      & info [ "n"; "nodes" ] ~docv:"N"
          ~doc:
            "Target vertex count for --family; the smallest family instance \
             with at least $(docv) vertices is used.")
  in
  let items_opt =
    C.Arg.(
      value
      & opt (some int) None
      & info [ "items" ] ~docv:"K"
          ~doc:
            "Track the dissemination of the first $(docv) items only \
             (default: min(n, 64)).  Memory is n*$(docv) bits; --items equal \
             to n is exact gossip.")
  in
  let checkpoint_opt =
    C.Arg.(
      value & opt int 32
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:
            "Record (and, with --trace-out, stream) a coverage checkpoint \
             every $(docv) rounds; 0 disables.")
  in
  let cap_opt =
    C.Arg.(
      value
      & opt (some int) None
      & info [ "cap" ] ~docv:"ROUNDS"
          ~doc:"Stop an incomplete run after $(docv) rounds.")
  in
  let period_opt =
    C.Arg.(
      value & opt int 64
      & info [ "period" ] ~docv:"S"
          ~doc:
            "Schedule period for the proposal-matching families (de Bruijn, \
             Kautz).")
  in
  let seed_opt =
    C.Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for the proposal-matching schedules.")
  in
  let progress_opt =
    C.Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print a live progress ticker to stderr at every checkpoint: \
             round, coverage, rounds/s, projected ETA and heap/RSS.  Implies \
             a checkpoint cadence of 32 when --checkpoint-every is 0.  For \
             million-node runs that would otherwise sit silent for minutes.")
  in
  let family_pos =
    C.Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FAMILY" ~doc:"Network family name (materialized path).")
  in
  let dim_pos =
    C.Arg.(
      value
      & pos 1 (some int) None
      & info [] ~docv:"DIM" ~doc:"Dimension / size parameter.")
  in
  C.Cmd.v
    (C.Cmd.info "simulate"
       ~doc:
         "Run a periodic protocol and certify it (FAMILY DIM), or drive the \
          chunked engine over an implicit family (--family/--n).")
    C.Term.(
      ret
        (const run $ setup_term $ family_pos $ degree_arg $ dim_pos $ fd
       $ json_arg $ family_opt $ n_opt $ items_opt $ checkpoint_opt $ cap_opt
       $ period_opt $ seed_opt $ progress_opt))

(* --- price --- *)

let price_cmd =
  let run () g s_max =
    let n = Topology.Digraph.n_vertices g in
    if n > 12 then
      `Error
        ( false,
          Printf.sprintf
            "price: exhaustive search needs a tiny network (n <= 12), got n \
             = %d"
            n )
    else
    let mode =
      if Topology.Digraph.is_symmetric g then Protocol.Protocol.Half_duplex
      else Protocol.Protocol.Directed
    in
    let systolic, unrestricted =
      Search.Systolic_optimal.price_of_systolization ~s_max g mode
    in
    (match unrestricted with
    | Some t -> Printf.printf "unrestricted optimum: %d rounds\n" t
    | None -> Printf.printf "unrestricted optimum: search incomplete\n");
    List.iter
      (fun (s, outcome) ->
        match outcome with
        | Search.Systolic_optimal.Found r ->
            Printf.printf "s=%d: %d rounds\n" s r.Search.Systolic_optimal.rounds
        | Search.Systolic_optimal.Infeasible ->
            Printf.printf "s=%d: no s-systolic gossip protocol exists\n" s
        | Search.Systolic_optimal.Too_large ->
            Printf.printf "s=%d: sweep too large\n" s)
      systolic;
    report ();
    `Ok ()
  in
  let s_max =
    C.Arg.(value & opt int 5 & info [ "s-max" ] ~docv:"S" ~doc:"Largest period.")
  in
  C.Cmd.v
    (C.Cmd.info "price"
       ~doc:"Exact price of systolization on a tiny network (exhaustive).")
    C.Term.(ret (const run $ setup_term $ network_term $ s_max))

(* --- dot --- *)

let dot_cmd =
  let run () g delay =
    if delay then begin
      let sys =
        if Topology.Digraph.is_symmetric g then
          Protocol.Builders.edge_coloring_half_duplex g
        else
          Protocol.Builders.random_systolic g Protocol.Protocol.Directed
            ~period:4 ~seed:1 ~density:1.0
      in
      let dg =
        Delay.Delay_digraph.of_systolic sys
          ~length:(2 * Protocol.Systolic.period sys)
      in
      print_string (Delay.Delay_digraph.to_dot dg)
    end
    else print_string (Topology.Dot.of_digraph g)
  in
  let delay =
    C.Arg.(
      value & flag
      & info [ "delay" ]
          ~doc:"Emit the delay digraph of a periodic protocol instead.")
  in
  C.Cmd.v
    (C.Cmd.info "dot" ~doc:"Emit the network (or its delay digraph) as Graphviz DOT.")
    C.Term.(const run $ setup_term $ network_term $ delay)

(* --- optimal (exhaustive) --- *)

let optimal_cmd =
  let run () g full_duplex json =
    let mode =
      if not (Topology.Digraph.is_symmetric g) then Protocol.Protocol.Directed
      else if full_duplex then Protocol.Protocol.Full_duplex
      else Protocol.Protocol.Half_duplex
    in
    let gossip = Search.Optimal.gossip_number g mode in
    let broadcast = Search.Optimal.broadcast_number g mode ~src:0 in
    if json then begin
      let module J = Util.Json in
      let result_json = function
        | Some (r : Search.Optimal.result) ->
            J.Obj
              [
                ("rounds", J.Int r.Search.Optimal.rounds);
                ("states_explored", J.Int r.Search.Optimal.states_explored);
              ]
        | None -> J.Null
      in
      print_json
        (J.Obj
           [
             ("network", J.Str (Topology.Digraph.name g));
             ("mode", J.Str (Protocol.Protocol.mode_to_string mode));
             ("gossip", result_json gossip);
             ("broadcast", result_json broadcast);
           ])
    end
    else begin
      (match gossip with
      | Some r ->
          Printf.printf "optimal gossip: %d rounds (%d states explored)\n"
            r.Search.Optimal.rounds r.Search.Optimal.states_explored
      | None -> print_endline "gossip search exceeded the state budget");
      (match broadcast with
      | Some r ->
          Printf.printf "optimal broadcast from 0: %d rounds\n"
            r.Search.Optimal.rounds
      | None -> print_endline "broadcast search exceeded the state budget");
      report ()
    end
  in
  let fd =
    C.Arg.(value & flag & info [ "full-duplex" ] ~doc:"Full-duplex mode.")
  in
  C.Cmd.v
    (C.Cmd.info "optimal"
       ~doc:"Exact optimal gossip/broadcast (tiny networks, <= 24 vertices).")
    C.Term.(const run $ setup_term $ network_term $ fd $ json_arg)

(* --- broadcast --- *)

let broadcast_cmd =
  let run () g src =
    let n = Topology.Digraph.n_vertices g in
    if src < 0 || src >= n then
      `Error
        ( true,
          Printf.sprintf "option '--src': vertex %d is outside [0, %d)" src n )
    else
    let mode =
      if Topology.Digraph.is_symmetric g then Protocol.Protocol.Half_duplex
      else Protocol.Protocol.Directed
    in
    let p = Protocol.Broadcast_protocol.greedy_schedule g ~src ~mode in
    Printf.printf "greedy broadcast schedule: %d rounds\n"
      (Protocol.Protocol.length p);
    Printf.printf "sound lower bound: %d rounds\n"
      (Bounds.Broadcast.lower_bound g);
    Printf.printf "c(d)·log n asymptotic: %.2f\n"
      (Bounds.Broadcast.asymptotic_coefficient g
      *. Util.Numeric.log2 (float_of_int n));
    report ();
    `Ok ()
  in
  let src =
    C.Arg.(value & opt int 0 & info [ "src" ] ~docv:"V" ~doc:"Source vertex.")
  in
  C.Cmd.v
    (C.Cmd.info "broadcast" ~doc:"Greedy broadcast schedule and bounds.")
    C.Term.(ret (const run $ setup_term $ network_term $ src))

(* --- certify a protocol file --- *)

let certify_file_cmd =
  let run () path refine json =
    let sys = Protocol.Protocol_io.load path in
    let ctx = Context.create () in
    let protocol_report = Analysis.certify_protocol ~ctx sys in
    let refined =
      if not refine then None
      else
        match protocol_report.Analysis.gossip_time with
        | Some t ->
            (* The refinement repeats the coarse search over the same
               delay digraph, which solves the same λ as the analysis
               did, so each of those solves is a cache hit; the λ the
               search skips are solved by neither. *)
            let dg = Context.delay_digraph ctx sys ~length:t in
            Some
              (Context.certify ctx ~refine:true dg
                 ~mode:(Protocol.Systolic.mode sys))
        | None -> None
    in
    if json then
      print_json
        (obj_with
           ((match refined with
            | Some cert -> [ ("refined", Delay.Certificate.to_json cert) ]
            | None -> [])
           @ [ ("cache", Context.stats_json ctx) ])
           (Analysis.protocol_report_to_json protocol_report))
    else begin
      Format.printf "%a@." Analysis.pp_protocol_report protocol_report;
      (match refined with
      | Some cert ->
          Printf.printf "refined certificate: >= %d rounds (lambda=%.3f)\n"
            cert.Delay.Certificate.bound cert.Delay.Certificate.lambda
      | None -> ());
      report ~ctx ()
    end
  in
  let path =
    C.Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Protocol file (see Protocol_io format).")
  in
  let refine =
    C.Arg.(value & flag & info [ "refine" ] ~doc:"Refine the lambda search.")
  in
  C.Cmd.v
    (C.Cmd.info "certify-file"
       ~doc:"Load a protocol from a text file, run it, certify it.")
    C.Term.(const run $ setup_term $ path $ refine $ json_arg)

(* --- stats: exercise the memoizing pipeline --- *)

let stats_cmd =
  let run () g full_duplex json =
    let sys = Protocol.Builders.default_systolic g ~full_duplex in
    let ctx = Context.create () in
    let mode = Protocol.Systolic.mode sys in
    let s = Protocol.Systolic.period sys in
    (* Cold pass: simulate, expand, certify — every artifact is a miss. *)
    let cold = Analysis.certify_protocol ~ctx sys in
    if not json then
      Format.printf "%a@." Analysis.pp_protocol_report cold;
    (* Refined certificate over the same delay digraph: the coarse
       search solves the same λ as the cold pass, so those solves are
       cache hits; the λ it skips are solved by neither. *)
    let refined =
      match cold.Analysis.gossip_time with
      | Some t ->
          let dg = Context.delay_digraph ctx sys ~length:t in
          Some (Context.certify ctx ~refine:true dg ~mode)
      | None -> None
    in
    (match refined with
    | Some cert when not json ->
        Printf.printf "refined certificate: >= %d rounds (lambda=%.3f)\n"
          cert.Delay.Certificate.bound cert.Delay.Certificate.lambda
    | _ -> ());
    (* Warm pass: everything served from the cache. *)
    let warm = Analysis.certify_protocol ~ctx sys in
    let oracle = Context.lower_bounds ctx g ~mode ~s:(Some s) in
    if json then begin
      let module J = Util.Json in
      print_json
        (J.Obj
           ([ ("report", Analysis.protocol_report_to_json cold) ]
           @ (match refined with
             | Some cert -> [ ("refined", Delay.Certificate.to_json cert) ]
             | None -> [])
           @ [
               ("warm_identical", J.Bool (cold = warm));
               ("oracle_sound", J.Int oracle.Bounds.Oracle.sound);
               ("cache", Context.stats_json ctx);
               ("metrics", Util.Instrument.metrics_json ());
             ]))
    end
    else begin
      Printf.printf "warm re-analysis identical: %b\n" (cold = warm);
      Printf.printf "oracle sound lower bound: %d rounds\n"
        oracle.Bounds.Oracle.sound;
      Format.printf "%a@." Context.pp_stats ctx;
      if Util.Instrument.enabled () then
        Format.printf "%a@?" Util.Instrument.pp_summary ()
    end
  in
  let fd =
    C.Arg.(value & flag & info [ "full-duplex" ] ~doc:"Full-duplex protocol.")
  in
  C.Cmd.v
    (C.Cmd.info "stats"
       ~doc:
         "Run a certificate workload twice through one shared memoizing \
          context and print cache statistics (and span timings under \
          --trace).")
    C.Term.(const run $ setup_term $ network_term $ fd $ json_arg)

(* --- faults: slowdown under i.i.d. / permanent / bursty arc faults --- *)

let faults_cmd =
  let run () g full_duplex trials seed model probabilities ks p_recover json =
    let sys = Protocol.Builders.default_systolic g ~full_duplex in
    let models () =
      match model with
      | "iid" -> List.map (fun p -> Simulate.Faults.Iid { p }) probabilities
      | "permanent" ->
          List.map (fun k -> Simulate.Faults.Permanent { k }) ks
      | "bursty" ->
          List.map
            (fun p -> Simulate.Faults.Bursty { p_fail = p; p_recover })
            probabilities
      | other ->
          invalid_arg
            (Printf.sprintf
               "--model must be iid, permanent or bursty (got %S)" other)
    in
    (* the model, its parameters and the trial count all come from the
       command line, so whatever [curve] rejects is a usage error *)
    match Simulate.Faults.curve sys ~trials ~models:(models ()) ~seed with
    | exception Invalid_argument msg -> `Error (false, msg)
    | curve ->
        if json then begin
          let module J = Util.Json in
          print_json
            (J.Obj
               [
                 ("network", J.Str (Topology.Digraph.name g));
                 ("period", J.Int (Protocol.Systolic.period sys));
                 ("model", J.Str model);
                 ("trials", J.Int trials);
                 ("seed", J.Int seed);
                 ( "curve",
                   J.List (List.map Simulate.Faults.curve_point_to_json curve)
                 );
               ])
        end
        else begin
          let param_label = function
            | Simulate.Faults.Iid { p } -> Printf.sprintf "%.2f" p
            | Simulate.Faults.Permanent { k } -> string_of_int k
            | Simulate.Faults.Bursty { p_fail; p_recover } ->
                Printf.sprintf "%.2f/%.2f" p_fail p_recover
          in
          let param_header =
            match model with
            | "permanent" -> "k"
            | "bursty" -> "p_fail/p_rec"
            | _ -> "p"
          in
          let t =
            Util.Table.make
              ~title:
                (Printf.sprintf
                   "%s — mean gossip time under %s arc faults (%d trials)"
                   (Topology.Digraph.name g) model trials)
              [ param_header; "mean"; "completed" ]
          in
          List.iter
            (fun (pt : Simulate.Faults.curve_point) ->
              Util.Table.add_row t
                [
                  param_label pt.Simulate.Faults.cp_model;
                  (match pt.Simulate.Faults.cp_mean with
                  | Some m -> Printf.sprintf "%.1f" m
                  | None -> "DNF");
                  Printf.sprintf "%d/%d" pt.Simulate.Faults.cp_completed
                    pt.Simulate.Faults.cp_trials;
                ])
            curve;
          Util.Table.print t;
          report ()
        end;
        `Ok ()
  in
  let fd =
    C.Arg.(value & flag & info [ "full-duplex" ] ~doc:"Full-duplex protocol.")
  in
  let trials =
    C.Arg.(
      value & opt int 5
      & info [ "trials" ] ~docv:"N" ~doc:"Trials per curve point.")
  in
  let seed =
    C.Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let model =
    C.Arg.(
      value & opt string "iid"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Fault model: $(b,iid) (independent drops with probability p), \
             $(b,permanent) (k arcs fail for the whole run; see --k), or \
             $(b,bursty) (per-arc on/off process: fails with p, recovers \
             with --p-recover).")
  in
  let probabilities =
    C.Arg.(
      value
      & opt (list float) [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
      & info [ "p"; "probabilities" ] ~docv:"P,..."
          ~doc:
            "Comma-separated fault probabilities (drop probability for \
             iid, failure probability for bursty).")
  in
  let ks =
    C.Arg.(
      value
      & opt (list int) [ 0; 1; 2; 4 ]
      & info [ "k" ] ~docv:"K,..."
          ~doc:"Comma-separated failed-arc counts for --model permanent.")
  in
  let p_recover =
    C.Arg.(
      value & opt float 0.1
      & info [ "p-recover" ] ~docv:"P"
          ~doc:"Per-activation recovery probability for --model bursty.")
  in
  C.Cmd.v
    (C.Cmd.info "faults"
       ~doc:
         "Slowdown curve under arc faults — i.i.d. drops, permanent arc \
          failures, or bursty (on/off) losses — with per-point completion \
          counts (non-completing trials are excluded from the mean, so \
          the counts matter).")
    C.Term.(
      ret
        (const run $ setup_term $ network_term $ fd $ trials $ seed $ model
       $ probabilities $ ks $ p_recover $ json_arg))

(* --- fault-tolerance: certify-faults / harden --- *)

(* Shared plumbing for the fault-tolerance commands: resolve an implicit
   family's natural schedule and apply a hardening transform. *)
let resolve_hardened ~family ~n ~degree ~period ~seed ~full_duplex ~harden ~k =
  match
    Protocol.Schedule.of_family ~family ~n ~degree ~period ~seed ~full_duplex ()
  with
  | Error e -> Error e
  | Ok (_imp, sched) -> (
      match Protocol.Fault_tolerant.harden sched ~transform:harden ~k with
      | Error e -> Error e
      | Ok (hardened, rep) -> Ok (sched, hardened, rep))

let ft_family_arg =
  C.Arg.(
    required
    & opt (some string) None
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:
          "Implicit topology family: one of de-bruijn, kautz, hypercube, \
           torus, cycle, ccc.")

let ft_n_arg =
  C.Arg.(
    value & opt int 12
    & info [ "n"; "nodes" ] ~docv:"N"
        ~doc:
          "Target vertex count; the smallest family instance with at least \
           $(docv) vertices is used.")

let ft_period_arg =
  C.Arg.(
    value & opt int 16
    & info [ "period" ] ~docv:"S"
        ~doc:
          "Schedule period for the proposal-matching families (de Bruijn, \
           Kautz).")

let ft_seed_arg =
  C.Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seed for both the proposal-matching schedules and the sampled \
           certification mode; verdicts are deterministic per seed.")

let ft_budget_arg =
  C.Arg.(
    value & opt int 512
    & info [ "budget" ] ~docv:"B"
        ~doc:
          "Pattern budget: the C(m, <=k) failure-pattern space is enumerated \
           exhaustively while it fits, otherwise $(docv) seeded samples are \
           drawn and the verdict is statistical.")

let ft_cap_arg =
  C.Arg.(
    value
    & opt (some int) None
    & info [ "cap" ] ~docv:"ROUNDS"
        ~doc:
          "Round budget a faulted run must complete within (default: \
           ceil(slack * fault-free time) + period).")

let ft_slack_arg =
  C.Arg.(
    value & opt float 1.5
    & info [ "slack" ] ~docv:"X"
        ~doc:
          "Allowed slowdown factor over the scheme's own fault-free \
           completion time when --cap is not given.")

let ft_fd_arg =
  C.Arg.(value & flag & info [ "full-duplex" ] ~doc:"Full-duplex schedule.")

let certify_faults_cmd =
  let run () family n d k budget seed period cap slack full_duplex harden json =
    match Option.bind cap (at_least "--cap" 1) with
    | Some msg -> `Error (true, msg)
    | None ->
    match resolve_hardened ~family ~n ~degree:d ~period ~seed ~full_duplex
            ~harden ~k
    with
    | Error e -> `Error (false, e)
    | Ok (_base, sched, rep) ->
        let ctx = Context.create () in
        let fingerprint = Simulate.Certifier.fingerprint sched in
        let cert_json () =
          Simulate.Certifier.to_json sched
            (Simulate.Certifier.certify ?cap ~slack ~budget sched ~k ~seed)
        in
        (* k, the budget and the slack all come from the command line,
           so whatever the certifier rejects is a usage error *)
        match
          Context.fault_certificate ctx ~fingerprint ~k ~seed ~budget
            ~cap:(Option.value ~default:(-1) cap)
            ~compute:cert_json
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | cert ->
        if json then
          print_json
            (Util.Json.Obj
               [
                 ("certificate", cert);
                 ("hardening", Protocol.Fault_tolerant.report_to_json rep);
                 ("cache", Context.stats_json ctx);
               ])
        else begin
          let member key = Util.Json.member key cert in
          let int_of key =
            match member key with Some (Util.Json.Int i) -> Some i | _ -> None
          in
          let str_of key =
            match member key with Some (Util.Json.Str s) -> s | _ -> "?"
          in
          Printf.printf "scheme    : %s (n = %d, %s, period %d)\n"
            (Protocol.Schedule.name sched)
            (Protocol.Schedule.n_vertices sched)
            (Protocol.Protocol.mode_to_string (Protocol.Schedule.mode sched))
            (Protocol.Schedule.period sched);
          if rep.Protocol.Fault_tolerant.transform <> "none" then
            Printf.printf
              "hardening : %s (+%d rounds, +%d calls per period)\n"
              rep.Protocol.Fault_tolerant.transform
              rep.Protocol.Fault_tolerant.added_rounds
              rep.Protocol.Fault_tolerant.added_calls;
          Printf.printf "adversary : up to %d of %s arcs failed permanently\n"
            k
            (match int_of "arcs" with
            | Some m -> string_of_int m
            | None -> "?");
          Printf.printf "patterns  : %s / %s checked (%s mode)\n"
            (match int_of "patterns_checked" with
            | Some c -> string_of_int c
            | None -> "?")
            (match int_of "patterns_total" with
            | Some t -> string_of_int t
            | None -> "?")
            (str_of "cert_mode");
          Printf.printf "cap       : %s rounds (fault-free time %s)\n"
            (match int_of "cap" with Some c -> string_of_int c | None -> "?")
            (match int_of "fault_free_time" with
            | Some t -> string_of_int t
            | None -> "DNF");
          (match member "certified" with
          | Some (Util.Json.Bool true) ->
              Printf.printf "verdict   : CERTIFIED (worst completion %s)\n"
                (match int_of "worst_time" with
                | Some w -> Printf.sprintf "%d rounds" w
                | None -> "?")
          | _ ->
              Printf.printf "verdict   : NOT certified\n";
              (match member "counterexample" with
              | Some (Util.Json.Obj _ as cx) ->
                  Printf.printf "  minimal counterexample: %s\n"
                    (match Util.Json.member "pattern" cx with
                    | Some p -> Util.Json.to_string p
                    | None -> "?")
              | _ -> ()));
          report ~ctx ()
        end;
        `Ok ()
  in
  let k_arg =
    C.Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K"
          ~doc:"Adversarial failure budget: certify against every pattern of \
                at most $(docv) permanently dead arcs.")
  in
  let harden_arg =
    C.Arg.(
      value & opt string "none"
      & info [ "harden" ] ~docv:"T"
          ~doc:
            "Apply a redundancy transform before certifying: $(b,none), \
             $(b,replicate) (each round repeated k+1 times — transient \
             redundancy only) or $(b,augment) (Chord-style chord rounds — \
             routes around dead arcs).")
  in
  C.Cmd.v
    (C.Cmd.info "certify-faults"
       ~doc:
         "Adversarial fault certification: decide whether gossip still \
          completes (within a round cap) under every pattern of at most K \
          permanently dead arcs, exhaustively while the pattern space fits \
          the budget; emits a gossip-fault-cert/1 artifact and shrinks any \
          counterexample to a minimal one.")
    C.Term.(
      ret
        (const run $ setup_term $ ft_family_arg $ ft_n_arg $ degree_arg $ k_arg
       $ ft_budget_arg $ ft_seed_arg $ ft_period_arg $ ft_cap_arg $ ft_slack_arg
       $ ft_fd_arg $ harden_arg $ json_arg))

let harden_cmd =
  let run () family n d k_max budget seed period slack full_duplex json =
    let transforms_for k = if k = 0 then [ "none" ] else [ "replicate"; "augment" ] in
    let row k transform =
      match
        resolve_hardened ~family ~n ~degree:d ~period ~seed ~full_duplex
          ~harden:transform ~k
      with
      | Error e -> invalid_arg e
      | Ok (_base, sched, rep) ->
          let v = Simulate.Certifier.certify ~slack ~budget sched ~k ~seed in
          (* the fault-free reference: the paper's lower bound for the
             hardened scheme's own network and period *)
          let g =
            Topology.Digraph.make
              ~name:(Protocol.Schedule.name sched)
              (Protocol.Schedule.n_vertices sched)
              (Array.to_list (Simulate.Certifier.period_arcs sched))
          in
          let oracle =
            Bounds.Oracle.lower_bounds g
              ~mode:(Protocol.Schedule.mode sched)
              ~s:(Some (Protocol.Schedule.period sched))
          in
          (k, transform, rep, v, oracle.Bounds.Oracle.sound)
    in
    match at_least "--k-max" 0 k_max with
    | Some msg -> `Error (true, msg)
    | None ->
    (* the family, k, the budget and the slack all come from the command
       line, so whatever resolving or certifying a row rejects is a usage
       error *)
    match
      List.concat_map
        (fun k -> List.map (row k) (transforms_for k))
        (List.init (k_max + 1) Fun.id)
    with
    | exception Invalid_argument e -> `Error (false, e)
    | rows ->
        if json then
          print_json
            (Util.Json.Obj
               [
                 ("family", Util.Json.Str family);
                 ("n", Util.Json.Int n);
                 ("seed", Util.Json.Int seed);
                 ("budget", Util.Json.Int budget);
                 ( "rows",
                   Util.Json.List
                     (List.map
                        (fun (k, transform, rep, (v : Simulate.Certifier.verdict),
                              bound) ->
                          Util.Json.Obj
                            [
                              ("k", Util.Json.Int k);
                              ("transform", Util.Json.Str transform);
                              ( "hardening",
                                Protocol.Fault_tolerant.report_to_json rep );
                              ( "fault_free_time",
                                match v.Simulate.Certifier.fault_free_time with
                                | Some t -> Util.Json.Int t
                                | None -> Util.Json.Null );
                              ("bound_sound", Util.Json.Int bound);
                              ( "certified",
                                Util.Json.Bool v.Simulate.Certifier.certified );
                              ( "cert_mode",
                                Util.Json.Str
                                  (match v.Simulate.Certifier.cert_mode with
                                  | Simulate.Certifier.Exhaustive ->
                                      "exhaustive"
                                  | Simulate.Certifier.Sampled -> "sampled") );
                              ( "patterns_checked",
                                Util.Json.Int
                                  v.Simulate.Certifier.patterns_checked );
                            ])
                        rows) );
               ])
        else begin
          let t =
            Util.Table.make
              ~title:
                (Printf.sprintf
                   "%s n=%d — calls vs resilience (budget %d, seed %d)" family
                   n budget seed)
              [
                "k"; "transform"; "period"; "calls"; "+calls"; "+rounds";
                "t0"; "bound"; "certified";
              ]
          in
          List.iter
            (fun (k, transform, (rep : Protocol.Fault_tolerant.report),
                  (v : Simulate.Certifier.verdict), bound) ->
              Util.Table.add_row t
                [
                  string_of_int k;
                  transform;
                  string_of_int rep.Protocol.Fault_tolerant.period;
                  string_of_int rep.Protocol.Fault_tolerant.calls;
                  string_of_int rep.Protocol.Fault_tolerant.added_calls;
                  string_of_int rep.Protocol.Fault_tolerant.added_rounds;
                  (match v.Simulate.Certifier.fault_free_time with
                  | Some t0 -> string_of_int t0
                  | None -> "DNF");
                  string_of_int bound;
                  (if v.Simulate.Certifier.certified then "yes"
                   else
                     match v.Simulate.Certifier.cert_mode with
                     | Simulate.Certifier.Exhaustive -> "NO"
                     | Simulate.Certifier.Sampled -> "NO (sampled)");
                ])
            rows;
          Util.Table.print t;
          print_endline
            "t0: the scheme's own fault-free completion; bound: the paper's \
             sound lower bound for the hardened network and period; \
             certified: survives every <=k-arc failure pattern within the \
             round cap.";
          report ()
        end;
        `Ok ()
  in
  let k_max_arg =
    C.Arg.(
      value & opt int 2
      & info [ "k-max" ] ~docv:"K"
          ~doc:"Chart resilience targets k = 0 .. $(docv).")
  in
  C.Cmd.v
    (C.Cmd.info "harden"
       ~doc:
         "The calls-vs-resilience atlas: for each k and each redundancy \
          transform, what the hardening costs (calls and rounds per period) \
          and whether the hardened scheme certifies against every <=k-arc \
          failure pattern — replication buys transient redundancy but no \
          adversarial resilience; chord augmentation buys both.")
    C.Term.(
      ret
        (const run $ setup_term $ ft_family_arg $ ft_n_arg $ degree_arg
       $ k_max_arg $ ft_budget_arg $ ft_seed_arg $ ft_period_arg $ ft_slack_arg
       $ ft_fd_arg $ json_arg))

(* --- version --- *)

let version_cmd =
  let run () json =
    if json then print_json (Util.Json.Obj [])
    else print_endline Version.string
  in
  C.Cmd.v
    (C.Cmd.info "version" ~doc:"Print the build version.")
    C.Term.(const run $ C.Term.const () $ json_arg)

(* --- info --- *)

let info_cmd =
  let run () g =
    Format.printf "%a@." Topology.Digraph.pp g;
    Format.printf "diameter: %d@." (Topology.Metrics.diameter g);
    Format.printf "degree parameter d: %d@."
      (Topology.Digraph.degree_parameter g);
    Format.printf "strongly connected: %b@."
      (Topology.Digraph.is_strongly_connected g);
    report ()
  in
  C.Cmd.v (C.Cmd.info "info" ~doc:"Structural facts about a network.")
    C.Term.(const run $ setup_term $ network_term)

let () =
  let doc = "systolic gossip lower-bound laboratory" in
  exit
    (C.Cmd.eval
       (C.Cmd.group (C.Cmd.info "gossip_lab" ~doc ~version:Version.string)
          [
            tables_cmd; analyze_cmd; simulate_cmd; info_cmd; stats_cmd;
            faults_cmd; certify_faults_cmd; harden_cmd; price_cmd; dot_cmd;
            certify_file_cmd; optimal_cmd; broadcast_cmd; version_cmd;
          ]))
