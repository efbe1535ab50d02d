(* One workload run in this process, or all four, each in a fresh child
   process.  A run prints its metrics by name with their units, writes a
   result file, and ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. *)

module Json = Core.Util.Json

let results_dir = ".bench_results"

let run_workload name ~seed ~seconds ~traced =
  let batch make = Batch.run make ~seed ~seconds ~traced in
  match name with
  | "certify-sweep" -> batch Batch.certify_sweep
  | "sim-debruijn" -> batch Batch.sim_debruijn
  | "sim-hypercube" -> batch Batch.sim_hypercube
  | "fault-cert" -> batch Batch.fault_cert
  | other -> invalid_arg ("unknown workload " ^ other)

(* The catalogue metrics of the run's mode, each with its unit.  A
   per-layer metric the workload does not exercise reads 0 (no work in
   that layer); a missing end-to-end metric is a problem. *)
let declared ~traced (out : Outcome.t) =
  let catalogue = if traced then Catalog.per_layer else Catalog.end_to_end in
  let metrics =
    if traced then out.Outcome.metrics
    else out.Outcome.metrics @ [ ("peak_rss_mb", Option.value ~default:0.0 (Outcome.vm_hwm_mb ())) ]
  in
  List.map
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.Catalog.name metrics with
      | Some v when Float.is_finite v -> (m, Some v)
      | Some _ | None -> (m, if traced then Some 0.0 else None))
    catalogue

let result_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Catalog.metric), v) ->
               (m.Catalog.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Catalog.unit) ]))
             metrics) );
    ]

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Run [name] here and exit: 0 when every correctness gate held. *)
let single name ~seed ~seconds ~traced =
  Printf.printf "gossip_benchmark: %s seed %d, %g s, trace %d, nproc %d\n%!" name seed seconds
    (if traced then 1 else 0) (Outcome.nproc ());
  let out, problems =
    match run_workload name ~seed ~seconds ~traced with
    | out -> (out, out.Outcome.problems)
    | exception Failure msg ->
        ( { Outcome.attempted = 1; failed = 1; problems = []; metrics = []; detail = []; config = [] },
          [ msg ] )
  in
  let metrics = declared ~traced out in
  let missing = List.filter_map (fun ((m : Catalog.metric), v) -> if v = None then Some m.Catalog.name else None) metrics in
  let unknown =
    List.filter
      (fun (n, _) -> not (List.exists (fun (m : Catalog.metric) -> m.Catalog.name = n) (Catalog.end_to_end @ Catalog.per_layer)))
      out.Outcome.metrics
  in
  let problems =
    problems
    @ List.map (fun m -> "metric not measured: " ^ m) missing
    @ List.map (fun (n, _) -> "metric not in the catalogue: " ^ n) unknown
  in
  let metrics = List.filter_map (fun (m, v) -> Option.map (fun v -> (m, v)) v) metrics in
  List.iter
    (fun ((m : Catalog.metric), v) -> Printf.printf "  %-36s %14.6g %s\n" m.Catalog.name v m.Catalog.unit)
    metrics;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) problems;
  let correct = problems = [] in
  let attempted = max 1 out.Outcome.attempted in
  let failed = max out.Outcome.failed (if correct then 0 else 1) in
  ensure_dir results_dir;
  let stem =
    Filename.concat results_dir
      (Printf.sprintf "%s-seed%d-trace%d-%d" name seed (if traced then 1 else 0) (Unix.getpid ()))
  in
  let detail =
    if traced then begin
      (* the workloads' own spans, checked by the serving fleet's trace
         analyzer like any node's trace *)
      let spans = stem ^ ".spans.jsonl" in
      if !Span_log.log = [] then out.Outcome.detail
      else begin
        Span_log.write_jsonl spans;
        let problems = Gossip_serve.Trace_analysis.(problems (of_files [ spans ])) in
        out.Outcome.detail
        @ [
            ("spans_file", Json.Str spans);
            ("span_trace_problems", Json.List (List.map (fun p -> Json.Str p) problems));
            ( "layers",
              Json.Obj
                (List.map
                   (fun (n, (l : Span_log.layer)) ->
                     ( n,
                       Json.Obj
                         [
                           ("calls", Json.Int l.Span_log.calls);
                           ("busy_s", Json.Float l.Span_log.busy_s);
                           ("self_s", Json.Float l.Span_log.self_s);
                         ] ))
                   (Span_log.layers ())) );
          ]
      end
    end
    else out.Outcome.detail
  in
  let file = stem ^ ".json" in
  let oc = open_out file in
  output_string oc
    (Json.to_string_pretty
       (Json.Obj
          [
            ("schema", Json.Str "gossip-benchmark-result/1");
            ("workload", Json.Str name);
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("traced", Json.Bool traced);
            ("nproc", Json.Int (Outcome.nproc ()));
            ("config", Json.Obj out.Outcome.config);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("problems", Json.List (List.map (fun p -> Json.Str p) problems));
            ("result", result_line ~correct ~attempted ~failed metrics);
            ("detail", Json.Obj detail);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  result file: %s\n" file;
  print_endline (Json.to_string (result_line ~correct ~attempted ~failed metrics));
  exit (if correct then 0 else 1)

(* Run [exe args] with [cwd] and return its exit code and stdout lines,
   echoing them as they arrive. *)
let run_child ?(echo = true) ~cwd argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let here = Sys.getcwd () in
  Sys.chdir cwd;
  let pid =
    Fun.protect ~finally:(fun () -> Sys.chdir here) (fun () ->
        Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr)
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if echo then print_endline l;
       lines := l :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> 128 in
  (code, List.rev !lines)

let last_json lines =
  match List.rev lines with
  | last :: _ -> ( match Json.of_string last with Ok j -> Some j | Error _ -> None)
  | [] -> None

(* Every workload, each in a fresh child process of this executable. *)
let all ~seed ~seconds ~traced =
  let self = Sys.executable_name in
  let rows =
    List.map
      (fun (name, _) ->
        let code, lines =
          run_child ~cwd:(Sys.getcwd ())
            [| self; "run"; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
               Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") |]
        in
        (name, code, last_json lines))
      Catalog.workloads
  in
  let get k j = Option.bind j (Json.member k) in
  let int k j = match get k j with Some (Json.Int i) -> i | _ -> 0 in
  let ok = List.for_all (fun (_, code, j) -> code = 0 && get "correct" j = Some (Json.Bool true)) rows in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Int (List.fold_left (fun a (_, _, j) -> a + int "attempted" j) 0 rows));
            ("failed", Json.Int (List.fold_left (fun a (_, _, j) -> a + int "failed" j) 0 rows));
            ( "metrics",
              Json.Obj
                (List.concat_map
                   (fun (name, _, j) ->
                     match get "metrics" j with
                     | Some (Json.Obj ms) -> List.map (fun (m, v) -> (m ^ "@" ^ name, v)) ms
                     | _ -> [])
                   rows) );
          ]));
  exit (if ok then 0 else 1)
