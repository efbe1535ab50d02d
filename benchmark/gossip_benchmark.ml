(* gossip_benchmark: the repository benchmark (see benchmark/README.md).

   usage:
     gossip_benchmark run [--workload NAME] [--seed N] [--seconds S]
                          [--trace 0|1 | --traced]
         one workload in this process, or (no --workload) all four,
         each in a fresh child process; --seconds defaults to
         BENCHMARK.json's run_seconds
     gossip_benchmark compare A/ B/
         run both checkouts pair by pair and print verdicts *)

let usage () =
  prerr_endline
    "usage: gossip_benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \       gossip_benchmark compare A/ B/";
  exit 2

let int_arg s = match int_of_string_opt s with Some i -> i | None -> usage ()
let float_arg s = match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> usage ()

let run_seconds () =
  try Bench_kit.Spec.run_seconds ()
  with Failure msg ->
    prerr_endline ("gossip_benchmark: " ^ msg);
    exit 2

let run args =
  let workload = ref None and seed = ref 1 and seconds = ref None and traced = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_arg n; go rest
    | "--seconds" :: s :: rest -> seconds := Some (float_arg s); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> traced := t = "1"; go rest
    | "--traced" :: rest -> traced := true; go rest
    | _ -> usage ()
  in
  go args;
  let seconds = match !seconds with Some s -> s | None -> run_seconds () in
  match !workload with
  | None -> Bench_kit.Runner.all ~seed:!seed ~seconds ~traced:!traced
  | Some w when List.mem_assoc w Bench_kit.Catalog.workloads ->
      Bench_kit.Runner.single w ~seed:!seed ~seconds ~traced:!traced
  | Some w ->
      Printf.eprintf "unknown workload %s (known: %s)\n" w
        (String.concat ", " Bench_kit.Catalog.all_workloads);
      exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | [ "compare"; a; b ] -> exit (Bench_kit.Compare.run ~a ~b ~seconds:(run_seconds ()))
  | _ -> usage ()
