(* [compare A B]: run the benchmark in two checkouts, pair by pair with
   alternating order, and judge every (workload, metric) by the
   benchmark's own rule.  B is the change, A its parent.  Every workload
   gets 10 pairs, seeds 1 to 10, at BENCHMARK.json's run length.

   - improved: B wins at least 9 pairs in 10 (ties count for neither)
     and the medians differ by more than A's interquartile range;
   - unresolved: A's own spread (IQR over median) exceeds the metric's
     bound and B is not better on every run;
   - regressed: B's median is worse than A's by more than the bound;
   - unchanged: none of the above. *)

module Json = Core.Util.Json

let pairs = 10

(* One run's end-to-end metrics by name, [None] when the run failed. *)
let run_side dir ~workload ~seed ~seconds =
  let code, lines =
    Runner.run_child ~echo:false ~cwd:dir
      [| "/bin/sh"; "benchmark/run.sh"; "--workload"; workload; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0" |]
  in
  match (code, Option.bind (Runner.last_json lines) (Json.member "metrics")) with
  | 0, Some (Json.Obj ms) ->
      Some (List.filter_map (fun (m, v) -> Option.map (fun x -> (m, x)) (Option.bind (Json.member "value" v) Json.to_float_opt)) ms)
  | _ ->
      Printf.eprintf "compare: %s failed on %s seed %d (exit %d)\n%!" dir workload seed code;
      None

let verdict (m : Catalog.metric) a b =
  let bound = Option.value ~default:0.1 m.Catalog.bound in
  let better x y = match m.Catalog.better with Catalog.Lower -> x < y | Catalog.Higher -> x > y in
  let pairs = List.combine a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let a_med = Stat.median a and b_med = Stat.median b in
  let q1, _, q3 = Stat.quartiles a in
  let iqr = q3 -. q1 in
  let every_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let worse_by = match m.Catalog.better with Catalog.Lower -> (b_med -. a_med) /. a_med | Catalog.Higher -> (a_med -. b_med) /. a_med in
  let verdict =
    if 10 * wins >= 9 * List.length pairs && Float.abs (b_med -. a_med) > iqr && better b_med a_med then "improved"
    else if iqr /. Float.abs a_med > bound && not every_better then "unresolved"
    else if worse_by > bound then "regressed"
    else "unchanged"
  in
  (verdict, wins)

let rank = function "regressed" -> 3 | "unresolved" -> 2 | "improved" -> 1 | _ -> 0

let run ~a ~b ~seconds =
  let workloads = Catalog.all_workloads in
  (* (workload, metric) -> values, one per complete pair, for A and B *)
  let values = [| Hashtbl.create 64; Hashtbl.create 64 |] in
  let append side w ms =
    List.iter
      (fun (m, x) ->
        let k = (w, m) in
        Hashtbl.replace values.(side) k (Option.value ~default:[] (Hashtbl.find_opt values.(side) k) @ [ x ]))
      ms
  in
  List.iter
    (fun w ->
      for i = 0 to pairs - 1 do
        let seed = 1 + i in
        let a_first = i mod 2 = 0 in
        Printf.printf "compare: %s pair %d/%d (seed %d, %s first)\n%!" w (i + 1) pairs seed
          (if a_first then "A" else "B");
        let go dir = run_side dir ~workload:w ~seed ~seconds in
        let ra, rb =
          if a_first then
            let ra = go a in
            (ra, go b)
          else
            let rb = go b in
            (go a, rb)
        in
        match (ra, rb) with
        | Some ma, Some mb ->
            append 0 w ma;
            append 1 w mb
        | _ -> ()
      done)
    workloads;
  Printf.printf "\n%-14s %-15s %26s %26s %22s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B/A (base A)" "B wins" "verdict";
  let failed = ref false in
  let rows =
    List.map
      (fun w ->
        let verdicts =
          List.filter_map
            (fun (m : Catalog.metric) ->
              match
                ( Hashtbl.find_opt values.(0) (w, m.Catalog.name),
                  Hashtbl.find_opt values.(1) (w, m.Catalog.name) )
              with
              | Some av, Some bv when List.length av = List.length bv ->
                  let v, wins = verdict m av bv in
                  let q a = let q1, _, q3 = Stat.quartiles a in Printf.sprintf "%.4g [%.4g, %.4g]" (Stat.median a) q1 q3 in
                  Printf.printf "%-14s %-15s %26s %26s %22s %3d/%-2d  %s\n" w m.Catalog.name (q av) (q bv)
                    (Printf.sprintf "%.4f (%.4g %s)" (Stat.median bv /. Stat.median av) (Stat.median av) m.Catalog.unit)
                    wins (List.length av) v;
                  Some (m.Catalog.name, v)
              | _ ->
                  failed := true;
                  None)
            Catalog.end_to_end
        in
        let overall =
          List.fold_left (fun acc (_, v) -> if rank v > rank acc then v else acc) "unchanged" verdicts
        in
        (w, overall, verdicts))
      workloads
  in
  print_newline ();
  List.iter (fun (w, overall, _) -> Printf.printf "%-14s %s\n" w overall) rows;
  if !failed then print_endline "compare: some (workload, metric) had no complete pairs";
  print_endline
    (Json.to_string
       (Json.Obj
          (List.map
             (fun (w, overall, vs) ->
               (w, Json.Obj (("overall", Json.Str overall) :: List.map (fun (m, v) -> (m, Json.Str v)) vs)))
             rows)));
  if !failed then 1 else 0
