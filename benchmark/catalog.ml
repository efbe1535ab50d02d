(* The benchmark's workloads and metrics, as the program prints them.
   BENCHMARK.json declares the same names, units, directions and bounds;
   the smoke test in benchmark/test keeps the two in step. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end only: tolerated worsening share *)
  moves : (string * string list) option;
      (** per-layer only: the end-to-end metric this layer should move,
          and the workloads on which it should move it *)
}

let workloads =
  [
    ( "certify-sweep",
      "the paper's own pipeline (gossip time, delay digraph, Theorem 4.1 \
       certificate) on 13 protocols; norm solves dominate" );
    ( "sim-debruijn",
      "chunked simulator on DB(2,15) proposal schedules: bound by hashed \
       sender evaluation" );
    ( "sim-hypercube",
      "chunked simulator on Q19-Q21 sweeps: the sender is one xor, so \
       merge and memory bound; sender changes must not move it" );
    ( "fault-cert",
      "adversarial fault certifier: thousands of tiny exact chunked runs \
       per scheme, so per-run set-up and pattern enumeration show here" );
  ]

let e2e name unit better bound = { name; unit; better; bound = Some bound; moves = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_p90_ms" "ms" Lower 0.25;
    e2e "work_per_s" "1/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
  ]

let all_workloads = List.map fst workloads
let sims = [ "sim-debruijn"; "sim-hypercube" ]

let layer name unit better ~moves:(target, on) =
  { name; unit; better; bound = None; moves = Some (target, on) }

let per_layer =
  [
    layer "gc.allocated_mb" "MB" Lower
      ~moves:("latency_p50_ms", all_workloads);
    layer "tracing.overhead_share" "ratio" Lower
      ~moves:("latency_p50_ms", all_workloads);
    layer "trace.unattributed_share" "ratio" Lower
      ~moves:("latency_p50_ms", all_workloads);
    layer "delay_matrix.norm.calls" "count" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "delay_matrix.norm.busy_share" "ratio" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "delay_matrix.blocks.solved" "count" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "delay_matrix.blocks.distinct_ratio" "ratio" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "certificate.search.self_share" "ratio" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "certificate.bound_sum" "count" Higher
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "context.gossip_time.busy_share" "ratio" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "delay_digraph.build.busy_share" "ratio" Lower
      ~moves:("work_per_s", [ "certify-sweep" ]);
    layer "chunked.rounds" "count" Lower
      ~moves:("work_per_s", sims);
    layer "schedule.sender_share" "ratio" Lower
      ~moves:("work_per_s", [ "sim-debruijn" ]);
    layer "chunked.roofline_fraction" "ratio" Higher
      ~moves:("work_per_s", [ "sim-hypercube" ]);
    layer "certifier.patterns_checked" "count" Lower
      ~moves:("work_per_s", [ "fault-cert" ]);
    layer "certifier.verdict_digest" "count" Lower
      ~moves:("work_per_s", [ "fault-cert" ]);
    layer "certifier.enumeration_self_share" "ratio" Lower
      ~moves:("work_per_s", [ "fault-cert" ]);
    layer "context.hit_ratio" "ratio" Higher
      ~moves:("latency_p50_ms", [ "certify-sweep" ]);
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
