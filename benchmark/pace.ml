(* The host-speed adjustment applied to every time the benchmark gates.

   On a shared host, other tenants' load changes how fast this process
   runs: on the 2-vCPU calibration host, code that works out of the L1
   and L2 caches ran up to 1.8 times slower while a neighbour was busy,
   in episodes lasting from seconds to minutes, so the raw latencies of
   one commit spread by 0.14 to 0.42 (interquartile range over median)
   over 28 runs, and longer runs did not narrow that.  Code
   bound by register arithmetic or by DRAM slowed far less.

   The probe below is a fixed kernel owned by the benchmark, so no change
   to the library moves it.  It is timed before and after every measured
   operation, and the operation's time [t] is scaled to what it would
   have been with the probe at [reference_s]:

     t * (reference_s / p) ** elasticity

   where [p] is the geometric mean of the two probe times and
   [elasticity] is how strongly the workload's own time follows the
   probe's, fitted per workload on the calibration host (see
   benchmark/README.md). *)

let reference_s = 1e-3

(* A dependent chain of loads, multiply-adds and stores over a 1.6 KB
   float array: about 0.6 ms on an idle calibration core, 1.1 ms with a
   busy neighbour.  It allocates nothing. *)
let kernel cells =
  for i = 0 to 199 do
    cells.(i) <- float_of_int i /. 7.0
  done;
  let s = ref 0.0 in
  for _ = 1 to 2000 do
    for i = 0 to 199 do
      s := !s +. (cells.(i) *. cells.(199 - i));
      cells.(i) <- (cells.(i) *. 0.999999) +. 1e-9
    done
  done;
  !s

let cells = Array.make 200 0.0

let probe () =
  let t0 = Outcome.now_s () in
  ignore (Sys.opaque_identity (kernel cells));
  Outcome.now_s () -. t0

(* [f ()] bracketed by probes: its result, raw seconds and probe seconds. *)
let timed f =
  let before = probe () in
  let r, t = Outcome.timed f in
  let after = probe () in
  (r, t, sqrt (before *. after))

let adjust ~elasticity ~probe_s t = t *. ((reference_s /. probe_s) ** elasticity)
