(* Fault tolerance of systolic gossip.

   Systolic protocols are oblivious: the same period repeats regardless
   of what was delivered, so a transmission lost to a transient link
   failure is retried by the very same arc s rounds later.  This example
   measures that robustness: drop each arc activation independently with
   probability p and record the mean completion time.  The lower bounds
   of the paper hold a fortiori under failures (failures only remove
   transmissions), so the certified bound stays valid across the whole
   curve.

   Run with:  dune exec examples/fault_tolerance.exe *)

open Core
module Table = Util.Table

let protocols () =
  [
    ("Q5 sweep hd", Protocol.Builders.hypercube_sweep ~dim:5 ~full_duplex:false);
    ("DB(2,5) periodic hd",
     Protocol.Builders.edge_coloring_half_duplex (Topology.Families.de_bruijn 2 5));
    ("C16 rotate", Protocol.Builders.cycle_rotate 16);
    ("grid 6x6 rowcol", Protocol.Builders.grid_rowcol ~rows:6 ~cols:6);
  ]

let probabilities = [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5 ]

let () =
  let t =
    Table.make
      ~title:
        "Mean gossip time under i.i.d. arc-drop probability p (5 trials each)"
      ("protocol"
      :: List.map (fun p -> Printf.sprintf "p=%.2f" p) probabilities)
  in
  List.iter
    (fun (name, sys) ->
      let curve =
        Simulate.Faults.curve sys
          ~models:(List.map (fun p -> Simulate.Faults.Iid { p }) probabilities)
          ~seed:2024
      in
      Table.add_row t
        (name
        :: List.map
             (fun (pt : Simulate.Faults.curve_point) ->
               let completed = pt.Simulate.Faults.cp_completed
               and trials = pt.Simulate.Faults.cp_trials in
               match pt.Simulate.Faults.cp_mean with
               | Some m when completed < trials ->
                   Printf.sprintf "%.1f (%d/%d)" m completed trials
               | Some m -> Printf.sprintf "%.1f" m
               | None -> "DNF")
             curve))
    (protocols ());
  Table.print t;
  print_endline
    "Completion degrades smoothly: at p = 0.2 most protocols only pay a\n\
     small multiple of their fault-free time, because the periodic\n\
     structure retries every link each period.  The certified lower\n\
     bounds remain valid at every p (faults only remove transmissions).";
  (* sanity: the certificate still holds under faults *)
  let sys = Protocol.Builders.hypercube_sweep ~dim:5 ~full_duplex:false in
  let base = Option.get (Simulate.Engine.gossip_time sys) in
  let dg = Delay.Delay_digraph.of_systolic sys ~length:base in
  let cert =
    Delay.Certificate.certify ~refine:true dg
      ~mode:Protocol.Protocol.Half_duplex
  in
  let faulty =
    Simulate.Faults.run sys ~model:(Simulate.Faults.Iid { p = 0.3 }) ~seed:1
  in
  Format.printf
    "@.Q5: certified >= %d; fault-free %d rounds; with p = 0.3 drops: %s (%d/%d activations dropped)@."
    cert.Delay.Certificate.bound base
    (match faulty.Simulate.Faults.completed_at with
    | Some v -> string_of_int v
    | None -> "DNF")
    faulty.Simulate.Faults.drops faulty.Simulate.Faults.activations
