module Systolic = Gossip_protocol.Systolic
module Schedule = Gossip_protocol.Schedule
module Prng = Gossip_util.Prng

type outcome = {
  completed_at : int option;
  drops : int;
  activations : int;
  failed_arcs : (int * int) list;
}

type model =
  | Iid of { p : float }
  | Permanent of { k : int }
  | Bursty of { p_fail : float; p_recover : float }

let model_name = function
  | Iid _ -> "iid"
  | Permanent _ -> "permanent"
  | Bursty _ -> "bursty"

let check_probability name v =
  if v < 0.0 || v > 1.0 then
    invalid_arg (Printf.sprintf "Faults: %s must be in [0, 1]" name)

let validate_model = function
  | Iid { p } -> check_probability "drop_probability" p
  | Permanent { k } -> if k < 0 then invalid_arg "Faults: k must be >= 0"
  | Bursty { p_fail; p_recover } ->
      check_probability "p_fail" p_fail;
      check_probability "p_recover" p_recover

(* Distinct arcs across one period, in first-appearance order (so the
   seeded shuffle below is reproducible across OCaml versions). *)
let period_arcs p =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for i = 0 to Systolic.period p - 1 do
    List.iter
      (fun arc ->
        if not (Hashtbl.mem seen arc) then begin
          Hashtbl.add seen arc ();
          acc := arc :: !acc
        end)
      (Systolic.period_round p i)
  done;
  Array.of_list (List.rev !acc)

(* [decider model rng] — a per-activation drop predicate paired with the
   chosen permanently-failed arc set (empty for the transient models).
   Setup (the permanent-failure shuffle) draws from [rng] once, up front;
   the i.i.d. model draws from [rng] per activation — exactly the legacy
   draw order, so pre-model seeds reproduce byte-identical runs. *)
let decider p model rng =
  match model with
  | Iid { p = prob } -> ((fun _arc -> Prng.float rng 1.0 < prob), [])
  | Permanent { k } ->
      let arcs = period_arcs p in
      let m = Array.length arcs in
      if k > m then
        invalid_arg
          (Printf.sprintf
             "Faults: k = %d exceeds the period's %d distinct arcs (k <= m)" k
             m);
      Prng.shuffle rng arcs;
      let failed = Hashtbl.create (max 1 k) in
      Array.iteri (fun i arc -> if i < k then Hashtbl.add failed arc ()) arcs;
      let chosen = List.sort compare (Array.to_list (Array.sub arcs 0 k)) in
      ((fun arc -> Hashtbl.mem failed arc), chosen)
  | Bursty { p_fail; p_recover } ->
      (* Gilbert on/off chain per arc, each with its own derived stream:
         the state an arc is in depends only on (seed, arc, its own
         activation count), never on how arcs interleave. *)
      let states = Hashtbl.create 64 in
      let seed0 = Prng.int rng max_int in
      ( (fun arc ->
        let good, arng =
          match Hashtbl.find_opt states arc with
          | Some s -> s
          | None ->
              let s =
                (ref true, Prng.create (seed0 lxor (Hashtbl.hash arc * 0x9E3779B1)))
              in
              Hashtbl.add states arc s;
              s
        in
        (if !good then begin
           if Prng.float arng 1.0 < p_fail then good := false
         end
         else if Prng.float arng 1.0 < p_recover then good := true);
        not !good),
        [] )

let n_vertices p = Gossip_topology.Digraph.n_vertices (Systolic.graph p)
let default_cap p = (16 * Systolic.period p * n_vertices p) + 64

let run ?cap p ~model ~seed =
  validate_model model;
  let n = n_vertices p in
  let cap = match cap with Some c -> c | None -> default_cap p in
  let rng = Prng.create seed in
  let drop_arc, failed_arcs = decider p model rng in
  let st = Chunked.create n in
  (* the surviving arcs of the current round, receiver-indexed: dropping
     arcs from a matching keeps it a matching, which a one-round
     schedule reading this table hands to the chunked engine *)
  let senders = Array.make n (-1) in
  let surviving =
    Schedule.make ~name:"faults" ~n ~mode:(Systolic.mode p) ~period:1
      ~sender:(fun _ v -> senders.(v))
  in
  let drops = ref 0 and activations = ref 0 in
  let completed = ref (if Chunked.complete st then Some 0 else None) in
  let i = ref 0 in
  while !completed = None && !i < cap do
    let round = Systolic.period_round p !i in
    (* one decider call per activation, in round order: the draw order
       that makes a seed reproduce its run *)
    List.iter
      (fun ((x, y) as arc) ->
        incr activations;
        if drop_arc arc then incr drops else senders.(y) <- x)
      round;
    Chunked.apply_round ~domains:1 st surviving !i;
    List.iter (fun (_, y) -> senders.(y) <- -1) round;
    incr i;
    if Chunked.complete st then completed := Some !i
  done;
  {
    completed_at = !completed;
    drops = !drops;
    activations = !activations;
    failed_arcs;
  }

type curve_point = {
  cp_model : model;
  cp_mean : float option;
  cp_completed : int;
  cp_trials : int;
  cp_cap : int;
}

let curve ?cap ?(trials = 5) p ~models ~seed =
  if trials < 1 then invalid_arg "Faults: trials must be >= 1";
  (* resolve the default cap here so every point records the round budget
     it actually ran under *)
  let cap = match cap with Some c -> c | None -> default_cap p in
  List.map
    (fun model ->
      let times = ref [] in
      for t = 1 to trials do
        match run ~cap p ~model ~seed:(seed + (t * 7919)) with
        | { completed_at = Some time; _ } -> times := time :: !times
        | { completed_at = None; _ } -> ()
      done;
      let completed = List.length !times in
      let mean =
        match !times with
        | [] -> None
        | ts ->
            Some
              (float_of_int (List.fold_left ( + ) 0 ts)
              /. float_of_int completed)
      in
      { cp_model = model; cp_mean = mean; cp_completed = completed;
        cp_trials = trials; cp_cap = cap })
    models

let model_params_json model =
  let module J = Gossip_util.Json in
  match model with
  | Iid { p } -> [ ("probability", J.Float p) ]
  | Permanent { k } -> [ ("k", J.Int k) ]
  | Bursty { p_fail; p_recover } ->
      [ ("p_fail", J.Float p_fail); ("p_recover", J.Float p_recover) ]

let curve_point_to_json pt =
  let module J = Gossip_util.Json in
  J.Obj
    (("model", J.Str (model_name pt.cp_model))
     :: model_params_json pt.cp_model
    @ [
        ( "mean",
          match pt.cp_mean with Some m -> J.Float m | None -> J.Null );
        ("completed", J.Int pt.cp_completed);
        ("trials", J.Int pt.cp_trials);
        ("cap", J.Int pt.cp_cap);
        ( "completed_fraction",
          J.Float (float_of_int pt.cp_completed /. float_of_int pt.cp_trials) );
      ])
