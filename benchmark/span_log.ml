(* Spans recorded by the benchmark itself, around its calls into the
   library's public functions: nothing inside the program is changed to
   take them.  They stay in memory while the workload runs and are
   written at exit as JSONL in the [Gossip_util.Instrument] event shape
   (span_begin / span_end with mono_ns, dur_ns, span_id and
   parent_span_id), so [Gossip_serve.Trace_analysis] reads them like a
   serving node's trace.  Only the main domain records; the library's own
   worker domains run inside these spans. *)

module Instrument = Core.Util.Instrument
module Json = Core.Util.Json

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let on = ref false
let log : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  log := [];
  stack := [];
  next_id := 0

let record name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = Instrument.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = Instrument.now_ns () in
        stack := List.tl !stack;
        log := { id; parent; name; start_ns; stop_ns } :: !log)
      f
  end

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Per span name: calls, busy seconds (total duration) and self seconds
   (duration minus the part its direct children cover). *)
type layer = { calls : int; busy_s : float; self_s : float }

let layers () =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_s s.parent
          (seconds s +. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent)))
    !log;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let l =
        Option.value ~default:{ calls = 0; busy_s = 0.0; self_s = 0.0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = l.calls + 1; busy_s = l.busy_s +. seconds s; self_s = l.self_s +. self })
    !log;
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) by_name []
  |> List.sort compare

let layer name =
  Option.value ~default:{ calls = 0; busy_s = 0.0; self_s = 0.0 }
    (List.assoc_opt name (layers ()))

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (seconds s) else None) !log

(* JSONL in the Instrument shape.  The wall-clock [ts] is derived from
   the monotonic clock against one wall reading, so begin/end lines
   order the same way on both clocks. *)
let write_jsonl path =
  let mono0 = Instrument.now_ns () and wall0 = Unix.gettimeofday () in
  let ts ns = wall0 +. (Int64.to_float (Int64.sub ns mono0) /. 1e9) in
  let sid id = Json.Str (Printf.sprintf "bench-%d" id) in
  let line ev s ns extra =
    ( ns,
      (if ev = "span_begin" then 0 else 1),
      Json.Obj
        ([
           ("ev", Json.Str ev);
           ("name", Json.Str s.name);
           ("ts", Json.Float (ts ns));
           ("mono_ns", Json.Int (Int64.to_int ns));
           ("dom", Json.Int 0);
           ("node", Json.Str "benchmark");
           ("span_id", sid s.id);
         ]
        @ (if s.parent = 0 then [] else [ ("parent_span_id", sid s.parent) ])
        @ extra) )
  in
  let events =
    List.concat_map
      (fun s ->
        [
          line "span_begin" s s.start_ns [];
          line "span_end" s s.stop_ns
            [ ("dur_ns", Json.Int (Int64.to_int (Int64.sub s.stop_ns s.start_ns))) ];
        ])
      (List.sort (fun a b -> compare a.id b.id) !log)
    |> List.stable_sort (fun (a, ka, _) (b, kb, _) -> compare (a, ka) (b, kb))
  in
  let oc = open_out path in
  List.iter (fun (_, _, j) -> output_string oc (Json.to_string j ^ "\n")) events;
  close_out oc
