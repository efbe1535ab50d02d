(* What one workload run produces, plus the measurements every workload
   shares: clocks, the memory high-water mark and GC allocation. *)

module Json = Core.Util.Json
module Instrument = Core.Util.Instrument

type t = {
  attempted : int;  (** operations run in the timed phase *)
  failed : int;  (** of those: errors and wrong or unrepeatable results *)
  problems : string list;  (** correctness-gate failures: the run is incorrect *)
  metrics : (string * float) list;  (** catalogue metrics by name *)
  detail : (string * Json.t) list;  (** layer table and workload-specific numbers *)
  config : (string * Json.t) list;  (** worker domains *)
}

let now_s () = Int64.to_float (Instrument.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* VmHWM of this process in MB (kB in /proc), [None] when unreadable. *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                Some (float_of_int kb /. 1024.0))
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* Words allocated by the calling domain so far. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let words_to_mb w = w *. 8.0 /. 1048576.0

let nproc () = Domain.recommended_domain_count ()
