(* json_lint: validate JSON produced by the telemetry layer.

   Modes (selected by argv):
     (none)        stdin holds one JSON document; parse it strictly
     --jsonl       stdin holds JSON Lines; every non-empty line must parse
     --trace       JSON Lines as above, plus trace-specific checks: every
                   line is an object with an "ev" field, and span_begin /
                   span_end events balance per (domain, span name)
     --fault-cert  one JSON document carrying (or containing under a
                   "certificate" field) a gossip-fault-cert/1 artifact;
                   schema fields are checked for presence and type, and
                   the verdict for consistency (certified <=> no
                   counterexample, exhaustive <=> confidence 1, a
                   certified verdict has fault_free_time <= worst_time
                   <= cap, and cap >= 1 once a fault-free time exists)
     --certificate one JSON document holding at least one Theorem 4.1
                   certificate: every object, at any depth, that carries
                   "bound", "lambda", "norm" and "closed_form" must have
                   norm_lower <= norm, norm_lower <= closed_form *
                   (1 + 1e-9), a non-negative integer "iterations" and a
                   boolean "converged"

   Exit status 0 when valid; 1 with a diagnostic on stderr otherwise.
   Used by CI to validate `gossip_lab ... --json` output, bench reports
   and GOSSIP_TRACE_FILE streams with the same parser the test suite
   exercises. *)

module Json = Gossip_util.Json

let read_all ic =
  let buf = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let lint_json src =
  match Json.of_string src with
  | Ok _ -> ()
  | Error e -> fail "invalid JSON: %s" e

let lint_lines ~trace src =
  (* (dom, span name) -> open span count; trace mode only *)
  let open_spans = Hashtbl.create 64 in
  let events = ref 0 in
  let check_trace_line lineno j =
    let str_field name =
      match Json.member name j with
      | Some (Json.Str s) -> Some s
      | _ -> None
    in
    let dom =
      match Json.member "dom" j with Some (Json.Int d) -> d | _ -> -1
    in
    match str_field "ev" with
    | None -> fail "line %d: trace event lacks an \"ev\" field" lineno
    | Some ev -> (
        let name = match str_field "name" with Some n -> n | None -> "" in
        let key = (dom, name) in
        let count = try Hashtbl.find open_spans key with Not_found -> 0 in
        match ev with
        | "span_begin" -> Hashtbl.replace open_spans key (count + 1)
        | "span_end" ->
            if count = 0 then
              fail "line %d: span_end %S (dom %d) without matching span_begin"
                lineno name dom
            else Hashtbl.replace open_spans key (count - 1)
        | _ -> ())
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if String.trim line <> "" then begin
        incr events;
        match Json.of_string line with
        | Error e -> fail "line %d: invalid JSON: %s" lineno e
        | Ok j -> if trace then check_trace_line lineno j
      end)
    (String.split_on_char '\n' src);
  if trace then
    Hashtbl.iter
      (fun (dom, name) count ->
        if count <> 0 then
          fail "unbalanced span %S (dom %d): %d span_begin without span_end"
            name dom count)
      open_spans;
  Printf.printf "ok: %d line(s) valid\n" !events

(* --- gossip-fault-cert/1 --- *)

let lint_fault_cert src =
  let j =
    match Json.of_string src with
    | Ok j -> j
    | Error e -> fail "invalid JSON: %s" e
  in
  (* accept both the bare artifact and the CLI/server envelopes that
     nest it under "certificate" *)
  let cert =
    match Json.member "schema" j with
    | Some _ -> j
    | None -> (
        let rec dig j =
          match Json.member "certificate" j with
          | Some c -> Some c
          | None -> (
              match Json.member "result" j with
              | Some r -> dig r
              | None -> None)
        in
        match dig j with
        | Some c -> c
        | None -> fail "no gossip-fault-cert/1 artifact found")
  in
  let get key =
    match Json.member key cert with
    | Some v -> v
    | None -> fail "certificate lacks field %S" key
  in
  let want_str key =
    match get key with
    | Json.Str s -> s
    | _ -> fail "field %S must be a string" key
  in
  let want_int key =
    match get key with
    | Json.Int i -> i
    | _ -> fail "field %S must be an integer" key
  in
  let want_int_or_null key =
    match get key with
    | Json.Int i -> Some i
    | Json.Null -> None
    | _ -> fail "field %S must be an integer or null" key
  in
  let want_float key =
    match get key with
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> fail "field %S must be a number" key
  in
  let want_arc_list key =
    match get key with
    | Json.List arcs ->
        List.iter
          (function
            | Json.List [ Json.Int _; Json.Int _ ] -> ()
            | _ -> fail "field %S must be a list of [u, v] arc pairs" key)
          arcs;
        List.length arcs
    | _ -> fail "field %S must be a list" key
  in
  if want_str "schema" <> "gossip-fault-cert/1" then
    fail "schema must be \"gossip-fault-cert/1\"";
  ignore (want_str "scheme");
  ignore (want_str "fingerprint");
  ignore (want_str "mode");
  let n = want_int "n" in
  let k = want_int "k" in
  let arcs = want_int "arcs" in
  ignore (want_int "period");
  ignore (want_int "seed");
  ignore (want_int "budget");
  let cap = want_int "cap" in
  let fault_free_time = want_int_or_null "fault_free_time" in
  let worst_time = want_int_or_null "worst_time" in
  ignore (want_arc_list "worst_pattern");
  if n < 0 then fail "n must be >= 0";
  if k < 0 then fail "k must be >= 0";
  if k > arcs then fail "k = %d exceeds the %d-arc universe" k arcs;
  let cert_mode = want_str "cert_mode" in
  if cert_mode <> "exhaustive" && cert_mode <> "sampled" then
    fail "cert_mode must be \"exhaustive\" or \"sampled\" (got %S)" cert_mode;
  let total = want_int "patterns_total" in
  let checked = want_int "patterns_checked" in
  if checked < 0 || total < 0 then fail "pattern counts must be >= 0";
  let confidence = want_float "confidence" in
  if confidence < 0.0 || confidence > 1.0 then
    fail "confidence must be in [0, 1]";
  if cert_mode = "exhaustive" && confidence <> 1.0 then
    fail "exhaustive certificates must report confidence 1";
  let certified =
    match get "certified" with
    | Json.Bool b -> b
    | _ -> fail "field \"certified\" must be a boolean"
  in
  (* every faulted run, the fault-free one included, ran under [cap] *)
  if fault_free_time <> None && cap < 1 then
    fail "cap = %d with a fault-free time: the cap must be >= 1" cap;
  (if certified then
     match (fault_free_time, worst_time) with
     | Some t0, Some w ->
         if not (t0 <= w && w <= cap) then
           fail
             "certified verdict needs fault_free_time <= worst_time <= cap \
              (got %d, %d, %d)"
             t0 w cap
     | _ ->
         fail "certified verdict needs a fault_free_time and a worst_time");
  (match get "counterexample" with
  | Json.Null ->
      if not certified then
        fail "uncertified verdict must carry a counterexample"
  | Json.Obj _ as cx ->
      if certified then fail "certified verdict must not carry a counterexample";
      let size =
        match Json.member "pattern" cx with
        | Some (Json.List arcs) ->
            List.iter
              (function
                | Json.List [ Json.Int _; Json.Int _ ] -> ()
                | _ -> fail "counterexample pattern must hold [u, v] pairs")
              arcs;
            List.length arcs
        | _ -> fail "counterexample lacks a \"pattern\" list"
      in
      if size > k then
        fail "counterexample kills %d arcs but k = %d" size k;
      (match Json.member "rounds_run" cx with
      | Some (Json.Int _) -> ()
      | _ -> fail "counterexample lacks an integer \"rounds_run\"");
      (match Json.member "coverage" cx with
      | Some (Json.Float _ | Json.Int _) -> ()
      | _ -> fail "counterexample lacks a numeric \"coverage\"")
  | _ -> fail "field \"counterexample\" must be an object or null");
  Printf.printf "ok: gossip-fault-cert/1 (%s, k=%d, %s)\n"
    (want_str "scheme") k
    (if certified then "certified" else "counterexample")

(* --- Theorem 4.1 certificates --- *)

(* [norm] is the certified upper end of the norm bracket and
   [norm_lower] its power-iteration estimate from below; only the lower
   end must obey the Lemma 4.3 / 6.1 closed form, because an upper bound
   on a norm that sits on its closed form can exceed it by its slack. *)
let lint_certificates src =
  let j =
    match Json.of_string src with
    | Ok j -> j
    | Error e -> fail "invalid JSON: %s" e
  in
  let found = ref 0 in
  let check_cert path fields =
    incr found;
    let num key =
      match List.assoc_opt key fields with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | Some _ -> fail "%s: field %S must be a number" path key
      | None -> fail "%s: certificate lacks field %S" path key
    in
    let norm = num "norm" and closed_form = num "closed_form" in
    let norm_lower = num "norm_lower" in
    if not (norm_lower <= norm) then
      fail "%s: norm_lower %.17g exceeds norm %.17g" path norm_lower norm;
    if not (norm_lower <= closed_form *. (1.0 +. 1e-9)) then
      fail "%s: norm_lower %.17g exceeds the closed form %.17g" path
        norm_lower closed_form;
    (match List.assoc_opt "iterations" fields with
    | Some (Json.Int i) when i >= 0 -> ()
    | _ -> fail "%s: \"iterations\" must be a non-negative integer" path);
    match List.assoc_opt "converged" fields with
    | Some (Json.Bool _) -> ()
    | _ -> fail "%s: \"converged\" must be a boolean" path
  in
  let rec walk path = function
    | Json.Obj fields ->
        if
          List.for_all
            (fun k -> List.mem_assoc k fields)
            [ "bound"; "lambda"; "norm"; "closed_form" ]
        then check_cert path fields;
        List.iter (fun (k, v) -> walk (path ^ "." ^ k) v) fields
    | Json.List items ->
        List.iteri (fun i v -> walk (Printf.sprintf "%s[%d]" path i) v) items
    | _ -> ()
  in
  walk "$" j;
  if !found = 0 then fail "no Theorem 4.1 certificate found";
  Printf.printf "ok: %d certificate(s)\n" !found

let () =
  let src = read_all stdin in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> lint_json src
  | [ "--jsonl" ] -> lint_lines ~trace:false src
  | [ "--trace" ] -> lint_lines ~trace:true src
  | [ "--fault-cert" ] -> lint_fault_cert src
  | [ "--certificate" ] -> lint_certificates src
  | _ ->
      prerr_endline
        "usage: json_lint [--jsonl | --trace | --fault-cert | --certificate] \
         < input";
      exit 2
