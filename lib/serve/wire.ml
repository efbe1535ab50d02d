module Json = Gossip_util.Json

type net = { family : string; dim : int; degree : int }

type protocol_spec =
  | Inline of string
  | Built of { net : net; full_duplex : bool }

type op =
  | Ping
  | Version
  | Shutdown
  | Stats
  | Metrics
  | Health
  | Spans
  | Sleep of { ms : int }
  | Tables of { s_max : int; ss : int list }
  | Bound of { net : net; s : int option; full_duplex : bool }
  | Simulate of { net : net; full_duplex : bool }
  | Simulate_implicit of {
      family : string;
      n : int;
      items : int;
      checkpoint_every : int;
      period : int;
      seed : int;
      degree : int;
      full_duplex : bool;
    }
  | Certify of { spec : protocol_spec; refine : bool }
  | Certify_faults of {
      family : string;
      n : int;
      k : int;
      budget : int;
      seed : int;
      degree : int;
      full_duplex : bool;
      harden : string;  (* "none" | "replicate" | "augment" *)
      cap : int;  (* 0 = derive from the scheme's fault-free time *)
    }
  (* cluster membership plane (lib/cluster): an epidemic gossip exchange
     rides the ordinary wire protocol, so shards and the router need no
     second listener.  [Gossip] carries the sender's membership view
     verbatim (the cluster layer owns that schema, the wire layer only
     checks it is an object); [Mem_digest] is the cheap anti-entropy
     probe; [Drain] asks a shard to advertise itself as draining. *)
  | Gossip of { view : Json.t }
  | Mem_digest
  | Drain of { node : string option }
  | Trace_pull of { max : int }

let op_name = function
  | Ping -> "ping"
  | Version -> "version"
  | Shutdown -> "shutdown"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Health -> "health"
  | Spans -> "spans"
  | Sleep _ -> "sleep"
  | Tables _ -> "tables"
  | Bound _ -> "bound"
  | Simulate _ -> "simulate"
  | Simulate_implicit _ -> "simulate_implicit"
  | Certify _ -> "certify"
  | Certify_faults _ -> "certify_faults"
  | Gossip _ -> "gossip"
  | Mem_digest -> "digest"
  | Drain _ -> "drain"
  | Trace_pull _ -> "trace_pull"

type request = {
  id : Json.t;
  op : op;
  timeout_ms : int option;
  trace : Gossip_util.Trace.t option;
}

(* --- parameter validation helpers --- *)

let ( let* ) = Result.bind

let field params key = Json.member key params

let int_field ?default params key ~min ~max =
  match field params key with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing parameter %S" key))
  | Some (Json.Int i) when i >= min && i <= max -> Ok i
  | Some (Json.Int i) ->
      Error (Printf.sprintf "parameter %S = %d out of range [%d, %d]" key i min max)
  | Some _ -> Error (Printf.sprintf "parameter %S must be an integer" key)

let bool_field params key ~default =
  match field params key with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "parameter %S must be a boolean" key)

let string_field params key =
  match field params key with
  | Some (Json.Str s) -> Ok (Some s)
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "parameter %S must be a string" key)

(* DIM is capped conservatively: the server exists for small cacheable
   queries, and an attacker-sized hypercube would pin a worker for
   minutes.  The cap matches what the bench exercises. *)
let parse_net params =
  let* family =
    match field params "family" with
    | Some (Json.Str s)
      when List.mem s Gossip_topology.Families.known_families ->
        Ok s
    | Some (Json.Str s) -> Error (Printf.sprintf "unknown family %S" s)
    | Some _ -> Error "parameter \"family\" must be a string"
    | None -> Error "missing parameter \"family\""
  in
  let* dim = int_field params "dim" ~min:1 ~max:64 in
  let* degree = int_field ~default:2 params "degree" ~min:1 ~max:16 in
  Ok { family; dim; degree }

let parse_op op params =
  match op with
  | "ping" -> Ok Ping
  | "version" -> Ok Version
  | "shutdown" -> Ok Shutdown
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "health" -> Ok Health
  | "spans" -> Ok Spans
  | "sleep" ->
      let* ms = int_field params "ms" ~min:0 ~max:60_000 in
      Ok (Sleep { ms })
  | "tables" ->
      let* s_max = int_field ~default:8 params "s_max" ~min:3 ~max:32 in
      let* ss =
        match field params "ss" with
        | None -> Ok [ 3; 4; 5; 6; 7; 8 ]
        | Some (Json.List items) ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | Json.Int s :: rest when s >= 3 && s <= 32 -> go (s :: acc) rest
              | _ -> Error "parameter \"ss\" must be a list of integers >= 3"
            in
            if items = [] then Error "parameter \"ss\" must be non-empty"
            else go [] items
        | Some _ -> Error "parameter \"ss\" must be a list of integers >= 3"
      in
      Ok (Tables { s_max; ss })
  | "bound" ->
      let* net = parse_net params in
      let* s =
        match field params "s" with
        | None | Some Json.Null -> Ok None
        | Some (Json.Int s) when s >= 2 && s <= 64 -> Ok (Some s)
        | Some _ -> Error "parameter \"s\" must be an integer in [2, 64] or null"
      in
      let* full_duplex = bool_field params "full_duplex" ~default:false in
      Ok (Bound { net; s; full_duplex })
  | "simulate" ->
      let* net = parse_net params in
      let* full_duplex = bool_field params "full_duplex" ~default:false in
      Ok (Simulate { net; full_duplex })
  | "simulate_implicit" ->
      (* the chunked-engine path: memory is n·items bits, but time is
         O(n · rounds) on one worker, so the vertex gate is far above the
         materialized ops' yet still bounds a worker to a few seconds *)
      let* family =
        match field params "family" with
        | Some (Json.Str s)
          when List.mem s Gossip_topology.Implicit.known_families ->
            Ok s
        | Some (Json.Str s) ->
            Error (Printf.sprintf "unknown implicit family %S" s)
        | Some _ -> Error "parameter \"family\" must be a string"
        | None -> Error "missing parameter \"family\""
      in
      let* n = int_field params "n" ~min:3 ~max:(1 lsl 17) in
      let* items = int_field ~default:32 params "items" ~min:1 ~max:128 in
      let* checkpoint_every =
        int_field ~default:32 params "checkpoint_every" ~min:0 ~max:65536
      in
      let* period = int_field ~default:64 params "period" ~min:1 ~max:4096 in
      let* seed = int_field ~default:1 params "seed" ~min:0 ~max:1_000_000_000 in
      let* degree = int_field ~default:2 params "degree" ~min:2 ~max:16 in
      let* full_duplex = bool_field params "full_duplex" ~default:false in
      Ok
        (Simulate_implicit
           { family; n; items; checkpoint_every; period; seed; degree;
             full_duplex })
  | "certify" ->
      let* refine = bool_field params "refine" ~default:false in
      let* inline = string_field params "protocol" in
      let* spec =
        match inline with
        | Some text ->
            if field params "family" <> None then
              Error "parameters \"protocol\" and \"family\" are exclusive"
            else Ok (Inline text)
        | None ->
            let* net = parse_net params in
            let* full_duplex = bool_field params "full_duplex" ~default:false in
            Ok (Built { net; full_duplex })
      in
      Ok (Certify { spec; refine })
  | "certify_faults" ->
      (* adversarial certification simulates every enumerated failure
         pattern, so the vertex gate is far below simulate_implicit's:
         cost is O(patterns · n · cap) on one worker and the budget gate
         bounds the pattern count *)
      let* family =
        match field params "family" with
        | Some (Json.Str s)
          when List.mem s Gossip_topology.Implicit.known_families ->
            Ok s
        | Some (Json.Str s) ->
            Error (Printf.sprintf "unknown implicit family %S" s)
        | Some _ -> Error "parameter \"family\" must be a string"
        | None -> Error "missing parameter \"family\""
      in
      let* n = int_field params "n" ~min:5 ~max:256 in
      let* k = int_field ~default:1 params "k" ~min:0 ~max:3 in
      let* budget = int_field ~default:512 params "budget" ~min:1 ~max:4096 in
      let* seed = int_field ~default:1 params "seed" ~min:0 ~max:1_000_000_000 in
      let* degree = int_field ~default:2 params "degree" ~min:2 ~max:16 in
      let* full_duplex = bool_field params "full_duplex" ~default:false in
      let* harden =
        match field params "harden" with
        | None -> Ok "none"
        | Some (Json.Str s) when List.mem s [ "none"; "replicate"; "augment" ]
          ->
            Ok s
        | Some (Json.Str s) -> Error (Printf.sprintf "unknown transform %S" s)
        | Some _ -> Error "parameter \"harden\" must be a string"
      in
      let* cap = int_field ~default:0 params "cap" ~min:0 ~max:100_000 in
      Ok
        (Certify_faults
           { family; n; k; budget; seed; degree; full_duplex; harden; cap })
  | "gossip" -> (
      match params with
      | Json.Obj (_ :: _) -> Ok (Gossip { view = params })
      | _ -> Error "parameter object must carry the membership view")
  | "digest" -> Ok Mem_digest
  | "drain" ->
      let* node = string_field params "node" in
      Ok (Drain { node })
  | "trace_pull" ->
      let* max = int_field ~default:512 params "max" ~min:1 ~max:65536 in
      Ok (Trace_pull { max })
  | other -> Error (Printf.sprintf "unknown operation %S" other)

let parse_request j =
  match j with
  | Json.Obj _ ->
      let id = Option.value ~default:Json.Null (Json.member "id" j) in
      let* op =
        match Json.member "op" j with
        | Some (Json.Str op) -> Ok op
        | Some _ -> Error "field \"op\" must be a string"
        | None -> Error "missing field \"op\""
      in
      let params = Option.value ~default:(Json.Obj []) (Json.member "params" j) in
      let* params =
        match params with
        | Json.Obj _ -> Ok params
        | _ -> Error "field \"params\" must be an object"
      in
      let* op = parse_op op params in
      let* timeout_ms =
        match Json.member "timeout_ms" j with
        | None | Some Json.Null -> Ok None
        | Some (Json.Int t) when t >= 0 -> Ok (Some t)
        | Some _ -> Error "field \"timeout_ms\" must be a non-negative integer"
      in
      (* Optional distributed-trace context.  Lenient by design: these
         fields are forward-compatibility territory — an envelope whose
         trace fields are missing or ill-typed is still a valid request
         (a peer that predates them must interoperate), so anything but
         a well-formed context degrades to "no context" rather than
         [bad_request]. *)
      let trace =
        match Json.member "trace_id" j with
        | Some (Json.Str trace_id) when trace_id <> "" ->
            let parent_span_id =
              match Json.member "parent_span_id" j with
              | Some (Json.Str p) when p <> "" -> Some p
              | _ -> None
            in
            let sampled =
              match Json.member "sampled" j with
              | Some (Json.Bool b) -> b
              | _ -> true
            in
            Some { Gossip_util.Trace.trace_id; parent_span_id; sampled }
        | _ -> None
      in
      Ok { id; op; timeout_ms; trace }
  | _ -> Error "request frame must be a JSON object"

let net_to_fields { family; dim; degree } =
  [
    ("family", Json.Str family);
    ("dim", Json.Int dim);
    ("degree", Json.Int degree);
  ]

let op_params = function
  | Ping | Version | Shutdown | Stats | Metrics | Health | Spans -> []
  | Sleep { ms } -> [ ("ms", Json.Int ms) ]
  | Tables { s_max; ss } ->
      [
        ("s_max", Json.Int s_max);
        ("ss", Json.List (List.map (fun s -> Json.Int s) ss));
      ]
  | Bound { net; s; full_duplex } ->
      net_to_fields net
      @ [
          ("s", match s with Some s -> Json.Int s | None -> Json.Null);
          ("full_duplex", Json.Bool full_duplex);
        ]
  | Simulate { net; full_duplex } ->
      net_to_fields net @ [ ("full_duplex", Json.Bool full_duplex) ]
  | Simulate_implicit
      { family; n; items; checkpoint_every; period; seed; degree; full_duplex }
    ->
      [
        ("family", Json.Str family);
        ("n", Json.Int n);
        ("items", Json.Int items);
        ("checkpoint_every", Json.Int checkpoint_every);
        ("period", Json.Int period);
        ("seed", Json.Int seed);
        ("degree", Json.Int degree);
        ("full_duplex", Json.Bool full_duplex);
      ]
  | Certify { spec; refine } ->
      (match spec with
      | Inline text -> [ ("protocol", Json.Str text) ]
      | Built { net; full_duplex } ->
          net_to_fields net @ [ ("full_duplex", Json.Bool full_duplex) ])
      @ [ ("refine", Json.Bool refine) ]
  | Certify_faults { family; n; k; budget; seed; degree; full_duplex; harden; cap }
    ->
      [
        ("family", Json.Str family);
        ("n", Json.Int n);
        ("k", Json.Int k);
        ("budget", Json.Int budget);
        ("seed", Json.Int seed);
        ("degree", Json.Int degree);
        ("full_duplex", Json.Bool full_duplex);
        ("harden", Json.Str harden);
        ("cap", Json.Int cap);
      ]
  | Gossip { view } -> ( match view with Json.Obj fields -> fields | _ -> [])
  | Mem_digest -> []
  | Drain { node } -> (
      match node with Some n -> [ ("node", Json.Str n) ] | None -> [])
  | Trace_pull { max } -> [ ("max", Json.Int max) ]

let request_to_json r =
  Json.Obj
    ([ ("id", r.id); ("op", Json.Str (op_name r.op)) ]
    @ (match op_params r.op with [] -> [] | ps -> [ ("params", Json.Obj ps) ])
    @ (match r.timeout_ms with
      | Some t -> [ ("timeout_ms", Json.Int t) ]
      | None -> [])
    @
    match r.trace with
    | Some { Gossip_util.Trace.trace_id; parent_span_id; sampled } ->
        ("trace_id", Json.Str trace_id)
        :: (match parent_span_id with
           | Some p -> [ ("parent_span_id", Json.Str p) ]
           | None -> [])
        @ if sampled then [] else [ ("sampled", Json.Bool false) ]
    | None -> [])

(* --- responses --- *)

type error_code =
  | Bad_request
  | Queue_full
  | Deadline_exceeded
  | Oversized_frame
  | Shutting_down
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Queue_full -> "queue_full"
  | Deadline_exceeded -> "deadline_exceeded"
  | Oversized_frame -> "oversized_frame"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "queue_full" -> Some Queue_full
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "oversized_frame" -> Some Oversized_frame
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

type response = {
  resp_id : Json.t;
  resp_version : string;
  outcome : (Json.t, error_code * string) result;
}

let ok_response ~id result =
  Json.Obj
    [
      ("id", id);
      ("version", Json.Str Core.Version.string);
      ("ok", Json.Bool true);
      ("result", result);
    ]

let error_response ~id ~code ~message =
  Json.Obj
    [
      ("id", id);
      ("version", Json.Str Core.Version.string);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("code", Json.Str (error_code_to_string code));
            ("message", Json.Str message);
          ] );
    ]

let parse_response j =
  match j with
  | Json.Obj _ ->
      let resp_id = Option.value ~default:Json.Null (Json.member "id" j) in
      let* resp_version =
        match Json.member "version" j with
        | Some (Json.Str v) -> Ok v
        | _ -> Error "response lacks a \"version\" string"
      in
      let* ok =
        match Json.member "ok" j with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error "response lacks an \"ok\" boolean"
      in
      if ok then
        match Json.member "result" j with
        | Some result -> Ok { resp_id; resp_version; outcome = Ok result }
        | None -> Error "ok response lacks a \"result\""
      else
        let* err =
          match Json.member "error" j with
          | Some (Json.Obj _ as e) -> Ok e
          | _ -> Error "error response lacks an \"error\" object"
        in
        let* code =
          match Json.member "code" err with
          | Some (Json.Str c) -> (
              match error_code_of_string c with
              | Some c -> Ok c
              | None -> Error (Printf.sprintf "unknown error code %S" c))
          | _ -> Error "error object lacks a \"code\" string"
        in
        let message =
          match Json.member "message" err with
          | Some (Json.Str m) -> m
          | _ -> ""
        in
        Ok { resp_id; resp_version; outcome = Error (code, message) }
  | _ -> Error "response frame must be a JSON object"

(* --- framing --- *)

let default_max_frame_bytes = 1 lsl 20

type frame_error = Eof | Oversized

let read_frame ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' ->
        let line = Buffer.contents buf in
        let len = String.length line in
        if len > 0 && line.[len - 1] = '\r' then
          Ok (String.sub line 0 (len - 1))
        else Ok line
    | c ->
        if Buffer.length buf >= max_bytes then Error Oversized
        else begin
          Buffer.add_char buf c;
          go ()
        end
    | exception End_of_file ->
        if Buffer.length buf = 0 then Error Eof
        else Ok (Buffer.contents buf) (* unterminated final frame *)
  in
  go ()

let write_frame oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n';
  flush oc
