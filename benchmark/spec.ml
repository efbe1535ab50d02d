(* BENCHMARK.json: its format limits, and agreement with the metric
   catalogue this program prints from. *)

module Json = Core.Util.Json

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Json.of_string s

let keys = function Json.Obj fields -> List.sort compare (List.map fst fields) | _ -> []
let list k j = match Json.member k j with Some (Json.List l) -> l | _ -> []
let str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let num k j =
  match Json.member k j with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* run_seconds of the BENCHMARK.json in the working directory: the run
   length [run] defaults to and the one [compare] always uses. *)
let run_seconds () =
  match load "BENCHMARK.json" with
  | Error e -> failwith ("cannot read BENCHMARK.json: " ^ e)
  | Ok j -> (
      match num "run_seconds" j with
      | Some s when s > 0.0 -> s
      | _ -> failwith "BENCHMARK.json has no positive run_seconds")

(* Every problem with the file, empty when it is sound. *)
let problems j =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let expect what got want =
    if got <> want then err "%s: keys %s, expected %s" what (String.concat "," got) (String.concat "," want)
  in
  expect "BENCHMARK.json" (keys j)
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ];
  let strings k =
    let l = list k j in
    l <> [] && List.for_all (function Json.Str s -> s <> "" && s.[0] <> '/' | _ -> false) l
  in
  if not (strings "command" && List.length (list "command" j) <= 32) then
    err "command must be 1 to 32 relative strings";
  if not (strings "paths" && List.length (list "paths" j) <= 16) then
    err "paths must be 1 to 16 relative directories";
  (match num "run_seconds" j with
  | Some s when Float.is_integer s && s >= 1.0 && s <= 60.0 -> ()
  | _ -> err "run_seconds must be a whole number from 1 to 60");
  let names = ref [] in
  let check_name what n =
    if not (name_ok n) then err "%s: bad name %S" what n;
    if List.mem n !names then err "%s: name %S used twice" what n;
    names := n :: !names
  in
  let workloads = list "workloads" j and e2e = list "end_to_end" j and layer = list "per_layer" j in
  if List.length workloads < 2 || List.length workloads > 8 then err "2 to 8 workloads";
  if List.length e2e < 1 || List.length e2e > 16 then err "1 to 16 end-to-end metrics";
  if List.length layer < 1 || List.length layer > 128 then err "1 to 128 per-layer metrics";
  List.iter
    (fun w ->
      expect "workload" (keys w) [ "name"; "why" ];
      let n = Option.value ~default:"" (str "name" w) in
      check_name "workload" n;
      match (List.assoc_opt n Catalog.workloads, str "why" w) with
      | None, _ -> err "workload %s is not one the program runs" n
      | Some why, Some why' ->
          if why <> why' then err "workload %s: why differs from the program's" n;
          if String.length why' > 200 || String.contains why' '\n' then err "workload %s: why too long" n
      | Some _, None -> err "workload %s: no why" n)
    workloads;
  let check_metrics what entries catalogue want_keys =
    List.iter
      (fun m ->
        expect what (keys m) want_keys;
        let n = Option.value ~default:"" (str "name" m) in
        check_name what n;
        let u = Option.value ~default:"" (str "unit" m) in
        if not (unit_ok u) then err "%s %s: bad unit %S" what n u;
        match List.find_opt (fun (c : Catalog.metric) -> c.Catalog.name = n) catalogue with
        | None -> err "%s %s is not printed by the program" what n
        | Some c ->
            if c.Catalog.unit <> u then err "%s %s: unit %s, program prints %s" what n u c.Catalog.unit;
            if str "better" m <> Some (Catalog.better_to_string c.Catalog.better) then
              err "%s %s: direction differs from the program's" what n;
            if c.Catalog.bound <> None && num "bound" m <> c.Catalog.bound then
              err "%s %s: bound differs from the program's" what n)
      entries;
    List.iter
      (fun (c : Catalog.metric) ->
        if not (List.exists (fun m -> str "name" m = Some c.Catalog.name) entries) then
          err "%s %s is printed but not declared" what c.Catalog.name)
      catalogue
  in
  check_metrics "end_to_end" e2e Catalog.end_to_end [ "better"; "bound"; "name"; "unit" ];
  check_metrics "per_layer" layer Catalog.per_layer [ "better"; "name"; "unit" ];
  List.iter
    (fun m ->
      match num "bound" m with
      | Some b when b > 0.0 && b <= 0.25 -> ()
      | _ -> err "end_to_end %s: bound must be in (0, 0.25]" (Option.value ~default:"" (str "name" m)))
    e2e;
  (match List.find_opt (fun m -> str "name" m = Some "setup_s") e2e with
  | Some m when str "unit" m = Some "s" && str "better" m = Some "lower" -> ()
  | _ -> err "end_to_end must declare setup_s in s, lower is better");
  (* the layer -> end-to-end interaction list *)
  let e2e_names = List.filter_map (str "name") e2e in
  let workload_names = List.filter_map (str "name") workloads in
  List.iter
    (fun (c : Catalog.metric) ->
      match c.Catalog.moves with
      | None -> err "per_layer %s names no end-to-end metric" c.Catalog.name
      | Some (target, on) ->
          if not (List.mem target e2e_names) then
            err "per_layer %s moves %s, which is not an end-to-end metric" c.Catalog.name target;
          List.iter
            (fun w ->
              if not (List.mem w workload_names) then
                err "per_layer %s names workload %s, which does not exist" c.Catalog.name w)
            on;
          if on = [] then err "per_layer %s names no workload" c.Catalog.name)
    Catalog.per_layer;
  List.rev !errs
