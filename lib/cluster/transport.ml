module Json = Gossip_util.Json
module Server = Gossip_serve.Server
module Wire = Gossip_serve.Wire
module Resilient = Gossip_serve.Resilient_client

let default_policy =
  {
    Resilient.max_attempts = 2;
    base_backoff_ms = 10;
    max_backoff_ms = 100;
    attempt_timeout_ms = 2_000;
    call_budget_ms = 2_000;
    connect_timeout_ms = 500;
  }

(* Membership rounds must never stall on a dying peer: the failure
   detector's clock runs inside the same loop, so a 2s hang against one
   dead socket delays EVERY verdict.  Gossip is periodic — the next
   round is the retry — hence single attempts under a tight budget. *)
let gossip_policy =
  {
    Resilient.max_attempts = 1;
    base_backoff_ms = 5;
    max_backoff_ms = 20;
    attempt_timeout_ms = 300;
    call_budget_ms = 350;
    connect_timeout_ms = 200;
  }

type t = {
  policy : Resilient.policy;
  seed : int;
  conns : (string, Resilient.t) Hashtbl.t;
}

let create ?(policy = default_policy) ?(seed = 0) () =
  { policy; seed; conns = Hashtbl.create 8 }

let forget t addr =
  match Hashtbl.find_opt t.conns addr with
  | None -> ()
  | Some c ->
      Hashtbl.remove t.conns addr;
      Resilient.close c

let close t =
  Hashtbl.iter (fun _ c -> Resilient.close c) t.conns;
  Hashtbl.reset t.conns

(* [Resilient.connect] retries its full policy against a dead address;
   for a transport that's the bounded cost of one failed round. *)
let conn t addr =
  match Hashtbl.find_opt t.conns addr with
  | Some c -> Ok c
  | None -> (
      match Server.listen_of_string addr with
      | Error _ as e -> e
      | Ok listen -> (
          match
            Resilient.connect ~policy:t.policy
              ~seed:(Int64.to_int (Ring.hash64 addr) lxor t.seed)
              listen
          with
          | c ->
              Hashtbl.replace t.conns addr c;
              Ok c
          | exception Unix.Unix_error (e, _, _) ->
              Error
                (Printf.sprintf "connect %s: %s" addr (Unix.error_message e))
          | exception Sys_error e ->
              Error (Printf.sprintf "connect %s: %s" addr e)))

let exchange t addr ?trace op =
  match conn t addr with
  | Error e -> Error (`Down e)
  | Ok c -> (
      match Resilient.call c ?trace op with
      | Ok resp -> (
          match resp.Wire.outcome with
          | Ok result -> Ok result
          | Error (code, msg) -> Error (`Fatal (code, msg)))
      | Error (Resilient.Fatal (code, msg)) -> Error (`Fatal (code, msg))
      | Error (Resilient.Exhausted msg) ->
          (* the peer may be gone for good; drop the cached client so a
             replacement process at the same address gets a fresh dial *)
          forget t addr;
          Error (`Down msg))

let call t addr ?trace op =
  match exchange t addr ?trace op with
  | Ok j -> Ok j
  | Error (`Fatal (code, msg)) ->
      Error (Printf.sprintf "%s: %s" (Wire.error_code_to_string code) msg)
  | Error (`Down msg) -> Error msg
