(** High-level one-call analyses combining the whole pipeline.

    These are the operations a downstream user actually wants: "what do
    the paper's bounds say about this network?" and "here is my systolic
    protocol — run it, certify it, compare."  Everything below is a thin
    composition of the per-library APIs. *)

(** Everything the closed-form theory says about one concrete network. *)
type network_report = {
  name : string;
  n : int;
  arcs : int;
  symmetric : bool;
  diameter : int;
  degree_parameter : int;
  general_bounds : (int * float) list;
      (** [(s, e(s)·log₂ n)] for the requested periods, half-duplex *)
  general_bounds_fd : (int * float) list;  (** full-duplex analogues *)
  nonsystolic_bound : float;  (** [1.4404·log₂ n] *)
}

(** [analyze_network ?ctx ?periods g] — closed-form lower bounds for [g]
    (default periods 3..8).  The diameter sweep is served from (and
    recorded in) [ctx] (default: a fresh {!Context}); the report is the
    same for any context. *)
val analyze_network :
  ?ctx:Context.t ->
  ?periods:int list ->
  Gossip_topology.Digraph.t ->
  network_report

(** Outcome of running and certifying one systolic protocol. *)
type protocol_report = {
  network : string;
  mode : Gossip_protocol.Protocol.mode;
  period : int;
  gossip_time : int option;  (** measured by simulation *)
  broadcast_time : int option;  (** from vertex 0 *)
  diameter : int;
  certificate : Gossip_delay.Certificate.t;
      (** Theorem 4.1 finite-n certificate for this protocol *)
  asymptotic_main_term : float;  (** [e(s)·log₂ n] for comparison *)
}

(** [certify_protocol ?ctx ?horizon p] — simulate the systolic protocol
    to completion (or [horizon] rounds), build its delay digraph, and
    emit the Theorem 4.1 certificate.  The certified bound is guaranteed
    (and checked in the tests) to be at most the measured gossip time.
    The simulation, the delay digraph and every norm solve of the
    certificate's λ sweep go through [ctx] (default: a fresh
    {!Context}) — a repeated analysis of the same protocol in a shared
    context is nearly free, and the report is the same for any
    context. *)
val certify_protocol :
  ?ctx:Context.t ->
  ?horizon:int ->
  Gossip_protocol.Systolic.t ->
  protocol_report

(** [pp_network_report] and [pp_protocol_report] render for humans. *)
val pp_network_report : Format.formatter -> network_report -> unit

val pp_protocol_report : Format.formatter -> protocol_report -> unit

(** [protocol_report_to_json] is the machine-readable form behind the
    CLI's [--json] modes.  The optional [coverage] array (the per-round
    dissemination curve of {!Gossip_simulate.Engine.gossip_run}) is
    appended as a ["coverage"] field when given. *)
val protocol_report_to_json :
  ?coverage:float array -> protocol_report -> Gossip_util.Json.t
