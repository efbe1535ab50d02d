(** The background thread that keeps membership alive.

    One gossiper runs {!Membership.tick} every [interval_ms] over a
    {!Transport} until [stopping ()] turns true — shards and the router
    share this loop verbatim.  The sleep is chopped fine so a stop
    request is honored within ~50 ms, and a tick that throws is
    survived and counted (["cluster.tick_errors"]): a transport bug
    must not silence the failure detector. *)

type t

(** [start ~membership ~transport ~stopping ()] — spawn the loop
    ([interval_ms] default 500). *)
val start :
  membership:Membership.t ->
  transport:Transport.t ->
  ?interval_ms:int ->
  stopping:(unit -> bool) ->
  unit ->
  t

(** Block until the loop has observed [stopping] and exited. *)
val join : t -> unit
