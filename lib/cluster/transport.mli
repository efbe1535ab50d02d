(** Addressed wire calls between cluster members.

    A cluster entry advertises its listener as a single string —
    ["unix:PATH"] or ["tcp:HOST:PORT"], the {!Gossip_serve.Server}
    listen-address codec — and a [Transport.t] keeps one
    lazily-connected {!Gossip_serve.Resilient_client} per such address,
    so gossip rounds and control forwards reuse connections instead of
    dialing per message.  The default policy is deliberately impatient
    (2 attempts, 500 ms connects, 2 s per call): a silent peer must
    cost a bounded slice of the gossip interval, not wedge the round —
    the failure detector, not the transport, decides what the silence
    means.

    One [t] must only be used from one thread (the clients it caches
    are not thread-safe); the router keeps one per worker domain. *)

module Json = Gossip_util.Json

type t

(** [create ()] — an empty connection cache.  [policy] overrides the
    impatient default; [seed] drives retry jitter. *)
val create :
  ?policy:Gossip_serve.Resilient_client.policy -> ?seed:int -> unit -> t

(** The impatient default policy described above. *)
val default_policy : Gossip_serve.Resilient_client.policy

(** Tighter still, for the membership gossiper: one attempt, 300 ms
    reply wait, 200 ms connects.  The failure detector's sweep runs in
    the gossip loop, so a dead peer must cost well under the suspicion
    timeout per round; dropped rumors are simply re-sent next round. *)
val gossip_policy : Gossip_serve.Resilient_client.policy

(** [call t addr ?trace op] — one resilient exchange with the peer at
    [addr]: connect (or reuse), send, await.  [trace] (default: none)
    is stamped on the forwarded envelope — this is how trace context
    crosses node boundaries.  Every failure — bad address, connect
    timeout, retries exhausted, server-side error reply — comes back as
    a message string; the caller (the membership layer) treats any
    [Error] as "peer unresponsive this round". *)
val call :
  t ->
  string ->
  ?trace:Gossip_util.Trace.t ->
  Gossip_serve.Wire.op ->
  (Json.t, string) result

(** [exchange t addr ?trace op] — like {!call} but failures keep their
    shape: [`Fatal] is a definitive server rejection (the router must
    relay [bad_request] to the client, not mask it as unreachability),
    [`Down] is transport-level — dial failed or retries exhausted — and
    means "try the next replica". *)
val exchange :
  t ->
  string ->
  ?trace:Gossip_util.Trace.t ->
  Gossip_serve.Wire.op ->
  ( Json.t,
    [ `Fatal of Gossip_serve.Wire.error_code * string | `Down of string ] )
  result

val close : t -> unit
