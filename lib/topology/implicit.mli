(** Implicit topologies: neighbor functions instead of adjacency arrays.

    The paper's lower bounds are stated for topology {e families} — de
    Bruijn, Kautz, hypercubes, tori, cycles, CCC — whose adjacency is a
    closed-form function of the vertex index.  This module represents such
    a network as [n] plus a {e slot} function [slot v k] enumerating the
    candidate neighbors of [v], so million-node instances never
    materialize a {!Digraph.t}: memory stays proportional to simulation
    state, and per-vertex adjacency is recomputed on the fly in O(1).

    Slots are a fixed-width raw view: a slot may return [v] itself (an
    absent neighbor, e.g. a de Bruijn self-loop word) or repeat another
    slot's value (e.g. [DB(d,1)]); {!fill_neighbors} reconciles both,
    matching exactly the self-loop rejection and duplicate merge that
    {!Digraph.make} performs for the materialized families.  The
    {!materialize} / {!agrees_with} bridge pins the two representations
    together on small instances. *)

type t

(** [make ~name ~n ~slots ~slot] wraps a slot function.  [slot v k] must
    be pure and total for [0 <= v < n], [0 <= k < slots]; out-of-universe
    values and [v] itself denote an absent neighbor.
    @raise Invalid_argument on [n < 0] or [slots < 1]. *)
val make : name:string -> n:int -> slots:int -> slot:(int -> int -> int) -> t

val name : t -> string
val n_vertices : t -> int

(** [slots t] is the fixed candidate-slot count (an upper bound on every
    vertex degree). *)
val slots : t -> int

(** [slot t v k] is the raw value of slot [k] of vertex [v]; may equal
    [v] (absent) or duplicate another slot.
    @raise Invalid_argument when [v] or [k] is out of range. *)
val slot : t -> int -> int -> int

(** [unchecked_slot t] is the slot function [t] was made with, for hot
    loops that call it once per vertex: [unchecked_slot t v k] is
    [slot t v k] with no range check at all.  It is defined only for
    [0 <= v < n_vertices t] and [0 <= k < slots t], and its caller keeps
    its arguments in range by construction, as a proposal schedule
    ([Schedule.proposal]) does: its [v] is a vertex of [t] and its [k]
    a non-negative hash reduced below [slots t]. *)
val unchecked_slot : t -> int -> int -> int

(** [fill_neighbors t v buf] writes the deduplicated, self-free neighbors
    of [v] into [buf] (which must hold at least [slots t] entries) and
    returns their count.  Allocation-free — the chunked engine's hot
    path.
    @raise Invalid_argument when [buf] is too short. *)
val fill_neighbors : t -> int -> int array -> int

(** [neighbors t v] is a fresh array of the neighbors of [v]. *)
val neighbors : t -> int -> int array

(** [degree t v] is the deduplicated degree of [v]. *)
val degree : t -> int -> int

(** {1 Generators}

    Each generator agrees arc-for-arc with its materialized counterpart:
    {!cycle} with {!Families.cycle}, {!hypercube} with
    {!Families.hypercube}, {!torus} with {!Families.torus}, {!de_bruijn}
    with {!Families.de_bruijn}, {!kautz} with {!Families.kautz}, and
    {!ccc} with {!Extra_families.cube_connected_cycles} — the property
    {!agrees_with} checks. *)

val cycle : int -> t
val hypercube : int -> t
val torus : int -> int -> t
val ccc : int -> t
val de_bruijn : int -> int -> t
val kautz : int -> int -> t

(** {1 Bridges} *)

(** [of_digraph g] views a materialized digraph through the implicit
    interface (slots are its out-neighbor lists). *)
val of_digraph : Digraph.t -> t

(** [materialize t] builds the explicit {!Digraph.t} — small instances
    only; memory is O(arcs). *)
val materialize : t -> Digraph.t

(** [agrees_with t g] — same vertex count and same arc set.  The property
    check pinning implicit generators to the materialized families. *)
val agrees_with : t -> Digraph.t -> bool

(** {1 Family resolution} *)

(** Accepted [~family] names for {!of_family}. *)
val known_families : string list

(** [of_family ~family ~n ~degree] resolves a family name and a {e target}
    vertex count to the smallest instance with at least [n] vertices
    ([degree] parameterizes the string families; ignored elsewhere).
    Family names: ["de-bruijn"]/["db"], ["kautz"]/["k"], ["hypercube"],
    ["torus"], ["cycle"], ["ccc"]. *)
val of_family : family:string -> n:int -> degree:int -> (t, string) result
