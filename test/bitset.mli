(** Fixed-capacity bitsets: the knowledge sets of the Section 3
    reference rule ([section3.ml]) that the simulator is tested against.

    Knowledge sets in gossip simulations are subsets of the [n]
    information items, one per processor, so the reference's whole state
    is an array of [n] bitsets of capacity [n], in a compact
    array-of-words representation.  It shares no code with
    [Simulate.Chunked], which keeps its own 64-bit knowledge words. *)

type t

(** [create n] is the empty set over the universe [{0, ..., n-1}].
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [singleton n i] is the set [{i}] over universe size [n]. *)
val singleton : int -> int -> t

(** [add s i] inserts element [i] in place.
    @raise Invalid_argument if [i] is outside the universe. *)
val add : t -> int -> unit

(** [remove s i] deletes element [i] in place. *)
val remove : t -> int -> unit

(** [mem s i] tests membership. Elements outside the universe are absent. *)
val mem : t -> int -> bool

(** [union_into ~src ~dst] adds every element of [src] to [dst] in place.
    The two sets must share the same capacity. *)
val union_into : src:t -> dst:t -> unit

(** [union a b] is a fresh set holding the union of [a] and [b]. *)
val union : t -> t -> t

(** [inter a b] is a fresh set holding the intersection. *)
val inter : t -> t -> t

(** [popcount w] is the number of set bits of the 63-bit word [w],
    bit 62 (the sign bit) included, so [popcount (-1) = 63] — the
    count behind {!cardinal}.  Constant time: a branch-free SWAR count,
    not a loop over the set bits. *)
val popcount : int -> int

(** [cardinal s] is the number of elements in [s]. *)
val cardinal : t -> int

(** [is_full s] is [true] iff [s] contains its whole universe. *)
val is_full : t -> bool

(** [is_empty s] is [true] iff [s] has no element. *)
val is_empty : t -> bool

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

(** [equal a b] is set equality (capacities must match for [true]). *)
val equal : t -> t -> bool

(** [subset a b] is [true] iff every element of [a] belongs to [b]. *)
val subset : t -> t -> bool

(** [elements s] lists the elements in increasing order. *)
val elements : t -> int list

(** [of_list n xs] is the set over universe [n] holding the elements of
    [xs]. *)
val of_list : int -> int list -> t
