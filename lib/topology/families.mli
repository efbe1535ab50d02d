(** Generators for every network family the paper mentions.

    The hypercube-derived families — Butterfly, Wrapped Butterfly,
    de Bruijn, Kautz (Section 3) — are the ones the topology-specific
    bounds of Section 5 apply to; paths, cycles, trees, grids, complete
    graphs and hypercubes are the classical gossip benchmarks cited from
    [8,11,14,20] that our upper-bound protocols run on.

    Conventions: strings are over the alphabet [{1, ..., d}] (or
    [{1, ..., d+1}] for Kautz) exactly as in the paper, with [x_0] the
    rightmost symbol; every generator rejects degenerate dimensions with
    [Invalid_argument]; undirected networks are returned as symmetric
    digraphs.  De Bruijn self-loops (at constant strings) are dropped:
    a processor-bound protocol can never use them. *)

(** {1 Classical families} *)

(** [path n] is the undirected path on [n ≥ 1] vertices. *)
val path : int -> Digraph.t

(** [cycle n] is the undirected cycle, [n ≥ 3]. *)
val cycle : int -> Digraph.t

(** [directed_cycle n] is the one-way ring, [n ≥ 2]. *)
val directed_cycle : int -> Digraph.t

(** [complete n] is the complete graph [K_n], [n ≥ 1]. *)
val complete : int -> Digraph.t

(** [star n] is the star with one hub and [n - 1] leaves, [n ≥ 2]. *)
val star : int -> Digraph.t

(** [complete_bipartite a b] is [K_{a,b}], [a, b ≥ 1]. *)
val complete_bipartite : int -> int -> Digraph.t

(** [hypercube dim] is the binary hypercube on [2^dim] vertices,
    [dim ≥ 1]. *)
val hypercube : int -> Digraph.t

(** [grid rows cols] is the 2-dimensional mesh, both dims [≥ 1]. *)
val grid : int -> int -> Digraph.t

(** [torus rows cols] is the wrap-around mesh, both dims [≥ 3]. *)
val torus : int -> int -> Digraph.t

(** [complete_dary_tree d depth] is the complete [d]-ary tree of the given
    depth ([depth = 0] is a single vertex), [d ≥ 2]. *)
val complete_dary_tree : int -> int -> Digraph.t

(** {1 Hypercube-derived families of Section 3} *)

(** [butterfly d dim] is [BF(d, D)]: [(D+1)·d^D] vertices [(x, level)],
    levels [0..D], with pairwise opposite arcs between consecutive levels
    — a symmetric digraph. [d ≥ 2], [dim ≥ 1]. *)
val butterfly : int -> int -> Digraph.t

(** [wrapped_butterfly_directed d dim] is the digraph [WBF(d, D)]:
    [D·d^D] vertices, arcs from level [l] to level [(l-1) mod D] changing
    string position [(l-1) mod D]. [d ≥ 2], [dim ≥ 2]. *)
val wrapped_butterfly_directed : int -> int -> Digraph.t

(** [wrapped_butterfly d dim] is the undirected Wrapped Butterfly
    (symmetric closure of the directed one). *)
val wrapped_butterfly : int -> int -> Digraph.t

(** [de_bruijn_directed d dim] is the de Bruijn digraph [DB(d, D)] minus
    its [d] self-loops: arcs [x_{D-1}...x_0 → x_{D-2}...x_0 α].
    [d ≥ 2], [dim ≥ 1]. *)
val de_bruijn_directed : int -> int -> Digraph.t

(** [de_bruijn d dim] is the undirected de Bruijn graph. *)
val de_bruijn : int -> int -> Digraph.t

(** [kautz_directed d dim] is the Kautz digraph [K(d, D)]:
    [(d+1)·d^(D-1)] vertices (strings with no two consecutive equal
    symbols), arcs [x → x_{D-2}...x_0 α] with [α ≠ x_0].
    [d ≥ 2], [dim ≥ 1]. *)
val kautz_directed : int -> int -> Digraph.t

(** [kautz d dim] is the undirected Kautz graph. *)
val kautz : int -> int -> Digraph.t

(** {1 String coding helpers}

    Exposed for the separator constructions and the tests. *)

(** [string_of_code ~d ~dim code] decodes a base-[d] word of length [dim]
    (symbols [1..d], [x_0] = least significant) from its integer code. *)
val string_of_code : d:int -> dim:int -> int -> int array

(** [code_of_string ~d s] is the inverse of {!string_of_code}. *)
val code_of_string : d:int -> int array -> int

(** [kautz_vertex_of_string ~d s] is the vertex index of a valid Kautz
    string (symbols in [1..d+1], adjacent symbols distinct).
    @raise Invalid_argument on an invalid string. *)
val kautz_vertex_of_string : d:int -> int array -> int

(** [kautz_string_of_vertex ~d ~dim v] decodes a Kautz vertex index. *)
val kautz_string_of_vertex : d:int -> dim:int -> int -> int array

(** {1 Family resolution} *)

(** Accepted [~family] names for {!of_family}. *)
val known_families : string list

(** [of_family ~family ~dim ~degree] builds a network by name: ["grid"]
    and ["torus"] are [dim × dim], ["tree"] is the [max 2 degree]-ary
    tree of depth [dim], the string families ["bf"], ["dwbf"], ["wbf"],
    ["ddb"], ["db"], ["dk"], ["k"] take [(d, D) = (degree, dim)], and
    the rest take [dim] alone.  An unknown name, or a size the generator
    rejects, is an [Error] with the message. *)
val of_family :
  family:string -> dim:int -> degree:int -> (Digraph.t, string) result
