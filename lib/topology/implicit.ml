type t = {
  name : string;
  n : int;
  slots : int;
  slot : int -> int -> int;
}

let make ~name ~n ~slots ~slot =
  if n < 0 then invalid_arg "Implicit.make: negative vertex count";
  if slots < 1 then invalid_arg "Implicit.make: slots must be >= 1";
  { name; n; slots; slot }

let name t = t.name
let n_vertices t = t.n
let slots t = t.slots

let slot t v k =
  if v < 0 || v >= t.n then invalid_arg "Implicit.slot: vertex out of range";
  if k < 0 || k >= t.slots then invalid_arg "Implicit.slot: slot out of range";
  t.slot v k

let unchecked_slot t = t.slot

(* Deduplicated, self-free neighbor fill.  Degrees are tiny (<= slots),
   so the quadratic duplicate scan never allocates and beats sorting. *)
let fill_neighbors t v buf =
  if Array.length buf < t.slots then
    invalid_arg "Implicit.fill_neighbors: buffer shorter than slot count";
  let count = ref 0 in
  for k = 0 to t.slots - 1 do
    let u = t.slot v k in
    if u <> v && u >= 0 && u < t.n then begin
      let dup = ref false in
      for j = 0 to !count - 1 do
        if buf.(j) = u then dup := true
      done;
      if not !dup then begin
        buf.(!count) <- u;
        incr count
      end
    end
  done;
  !count

let neighbors t v =
  let buf = Array.make t.slots 0 in
  let c = fill_neighbors t v buf in
  Array.sub buf 0 c

let degree t v =
  let buf = Array.make t.slots 0 in
  fill_neighbors t v buf

(* --- generators ------------------------------------------------------ *)

let require name cond =
  if not cond then invalid_arg ("Implicit." ^ name ^ ": invalid dimension")

let ipow base e =
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e lsr 1)
    else go acc (b * b) (e lsr 1)
  in
  go 1 base e

let cycle n =
  require "cycle" (n >= 3);
  make ~name:(Printf.sprintf "C(%d)" n) ~n ~slots:2 ~slot:(fun v k ->
      if k = 0 then (v + n - 1) mod n else (v + 1) mod n)

let hypercube dim =
  require "hypercube" (dim >= 1);
  let n = 1 lsl dim in
  make ~name:(Printf.sprintf "Q(%d)" dim) ~n ~slots:dim ~slot:(fun v k ->
      v lxor (1 lsl k))

let torus rows cols =
  require "torus" (rows >= 3 && cols >= 3);
  let n = rows * cols in
  make
    ~name:(Printf.sprintf "Torus(%dx%d)" rows cols)
    ~n ~slots:4
    ~slot:(fun v k ->
      let r = v / cols and c = v mod cols in
      match k with
      | 0 -> (r * cols) + ((c + cols - 1) mod cols)
      | 1 -> (r * cols) + ((c + 1) mod cols)
      | 2 -> (((r + rows - 1) mod rows) * cols) + c
      | _ -> (((r + 1) mod rows) * cols) + c)

(* CCC vertex (w, i) at index w*dim + i — exactly the layout of
   Extra_families.cube_connected_cycles. *)
let ccc dim =
  require "ccc" (dim >= 3);
  let n = dim * (1 lsl dim) in
  make ~name:(Printf.sprintf "CCC(%d)" dim) ~n ~slots:3 ~slot:(fun v k ->
      let w = v / dim and i = v mod dim in
      match k with
      | 0 -> (w * dim) + ((i + dim - 1) mod dim)
      | 1 -> (w * dim) + ((i + 1) mod dim)
      | _ -> ((w lxor (1 lsl i)) * dim) + i)

(* Symmetric de Bruijn: out-arcs shift a digit in (x -> (x mod D)·d + s),
   in-arcs shift one out (x -> x/d + t·D); the symmetric closure is their
   union.  Slots may collide with v (the constant words' self-loops) or
   with each other (dim = 1) — fill_neighbors reconciles, exactly like
   Digraph.make's duplicate merge does for the materialized family.
   When d = 2^lg, the slot computes both the out-slot and the in-slot
   with shifts and masks, and the sign of k - d selects one without a
   branch or a division: a proposal draws k at random, so a branch on
   k < d would be mispredicted about half the time. *)
let de_bruijn d dim =
  require "de_bruijn" (d >= 2 && dim >= 1);
  let n = ipow d dim in
  let shift = ipow d (dim - 1) in
  let slot =
    if d land (d - 1) = 0 then
      let rec log2 l = if 1 lsl l = d then l else log2 (l + 1) in
      let lg = log2 1 in
      let low = shift - 1 and up = lg * (dim - 1) in
      fun v k ->
        (* all ones when k < d, else zero: k - d lies in [-d, d) *)
        let m = (k - d) asr 62 in
        let out = ((v land low) lsl lg) + k
        and into = (v lsr lg) + ((k - d) lsl up) in
        into lxor ((out lxor into) land m)
    else fun v k ->
      if k < d then (v mod shift * d) + k else (v / d) + ((k - d) * shift)
  in
  make ~name:(Printf.sprintf "DB(%d,%d)" d dim) ~n ~slots:(2 * d) ~slot

(* Symmetric Kautz on the rank coding of Families.kautz_vertex_of_string:
   a vertex is v = top·d^(D-1) + low, where top + 1 is the string's last
   symbol and low's base-d digits rank each other symbol among the d
   symbols that differ from its right neighbour.  Out-slot k prepends
   the symbol of rank k (shifting the digits up and dropping the last
   symbol); in-slot d + j appends the j-th symbol other than the last
   (shifting the digits down).  No string is built. *)
let kautz d dim =
  require "kautz" (d >= 2 && dim >= 1);
  let hi = ipow d (dim - 1) in
  let n = (d + 1) * hi in
  let slot =
    if dim = 1 then
      (* K(d,1) is complete: slot k names the (k mod d)-th other vertex *)
      fun v k ->
        let j = k mod d in
        if j >= v then j + 1 else j
    else
      let mid = hi / d in
      fun v k ->
        let top = v / hi and low = v mod hi in
        if k < d then
          let r = low / mid in
          ((if r >= top then r + 1 else r) * hi) + (low mod mid * d) + k
        else
          let j = k - d in
          if j < top then (j * hi) + ((top - 1) * mid) + (low / d)
          else ((j + 1) * hi) + (top * mid) + (low / d)
  in
  make ~name:(Printf.sprintf "K(%d,%d)" d dim) ~n ~slots:(2 * d) ~slot

(* --- bridges to the materialized world ------------------------------- *)

let of_digraph g =
  let n = Digraph.n_vertices g in
  let slots = max 1 (max (Digraph.max_out_degree g) 1) in
  make ~name:(Digraph.name g) ~n ~slots ~slot:(fun v k ->
      let nbrs = Digraph.out_neighbors g v in
      if k < Array.length nbrs then nbrs.(k) else v)

let materialize t =
  let arcs = ref [] in
  let buf = Array.make t.slots 0 in
  for v = t.n - 1 downto 0 do
    let c = fill_neighbors t v buf in
    for j = 0 to c - 1 do
      arcs := (v, buf.(j)) :: !arcs
    done
  done;
  Digraph.make ~name:t.name t.n !arcs

(* Structural agreement, not name agreement: same vertex count and the
   same arc set (Digraph.arcs is canonically sorted on both sides). *)
let agrees_with t g =
  t.n = Digraph.n_vertices g
  && (t.n = 0 || Digraph.arcs (materialize t) = Digraph.arcs g)

(* --- family resolution by target size -------------------------------- *)

let known_families =
  [ "de-bruijn"; "db"; "kautz"; "k"; "hypercube"; "torus"; "cycle"; "ccc" ]

let of_family ~family ~n ~degree =
  if n < 3 then Error "implicit families need n >= 3"
  else if degree < 2 || degree > 16 then Error "degree must be in [2, 16]"
  else
    let smallest_dim ~lo size_of =
      let rec go dim = if size_of dim >= n then dim else go (dim + 1) in
      go lo
    in
    match family with
    | "de-bruijn" | "db" ->
        let dim = smallest_dim ~lo:1 (fun dim -> ipow degree dim) in
        Ok (de_bruijn degree dim)
    | "kautz" | "k" ->
        let dim =
          smallest_dim ~lo:1 (fun dim -> (degree + 1) * ipow degree (dim - 1))
        in
        Ok (kautz degree dim)
    | "hypercube" ->
        let dim = smallest_dim ~lo:1 (fun dim -> 1 lsl dim) in
        Ok (hypercube dim)
    | "torus" ->
        let side = max 3 (int_of_float (ceil (sqrt (float_of_int n)))) in
        Ok (torus side side)
    | "cycle" -> Ok (cycle n)
    | "ccc" ->
        let dim = smallest_dim ~lo:3 (fun dim -> dim * (1 lsl dim)) in
        Ok (ccc dim)
    | other -> Error (Printf.sprintf "unknown implicit family %S" other)
