let require name cond =
  if not cond then invalid_arg ("Families." ^ name ^ ": invalid dimension")

let ipow base e =
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e lsr 1)
    else go acc (b * b) (e lsr 1)
  in
  go 1 base e

(* --- classical families --- *)

let undirected_of_edges ~name ?labels n edges =
  let arcs = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) edges in
  Digraph.make ?labels ~name n arcs

let path n =
  require "path" (n >= 1);
  undirected_of_edges ~name:(Printf.sprintf "P(%d)" n) n
    (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  require "cycle" (n >= 3);
  undirected_of_edges ~name:(Printf.sprintf "C(%d)" n) n
    (List.init n (fun i -> (i, (i + 1) mod n)))

let directed_cycle n =
  require "directed_cycle" (n >= 2);
  Digraph.make ~name:(Printf.sprintf "DC(%d)" n) n
    (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  require "complete" (n >= 1);
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  undirected_of_edges ~name:(Printf.sprintf "K(%d)" n) n !edges

let star n =
  require "star" (n >= 2);
  undirected_of_edges ~name:(Printf.sprintf "Star(%d)" n) n
    (List.init (n - 1) (fun i -> (0, i + 1)))

let complete_bipartite a b =
  require "complete_bipartite" (a >= 1 && b >= 1);
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = 0 to b - 1 do
      edges := (u, a + v) :: !edges
    done
  done;
  undirected_of_edges ~name:(Printf.sprintf "K(%d,%d)" a b) (a + b) !edges

let hypercube dim =
  require "hypercube" (dim >= 1);
  let n = 1 lsl dim in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for bit = 0 to dim - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  undirected_of_edges ~name:(Printf.sprintf "Q(%d)" dim) n !edges

let grid rows cols =
  require "grid" (rows >= 1 && cols >= 1);
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  undirected_of_edges ~name:(Printf.sprintf "Grid(%dx%d)" rows cols)
    (rows * cols) !edges

let torus rows cols =
  require "torus" (rows >= 3 && cols >= 3);
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (idx r c, idx r ((c + 1) mod cols)) :: !edges;
      edges := (idx r c, idx ((r + 1) mod rows) c) :: !edges
    done
  done;
  undirected_of_edges ~name:(Printf.sprintf "Torus(%dx%d)" rows cols)
    (rows * cols) !edges

let complete_dary_tree d depth =
  require "complete_dary_tree" (d >= 2 && depth >= 0);
  let n = (ipow d (depth + 1) - 1) / (d - 1) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := ((v - 1) / d, v) :: !edges
  done;
  undirected_of_edges ~name:(Printf.sprintf "T(%d,%d)" d depth) n !edges

(* --- string coding --- *)

let string_of_code ~d ~dim code =
  Array.init dim (fun i -> ((code / ipow d i) mod d) + 1)

let code_of_string ~d s =
  let code = ref 0 in
  for i = Array.length s - 1 downto 0 do
    code := (!code * d) + (s.(i) - 1)
  done;
  !code

let word_label s =
  String.concat "" (List.rev_map string_of_int (Array.to_list s))

(* --- butterflies --- *)

let bf_index ~d ~dim x l = (l * ipow d dim) + x

let butterfly d dim =
  require "butterfly" (d >= 2 && dim >= 1);
  let words = ipow d dim in
  let n = (dim + 1) * words in
  let arcs = ref [] in
  let labels = Array.make n "" in
  for l = 0 to dim do
    for x = 0 to words - 1 do
      labels.(bf_index ~d ~dim x l) <-
        Printf.sprintf "%s,%d" (word_label (string_of_code ~d ~dim x)) l
    done
  done;
  for l = 1 to dim do
    for x = 0 to words - 1 do
      let u = bf_index ~d ~dim x l in
      let p = l - 1 in
      let base = x - ((x / ipow d p) mod d * ipow d p) in
      for sym = 0 to d - 1 do
        let y = base + (sym * ipow d p) in
        let v = bf_index ~d ~dim y (l - 1) in
        arcs := (u, v) :: (v, u) :: !arcs
      done
    done
  done;
  Digraph.make ~labels ~name:(Printf.sprintf "BF(%d,%d)" d dim) n !arcs

let wbf_arcs d dim =
  let words = ipow d dim in
  let arcs = ref [] in
  for l = 0 to dim - 1 do
    let p = (l + dim - 1) mod dim in
    for x = 0 to words - 1 do
      let u = (l * words) + x in
      let base = x - ((x / ipow d p) mod d * ipow d p) in
      for sym = 0 to d - 1 do
        let y = base + (sym * ipow d p) in
        let v = (p * words) + y in
        arcs := (u, v) :: !arcs
      done
    done
  done;
  !arcs

let wbf_labels d dim =
  let words = ipow d dim in
  Array.init (dim * words) (fun idx ->
      let l = idx / words and x = idx mod words in
      Printf.sprintf "%s,%d" (word_label (string_of_code ~d ~dim x)) l)

let wrapped_butterfly_directed d dim =
  require "wrapped_butterfly_directed" (d >= 2 && dim >= 2);
  Digraph.make
    ~labels:(wbf_labels d dim)
    ~name:(Printf.sprintf "dWBF(%d,%d)" d dim)
    (dim * ipow d dim) (wbf_arcs d dim)

let wrapped_butterfly d dim =
  require "wrapped_butterfly" (d >= 2 && dim >= 2);
  Digraph.rename
    (Digraph.symmetric_closure (wrapped_butterfly_directed d dim))
    (Printf.sprintf "WBF(%d,%d)" d dim)

(* --- de Bruijn --- *)

let de_bruijn_directed d dim =
  require "de_bruijn_directed" (d >= 2 && dim >= 1);
  let n = ipow d dim in
  let arcs = ref [] in
  let labels =
    Array.init n (fun x -> word_label (string_of_code ~d ~dim x))
  in
  for x = 0 to n - 1 do
    let shifted = x mod ipow d (dim - 1) * d in
    for sym = 0 to d - 1 do
      let y = shifted + sym in
      if y <> x then arcs := (x, y) :: !arcs
    done
  done;
  Digraph.make ~labels ~name:(Printf.sprintf "dDB(%d,%d)" d dim) n !arcs

let de_bruijn d dim =
  require "de_bruijn" (d >= 2 && dim >= 1);
  Digraph.rename
    (Digraph.symmetric_closure (de_bruijn_directed d dim))
    (Printf.sprintf "DB(%d,%d)" d dim)

(* --- Kautz --- *)

let kautz_vertex_of_string ~d s =
  let dim = Array.length s in
  if dim < 1 then invalid_arg "Families.kautz_vertex_of_string: empty string";
  let check_sym x = x >= 1 && x <= d + 1 in
  if not (Array.for_all check_sym s) then
    invalid_arg "Families.kautz_vertex_of_string: symbol out of range";
  for i = 0 to dim - 2 do
    if s.(i) = s.(i + 1) then
      invalid_arg "Families.kautz_vertex_of_string: repeated adjacent symbol"
  done;
  let v = ref (s.(dim - 1) - 1) in
  for i = dim - 2 downto 0 do
    let rank = if s.(i) < s.(i + 1) then s.(i) - 1 else s.(i) - 2 in
    v := (!v * d) + rank
  done;
  !v

let kautz_string_of_vertex ~d ~dim v =
  let s = Array.make dim 0 in
  let rest = ref v in
  let ranks = Array.make (max 0 (dim - 1)) 0 in
  for i = 0 to dim - 2 do
    ranks.(i) <- !rest mod d;
    rest := !rest / d
  done;
  s.(dim - 1) <- !rest + 1;
  for i = dim - 2 downto 0 do
    let r = ranks.(i) in
    s.(i) <- (if r + 1 < s.(i + 1) then r + 1 else r + 2)
  done;
  s

let kautz_directed d dim =
  require "kautz_directed" (d >= 2 && dim >= 1);
  let n = (d + 1) * ipow d (dim - 1) in
  let arcs = ref [] in
  let labels =
    Array.init n (fun v -> word_label (kautz_string_of_vertex ~d ~dim v))
  in
  for v = 0 to n - 1 do
    let s = kautz_string_of_vertex ~d ~dim v in
    let shifted = Array.make dim 0 in
    Array.blit s 0 shifted 1 (dim - 1);
    for sym = 1 to d + 1 do
      if sym <> s.(0) then begin
        shifted.(0) <- sym;
        let w = kautz_vertex_of_string ~d shifted in
        if w <> v then arcs := (v, w) :: !arcs
      end
    done
  done;
  Digraph.make ~labels ~name:(Printf.sprintf "dK(%d,%d)" d dim) n !arcs

let kautz d dim =
  require "kautz" (d >= 2 && dim >= 1);
  Digraph.rename
    (Digraph.symmetric_closure (kautz_directed d dim))
    (Printf.sprintf "K(%d,%d)" d dim)

(* --- family resolution by name ------------------------------------------ *)

let known_families =
  [
    "path"; "cycle"; "complete"; "hypercube"; "grid"; "torus"; "tree"; "bf";
    "dwbf"; "wbf"; "ddb"; "db"; "dk"; "k";
  ]

let of_family ~family ~dim ~degree:d =
  let build () =
    match family with
    | "path" -> path dim
    | "cycle" -> cycle dim
    | "complete" -> complete dim
    | "hypercube" -> hypercube dim
    | "grid" -> grid dim dim
    | "torus" -> torus dim dim
    | "tree" -> complete_dary_tree (max 2 d) dim
    | "bf" -> butterfly d dim
    | "dwbf" -> wrapped_butterfly_directed d dim
    | "wbf" -> wrapped_butterfly d dim
    | "ddb" -> de_bruijn_directed d dim
    | "db" -> de_bruijn d dim
    | "dk" -> kautz_directed d dim
    | "k" -> kautz d dim
    | other -> invalid_arg (Printf.sprintf "unknown family %S" other)
  in
  match build () with g -> Ok g | exception Invalid_argument msg -> Error msg
