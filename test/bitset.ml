type t = { n : int; words : int array }

let bits_per_word = 63
(* We keep one bit of each OCaml int unused so the representation is
   identical on every platform dune targets here. *)

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (max 1 (words_for n)) 0 }

let check s i =
  if i < 0 || i >= s.n then
    invalid_arg (Printf.sprintf "Bitset: element %d outside universe %d" i s.n)

let add s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  if i < 0 || i >= s.n then false
  else
    let w = i / bits_per_word and b = i mod bits_per_word in
    s.words.(w) land (1 lsl b) <> 0

let singleton n i =
  let s = create n in
  add s i;
  s

let union_into ~src ~dst =
  if src.n <> dst.n then invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

(* SWAR over the 63-bit word: 2-, 4- and 8-bit partial counts, then one
   multiply sums the bytes into the top byte.  [lsr] reads the word as
   unsigned, so bit 62 (the sign bit) counts like any other; the first
   mask may leave bit 62 clear, since [x lsr 1] never has it set. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

let copy s = { n = s.n; words = Array.copy s.words }

let union a b =
  let r = copy a in
  union_into ~src:b ~dst:r;
  r

let inter a b =
  if a.n <> b.n then invalid_arg "Bitset.inter: capacity mismatch";
  let r = create a.n in
  for w = 0 to Array.length r.words - 1 do
    r.words.(w) <- a.words.(w) land b.words.(w)
  done;
  r

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_full s = cardinal s = s.n

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let equal a b = a.n = b.n && a.words = b.words

let subset a b =
  a.n = b.n
  && Array.for_all2 (fun wa wb -> wa land lnot wb = 0) a.words b.words

let elements s = List.filter (mem s) (List.init s.n Fun.id)

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s
