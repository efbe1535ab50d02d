(* Unit and property tests for Gossip_util (PRNG, numeric solvers,
   table rendering) and for the Section 3 reference's bitsets
   (bitset.ml). *)

open Gossip_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bitset --- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check "empty" true (Bitset.is_empty s);
  check_int "cardinal 0" 0 (Bitset.cardinal s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check_int "cardinal 4" 4 (Bitset.cardinal s);
  check "mem 63" true (Bitset.mem s 63);
  check "mem 64" true (Bitset.mem s 64);
  check "not mem 65" false (Bitset.mem s 65);
  check "not mem out of range" false (Bitset.mem s 1000);
  Bitset.remove s 63;
  check "removed" false (Bitset.mem s 63);
  check_int "cardinal 3" 3 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: element 10 outside universe 10") (fun () ->
      Bitset.add s 10);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bitset.create: negative capacity") (fun () ->
      ignore (Bitset.create (-1)))

let test_bitset_union () =
  let a = Bitset.of_list 50 [ 1; 2; 3 ] in
  let b = Bitset.of_list 50 [ 3; 4; 48 ] in
  let u = Bitset.union a b in
  check_int "union cardinal" 5 (Bitset.cardinal u);
  Alcotest.(check (list int)) "union elements" [ 1; 2; 3; 4; 48 ]
    (Bitset.elements u);
  let i = Bitset.inter a b in
  Alcotest.(check (list int)) "inter elements" [ 3 ] (Bitset.elements i);
  Bitset.union_into ~src:b ~dst:a;
  check "in place union" true (Bitset.equal a u)

let test_bitset_full () =
  let s = Bitset.create 65 in
  for i = 0 to 64 do
    Bitset.add s i
  done;
  check "full" true (Bitset.is_full s);
  Bitset.remove s 64;
  check "not full" false (Bitset.is_full s)

let test_bitset_subset () =
  let a = Bitset.of_list 20 [ 1; 5 ] in
  let b = Bitset.of_list 20 [ 1; 5; 9 ] in
  check "subset" true (Bitset.subset a b);
  check "not superset" false (Bitset.subset b a);
  check "copy independent" true
    (let c = Bitset.copy a in
     Bitset.add c 2;
     not (Bitset.mem a 2))

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" ~count:200
    QCheck.(small_list (int_bound 63))
    (fun xs ->
      let s = Bitset.of_list 64 xs in
      Bitset.elements s = List.sort_uniq compare xs)

let prop_bitset_union_card =
  QCheck.Test.make ~name:"bitset |A∪B| + |A∩B| = |A| + |B|" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b)
      = Bitset.cardinal a + Bitset.cardinal b)

(* The bit-by-bit count the constant-time [Bitset.popcount] replaced:
   one iteration per set bit. *)
let popcount_reference x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

(* Knowledge words use all 63 bits, bit 62 (the sign bit) included, so
   the corners are the negative words and every single bit; the random
   words are uniform over all ints, negative ones included. *)
let prop_popcount_matches_bit_loop =
  let corners = 0 :: -1 :: max_int :: min_int :: List.init 63 (fun b -> 1 lsl b) in
  QCheck.Test.make ~name:"bitset popcount = bit loop, every bit"
    ~count:2000
    (QCheck.make ~print:string_of_int
       (QCheck.Gen.graft_corners QCheck.Gen.int corners ()))
    (fun x -> Bitset.popcount x = popcount_reference x)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  check "same seed same stream" true (xs = ys);
  let c = Prng.create 43 in
  let zs = List.init 100 (fun _ -> Prng.int c 1000) in
  check "different seed different stream" false (xs = zs)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  let ok = ref true in
  for _ = 1 to 1000 do
    let x = Prng.int rng 17 in
    if x < 0 || x >= 17 then ok := false;
    let f = Prng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then ok := false
  done;
  check "int and float in range" true !ok;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_shuffle_permutes () =
  let rng = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check "shuffle is a permutation" true (sorted = Array.init 50 Fun.id);
  check "shuffle moved something" true (a <> Array.init 50 Fun.id)

let test_prng_copy_split () =
  let a = Prng.create 1 in
  let b = Prng.copy a in
  check "copy continues identically" true
    (List.init 10 (fun _ -> Prng.int a 100)
    = List.init 10 (fun _ -> Prng.int b 100));
  let c = Prng.split a in
  check "split diverges" false
    (List.init 10 (fun _ -> Prng.int a 100)
    = List.init 10 (fun _ -> Prng.int c 100))

(* --- Numeric --- *)

let test_bisect () =
  let r = Numeric.bisect ~lo:0.0 ~hi:2.0 (fun x -> (x *. x) -. 2.0) in
  check "sqrt 2 by bisection" true
    (Float.abs (r.Numeric.root -. sqrt 2.0) < 1e-9);
  check "bisection converged" true r.Numeric.converged;
  check "bracket holds the root" true
    (r.Numeric.lo <= sqrt 2.0 && sqrt 2.0 <= r.Numeric.hi)

let test_brent () =
  let r = Numeric.brent ~lo:0.0 ~hi:2.0 (fun x -> (x *. x *. x) +. x -. 1.0) in
  check "brent root of x^3+x-1" true
    (Float.abs (r.Numeric.root -. 0.6823278038) < 1e-9);
  check "brent converged" true r.Numeric.converged;
  (* endpoints that are already roots *)
  let z = Numeric.brent ~lo:0.0 ~hi:1.0 (fun x -> x) in
  check "root at endpoint" true (z.Numeric.root = 0.0)

let test_brent_invalid_bracket () =
  Alcotest.check_raises "non-bracketing"
    (Invalid_argument
       "Numeric.brent: f(1)=1 and f(2)=4 do not bracket a root") (fun () ->
      ignore (Numeric.brent ~lo:1.0 ~hi:2.0 (fun x -> x *. x)))

let test_golden_max () =
  let x, v = Numeric.golden_max ~lo:0.0 ~hi:4.0 (fun x -> -.((x -. 1.3) ** 2.0)) in
  check "golden argmax" true (Float.abs (x -. 1.3) < 1e-6);
  check "golden max value" true (Float.abs v < 1e-10)

let test_grid_max_multimodal () =
  (* two humps; grid must find the global one near x = 3 (the overlap of
     the smaller hump shifts the true maximum slightly left of 3) *)
  let f x = exp (-.((x -. 3.0) ** 2.0)) +. (0.5 *. exp (-.((x -. 0.5) ** 2.0))) in
  let x, v = Numeric.grid_max ~lo:0.0 ~hi:4.0 f in
  check "grid_max finds global hump" true (Float.abs (x -. 3.0) < 1e-2);
  check "grid_max value at least f(3)" true (v >= f 3.0)

let test_log2_phi () =
  check "log2 8 = 3" true (Numeric.approx_equal (Numeric.log2 8.0) 3.0);
  check "phi satisfies phi^2 = phi + 1" true
    (Numeric.approx_equal (Numeric.phi ** 2.0) (Numeric.phi +. 1.0))

let prop_brent_vs_bisect =
  QCheck.Test.make ~name:"brent agrees with bisect on monotone cubics"
    ~count:100
    QCheck.(float_range 0.1 5.0)
    (fun a ->
      let f x = (x *. x *. x) +. (a *. x) -. 1.0 in
      let r1 = Numeric.brent ~lo:0.0 ~hi:1.0 f in
      let r2 = Numeric.bisect ~lo:0.0 ~hi:1.0 f in
      Float.abs (r1.Numeric.root -. r2.Numeric.root) < 1e-8)

(* --- Parallel --- *)

let test_parallel_map_matches_sequential () =
  let arr = Array.init 1000 (fun i -> i) in
  let f x = (x * x) + 1 in
  check "parallel map = sequential map" true
    (Parallel.map ~domains:4 f arr = Array.map f arr);
  check "parallel map 1 domain" true
    (Parallel.map ~domains:1 f arr = Array.map f arr);
  check "empty array" true (Parallel.map ~domains:4 f [||] = [||])

let test_parallel_init () =
  check "init matches" true
    (Parallel.init ~domains:3 257 (fun i -> i * 2) = Array.init 257 (fun i -> i * 2));
  check "init 0" true (Parallel.init ~domains:3 0 (fun i -> i) = [||])

let test_parallel_max_float () =
  let arr = Array.init 100 float_of_int in
  check "max" true
    (Parallel.max_float ~domains:4 (fun x -> -.((x -. 42.0) ** 2.0)) arr = 0.0);
  check "empty is neg_infinity" true
    (Parallel.max_float ~domains:2 Fun.id [||] = neg_infinity);
  check "recommended >= 1" true (Parallel.recommended_domains () >= 1)

let test_parallel_reduce () =
  (* max and exact integer sums are associative+commutative, so the
     reduction must agree with the sequential fold at every worker
     count. *)
  List.iter
    (fun n ->
      let f i = (i * 13) mod 257 in
      let sum_ref = ref 0 in
      for i = 0 to n - 1 do
        sum_ref := !sum_ref + f i
      done;
      let max_ref = ref min_int in
      for i = 0 to n - 1 do
        max_ref := max !max_ref (f i)
      done;
      List.iter
        (fun domains ->
          check (Printf.sprintf "reduce sum n=%d domains=%d" n domains) true
            (Parallel.reduce ~domains n f ( + ) 0 = !sum_ref);
          if n > 0 then
            check (Printf.sprintf "reduce max n=%d domains=%d" n domains) true
              (Parallel.reduce ~domains n f max min_int = !max_ref))
        [ 1; 2; 4; 7 ])
    [ 0; 1; 3; 100; 513 ];
  check "reduce empty returns init" true
    (Parallel.reduce ~domains:4 0 (fun _ -> assert false) ( + ) 42 = 42)

let prop_parallel_deterministic =
  QCheck.Test.make ~name:"parallel map deterministic across domain counts"
    ~count:30
    QCheck.(pair (small_list int) (int_range 1 6))
    (fun (xs, domains) ->
      let arr = Array.of_list xs in
      Parallel.map ~domains (fun x -> x + 1) arr
      = Array.map (fun x -> x + 1) arr)

let test_parallel_domains_sweep () =
  (* map/init/max_float must agree with the sequential result at every
     worker count, including the degenerate empty and singleton inputs. *)
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> (i * 37) mod 101) in
      let f x = (x * x) - (3 * x) in
      let g x = float_of_int x /. 7.0 in
      let map_ref = Array.map f arr in
      let init_ref = Array.init n (fun i -> i * i) in
      let max_ref =
        Array.fold_left (fun acc x -> Float.max acc (g x)) neg_infinity arr
      in
      List.iter
        (fun domains ->
          check (Printf.sprintf "map n=%d domains=%d" n domains) true
            (Parallel.map ~domains f arr = map_ref);
          check (Printf.sprintf "init n=%d domains=%d" n domains) true
            (Parallel.init ~domains n (fun i -> i * i) = init_ref);
          check (Printf.sprintf "max n=%d domains=%d" n domains) true
            (Parallel.max_float ~domains g arr = max_ref))
        [ 1; 2; 4 ])
    [ 0; 1; 513 ]

let test_parallel_default_override () =
  let before = Parallel.default_domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_default_domains before)
    (fun () ->
      Parallel.set_default_domains (Some 2);
      check "override stored" true (Parallel.default_domains () = Some 2);
      check "override wins" true (Parallel.recommended_domains () = 2);
      Alcotest.check_raises "zero rejected"
        (Invalid_argument "Parallel.set_default_domains: d < 1") (fun () ->
          Parallel.set_default_domains (Some 0));
      Parallel.set_default_domains None;
      check "cleared" true (Parallel.default_domains () = None);
      check "recommended >= 1" true (Parallel.recommended_domains () >= 1))

(* --- Table --- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.make ~title:"demo" [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.00" ];
  Table.add_row t [ "beta"; "2.50" ];
  Table.add_sep t;
  let s = Table.render t in
  check "has title" true (contains ~sub:"== demo ==" s);
  check "contains alpha row" true (contains ~sub:"alpha" s);
  check "right-aligns numbers" true (contains ~sub:" 1.00 |" s);
  let lines = String.split_on_char '\n' s in
  check "enough lines" true (List.length lines >= 7)

let test_table_cells () =
  Alcotest.(check string) "float cell" "3.1416" (Table.cell_f 3.14159265);
  Alcotest.(check string) "float cell decimals" "3.14" (Table.cell_f ~decimals:2 3.14159);
  Alcotest.(check string) "int cell" "42" (Table.cell_i 42)

let test_table_errors () =
  let t = Table.make ~title:"" [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "1"; "2" ])

(* --- Instrument --- *)

let test_instrument_records () =
  let was = Instrument.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Instrument.reset ();
      Instrument.set_enabled was)
    (fun () ->
      Instrument.set_enabled true;
      Instrument.reset ();
      check_int "span returns value" 42
        (Instrument.span "test.span" (fun () -> 41 + 1));
      ignore (Instrument.span "test.span" (fun () -> 0));
      Instrument.add "test.counter" 3;
      Instrument.add "test.counter" 2;
      check "span accumulated" true
        (List.exists
           (fun s ->
             s.Instrument.span_name = "test.span"
             && s.Instrument.calls = 2
             && s.Instrument.total_s >= 0.0
             && s.Instrument.max_s <= s.Instrument.total_s +. 1e-9)
           (Instrument.spans ()));
      check_int "counter accumulated" 5
        (List.assoc "test.counter" (Instrument.counters ()));
      check "summary names the span" true
        (contains ~sub:"test.span" (Instrument.summary_string ()));
      Instrument.reset ();
      check "reset clears" true
        (Instrument.spans () = [] && Instrument.counters () = []))

let test_instrument_disabled_is_silent () =
  let was = Instrument.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Instrument.reset ();
      Instrument.set_enabled was)
    (fun () ->
      Instrument.set_enabled false;
      Instrument.reset ();
      check_int "span still runs" 7 (Instrument.span "off.span" (fun () -> 7));
      check "no span timing recorded" true (Instrument.spans () = []);
      check "placeholder summary" true
        (contains ~sub:"nothing recorded" (Instrument.summary_string ()));
      (* The metrics registry is NOT gated on tracing: a counter bump
         always lands, so cache accounting is never silently dropped. *)
      Instrument.add "off.counter" 1;
      check_int "counter recorded while disabled" 1
        (List.assoc "off.counter" (Instrument.counters ())))

let test_instrument_span_exception () =
  let was = Instrument.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Instrument.reset ();
      Instrument.set_enabled was)
    (fun () ->
      Instrument.set_enabled true;
      Instrument.reset ();
      Alcotest.check_raises "exception propagates" Exit (fun () ->
          Instrument.span "raising.span" (fun () -> raise Exit));
      check "time until the raise is recorded" true
        (List.exists
           (fun s -> s.Instrument.span_name = "raising.span")
           (Instrument.spans ())))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("bitset basic", `Quick, test_bitset_basic);
    ("bitset bounds", `Quick, test_bitset_bounds);
    ("bitset union/inter", `Quick, test_bitset_union);
    ("bitset full detection", `Quick, test_bitset_full);
    ("bitset subset/copy", `Quick, test_bitset_subset);
    ("prng determinism", `Quick, test_prng_deterministic);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng shuffle", `Quick, test_prng_shuffle_permutes);
    ("prng copy/split", `Quick, test_prng_copy_split);
    ("numeric bisect", `Quick, test_bisect);
    ("numeric brent", `Quick, test_brent);
    ("numeric brent invalid bracket", `Quick, test_brent_invalid_bracket);
    ("numeric golden max", `Quick, test_golden_max);
    ("numeric grid max multimodal", `Quick, test_grid_max_multimodal);
    ("numeric log2/phi", `Quick, test_log2_phi);
    ("parallel map", `Quick, test_parallel_map_matches_sequential);
    ("parallel init", `Quick, test_parallel_init);
    ("parallel max_float", `Quick, test_parallel_max_float);
    ("parallel reduce", `Quick, test_parallel_reduce);
    ("parallel domain sweep", `Quick, test_parallel_domains_sweep);
    ("parallel default override", `Quick, test_parallel_default_override);
    ("instrument records", `Quick, test_instrument_records);
    ("instrument disabled", `Quick, test_instrument_disabled_is_silent);
    ("instrument span exception", `Quick, test_instrument_span_exception);
    ("table render", `Quick, test_table_render);
    ("table cells", `Quick, test_table_cells);
    ("table errors", `Quick, test_table_errors);
    q prop_bitset_roundtrip;
    q prop_bitset_union_card;
    q prop_brent_vs_bisect;
    q prop_parallel_deterministic;
    q prop_popcount_matches_bit_loop;
  ]
