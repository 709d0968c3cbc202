(** Tests for the util library: intervals, PRNG, table rendering. *)

open Autocfd_util

let test_interval_basics () =
  let i = Interval.make 3 7 in
  Alcotest.(check int) "lo" 3 (Interval.lo i);
  Alcotest.(check int) "hi" 7 (Interval.hi i);
  Alcotest.check_raises "invalid" (Invalid_argument "Interval.make: lo=5 > hi=4")
    (fun () -> ignore (Interval.make 5 4))

let test_interval_arith () =
  let a = Interval.make 2 5 and b = Interval.make (-3) 4 in
  let s = Interval.sum a b in
  Alcotest.(check int) "sum lo" (-1) (Interval.lo s);
  Alcotest.(check int) "sum hi" 9 (Interval.hi s);
  let p = Interval.affine ~mul:3 ~add:1 a in
  Alcotest.(check int) "affine lo" 7 (Interval.lo p);
  Alcotest.(check int) "affine hi" 16 (Interval.hi p);
  (* negative multiplier swaps the endpoints *)
  let n = Interval.affine ~mul:(-2) ~add:1 a in
  Alcotest.(check int) "neg affine lo" (-9) (Interval.lo n);
  Alcotest.(check int) "neg affine hi" (-3) (Interval.hi n);
  let z = Interval.affine ~mul:0 ~add:4 a in
  Alcotest.(check int) "zero mul lo" 4 (Interval.lo z);
  Alcotest.(check int) "zero mul hi" 4 (Interval.hi z)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  let xs = List.init 50 (fun _ -> Prng.int parent 1000) in
  let ys = List.init 50 (fun _ -> Prng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create 123 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let w = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "int_in range" true (w >= -5 && w <= 5);
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 99 in
  let a = Array.init 30 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (Array.to_list sorted = List.init 30 Fun.id)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains 333" true (contains_substring s "333");
  Alcotest.check_raises "width check"
    (Invalid_argument "Table.add_row: expected 2 cells, got 3") (fun () ->
      Table.add_row t [ "x"; "y"; "z" ])

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.14159);
  Alcotest.(check string) "pct" "56%" (Table.cell_pct 0.56)

let suite =
  [
    ("interval basics", `Quick, test_interval_basics);
    ("interval sum/affine", `Quick, test_interval_arith);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng split", `Quick, test_prng_split_independent);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng shuffle", `Quick, test_prng_shuffle_permutation);
    ("table render", `Quick, test_table_render);
    ("table cells", `Quick, test_table_cells);
  ]
