(** Tests for grid partitioning (paper §4.1): balanced demarcation lines,
    full disjoint coverage, neighbor relations, communication volume, and
    the automatic partition search. *)

open Autocfd_partition

let test_block_basics () =
  let b = Block.make ~lo:[| 1; 5 |] ~hi:[| 10; 9 |] in
  Alcotest.(check int) "ndims" 2 (Block.ndims b);
  Alcotest.(check int) "extent 0" 10 (Block.extent b 0);
  Alcotest.(check int) "extent 1" 5 (Block.extent b 1);
  Alcotest.(check int) "points" 50 (Block.points b);
  Alcotest.(check int) "face 0" 5 (Block.face_points b 0);
  Alcotest.(check int) "face 1" 10 (Block.face_points b 1);
  Alcotest.(check bool) "contains" true (Block.contains b [| 10; 9 |]);
  Alcotest.(check bool) "not contains" false (Block.contains b [| 11; 9 |])

let test_split_balance () =
  (* the paper: subgrids sized as equally as possible *)
  let t = Topology.create ~grid:[| 99; 41; 13 |] ~parts:[| 4; 2; 1 |] in
  Alcotest.(check int) "nranks" 8 (Topology.nranks t);
  let sizes = List.init 8 (fun r -> Block.points (Topology.block t r)) in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  (* 99 = 25+25+25+24; 41 = 21+20: imbalance bounded by one line *)
  Alcotest.(check bool) "balanced" true
    (float_of_int mx /. float_of_int mn < 1.1);
  Alcotest.(check int) "max = min_block via api" mx (Topology.max_block_points t)

let test_cover_disjoint () =
  let t = Topology.create ~grid:[| 10; 7 |] ~parts:[| 3; 2 |] in
  (* every point owned exactly once *)
  let counts = Hashtbl.create 70 in
  for r = 0 to Topology.nranks t - 1 do
    let b = Topology.block t r in
    for i = b.Block.lo.(0) to b.Block.hi.(0) do
      for j = b.Block.lo.(1) to b.Block.hi.(1) do
        let k = (i, j) in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
      done
    done
  done;
  Alcotest.(check int) "all points covered" 70 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c -> Alcotest.(check int) "owned once" 1 c)
    counts

let test_owner_matches_block () =
  let t = Topology.create ~grid:[| 9; 9 |] ~parts:[| 2; 3 |] in
  for i = 1 to 9 do
    for j = 1 to 9 do
      let r = Topology.owner t [| i; j |] in
      Alcotest.(check bool) "owner's block contains point" true
        (Block.contains (Topology.block t r) [| i; j |])
    done
  done

let test_rank_coords_roundtrip () =
  let t = Topology.create ~grid:[| 8; 8; 8 |] ~parts:[| 2; 2; 2 |] in
  for r = 0 to 7 do
    Alcotest.(check int) "roundtrip" r
      (Topology.rank_of_coords t (Topology.coords_of_rank t r))
  done

let test_neighbors () =
  let t = Topology.create ~grid:[| 12; 12 |] ~parts:[| 3; 2 |] in
  (* rank 0 = coords (0,0) *)
  Alcotest.(check bool) "no minus neighbor at edge" true
    (Topology.neighbor t ~rank:0 ~dim:0 ~dir:Topology.Minus = None);
  (match Topology.neighbor t ~rank:0 ~dim:0 ~dir:Topology.Plus with
  | Some r -> Alcotest.(check int) "plus neighbor" 2 r
  | None -> Alcotest.fail "expected a neighbor");
  (* symmetry: if b is a's +d neighbor then a is b's -d neighbor *)
  for r = 0 to Topology.nranks t - 1 do
    for d = 0 to 1 do
      match Topology.neighbor t ~rank:r ~dim:d ~dir:Topology.Plus with
      | Some n ->
          Alcotest.(check (option int)) "symmetric" (Some r)
            (Topology.neighbor t ~rank:n ~dim:d ~dir:Topology.Minus)
      | None -> ()
    done
  done

let test_is_cut () =
  let t = Topology.create ~grid:[| 10; 10; 10 |] ~parts:[| 4; 1; 2 |] in
  Alcotest.(check bool) "dim 0 cut" true (Topology.is_cut t 0);
  Alcotest.(check bool) "dim 1 uncut" false (Topology.is_cut t 1);
  Alcotest.(check (list int)) "cut dims" [ 0; 2 ] (Topology.cut_dims t)

let test_comm_points () =
  (* paper §6.2: on 2 procs cutting the 99-dim, each processor
     communicates one demarcation plane = 41*13 points *)
  let t2 = Topology.create ~grid:[| 99; 41; 13 |] ~parts:[| 2; 1; 1 |] in
  Alcotest.(check int) "2 procs: one face" (41 * 13)
    (Topology.comm_points_per_rank t2 ~depth:[| 1; 1; 1 |]);
  (* on 4x1x1 an interior processor has two faces *)
  let t4 = Topology.create ~grid:[| 99; 41; 13 |] ~parts:[| 4; 1; 1 |] in
  Alcotest.(check int) "4 procs: two faces" (2 * 41 * 13)
    (Topology.comm_points_per_rank t4 ~depth:[| 1; 1; 1 |]);
  (* the paper's 2x2x1 example: 45x13 + 21x13 per processor *)
  let t22 = Topology.create ~grid:[| 99; 41; 13 |] ~parts:[| 2; 2; 1 |] in
  let per_rank = Topology.comm_points_per_rank t22 ~depth:[| 1; 1; 1 |] in
  Alcotest.(check bool) "2x2x1 worst-case close to paper's 1.6x figure" true
    (per_rank >= (21 * 13) + (40 * 13) && per_rank <= (21 * 13) + (50 * 13))

let test_factorizations () =
  Alcotest.(check int) "4 into 2" 3 (List.length (Topology.factorizations 4 2));
  Alcotest.(check bool) "contains 2x2" true
    (List.mem [| 2; 2 |] (Topology.factorizations 4 2));
  Alcotest.(check int) "6 into 3" 9 (List.length (Topology.factorizations 6 3));
  List.iter
    (fun f -> Alcotest.(check int) "product" 6 (Array.fold_left ( * ) 1 f))
    (Topology.factorizations 6 3)

let test_search_prefers_long_dimension () =
  (* cutting the longest dimension minimizes the demarcation plane *)
  let best = Topology.search ~grid:[| 99; 41; 13 |] ~nprocs:2 ~depth:[| 1; 1; 1 |] in
  Alcotest.(check bool) "cuts dim 0" true (best = [| 2; 1; 1 |]);
  let best4 = Topology.search ~grid:[| 300; 100 |] ~nprocs:4 ~depth:[| 1; 1 |] in
  (* 4x1 communicates two 100-point planes, 2x2 communicates 150+50: both
     are minimal at 200 points/rank; 1x4 (two 300-point planes) must lose *)
  Alcotest.(check bool) "sprayer 4 procs" true
    (best4 = [| 4; 1 |] || best4 = [| 2; 2 |]);
  let t14 = Topology.create ~grid:[| 300; 100 |] ~parts:[| 1; 4 |] in
  let tbest = Topology.create ~grid:[| 300; 100 |] ~parts:best4 in
  Alcotest.(check bool) "beats 1x4" true
    (Topology.comm_points_per_rank tbest ~depth:[| 1; 1 |]
    < Topology.comm_points_per_rank t14 ~depth:[| 1; 1 |])

let test_invalid_partitions () =
  Alcotest.(check bool) "too many parts rejected" true
    (match Topology.create ~grid:[| 4 |] ~parts:[| 5 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "zero parts rejected" true
    (match Topology.create ~grid:[| 4 |] ~parts:[| 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* qcheck: random topologies keep the cover/disjoint/balance invariants *)
let gen_topo =
  QCheck.Gen.(
    let* nd = int_range 1 3 in
    let* grid = array_repeat nd (int_range 4 30) in
    let* parts =
      array_repeat nd (int_range 1 4) >>= fun p ->
      return (Array.mapi (fun i x -> min x grid.(i)) p)
    in
    return (grid, parts))

let arb_topo =
  QCheck.make
    ~print:(fun (g, p) ->
      Printf.sprintf "grid=[%s] parts=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int g)))
        (String.concat ";" (Array.to_list (Array.map string_of_int p))))
    gen_topo

let prop_blocks_cover =
  QCheck.Test.make ~count:200 ~name:"blocks cover the grid exactly once"
    arb_topo (fun (grid, parts) ->
      let t = Topology.create ~grid ~parts in
      let total =
        List.fold_left
          (fun acc r -> acc + Block.points (Topology.block t r))
          0
          (List.init (Topology.nranks t) Fun.id)
      in
      total = Array.fold_left ( * ) 1 grid)

let prop_balance =
  QCheck.Test.make ~count:200 ~name:"per-dimension imbalance is at most one line"
    arb_topo (fun (grid, parts) ->
      let t = Topology.create ~grid ~parts in
      List.for_all
        (fun r ->
          let b = Topology.block t r in
          Array.for_all Fun.id
            (Array.init (Array.length grid) (fun d ->
                 let e = Block.extent b d in
                 let q = grid.(d) / parts.(d) in
                 e = q || e = q + 1)))
        (List.init (Topology.nranks t) Fun.id))

let prop_owner_total =
  QCheck.Test.make ~count:100 ~name:"owner is defined for every grid point"
    arb_topo (fun (grid, parts) ->
      let t = Topology.create ~grid ~parts in
      let ok = ref true in
      let rec go idx d =
        if d = Array.length grid then begin
          let r = Topology.owner t idx in
          if not (Block.contains (Topology.block t r) idx) then ok := false
        end
        else
          for x = 1 to grid.(d) do
            idx.(d) <- x;
            go idx (d + 1)
          done
      in
      go (Array.make (Array.length grid) 1) 0;
      !ok)


let test_block_of_coords_matches_rank () =
  let t = Topology.create ~grid:[| 9; 6 |] ~parts:[| 3; 2 |] in
  for r = 0 to Topology.nranks t - 1 do
    let c = Topology.coords_of_rank t r in
    Alcotest.(check bool) "same block" true
      (Block.equal (Topology.block t r) (Topology.block_of_coords t c))
  done


let suite =
  [
    ("block basics", `Quick, test_block_basics);
    ("split balance", `Quick, test_split_balance);
    ("cover disjoint", `Quick, test_cover_disjoint);
    ("owner matches block", `Quick, test_owner_matches_block);
    ("rank/coords roundtrip", `Quick, test_rank_coords_roundtrip);
    ("neighbors", `Quick, test_neighbors);
    ("is_cut", `Quick, test_is_cut);
    ("comm points", `Quick, test_comm_points);
    ("block of coords", `Quick, test_block_of_coords_matches_rank);
    ("factorizations", `Quick, test_factorizations);
    ("search prefers long dimension", `Quick, test_search_prefers_long_dimension);
    ("invalid partitions", `Quick, test_invalid_partitions);
    QCheck_alcotest.to_alcotest prop_blocks_cover;
    QCheck_alcotest.to_alcotest prop_balance;
    QCheck_alcotest.to_alcotest prop_owner_total;
  ]
