type t = {
  grid : int array;
  parts : int array;
  (* slab boundaries per dimension: bounds.(d) is an array of (lo, hi)
     inclusive 1-based ranges, one per slab *)
  bounds : (int * int) array array;
}

type direction = Plus | Minus

(* Split [1, n] into k slabs as equally as possible: the first (n mod k)
   slabs get one extra point, so every demarcation line is as close to
   equal as possible. *)
let split n k =
  let base = n / k and rem = n mod k in
  let out = Array.make k (0, 0) in
  let lo = ref 1 in
  for i = 0 to k - 1 do
    let size = base + if i < rem then 1 else 0 in
    out.(i) <- (!lo, !lo + size - 1);
    lo := !lo + size
  done;
  out

let create ~grid ~parts =
  if Array.length grid <> Array.length parts then
    invalid_arg
      (Printf.sprintf "Topology.create: %d part counts for a %d-d grid"
         (Array.length parts) (Array.length grid));
  Array.iteri
    (fun d k ->
      if k < 1 then invalid_arg "Topology.create: part count < 1";
      if grid.(d) < k then
        invalid_arg
          (Printf.sprintf
             "Topology.create: dimension %d has %d points but %d parts" d
             grid.(d) k))
    parts;
  { grid; parts; bounds = Array.map2 split grid parts }

let grid t = Array.copy t.grid
let parts t = Array.copy t.parts
let ndims t = Array.length t.grid
let nranks t = Array.fold_left ( * ) 1 t.parts

(* row-major: the last dimension varies fastest *)
let coords_of_rank t rank =
  let n = ndims t in
  let c = Array.make n 0 in
  let r = ref rank in
  for d = n - 1 downto 0 do
    c.(d) <- !r mod t.parts.(d);
    r := !r / t.parts.(d)
  done;
  c

let rank_of_coords t c =
  let acc = ref 0 in
  for d = 0 to ndims t - 1 do
    if c.(d) < 0 || c.(d) >= t.parts.(d) then
      invalid_arg "Topology.rank_of_coords: out of range";
    acc := (!acc * t.parts.(d)) + c.(d)
  done;
  !acc

let block_of_coords t c =
  let lo = Array.mapi (fun d i -> fst t.bounds.(d).(i)) c in
  let hi = Array.mapi (fun d i -> snd t.bounds.(d).(i)) c in
  Block.make ~lo ~hi

let block t rank = block_of_coords t (coords_of_rank t rank)

let owner t p =
  let c =
    Array.mapi
      (fun d x ->
        let slabs = t.bounds.(d) in
        let rec find i =
          if i >= Array.length slabs then
            invalid_arg "Topology.owner: point outside grid"
          else
            let lo, hi = slabs.(i) in
            if x >= lo && x <= hi then i else find (i + 1)
        in
        find 0)
      p
  in
  rank_of_coords t c

let neighbor t ~rank ~dim ~dir =
  let c = coords_of_rank t rank in
  let delta = match dir with Plus -> 1 | Minus -> -1 in
  let c' = Array.copy c in
  c'.(dim) <- c.(dim) + delta;
  if c'.(dim) < 0 || c'.(dim) >= t.parts.(dim) then None
  else Some (rank_of_coords t c')

let is_cut t d = t.parts.(d) > 1
let cut_dims t = List.filter (is_cut t) (List.init (ndims t) Fun.id)

let fold_ranks t f acc =
  let n = nranks t in
  let rec go acc r = if r >= n then acc else go (f acc r) (r + 1) in
  go acc 0

let max_block_points t =
  fold_ranks t (fun acc r -> max acc (Block.points (block t r))) 0

let comm_points_rank t ~depth rank =
  let b = block t rank in
  let c = coords_of_rank t rank in
  let acc = ref 0 in
  for d = 0 to ndims t - 1 do
    if is_cut t d then begin
      let faces =
        (if c.(d) > 0 then 1 else 0)
        + if c.(d) < t.parts.(d) - 1 then 1 else 0
      in
      acc := !acc + (faces * depth.(d) * Block.face_points b d)
    end
  done;
  !acc

let comm_points_per_rank t ~depth =
  fold_ranks t (fun acc r -> max acc (comm_points_rank t ~depth r)) 0

let factorizations p nd =
  let rec go p nd =
    if nd = 1 then [ [ p ] ]
    else
      let out = ref [] in
      for f = 1 to p do
        if p mod f = 0 then
          List.iter (fun rest -> out := (f :: rest) :: !out) (go (p / f) (nd - 1))
      done;
      List.rev !out
  in
  go p nd |> List.map Array.of_list |> List.sort compare

let search ~grid ~nprocs ~depth =
  let nd = Array.length grid in
  let candidates =
    List.filter
      (fun shape ->
        try
          ignore (create ~grid ~parts:shape);
          true
        with Invalid_argument _ -> false)
      (factorizations nprocs nd)
  in
  match candidates with
  | [] ->
      invalid_arg
        (Printf.sprintf "Topology.search: no feasible partition of %d ranks"
           nprocs)
  | first :: _ ->
      let score shape =
        let t = create ~grid ~parts:shape in
        (comm_points_per_rank t ~depth, max_block_points t)
      in
      List.fold_left
        (fun best shape -> if score shape < score best then shape else best)
        first candidates

let shape_to_string shape =
  String.concat " x " (Array.to_list (Array.map string_of_int shape))
