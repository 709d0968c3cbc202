type scalar = Int of int | Real of float | Bool of bool | Str of string

type arr = {
  bounds : (int * int) array;
  strides : int array;
  base : int;
  total : int;
  data : float array;
}

let elements bounds =
  let size = ref 1 in
  Array.iteri
    (fun d (lo, hi) ->
      if hi < lo then
        invalid_arg
          (Printf.sprintf "Value.make_array: empty dimension %d (%d:%d)" d lo
             hi);
      size := !size * (hi - lo + 1))
    bounds;
  !size

let make_array bounds =
  let total = elements bounds in
  let n = Array.length bounds in
  let strides = Array.make n 1 in
  for d = 1 to n - 1 do
    let lo, hi = bounds.(d - 1) in
    strides.(d) <- strides.(d - 1) * (hi - lo + 1)
  done;
  let base = ref 0 in
  for d = 0 to n - 1 do
    base := !base + (fst bounds.(d) * strides.(d))
  done;
  { bounds; strides; base = !base; total; data = Array.make total 0.0 }

let rank a = Array.length a.bounds
let size a = a.total

let linear_index a idx =
  if Array.length idx <> rank a then
    invalid_arg
      (Printf.sprintf "Value.linear_index: %d subscripts for rank %d"
         (Array.length idx) (rank a));
  (* fused offset: sum(i_d * stride_d) - precomputed base, one bounds
     check per dimension (messages must stay stable — tests rely on them) *)
  let li = ref 0 in
  for d = 0 to rank a - 1 do
    let lo, hi = a.bounds.(d) in
    let i = idx.(d) in
    if i < lo || i > hi then
      invalid_arg
        (Printf.sprintf
           "Value.linear_index: subscript %d out of bounds %d:%d in dim %d" i
           lo hi d);
    li := !li + (i * a.strides.(d))
  done;
  !li - a.base

let get a idx = a.data.(linear_index a idx)
let set a idx v = a.data.(linear_index a idx) <- v
let fill a v = Array.fill a.data 0 (Array.length a.data) v

let to_float = function
  | Int i -> float_of_int i
  | Real f -> f
  | Bool b -> if b then 1.0 else 0.0
  | Str _ -> invalid_arg "Value.to_float: string value"

let to_int = function
  | Int i -> i
  | Real f -> truncate f
  | Bool b -> if b then 1 else 0
  | Str _ -> invalid_arg "Value.to_int: string value"

let to_bool = function
  | Bool b -> b
  | Int i -> i <> 0
  | Real f -> f <> 0.0
  | Str _ -> invalid_arg "Value.to_bool: string value"

let pp_scalar ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Real f -> Format.fprintf ppf "%.6g" f
  | Bool b -> Format.pp_print_string ppf (if b then "T" else "F")
  | Str s -> Format.pp_print_string ppf s

let shape_string a =
  "("
  ^ String.concat ","
      (Array.to_list
         (Array.map (fun (lo, hi) -> Printf.sprintf "%d:%d" lo hi) a.bounds))
  ^ ")"

let same_shape a b =
  rank a = rank b
  && begin
       let ok = ref true in
       Array.iteri
         (fun d (lo, hi) ->
           let lo', hi' = b.bounds.(d) in
           if lo <> lo' || hi <> hi' then ok := false)
         a.bounds;
       !ok
     end

let max_abs_diff a b =
  if not (same_shape a b) then
    invalid_arg
      (Printf.sprintf "Value.max_abs_diff: shape mismatch: %s vs %s"
         (shape_string a) (shape_string b));
  let m = ref 0.0 in
  Array.iteri
    (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i))))
    a.data;
  !m
