open Autocfd_fortran

(* Same dynamic-error/stop exceptions as the tree-walking machine, so
   callers catch one exception set regardless of engine. *)
let error fmt = Format.kasprintf (fun m -> raise (Machine.Runtime_error m)) fmt

exception Jump of int

(* ------------------------------------------------------------------ *)
(* Compiled unit and runtime state                                     *)
(* ------------------------------------------------------------------ *)

type slot_kind = KInt | KReal | KBool | KDyn

(* Why a field-loop nest did or did not compile to a fused kernel.  A
   closed variant so coverage reports group fallback causes
   deterministically and tests can match constructors; [Other] only
   appears when parsing a reason string this build does not know. *)
type reason =
  | Fused
  | Scalar_subscript  (* subscript reads a scalar the body assigns *)
  | Non_affine_subscript
  | Bound_loop_var
  | Bound_written_scalar
  | Bound_not_integer
  | Rank_mismatch
  | Non_arith_value
  | Non_arith_scalar
  | Logical_in_body
  | Int_division
  | Int_mod
  | Dynamic_exponent
  | Local_bound_in_body
  | Intrinsic_arity of string
  | Unknown_intrinsic of string
  | Undeclared_array
  | Assign_to_loop_var
  | Scalar_assign
  | Bad_assign_target
  | Non_assign_stmt
  | Duplicate_loop_var
  | Loop_var_not_int
  | Loop_var_no_slot
  | Empty_body
  | If_in_body
  | Goto_in_body
  | Io_in_body
  | Comm_in_body
  | Control_in_body
  | Carried_scalar  (* a body-assigned scalar read before its assignment *)
  | Int_scalar_assign
  | No_row_order  (* no level or diagonal keeps the dependences *)
  | Other of string

(* the historical prose, kept verbatim so rendered coverage tables and
   serialized rows are stable across the string->variant change *)
let reason_to_string = function
  | Fused -> "fused"
  | Scalar_subscript -> "subscript depends on a scalar assigned in the loop"
  | Non_affine_subscript -> "non-affine subscript"
  | Bound_loop_var -> "loop bounds depend on a fused loop variable"
  | Bound_written_scalar ->
      "loop bounds depend on a scalar assigned in the loop"
  | Bound_not_integer -> "loop bounds not integer-pure"
  | Rank_mismatch -> "subscript rank mismatch"
  | Non_arith_value -> "non-arithmetic value in body"
  | Non_arith_scalar -> "non-arithmetic scalar in body"
  | Logical_in_body -> "logical expression in body"
  | Int_division -> "integer division in body"
  | Int_mod -> "integer mod in body"
  | Dynamic_exponent -> "dynamic integer exponent in body"
  | Local_bound_in_body -> "local-bound expression in body"
  | Intrinsic_arity name -> "intrinsic " ^ name ^ " arity"
  | Unknown_intrinsic name -> "unsupported intrinsic " ^ name
  | Undeclared_array -> "assignment to an undeclared array"
  | Assign_to_loop_var -> "assignment to a loop variable in body"
  | Scalar_assign -> "scalar assignment in body"
  | Bad_assign_target -> "unsupported assignment target"
  | Non_assign_stmt -> "non-assignment statement in body"
  | Duplicate_loop_var -> "duplicate loop variable in nest"
  | Loop_var_not_int -> "loop variable not integer"
  | Loop_var_no_slot -> "loop variable has no slot"
  | Empty_body -> "empty loop body"
  | If_in_body -> "IF in loop body"
  | Goto_in_body -> "GOTO in loop body"
  | Io_in_body -> "I/O in loop body"
  | Comm_in_body -> "communication in loop body"
  | Control_in_body -> "control flow in loop body"
  | Carried_scalar -> "scalar read before its assignment in body"
  | Int_scalar_assign -> "integer scalar assignment in body"
  | No_row_order -> "no row level or diagonal keeps the dependences"
  | Other s -> s

let reason_of_string s =
  let fixed =
    [
      Fused; Scalar_subscript; Non_affine_subscript; Bound_loop_var;
      Bound_written_scalar; Bound_not_integer; Rank_mismatch; Non_arith_value;
      Non_arith_scalar; Logical_in_body; Int_division; Int_mod;
      Dynamic_exponent; Local_bound_in_body; Undeclared_array;
      Assign_to_loop_var; Scalar_assign; Bad_assign_target; Non_assign_stmt;
      Duplicate_loop_var; Loop_var_not_int; Loop_var_no_slot; Empty_body;
      If_in_body; Goto_in_body; Io_in_body; Comm_in_body; Control_in_body;
      Carried_scalar; Int_scalar_assign; No_row_order;
    ]
  in
  match List.find_opt (fun r -> reason_to_string r = s) fixed with
  | Some r -> r
  | None ->
      let strip ~prefix ~suffix s =
        let lp = String.length prefix and ls = String.length suffix in
        let n = String.length s in
        if
          n > lp + ls
          && String.sub s 0 lp = prefix
          && String.sub s (n - ls) ls = suffix
        then Some (String.sub s lp (n - lp - ls))
        else None
      in
      (match strip ~prefix:"intrinsic " ~suffix:" arity" s with
      | Some name -> Intrinsic_arity name
      | None -> (
          match strip ~prefix:"unsupported intrinsic " ~suffix:"" s with
          | Some name -> Unknown_intrinsic name
          | None -> Other s))

(* Static fusibility of one field-loop nest (a DO whose nest writes at
   least one declared array element): either it compiled to a fused
   kernel, or the reason it stayed on the closure IR. *)
type coverage_entry = {
  cov_line : int;  (* source line of the nest's outermost DO *)
  cov_vars : string list;  (* loop variables, outermost first *)
  cov_fused : bool;
  cov_reason : reason;  (* [Fused], or why the nest fell back *)
  cov_frag : Ast.fission_tag option;
      (* provenance when the nest is a loop-fission fragment *)
}

(* how a fused nest runs: statement by statement over each row along one
   level (0 = outermost) or along the anti-diagonal of two levels into
   unboxed registers *)
type kernel_path = Row of int | Diag of int * int

type cu = {
  cu_unit : Ast.program_unit;
  sc_index : (string, int) Hashtbl.t;
  sc_names : string array;
  sc_kinds : slot_kind array;
  sc_types : Ast.dtype array;  (* assignment conversion target per slot *)
  sc_init : (int * Value.scalar) list;  (* PARAMETER + scalar DATA *)
  ar_index : (string, int) Hashtbl.t;
  ar_names : string array;  (* sorted *)
  ar_init : Machine.array_init array;  (* bounds + DATA, allocated per state *)
  mutable cu_body : state -> unit;
  mutable cu_cov : coverage_entry list;  (* field-loop nests, program order *)
  mutable cu_paths : kernel_path option list;  (* per cu_cov entry *)
}

and state = {
  cu : cu;
  sf : float array;  (* real slots *)
  si : int array;  (* integer slots *)
  sb : bool array;  (* logical slots *)
  sd : Value.scalar array;  (* dynamically-typed slots (rare) *)
  sset : bool array;
  arrs : Value.arr array;
  adata : float array array;  (* arrs.(i).data, one indirection less *)
  mutable flops : float;
  mutable input : float list;
  mutable out_rev : string list;
  hooks : state Machine.hooks;
  (* per-nest profile, indexed like cu_cov (one slot per coverage entry);
     self totals: an entry's own flops/bytes exclude inner profiled nests *)
  kcalls : int array;
  kflops : float array;
  kbytes : float array;
  mutable kmoved : float;  (* bytes touched by fused kernels, cumulative *)
  mutable kattr_flops : float;  (* flops already attributed to some nest *)
  mutable kattr_bytes : float;
  mutable rows : float array;  (* row-path registers, grown on demand *)
}

let default_read st n =
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    match st.input with
    | [] -> error "READ: input exhausted"
    | x :: rest ->
        out.(i) <- x;
        st.input <- rest
  done;
  out

let default_write st values =
  let line =
    String.concat " "
      (List.map (fun v -> Format.asprintf "%a" Value.pp_scalar v) values)
  in
  st.out_rev <- line :: st.out_rev

let sequential_hooks =
  Machine.sequential_hooks_with ~read:default_read ~write:default_write

(* Flop accounting: identical increments in identical program positions as
   Machine.charge, so flop totals (and hence simulated compute times) are
   bit-identical. *)
let ch st = st.flops <- st.flops +. 1.0

(* ------------------------------------------------------------------ *)
(* Typed closure IR                                                    *)
(* ------------------------------------------------------------------ *)

type cexp =
  | F of (state -> float)
  | I of (state -> int)
  | B of (state -> bool)
  | D of (state -> Value.scalar)  (* statically unknown: full dispatch *)

let as_float = function
  | F f -> f
  | I f -> fun st -> float_of_int (f st)
  | B f -> fun st -> if f st then 1.0 else 0.0
  | D f -> fun st -> Value.to_float (f st)

let as_int = function
  | I f -> f
  | F f -> fun st -> truncate (f st)  (* = Value.to_int of a Real *)
  | B f -> fun st -> if f st then 1 else 0
  | D f -> fun st -> Value.to_int (f st)

let as_bool = function
  | B f -> f
  | I f -> fun st -> f st <> 0
  | F f -> fun st -> f st <> 0.0
  | D f -> fun st -> Value.to_bool (f st)

let as_scalar = function
  | F f -> fun st -> Value.Real (f st)
  | I f -> fun st -> Value.Int (f st)
  | B f -> fun st -> Value.Bool (f st)
  | D f -> f

(* compile context: the cu minus the body *)
type ctx = {
  x_sc : (string, int) Hashtbl.t;
  x_kinds : slot_kind array;
  x_types : Ast.dtype array;
  x_ar : (string, int) Hashtbl.t;
  x_bounds : (int * int) array array;
  x_fuse : bool;  (* attempt the fused-kernel tier on DO nests *)
  x_record : bool;  (* record coverage entries (off inside fallbacks) *)
  x_cov : (coverage_entry * kernel_path option) list ref;
  x_consts : (string, Value.scalar) Hashtbl.t;
      (* PARAMETER constants never assigned in the body: foldable even
         when the mangled name's implicit type forced a dynamic slot *)
}

let unset_var x : 'a = error "variable '%s' used before being set" x

(* ------------------------------------------------------------------ *)
(* Array references: precomputed strides, fused offsets                *)
(* ------------------------------------------------------------------ *)

let strides_of bounds =
  let n = Array.length bounds in
  let strides = Array.make n 1 in
  let size = ref 1 in
  for d = 0 to n - 1 do
    let lo, hi = bounds.(d) in
    strides.(d) <- !size;
    size := !size * (hi - lo + 1)
  done;
  strides

let base_of bounds strides =
  let b = ref 0 in
  Array.iteri (fun d (lo, _) -> b := !b + (lo * strides.(d))) bounds;
  !b

let idx_str idx =
  String.concat "," (Array.to_list (Array.map string_of_int idx))

(* mirror Machine's wrapped Value.linear_index failure on a read *)
let fail_ref name bounds idx : 'a =
  let n = Array.length bounds in
  if Array.length idx <> n then
    error "%s(%s): Value.linear_index: %d subscripts for rank %d" name
      (idx_str idx) (Array.length idx) n
  else begin
    let msg = ref "" in
    (try
       Array.iteri
         (fun d i ->
           let lo, hi = bounds.(d) in
           if i < lo || i > hi then begin
             msg :=
               Printf.sprintf
                 "Value.linear_index: subscript %d out of bounds %d:%d in \
                  dim %d"
                 i lo hi d;
             raise Exit
           end)
         idx
     with Exit -> ());
    error "%s(%s): %s" name (idx_str idx) !msg
  end

(* mirror Machine.assign's wrapped failure on a write (no index list) *)
let fail_set name bounds idx : 'a =
  let n = Array.length bounds in
  if Array.length idx <> n then
    error "%s: Value.linear_index: %d subscripts for rank %d" name
      (Array.length idx) n
  else begin
    let msg = ref "" in
    (try
       Array.iteri
         (fun d i ->
           let lo, hi = bounds.(d) in
           if i < lo || i > hi then begin
             msg :=
               Printf.sprintf
                 "Value.linear_index: subscript %d out of bounds %d:%d in \
                  dim %d"
                 i lo hi d;
             raise Exit
           end)
         idx
     with Exit -> ());
    error "%s: %s" name !msg
  end

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let rec comp ctx (e : Ast.expr) : cexp =
  match e with
  | Ast.Const_int i -> I (fun _ -> i)
  | Ast.Const_real f -> F (fun _ -> f)
  | Ast.Const_bool b -> B (fun _ -> b)
  | Ast.Const_str s -> D (fun _ -> Value.Str s)
  | Ast.Var x -> comp_var ctx x
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.x_ar name then comp_ref ctx name args
      else comp_intrinsic ctx name args
  | Ast.Unop (Ast.Neg, a) -> (
      match comp ctx a with
      | I f -> I (fun st -> -f st)
      | F f ->
          F
            (fun st ->
              ch st;
              -.f st)
      | B f ->
          F
            (fun st ->
              ch st;
              if f st then -1.0 else -0.0)
      | D f ->
          D
            (fun st ->
              match f st with
              | Value.Int i -> Value.Int (-i)
              | v ->
                  ch st;
                  Value.Real (-.Value.to_float v)))
  | Ast.Unop (Ast.Lnot, a) ->
      let f = as_bool (comp ctx a) in
      B (fun st -> not (f st))
  | Ast.Binop (op, a, b) -> comp_binop ctx op a b
  | Ast.Local_lo (d, a) ->
      let f = as_int (comp ctx a) in
      I
        (fun st ->
          let v = f st in
          match st.hooks.Machine.h_block with
          | None -> v
          | Some g -> max v (fst (g d)))
  | Ast.Local_hi (d, a) ->
      let f = as_int (comp ctx a) in
      I
        (fun st ->
          let v = f st in
          match st.hooks.Machine.h_block with
          | None -> v
          | Some g -> min v (snd (g d)))

and comp_var ctx x =
  match Hashtbl.find_opt ctx.x_sc x with
  | None -> D (fun _ -> unset_var x)
  | Some i -> (
      match ctx.x_kinds.(i) with
      | KInt -> I (fun st -> if st.sset.(i) then st.si.(i) else unset_var x)
      | KReal -> F (fun st -> if st.sset.(i) then st.sf.(i) else unset_var x)
      | KBool -> B (fun st -> if st.sset.(i) then st.sb.(i) else unset_var x)
      | KDyn -> D (fun st -> if st.sset.(i) then st.sd.(i) else unset_var x))

and comp_ref ctx name args =
  let slot = Hashtbl.find ctx.x_ar name in
  let bounds = ctx.x_bounds.(slot) in
  let rank = Array.length bounds in
  let idxf = Array.of_list (List.map (fun a -> as_int (comp ctx a)) args) in
  if Array.length idxf <> rank then
    F
      (fun st ->
        let idx = Array.map (fun f -> f st) idxf in
        fail_ref name bounds idx)
  else begin
    let strides = strides_of bounds in
    let base = base_of bounds strides in
    match idxf with
    | [| f1 |] ->
        let lo1, hi1 = bounds.(0) in
        F
          (fun st ->
            let i1 = f1 st in
            if i1 < lo1 || i1 > hi1 then fail_ref name bounds [| i1 |]
            else st.adata.(slot).(i1 - lo1))
    | [| f1; f2 |] ->
        let lo1, hi1 = bounds.(0) and lo2, hi2 = bounds.(1) in
        let s2 = strides.(1) in
        F
          (fun st ->
            let i1 = f1 st in
            let i2 = f2 st in
            if i1 < lo1 || i1 > hi1 || i2 < lo2 || i2 > hi2 then
              fail_ref name bounds [| i1; i2 |]
            else st.adata.(slot).(i1 + (i2 * s2) - base))
    | [| f1; f2; f3 |] ->
        let lo1, hi1 = bounds.(0)
        and lo2, hi2 = bounds.(1)
        and lo3, hi3 = bounds.(2) in
        let s2 = strides.(1) and s3 = strides.(2) in
        F
          (fun st ->
            let i1 = f1 st in
            let i2 = f2 st in
            let i3 = f3 st in
            if
              i1 < lo1 || i1 > hi1 || i2 < lo2 || i2 > hi2 || i3 < lo3
              || i3 > hi3
            then fail_ref name bounds [| i1; i2; i3 |]
            else st.adata.(slot).(i1 + (i2 * s2) + (i3 * s3) - base))
    | _ ->
        F
          (fun st ->
            let idx = Array.map (fun f -> f st) idxf in
            let off = ref (-base) in
            Array.iteri
              (fun d i ->
                let lo, hi = bounds.(d) in
                if i < lo || i > hi then fail_ref name bounds idx;
                off := !off + (i * strides.(d)))
              idx;
            st.adata.(slot).(!off))
  end

(* the (state -> float -> unit) store side of an array element *)
and comp_ref_set ctx name args : state -> float -> unit =
  let slot = Hashtbl.find ctx.x_ar name in
  let bounds = ctx.x_bounds.(slot) in
  let rank = Array.length bounds in
  let idxf = Array.of_list (List.map (fun a -> as_int (comp ctx a)) args) in
  if Array.length idxf <> rank then fun st _ ->
    let idx = Array.map (fun f -> f st) idxf in
    fail_set name bounds idx
  else begin
    let strides = strides_of bounds in
    let base = base_of bounds strides in
    match idxf with
    | [| f1 |] ->
        let lo1, hi1 = bounds.(0) in
        fun st v ->
          let i1 = f1 st in
          if i1 < lo1 || i1 > hi1 then fail_set name bounds [| i1 |]
          else st.adata.(slot).(i1 - lo1) <- v
    | [| f1; f2 |] ->
        let lo1, hi1 = bounds.(0) and lo2, hi2 = bounds.(1) in
        let s2 = strides.(1) in
        fun st v ->
          let i1 = f1 st in
          let i2 = f2 st in
          if i1 < lo1 || i1 > hi1 || i2 < lo2 || i2 > hi2 then
            fail_set name bounds [| i1; i2 |]
          else st.adata.(slot).(i1 + (i2 * s2) - base) <- v
    | [| f1; f2; f3 |] ->
        let lo1, hi1 = bounds.(0)
        and lo2, hi2 = bounds.(1)
        and lo3, hi3 = bounds.(2) in
        let s2 = strides.(1) and s3 = strides.(2) in
        fun st v ->
          let i1 = f1 st in
          let i2 = f2 st in
          let i3 = f3 st in
          if
            i1 < lo1 || i1 > hi1 || i2 < lo2 || i2 > hi2 || i3 < lo3
            || i3 > hi3
          then fail_set name bounds [| i1; i2; i3 |]
          else st.adata.(slot).(i1 + (i2 * s2) + (i3 * s3) - base) <- v
    | _ ->
        fun st v ->
          let idx = Array.map (fun f -> f st) idxf in
          let off = ref (-base) in
          Array.iteri
            (fun d i ->
              let lo, hi = bounds.(d) in
              if i < lo || i > hi then fail_set name bounds idx;
              off := !off + (i * strides.(d)))
            idx;
          st.adata.(slot).(!off) <- v
  end

and comp_binop ctx op a b =
  let ca = comp ctx a and cb = comp ctx b in
  let open Ast in
  match op with
  | And ->
      let fa = as_bool ca and fb = as_bool cb in
      B (fun st -> fa st && fb st)
  | Or ->
      let fa = as_bool ca and fb = as_bool cb in
      B (fun st -> fa st || fb st)
  | Lt | Le | Gt | Ge | Eq | Ne -> (
      let fa = as_float ca and fb = as_float cb in
      let cmp g =
        B
          (fun st ->
            let x = fa st in
            let y = fb st in
            g x y)
      in
      match op with
      | Lt -> cmp (fun x y -> x < y)
      | Le -> cmp (fun x y -> x <= y)
      | Gt -> cmp (fun x y -> x > y)
      | Ge -> cmp (fun x y -> x >= y)
      | Eq -> cmp (fun x y -> x = y)
      | Ne -> cmp (fun x y -> x <> y)
      | _ -> assert false)
  | Add | Sub | Mul | Div | Pow -> (
      match (ca, cb) with
      | I fa, I fb -> (
          match op with
          | Add -> I (fun st -> fa st + fb st)
          | Sub -> I (fun st -> fa st - fb st)
          | Mul -> I (fun st -> fa st * fb st)
          | Div ->
              I
                (fun st ->
                  let x = fa st in
                  let y = fb st in
                  if y = 0 then error "integer division by zero" else x / y)
          | Pow -> (
              let ipow x y =
                let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
                pow 1 y
              in
              (* a non-negative constant exponent keeps the result integer *)
              match b with
              | Ast.Const_int y when y >= 0 ->
                  I (fun st -> ipow (fa st) y)
              | _ ->
                  D
                    (fun st ->
                      let x = fa st in
                      let y = fb st in
                      if y < 0 then
                        Value.Real
                          (Float.pow (float_of_int x) (float_of_int y))
                      else Value.Int (ipow x y)))
          | _ -> assert false)
      | (D _, _ | _, D _) ->
          (* a statically-unknown operand: replicate the machine's dynamic
             dispatch exactly (including its Int/Int no-charge rule) *)
          let fa = as_scalar ca and fb = as_scalar cb in
          D
            (fun st ->
              let va = fa st in
              let vb = fb st in
              match (va, vb) with
              | Value.Int x, Value.Int y -> (
                  match op with
                  | Add -> Value.Int (x + y)
                  | Sub -> Value.Int (x - y)
                  | Mul -> Value.Int (x * y)
                  | Div ->
                      if y = 0 then error "integer division by zero"
                      else Value.Int (x / y)
                  | Pow ->
                      if y < 0 then
                        Value.Real
                          (Float.pow (float_of_int x) (float_of_int y))
                      else
                        let rec pow acc n =
                          if n = 0 then acc else pow (acc * x) (n - 1)
                        in
                        Value.Int (pow 1 y)
                  | _ -> assert false)
              | va, vb -> (
                  ch st;
                  let x = Value.to_float va and y = Value.to_float vb in
                  match op with
                  | Add -> Value.Real (x +. y)
                  | Sub -> Value.Real (x -. y)
                  | Mul -> Value.Real (x *. y)
                  | Div -> Value.Real (x /. y)
                  | Pow -> Value.Real (Float.pow x y)
                  | _ -> assert false))
      | _ -> (
          (* at least one statically-real (or logical) operand: the float
             fast path, one flop charged like the machine's mixed case *)
          let fa = as_float ca and fb = as_float cb in
          let arith g =
            F
              (fun st ->
                let x = fa st in
                let y = fb st in
                ch st;
                g x y)
          in
          match op with
          | Add -> arith (fun x y -> x +. y)
          | Sub -> arith (fun x y -> x -. y)
          | Mul -> arith (fun x y -> x *. y)
          | Div -> arith (fun x y -> x /. y)
          | Pow -> arith Float.pow
          | _ -> assert false))

and comp_intrinsic ctx name args =
  let bad fmt = Printf.ksprintf (fun m -> F (fun _ -> error "%s" m)) fmt in
  let f1 g =
    match args with
    | [ a ] ->
        let f = as_float (comp ctx a) in
        F
          (fun st ->
            ch st;
            g (f st))
    | _ -> bad "intrinsic %s expects 1 argument" name
  in
  let fold2 g =
    match args with
    | a :: rest when rest <> [] ->
        let fa = as_float (comp ctx a) in
        let frest = List.map (fun e -> as_float (comp ctx e)) rest in
        F
          (fun st ->
            List.fold_left
              (fun acc f ->
                ch st;
                g acc (f st))
              (fa st) frest)
    | _ -> bad "intrinsic %s expects at least 2 arguments" name
  in
  match name with
  | "abs" -> (
      match args with
      | [ a ] -> (
          match comp ctx a with
          | I f -> I (fun st -> abs (f st))
          | F f ->
              F
                (fun st ->
                  ch st;
                  Float.abs (f st))
          | B f ->
              F
                (fun st ->
                  ch st;
                  if f st then 1.0 else 0.0)
          | D f ->
              D
                (fun st ->
                  match f st with
                  | Value.Int i -> Value.Int (abs i)
                  | v ->
                      ch st;
                      Value.Real (Float.abs (Value.to_float v))))
      | _ -> bad "abs expects 1 argument")
  | "sqrt" -> f1 Float.sqrt
  | "exp" -> f1 Float.exp
  | "log" -> f1 Float.log
  | "sin" -> f1 Float.sin
  | "cos" -> f1 Float.cos
  | "tan" -> f1 Float.tan
  | "atan" -> f1 Float.atan
  | "max" | "amax1" -> fold2 Float.max
  | "min" | "amin1" -> fold2 Float.min
  | "max0" -> (
      match args with
      | [ a; b ] ->
          let fa = as_int (comp ctx a) and fb = as_int (comp ctx b) in
          I (fun st -> max (fa st) (fb st))
      | _ -> bad "max0 expects 2 arguments")
  | "min0" -> (
      match args with
      | [ a; b ] ->
          let fa = as_int (comp ctx a) and fb = as_int (comp ctx b) in
          I (fun st -> min (fa st) (fb st))
      | _ -> bad "min0 expects 2 arguments")
  | "mod" -> (
      match args with
      | [ a; b ] -> (
          match (comp ctx a, comp ctx b) with
          | I fa, I fb ->
              I
                (fun st ->
                  let x = fa st in
                  let y = fb st in
                  if y = 0 then error "mod by zero" else x mod y)
          | (D _, _ | _, D _) as pair ->
              let fa = as_scalar (fst pair) and fb = as_scalar (snd pair) in
              D
                (fun st ->
                  match (fa st, fb st) with
                  | Value.Int x, Value.Int y ->
                      if y = 0 then error "mod by zero" else Value.Int (x mod y)
                  | va, vb ->
                      ch st;
                      Value.Real
                        (Float.rem (Value.to_float va) (Value.to_float vb)))
          | ca, cb ->
              let fa = as_float ca and fb = as_float cb in
              F
                (fun st ->
                  let x = fa st in
                  let y = fb st in
                  ch st;
                  Float.rem x y))
      | _ -> bad "mod expects 2 arguments")
  | "float" | "real" | "dble" -> (
      match args with
      | [ a ] -> F (as_float (comp ctx a))
      | _ -> bad "%s expects 1 argument" name)
  | "int" -> (
      match args with
      | [ a ] -> I (as_int (comp ctx a))
      | _ -> bad "int expects 1 argument")
  | "sign" -> (
      match args with
      | [ a; b ] ->
          let fa = as_float (comp ctx a) and fb = as_float (comp ctx b) in
          F
            (fun st ->
              ch st;
              let x = fa st in
              let y = fb st in
              if y >= 0.0 then Float.abs x else -.Float.abs x)
      | _ -> bad "sign expects 2 arguments")
  | _ ->
      bad "'%s' is neither a declared array nor a supported intrinsic" name

(* ------------------------------------------------------------------ *)
(* Scalar stores                                                       *)
(* ------------------------------------------------------------------ *)

(* store an already-int value (DO variables) into a slot, converting per
   the slot's assignment type like Machine.set_scalar on Value.Int *)
let int_store ctx i : state -> int -> unit =
  match ctx.x_kinds.(i) with
  | KInt ->
      fun st v ->
        st.si.(i) <- v;
        st.sset.(i) <- true
  | KReal ->
      fun st v ->
        st.sf.(i) <- float_of_int v;
        st.sset.(i) <- true
  | KBool ->
      fun st v ->
        st.sb.(i) <- v <> 0;
        st.sset.(i) <- true
  | KDyn -> (
      match ctx.x_types.(i) with
      | Ast.Integer ->
          fun st v ->
            st.sd.(i) <- Value.Int v;
            st.sset.(i) <- true
      | Ast.Real | Ast.Double ->
          fun st v ->
            st.sd.(i) <- Value.Real (float_of_int v);
            st.sset.(i) <- true
      | Ast.Logical ->
          fun st v ->
            st.sd.(i) <- Value.Bool (v <> 0);
            st.sset.(i) <- true)

(* store a float (READ values arrive as Value.Real) *)
let float_store ctx i : state -> float -> unit =
  match ctx.x_kinds.(i) with
  | KInt ->
      fun st v ->
        st.si.(i) <- truncate v;
        st.sset.(i) <- true
  | KReal ->
      fun st v ->
        st.sf.(i) <- v;
        st.sset.(i) <- true
  | KBool ->
      fun st v ->
        st.sb.(i) <- v <> 0.0;
        st.sset.(i) <- true
  | KDyn -> (
      match ctx.x_types.(i) with
      | Ast.Integer ->
          fun st v ->
            st.sd.(i) <- Value.Int (truncate v);
            st.sset.(i) <- true
      | Ast.Real | Ast.Double ->
          fun st v ->
            st.sd.(i) <- Value.Real v;
            st.sset.(i) <- true
      | Ast.Logical ->
          fun st v ->
            st.sd.(i) <- Value.Bool (v <> 0.0);
            st.sset.(i) <- true)

(* ------------------------------------------------------------------ *)
(* Fused-kernel tier                                                   *)
(* ------------------------------------------------------------------ *)

(* A DO nest whose peeled body is a straight-line sequence of assignments
   to declared array elements compiles to one specialized kernel instead
   of a closure tree: loop bounds are evaluated once at entry, every
   subscript is proven in-range for the whole trip space with
   Autocfd_util.Interval arithmetic, element access goes through
   Array.unsafe_get/set on the flat data with per-reference offset deltas,
   and the nest's flops are charged in a single batched update of
   [trips * flops-per-iteration] — bit-identical to the incremental
   charges because flop totals are integer-valued floats (exact below
   2^53).  Any precondition the analyzer or the runtime prover cannot
   discharge falls back to the closure IR, which reproduces the
   tree-walking machine's behavior (including error messages and partial
   updates) exactly. *)

exception Unfusable of reason

module Iv = Autocfd_util.Interval
module Fission = Autocfd_analysis.Fission

(* entry-invariant affine form of a subscript over the fused loop
   variables: [sum coeff_l * var_l + const + sum mul_s * slot_s], with
   per-level coefficients and (KInt slot, multiplier) symbols — the
   form the dependence test reads *)
type aff = int Fission.aff

type fenv = {
  e_ctx : ctx;
  e_m : int;  (* nest depth *)
  e_lvl : (string, int) Hashtbl.t;  (* fused loop var -> level *)
  e_reads : int list ref;  (* scalar slots read anywhere in the kernel *)
  e_refs : (int * aff array) list ref;  (* registered refs, reversed *)
  e_nrefs : int ref;
  e_flops : int ref;  (* float ops per innermost iteration *)
  e_wrb : (string, unit) Hashtbl.t;
      (* scalars assigned anywhere in the body: barred from bounds and
         subscripts (those are resolved once at nest entry) *)
  e_wrscal : (int, unit) Hashtbl.t;
      (* scalar slots assigned by an earlier body statement: reads of
         these observe the current iteration, never the entry value, so
         they are exempt from the entry sset precheck *)
}

let aff_zero env : aff =
  { Fission.coeffs = Array.make env.e_m 0; const = 0; syms = [] }

let aff_scale c a =
  {
    Fission.coeffs = Array.map (fun k -> c * k) a.Fission.coeffs;
    const = c * a.const;
    syms = List.map (fun (i, mu) -> (i, c * mu)) a.syms;
  }

let aff_add a b =
  {
    Fission.coeffs = Array.mapi (fun l k -> k + b.Fission.coeffs.(l)) a.Fission.coeffs;
    const = a.const + b.const;
    syms = a.syms @ b.syms;
  }

(* compile-time integer folding through never-assigned PARAMETER
   constants (x_consts).  Only [Value.Int] constants participate, so a
   folded expression is exactly what the machine's integer arithmetic
   computes, charges no flops, and cannot fail: OCaml's [/] truncates
   toward zero like the machine's integer division, and a zero divisor
   refuses to fold (the nest then stays on the closure IR, which
   reproduces the machine's runtime error).  This is what lets nests
   like [i - ni/2] in a body or [nj / 2] in a bound reach the fused
   tier. *)
let rec cfold env (e : Ast.expr) : int option =
  match e with
  | Ast.Const_int c -> Some c
  | Ast.Var x -> (
      match Hashtbl.find_opt env.e_ctx.x_consts x with
      | Some (Value.Int c) -> Some c
      | _ -> None)
  | Ast.Unop (Ast.Neg, a) -> Option.map (fun c -> -c) (cfold env a)
  | Ast.Binop (op, a, b) -> (
      match (cfold env a, cfold env b) with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Some (x + y)
          | Ast.Sub -> Some (x - y)
          | Ast.Mul -> Some (x * y)
          | Ast.Div -> if y = 0 then None else Some (x / y)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* affine decomposition of a subscript; rejects anything the machine
   could fail on (so entry-time evaluation is exact).  The bool result is
   true when the machine evaluates the expression in float arithmetic (an
   integral real-typed constant appears): each float operation then
   charges one flop per iteration, counted into [e_flops].  Scalars the
   body assigns are barred — the kernel resolves subscript residuals once
   at entry. *)
let rec adecomp env (e : Ast.expr) : aff * bool =
  match e with
  | Ast.Const_int c -> ({ (aff_zero env) with Fission.const = c }, false)
  | Ast.Const_real r when Float.is_integer r ->
      ({ (aff_zero env) with Fission.const = truncate r }, true)
  | Ast.Var x -> (
      match Hashtbl.find_opt env.e_lvl x with
      | Some l ->
          let coeff = Array.make env.e_m 0 in
          coeff.(l) <- 1;
          ({ (aff_zero env) with Fission.coeffs = coeff }, false)
      | None ->
          if Hashtbl.mem env.e_wrb x then
            raise (Unfusable Scalar_subscript)
          else (
            (* a constant folds (so the dependence test can compare it
               with a literal subscript); other integer scalars are
               entry-invariant symbols *)
            match Hashtbl.find_opt env.e_ctx.x_consts x with
            | Some (Value.Int c) ->
                ({ (aff_zero env) with Fission.const = c }, false)
            | Some (Value.Real r) when Float.is_integer r ->
                ({ (aff_zero env) with Fission.const = truncate r }, true)
            | _ -> (
                match Hashtbl.find_opt env.e_ctx.x_sc x with
                | Some i when env.e_ctx.x_kinds.(i) = KInt ->
                    env.e_reads := i :: !(env.e_reads);
                    ({ (aff_zero env) with Fission.syms = [ (i, 1) ] }, false)
                | _ -> raise (Unfusable Non_affine_subscript))))
  | Ast.Unop (Ast.Neg, a) ->
      let fa, re = adecomp env a in
      if re then incr env.e_flops;
      (aff_scale (-1) fa, re)
  | Ast.Binop (Ast.Add, a, b) ->
      let fa, ra = adecomp env a in
      let fb, rb = adecomp env b in
      let re = ra || rb in
      if re then incr env.e_flops;
      (aff_add fa fb, re)
  | Ast.Binop (Ast.Sub, a, b) ->
      let fa, ra = adecomp env a in
      let fb, rb = adecomp env b in
      let re = ra || rb in
      if re then incr env.e_flops;
      (aff_add fa (aff_scale (-1) fb), re)
  | Ast.Binop (Ast.Mul, a, b) -> (
      match cfold env a with
      | Some c ->
          let fb, re = adecomp env b in
          if re then incr env.e_flops;
          (aff_scale c fb, re)
      | None -> (
          match cfold env b with
          | Some c ->
              let fa, re = adecomp env a in
              if re then incr env.e_flops;
              (aff_scale c fa, re)
          | None -> raise (Unfusable Non_affine_subscript)))
  | _ -> (
      (* e.g. an integer division of constants: fold the whole
         subexpression (no flops — machine integer arithmetic) *)
      match cfold env e with
      | Some c -> ({ (aff_zero env) with Fission.const = c }, false)
      | None -> raise (Unfusable Non_affine_subscript))

(* entry-invariant, error-free integer-valued expression (loop bounds);
   anything else keeps the nest on the closure IR *)
let rec icomp env (fl : int ref) (e : Ast.expr) : (state -> int) * bool =
  (* the [bool] is true when the machine evaluates this subexpression in
     float arithmetic (a real-typed constant appears somewhere inside):
     every float operation then charges one flop, counted into [fl] so
     the kernel can replay the machine's bound-evaluation charges
     exactly.  Only integral float constants are admitted, which makes
     truncating integer arithmetic bit-identical to the machine's
     truncate-at-the-end float evaluation. *)
  match e with
  | Ast.Const_int c -> ((fun _ -> c), false)
  | Ast.Const_real r when Float.is_integer r ->
      let c = truncate r in
      ((fun _ -> c), true)
  | Ast.Var x ->
      if Hashtbl.mem env.e_lvl x then
        raise (Unfusable Bound_loop_var)
      else if Hashtbl.mem env.e_wrb x then
        raise (Unfusable Bound_written_scalar)
      else (
        match Hashtbl.find_opt env.e_ctx.x_sc x with
        | Some i when env.e_ctx.x_kinds.(i) = KInt ->
            env.e_reads := i :: !(env.e_reads);
            ((fun st -> Array.unsafe_get st.si i), false)
        | _ -> (
            match Hashtbl.find_opt env.e_ctx.x_consts x with
            | Some (Value.Int c) -> ((fun _ -> c), false)
            | Some (Value.Real r) when Float.is_integer r ->
                let c = truncate r in
                ((fun _ -> c), true)
            | _ -> raise (Unfusable Bound_not_integer)))
  | Ast.Unop (Ast.Neg, a) ->
      let f, re = icomp env fl a in
      if re then incr fl;
      ((fun st -> -f st), re)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul) as op), a, b) ->
      let fa, ra = icomp env fl a in
      let fb, rb = icomp env fl b in
      let re = ra || rb in
      if re then incr fl;
      let g =
        match op with Ast.Add -> ( + ) | Ast.Sub -> ( - ) | _ -> ( * )
      in
      ((fun st -> g (fa st) (fb st)), re)
  | Ast.Binop (Ast.Div, a, b) -> (
      (* integer division by a nonzero constant: error-free, truncates
         toward zero exactly like the machine.  The float-arithmetic
         path (truncate-at-the-end of a float division) is rejected —
         float rounding could disagree with integer division.  (At a
         truncation boundary [icomp_trunc] admits the float path.) *)
      match cfold env b with
      | Some c when c <> 0 ->
          let fa, ra = icomp env fl a in
          if ra then raise (Unfusable Bound_not_integer);
          ((fun st -> fa st / c), false)
      | _ -> raise (Unfusable Bound_not_integer))
  | Ast.Local_lo (d, a) ->
      (* the machine truncates the operand (eval_int) before clamping *)
      let f = icomp_trunc env fl a in
      ( (fun st ->
          let v = f st in
          match st.hooks.Machine.h_block with
          | None -> v
          | Some g -> max v (fst (g d))),
        false )
  | Ast.Local_hi (d, a) ->
      let f = icomp_trunc env fl a in
      ( (fun st ->
          let v = f st in
          match st.hooks.Machine.h_block with
          | None -> v
          | Some g -> min v (snd (g d))),
        false )
  | _ -> raise (Unfusable Bound_not_integer)

(* integer value at a truncation boundary — a whole DO bound or the
   operand of Local_lo/Local_hi, where the machine evaluates the full
   Value and truncates once ([Machine.eval_int]).  A division whose
   quotient feeds directly into that truncation may take the machine's
   float path: the numerator is integer-valued (icomp truncates only at
   integral leaves, which is lossless), so [truncate (va /. c)] is the
   machine's truncate-at-the-end result bit-for-bit, and the division
   charges the one flop the machine charges for real arithmetic. *)
and icomp_trunc env (fl : int ref) (e : Ast.expr) : state -> int =
  match e with
  | Ast.Binop (Ast.Div, a, b) -> (
      match cfold env b with
      | Some c when c <> 0 ->
          let fa, ra = icomp env fl a in
          if ra then begin
            incr fl;
            fun st -> truncate (float_of_int (fa st) /. float_of_int c)
          end
          else fun st -> fa st / c
      | _ -> raise (Unfusable Bound_not_integer))
  | e -> fst (icomp env fl e)

(* Body expressions are lowered once to a typed tree: integer and real
   nodes apart (the machine's int/real arithmetic split is decided here),
   flops per innermost iteration counted statically into [e_flops] (the
   kernel never touches [st.flops] per iteration), every array reference
   registered with its affine form.  The row code generator reads this
   tree alone, so types, flop counts and reference ids are fixed here. *)

type un = Neg | Abs | Sqrt | Exp | Log | Sin | Cos | Tan | Atan
type bin = Add | Sub | Mul | Div | Pow | Max | Min | Rem | Sign

type fx =
  | Fconst of float
  | Fslot of int  (* KReal scalar slot *)
  | Fref of int * int  (* array slot, registered reference id *)
  | Fof_int of ix
  | Fun of un * fx
  | Fbin of bin * fx * fx

and ix =
  | Iconst of int
  | Ivar of int  (* fused loop variable, by level *)
  | Islot of int  (* KInt scalar slot *)
  | Iof_float of fx  (* truncation *)
  | Iop1 of (int -> int) * ix  (* integer arithmetic: error-free *)
  | Iop2 of (int -> int -> int) * ix * ix

type fe = Ff of fx | Fi of ix

let rec ipow x acc n = if n = 0 then acc else ipow x (acc * x) (n - 1)

let as_ff = function Ff f -> f | Fi i -> Fof_int i
let as_fi = function Fi i -> i | Ff f -> Iof_float f

(* one body statement *)
type kst =
  | Kstore of int * int * fx  (* array slot, written reference id, rhs *)
  | Kreal of int * fx  (* real scratch scalar slot := rhs *)
  | Kfold of int * bin * fx  (* real slot := slot op rhs: Add Sub Mul Max Min *)

let reg_ref env slot (args : Ast.expr list) : int =
  let bounds = env.e_ctx.x_bounds.(slot) in
  if List.length args <> Array.length bounds then
    raise (Unfusable Rank_mismatch);
  let affs = Array.of_list (List.map (fun e -> fst (adecomp env e)) args) in
  let id = !(env.e_nrefs) in
  incr env.e_nrefs;
  env.e_refs := (slot, affs) :: !(env.e_refs);
  id

(* a scalar read.  Slots an earlier body statement assigned hold this
   iteration's value, never the entry value: exempt from the entry sset
   precheck.  A read of a body-assigned scalar before its assignment in
   the iteration sees the previous point's value, which no row keeps. *)
let read_slot env x i =
  if not (Hashtbl.mem env.e_wrscal i) then begin
    if Hashtbl.mem env.e_wrb x then raise (Unfusable Carried_scalar);
    env.e_reads := i :: !(env.e_reads)
  end

let rec fcomp env (e : Ast.expr) : fe =
  match e with
  | Ast.Const_int c -> Fi (Iconst c)
  | Ast.Const_real f -> Ff (Fconst f)
  | Ast.Const_bool _ | Ast.Const_str _ ->
      raise (Unfusable Non_arith_value)
  | Ast.Var x -> (
      match Hashtbl.find_opt env.e_lvl x with
      | Some l -> Fi (Ivar l)
      | None -> (
          match Hashtbl.find_opt env.e_ctx.x_sc x with
          | Some i when env.e_ctx.x_kinds.(i) = KInt ->
              read_slot env x i;
              Fi (Islot i)
          | Some i when env.e_ctx.x_kinds.(i) = KReal ->
              read_slot env x i;
              Ff (Fslot i)
          | _ -> (
              match Hashtbl.find_opt env.e_ctx.x_consts x with
              | Some (Value.Int c) -> Fi (Iconst c)
              | Some (Value.Real r) -> Ff (Fconst r)
              | _ -> raise (Unfusable Non_arith_scalar))))
  | Ast.Ref (name, args) -> (
      match Hashtbl.find_opt env.e_ctx.x_ar name with
      | Some slot -> Ff (Fref (slot, reg_ref env slot args))
      | None -> fintr env name args)
  | Ast.Unop (Ast.Neg, a) -> (
      match fcomp env a with
      | Fi f -> Fi (Iop1 (( ~- ), f))
      | Ff f ->
          incr env.e_flops;
          Ff (Fun (Neg, f)))
  | Ast.Unop (Ast.Lnot, _) -> raise (Unfusable Logical_in_body)
  | Ast.Binop (op, a, b) -> (
      let ca = fcomp env a in
      let cb = fcomp env b in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> (
          match (ca, cb) with
          | Fi fa, Fi fb -> (
              match op with
              | Ast.Add -> Fi (Iop2 (( + ), fa, fb))
              | Ast.Sub -> Fi (Iop2 (( - ), fa, fb))
              | Ast.Mul -> Fi (Iop2 (( * ), fa, fb))
              | Ast.Div -> (
                  (* by a nonzero constant only: error-free, and OCaml's
                     [/] truncates toward zero like the machine's
                     integer division; charges no flops *)
                  match cfold env b with
                  | Some c when c <> 0 -> Fi (Iop1 ((fun x -> x / c), fa))
                  | _ -> raise (Unfusable Int_division))
              | Ast.Pow -> (
                  match cfold env b with
                  | Some y when y >= 0 -> Fi (Iop1 ((fun x -> ipow x 1 y), fa))
                  | _ -> raise (Unfusable Dynamic_exponent))
              | _ -> assert false)
          | _ ->
              incr env.e_flops;
              let g =
                match op with
                | Ast.Add -> Add
                | Ast.Sub -> Sub
                | Ast.Mul -> Mul
                | Ast.Div -> Div
                | _ -> Pow
              in
              Ff (Fbin (g, as_ff ca, as_ff cb)))
      | _ -> raise (Unfusable Logical_in_body))
  | Ast.Local_lo _ | Ast.Local_hi _ ->
      raise (Unfusable Local_bound_in_body)

and fintr env name args : fe =
  let f1 u =
    match args with
    | [ a ] ->
        let f = as_ff (fcomp env a) in
        incr env.e_flops;
        Ff (Fun (u, f))
    | _ -> raise (Unfusable (Intrinsic_arity name))
  in
  match name with
  | "abs" -> (
      match args with
      | [ a ] -> (
          match fcomp env a with
          | Fi f -> Fi (Iop1 (abs, f))
          | Ff f ->
              incr env.e_flops;
              Ff (Fun (Abs, f)))
      | _ -> raise (Unfusable (Intrinsic_arity "abs")))
  | "sqrt" -> f1 Sqrt
  | "exp" -> f1 Exp
  | "log" -> f1 Log
  | "sin" -> f1 Sin
  | "cos" -> f1 Cos
  | "tan" -> f1 Tan
  | "atan" -> f1 Atan
  | "max" | "amax1" | "min" | "amin1" -> (
      let g = if name = "max" || name = "amax1" then Max else Min in
      match args with
      | a :: rest when rest <> [] ->
          (* a left fold: one flop per extra argument *)
          let fa = as_ff (fcomp env a) in
          let frest = List.map (fun e -> as_ff (fcomp env e)) rest in
          env.e_flops := !(env.e_flops) + List.length frest;
          Ff (List.fold_left (fun acc f -> Fbin (g, acc, f)) fa frest)
      | _ -> raise (Unfusable (Intrinsic_arity name)))
  | "max0" | "min0" -> (
      match args with
      | [ a; b ] ->
          let fa = as_fi (fcomp env a) in
          let fb = as_fi (fcomp env b) in
          Fi (Iop2 ((if name = "max0" then max else min), fa, fb))
      | _ -> raise (Unfusable (Intrinsic_arity name)))
  | "mod" -> (
      match args with
      | [ a; b ] -> (
          let ca = fcomp env a in
          match (ca, fcomp env b) with
          | Fi _, Fi _ -> raise (Unfusable Int_mod)
          | ca, cb ->
              incr env.e_flops;
              Ff (Fbin (Rem, as_ff ca, as_ff cb)))
      | _ -> raise (Unfusable (Intrinsic_arity "mod")))
  | "float" | "real" | "dble" -> (
      match args with
      | [ a ] -> Ff (as_ff (fcomp env a))
      | _ -> raise (Unfusable (Intrinsic_arity name)))
  | "int" -> (
      match args with
      | [ a ] -> Fi (as_fi (fcomp env a))
      | _ -> raise (Unfusable (Intrinsic_arity "int")))
  | "sign" -> (
      match args with
      | [ a; b ] ->
          let fa = as_ff (fcomp env a) in
          let fb = as_ff (fcomp env b) in
          incr env.e_flops;
          Ff (Fbin (Sign, fa, fb))
      | _ -> raise (Unfusable (Intrinsic_arity "sign")))
  | _ -> raise (Unfusable (Unknown_intrinsic name))

(* [s = s + e], [s - e], [s * e], [max(s, e)] or [min(s, e)] (also
   [amax1]/[amin1]): the accumulator, its operator and [e] *)
let fold_shape ctx (s : Ast.stmt) =
  match s.Ast.s_kind with
  | Ast.Assign
      (Ast.Var x, Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul) as op), Ast.Var y, e))
    when x = y ->
      Some (x, (match op with Ast.Add -> Add | Ast.Sub -> Sub | _ -> Mul), e)
  | Ast.Assign
      ( Ast.Var x,
        Ast.Ref ((("max" | "amax1" | "min" | "amin1") as f), [ Ast.Var y; e ]) )
    when x = y && not (Hashtbl.mem ctx.x_ar f) ->
      Some (x, (if f = "max" || f = "amax1" then Max else Min), e)
  | _ -> None

let mentions x e =
  Ast.fold_exprs
    (fun acc e -> acc || match e with Ast.Var y -> y = x | _ -> false)
    false e

(* one body assignment; [fold]: the statement is a fold (see [kernel_of]) *)
let comp_kstmt env fold (s : Ast.stmt) : kst option =
  match s.Ast.s_kind with
  | Ast.Continue -> None
  | Ast.Assign (Ast.Ref (name, args), rhs) -> (
      match Hashtbl.find_opt env.e_ctx.x_ar name with
      | None -> raise (Unfusable Undeclared_array)
      | Some slot ->
          let rf = as_ff (fcomp env rhs) in
          Some (Kstore (slot, reg_ref env slot args, rf)))
  | Ast.Assign (Ast.Var x, rhs) -> (
      (* iteration-local scratch scalar: backed by its own slot, whose
         exit value is the last iteration's, exactly like the machine *)
      if Hashtbl.mem env.e_lvl x then
        raise (Unfusable Assign_to_loop_var);
      match Hashtbl.find_opt env.e_ctx.x_sc x with
      | Some i when env.e_ctx.x_kinds.(i) = KReal -> (
          match fold with
          | Some (_, op, e) ->
              (* the operator's flop, as on the right-hand side; the
                 accumulator's entry value is an entry read *)
              let rf = as_ff (fcomp env e) in
              incr env.e_flops;
              env.e_reads := i :: !(env.e_reads);
              Hashtbl.replace env.e_wrscal i ();
              Some (Kfold (i, op, rf))
          | None ->
              let rf = as_ff (fcomp env rhs) in
              Hashtbl.replace env.e_wrscal i ();
              Some (Kreal (i, rf)))
      | Some i when env.e_ctx.x_kinds.(i) = KInt ->
          (* rows have no integer registers *)
          raise (Unfusable Int_scalar_assign)
      | _ -> raise (Unfusable Scalar_assign))
  | Ast.Assign _ -> raise (Unfusable Bad_assign_target)
  | _ -> raise (Unfusable Non_assign_stmt)

let un_fn = function
  | Neg -> fun x -> -.x
  | Abs -> Float.abs
  | Sqrt -> Float.sqrt
  | Exp -> Float.exp
  | Log -> Float.log
  | Sin -> Float.sin
  | Cos -> Float.cos
  | Tan -> Float.tan
  | Atan -> Float.atan

let bin_fn = function
  | Add -> fun x y -> x +. y
  | Sub -> fun x y -> x -. y
  | Mul -> fun x y -> x *. y
  | Div -> fun x y -> x /. y
  | Pow -> Float.pow
  | Max -> Float.max
  | Min -> Float.min
  | Rem -> Float.rem
  | Sign -> fun x y -> if y >= 0.0 then Float.abs x else -.Float.abs x

(* ---- row path: every node evaluates a whole row into an unboxed
   register, one closure call per node per row ---- *)

(* One row of the kernel, along its row level or its diagonal, shared by
   its steps.  A row longer than [row_cap] points runs as consecutive
   pieces of at most that many, which keeps every dependence a whole row
   keeps (pieces run in row order) and bounds the scratch buffer.  The
   buffer [w_buf] is the state's: register [r] is
   [r * w_n .. r * w_n + w_n - 1], then one cell per row-invariant value
   from [w_inv]. *)
let row_cap = 128

type row = {
  w_st : state;
  w_buf : float array;
  mutable w_n : int;  (* points in this piece of the row *)
  w_inv : int;
  w_offs : int array;  (* per reference: flat offset at the row's start *)
  w_kd : int array;  (* per reference: flat offset step along the row *)
  w_vals : int array;  (* loop values at the row's start *)
  w_lstep : int array;  (* per level: its loop value's step along the row *)
}

(* where a step reads a row: a buffer, a start and a stride *)
type opnd =
  | Oconst of float array  (* one element, stride 0 *)
  | Omem of int * int  (* array slot, reference id: the reference's row *)
  | Oreg of int  (* register, stride 1 *)
  | Oinv of int  (* invariant cell, stride 0 *)

let obuf w = function
  | Oconst a -> a
  | Omem (slot, _) -> Array.unsafe_get w.w_st.adata slot
  | Oreg _ | Oinv _ -> w.w_buf

let obase w = function
  | Oconst _ -> 0
  | Omem (_, id) -> Array.unsafe_get w.w_offs id
  | Oreg r -> r * w.w_n
  | Oinv k -> w.w_inv + k

let ostride w = function
  | Oconst _ | Oinv _ -> 0
  | Omem (_, id) -> Array.unsafe_get w.w_kd id
  | Oreg _ -> 1

(* Each step writes register [d] from its operands' rows.  The common
   operators get a loop each, so the arithmetic stays unboxed; the rest
   share one loop with the operator matched per element. *)
let un_step u a d w =
  let n = w.w_n and y = w.w_buf in
  let yd = d * n in
  let xa = obuf w a and sa = ostride w a in
  let ia = ref (obase w a) in
  match u with
  | Neg ->
      for t = 0 to n - 1 do
        Array.unsafe_set y (yd + t) (-.Array.unsafe_get xa !ia);
        ia := !ia + sa
      done
  | Abs ->
      for t = 0 to n - 1 do
        Array.unsafe_set y (yd + t) (Float.abs (Array.unsafe_get xa !ia));
        ia := !ia + sa
      done
  | _ ->
      for t = 0 to n - 1 do
        let x = Array.unsafe_get xa !ia in
        Array.unsafe_set y (yd + t)
          (match u with
          | Sqrt -> Float.sqrt x
          | Exp -> Float.exp x
          | Log -> Float.log x
          | Sin -> Float.sin x
          | Cos -> Float.cos x
          | Tan -> Float.tan x
          | Atan -> Float.atan x
          | Neg | Abs -> assert false);
        ia := !ia + sa
      done

let bin_step b a c d w =
  let n = w.w_n and y = w.w_buf in
  let yd = d * n in
  let xa = obuf w a and sa = ostride w a in
  let xc = obuf w c and sc = ostride w c in
  let ia = ref (obase w a) and ic = ref (obase w c) in
  match b with
  | Add ->
      for t = 0 to n - 1 do
        Array.unsafe_set y (yd + t)
          (Array.unsafe_get xa !ia +. Array.unsafe_get xc !ic);
        ia := !ia + sa;
        ic := !ic + sc
      done
  | Sub ->
      for t = 0 to n - 1 do
        Array.unsafe_set y (yd + t)
          (Array.unsafe_get xa !ia -. Array.unsafe_get xc !ic);
        ia := !ia + sa;
        ic := !ic + sc
      done
  | Mul ->
      for t = 0 to n - 1 do
        Array.unsafe_set y (yd + t)
          (Array.unsafe_get xa !ia *. Array.unsafe_get xc !ic);
        ia := !ia + sa;
        ic := !ic + sc
      done
  | Div ->
      for t = 0 to n - 1 do
        Array.unsafe_set y (yd + t)
          (Array.unsafe_get xa !ia /. Array.unsafe_get xc !ic);
        ia := !ia + sa;
        ic := !ic + sc
      done
  | _ ->
      for t = 0 to n - 1 do
        let p = Array.unsafe_get xa !ia and q = Array.unsafe_get xc !ic in
        Array.unsafe_set y (yd + t)
          (match b with
          | Pow -> Float.pow p q
          | Max -> Float.max p q
          | Min -> Float.min p q
          | Rem -> Float.rem p q
          | Sign -> if q >= 0.0 then Float.abs p else -.Float.abs p
          | Add | Sub | Mul | Div -> assert false);
        ia := !ia + sa;
        ic := !ic + sc
      done

(* copy a row into a strided destination *)
let move_row w src dst base stride =
  let x = obuf w src and sx = ostride w src in
  let ix = ref (obase w src) and o = ref base in
  for _ = 1 to w.w_n do
    Array.unsafe_set dst !o (Array.unsafe_get x !ix);
    ix := !ix + sx;
    o := !o + stride
  done

(* fold a row into real slot [i] point by point in row order, which is
   source order: a nest with a fold runs its rows along the source
   innermost level *)
let fold_step b i src w =
  let x = obuf w src and sx = ostride w src in
  let ix = ref (obase w src) in
  let sf = w.w_st.sf in
  let acc = ref (Array.unsafe_get sf i) in
  (match b with
  | Add ->
      for _ = 1 to w.w_n do
        acc := !acc +. Array.unsafe_get x !ix;
        ix := !ix + sx
      done
  | Sub ->
      for _ = 1 to w.w_n do
        acc := !acc -. Array.unsafe_get x !ix;
        ix := !ix + sx
      done
  | Mul ->
      for _ = 1 to w.w_n do
        acc := !acc *. Array.unsafe_get x !ix;
        ix := !ix + sx
      done
  | Max ->
      for _ = 1 to w.w_n do
        acc := Float.max !acc (Array.unsafe_get x !ix);
        ix := !ix + sx
      done
  | Min ->
      for _ = 1 to w.w_n do
        acc := Float.min !acc (Array.unsafe_get x !ix);
        ix := !ix + sx
      done
  | Div | Pow | Rem | Sign -> assert false);
  Array.unsafe_set sf i !acc

(* row values at compile time: constants and row invariants stay
   scalar until an operand needs them *)
type rv =
  | Vconst of float
  | Vinv of (row -> float)  (* evaluated once per row *)
  | Vop of opnd

type ri = Iinv of (row -> int) | Irow of (row -> int -> int)  (* per element *)

(* Row code generation state.  Registers are allocated as a stack: a
   node's register is the first its subtree took, so a statement needs
   as many as its expression is deep.  A scratch scalar's register stays
   allocated ([g_floor]) for the rest of the row. *)
type rgen = {
  mutable g_steps : (row -> unit) list;  (* newest first *)
  mutable g_top : int;  (* next free register *)
  mutable g_floor : int;  (* registers below hold scratch scalars *)
  mutable g_regs : int;  (* high-water mark *)
  mutable g_invs : int;  (* invariant cells *)
  g_along : bool array;  (* per level: does its loop value move along a row *)
  g_scal : (int, rv) Hashtbl.t;  (* real scratch slot -> its row *)
}

let emit g s = g.g_steps <- s :: g.g_steps

let reg g =
  let r = g.g_top in
  g.g_top <- r + 1;
  g.g_regs <- max g.g_regs g.g_top;
  r

let opnd g = function
  | Vop o -> o
  | Vconst c -> Oconst [| c |]
  | Vinv f ->
      let k = g.g_invs in
      g.g_invs <- k + 1;
      emit g (fun w -> Array.unsafe_set w.w_buf (w.w_inv + k) (f w));
      Oinv k

let scalar_of = function
  | Vconst c -> fun _ -> c
  | Vinv f -> f
  | Vop _ -> assert false

let irow = function Iinv f -> fun w _ -> f w | Irow f -> f

let rec rfx g (e : fx) : rv =
  match e with
  | Fconst c -> Vconst c
  | Fslot i -> (
      match Hashtbl.find_opt g.g_scal i with
      | Some v -> v
      | None -> Vinv (fun w -> Array.unsafe_get w.w_st.sf i))
  | Fref (slot, id) -> Vop (Omem (slot, id))
  | Fof_int a -> (
      let mark = g.g_top in
      match rix g a with
      | Iinv f -> Vinv (fun w -> float_of_int (f w))
      | Irow f ->
          g.g_top <- mark;
          let d = reg g in
          emit g (fun w ->
              let y = w.w_buf and yd = d * w.w_n in
              for t = 0 to w.w_n - 1 do
                Array.unsafe_set y (yd + t) (float_of_int (f w t))
              done);
          Vop (Oreg d))
  | Fun (u, a) -> (
      let mark = g.g_top in
      match rfx g a with
      | Vconst c -> Vconst (un_fn u c)
      | Vinv f ->
          let h = un_fn u in
          Vinv (fun w -> h (f w))
      | Vop o ->
          g.g_top <- mark;
          let d = reg g in
          emit g (un_step u o d);
          Vop (Oreg d))
  | Fbin (b, x, y) -> (
      let mark = g.g_top in
      let va = rfx g x in
      let vb = rfx g y in
      match (va, vb) with
      | Vconst p, Vconst q -> Vconst (bin_fn b p q)
      | (Vconst _ | Vinv _), (Vconst _ | Vinv _) ->
          let fa = scalar_of va and fb = scalar_of vb and h = bin_fn b in
          Vinv (fun w -> h (fa w) (fb w))
      | _ ->
          let oa = opnd g va in
          let ob = opnd g vb in
          g.g_top <- mark;
          let d = reg g in
          emit g (bin_step b oa ob d);
          Vop (Oreg d))

and rix g (e : ix) : ri =
  match e with
  | Iconst c -> Iinv (fun _ -> c)
  | Ivar l when g.g_along.(l) ->
      Irow
        (fun w t ->
          Array.unsafe_get w.w_vals l + (t * Array.unsafe_get w.w_lstep l))
  | Ivar l -> Iinv (fun w -> Array.unsafe_get w.w_vals l)
  | Islot i -> Iinv (fun w -> Array.unsafe_get w.w_st.si i)
  | Iof_float a -> (
      match rfx g a with
      | Vconst c ->
          let v = truncate c in
          Iinv (fun _ -> v)
      | Vinv f -> Iinv (fun w -> truncate (f w))
      | Vop o ->
          (* read when the consuming step runs: [o]'s register stays
             below that step's own *)
          Irow
            (fun w t ->
              truncate
                (Array.unsafe_get (obuf w o) (obase w o + (t * ostride w o)))))
  | Iop1 (h, a) -> (
      match rix g a with
      | Iinv f -> Iinv (fun w -> h (f w))
      | Irow f -> Irow (fun w t -> h (f w t)))
  | Iop2 (h, a, b) -> (
      match (rix g a, rix g b) with
      | Iinv f, Iinv f' -> Iinv (fun w -> h (f w) (f' w))
      | ra, rb ->
          let f = irow ra and f' = irow rb in
          Irow (fun w t -> h (f w t) (f' w t)))

(* Statements run in body order, each over the whole row: a store
   writes its row after its right-hand side is complete, a scratch
   scalar keeps its row in a register (or as its invariant or constant)
   for the statements after it, and a fold folds its row into its
   accumulator's slot. *)
let rstmt g = function
  | Kfold (i, op, rhs) ->
      let src = opnd g (rfx g rhs) in
      emit g (fold_step op i src);
      g.g_top <- g.g_floor
  | Kstore (slot, wid, rhs) ->
      let src = opnd g (rfx g rhs) in
      emit g (fun w ->
          move_row w src
            (Array.unsafe_get w.w_st.adata slot)
            (Array.unsafe_get w.w_offs wid)
            (Array.unsafe_get w.w_kd wid));
      g.g_top <- g.g_floor
  | Kreal (i, rhs) ->
      let v =
        match rfx g rhs with
        | Vop (Omem _ as o) ->
            (* later statements may store into the array *)
            let d = reg g in
            emit g (fun w -> move_row w o w.w_buf (d * w.w_n) 1);
            Vop (Oreg d)
        | Vinv _ as v -> Vop (opnd g v)
        | v -> v
      in
      (match v with
      | Vop (Oreg d) -> g.g_floor <- max g.g_floor (d + 1)
      | _ -> ());
      g.g_top <- g.g_floor;
      Hashtbl.replace g.g_scal i v

(* structural nest peeling *)
type peeled =
  | P_leaf of Ast.do_loop list * Ast.stmt list  (* levels outer-first *)
  | P_descend  (* nested DOs mixed with other structure: recurse, no entry *)
  | P_bad of Ast.do_loop list * reason
      (* levels outer-first; the innermost body holds a non-fusable
         statement *)

let peel (d : Ast.do_loop) : peeled =
  let rec go acc d =
    let acc = d :: acc in
    let body =
      List.filter
        (fun s -> match s.Ast.s_kind with Ast.Continue -> false | _ -> true)
        d.Ast.do_body
    in
    match body with
    | [ { Ast.s_kind = Ast.Do d'; _ } ] -> go acc d'
    | _ ->
        if
          List.exists
            (fun s -> match s.Ast.s_kind with Ast.Do _ -> true | _ -> false)
            body
        then P_descend
        else if
          List.for_all
            (fun s ->
              match s.Ast.s_kind with Ast.Assign _ -> true | _ -> false)
            body
        then P_leaf (List.rev acc, body)
        else
          let reason =
            match
              List.find_opt
                (fun s ->
                  match s.Ast.s_kind with Ast.Assign _ -> false | _ -> true)
                body
            with
            | Some { Ast.s_kind = Ast.If _; _ } -> If_in_body
            | Some { Ast.s_kind = Ast.Goto _; _ } -> Goto_in_body
            | Some { Ast.s_kind = (Ast.Read _ | Ast.Write _); _ } ->
                Io_in_body
            | Some
                {
                  Ast.s_kind =
                    (Ast.Comm _ | Ast.Pipeline_recv _ | Ast.Pipeline_send _);
                  _;
                } ->
                Comm_in_body
            | _ -> Control_in_body
          in
          P_bad (List.rev acc, reason)
  in
  go [] d

(* does the nest write at least one declared array element? *)
let is_field_loop ctx (d : Ast.do_loop) =
  let found = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.s_kind with
      | Ast.Assign (Ast.Ref (n, _), _) when Hashtbl.mem ctx.x_ar n ->
          found := true
      | _ -> ())
    d.Ast.do_body;
  !found

(* flat per-reference kernel info *)
type krf = {
  k_slot : int;
  k_bounds : (int * int) array;
  k_strides : int array;
  k_base : int;
  k_coeff : int array array;  (* per dim, per level *)
  k_resid : (state -> int) array;  (* per dim, entry-invariant *)
  k_flat : int array;  (* per level: sum over dims of coeff * stride *)
}

(* Which rows may a row kernel run?  [refs] are the body's references in
   id order (array slot, subscripts), [spans.(s)] the ids statement [s]
   registered, [writes.(s)] the one it stores through (-1 for a scalar
   assignment), [steps] each level's step when it is a constant.  Every
   two references to one array, at least one a write, give one Fission
   distance vector, computed once; the two returned tests, one for a row
   along a level and one for a diagonal row of two levels, pass when
   every vector passes the checks below.
   - Rows along a level: running the level innermost, the others in
     source order, keeps the sign of the vector's leading nonzero
     distance.  Only instances whose first nonzero distance is at the
     moved level can change order: they then meet the levels after it
     first.  A [None] distance may be anything.
   - Diagonal rows of levels [a < b]: each point of a row raises [a]'s
     normalized index by one and lowers [b]'s by one, and the walk runs
     the other levels in source order with the wavefront [n_a + n_b] in
     [a]'s place.  Two instances then run in the order of the vector's
     walk-order vector, [d] with [d_a + d_b] in [a]'s place (counted in
     steps of each level) and [d_b] removed, which must lead with [d]'s
     sign.  Every distance, and the steps of [a] and [b], must be
     known.
   - Running the body statement by statement over a row keeps every
     dependence within the row (no nonzero distance at another level,
     or a walk-order vector of zeros) when a later statement only
     touches what an earlier one touched at the same or an earlier
     point, and a statement only reads what it writes itself at the same
     or a later point (its whole right-hand side row is read before its
     row is stored).  The row offset is the distance at the level, or at
     [a] on a diagonal.  A write meets itself in row order, which
     storing a row keeps. *)
type order =
  | Self  (* a statement's write and itself *)
  | Same_stmt  (* a statement's write, then another of its references *)
  | Later_stmt  (* a reference, then one of a later statement *)

let row_legal ~steps (refs : (int * aff array) array) spans writes =
  let m = Array.length steps in
  let signs = Array.map (Option.map (fun s -> compare s 0)) steps in
  let deps = ref [] in
  let add order r r' =
    match Fission.distance ~steps:signs (snd refs.(r)) (snd refs.(r')) with
    | Some d -> deps := (order, d) :: !deps
    | None -> ()
  in
  let ns = Array.length spans in
  for s = 0 to ns - 1 do
    let w = writes.(s) in
    if w >= 0 then add Self w w;
    let lo, hi = spans.(s) in
    for r = lo to hi - 1 do
      let slot = fst refs.(r) in
      if w >= 0 && r <> w && fst refs.(w) = slot then add Same_stmt w r;
      for s' = s + 1 to ns - 1 do
        let lo', hi' = spans.(s') in
        for r' = lo' to hi' - 1 do
          if fst refs.(r') = slot && (r = w || r' = writes.(s')) then
            add Later_stmt r r'
        done
      done
    done
  done;
  let keeps_lead l d =
    match d.(l) with
    | Some 0 -> true
    | dl ->
        (* the sign at [l], 0 when it may be either *)
        let s = match dl with Some k -> compare k 0 | None -> 0 in
        let lead = ref true in
        for i = 0 to l - 1 do
          match d.(i) with Some k when k <> 0 -> lead := false | _ -> ()
        done;
        (* the first level after [l] that may be nonzero decides *)
        let flips = ref false and j = ref (l + 1) in
        while !lead && !j < m do
          match d.(!j) with
          | Some 0 -> incr j
          | None ->
              flips := true;
              j := m
          | Some k ->
              flips := s = 0 || compare k 0 = -s;
              j := m
        done;
        not (!lead && !flips)
  in
  let in_row order k =
    match (order, k) with
    | Self, _ -> true
    | _, None -> false
    | Same_stmt, Some k -> k <= 0
    | Later_stmt, Some k -> k >= 0
  in
  let keeps_row l (order, d) =
    let apart = ref false in
    for i = 0 to m - 1 do
      match d.(i) with Some k when i <> l && k <> 0 -> apart := true | _ -> ()
    done;
    !apart || in_row order d.(l)
  in
  (* the wavefront distance counts steps (a distance is in loop-value
     units, a multiple of the step when the instances exist); scanning
     inward leaves the leading signs of [d] and of its walk-order
     vector *)
  let keeps_walk (a, b) (order, d) =
    match (d.(a), d.(b), steps.(a), steps.(b)) with
    | Some da, Some db, Some sa, Some sb ->
        let wave = (da / abs sa) + (db / abs sb) in
        let known = ref true and lead = ref 0 and walk = ref 0 in
        for l = m - 1 downto 0 do
          match d.(l) with
          | None -> known := false
          | Some k ->
              if k <> 0 then lead := compare k 0;
              let c = if l = a then wave else if l = b then 0 else k in
              if c <> 0 then walk := compare c 0
        done;
        !known && if !walk = 0 then in_row order d.(a) else !walk = !lead
    | _ -> false
  in
  ( (fun l ->
      List.for_all (fun (o, d) -> keeps_lead l d && keeps_row l (o, d)) !deps),
    fun pair -> List.for_all (keeps_walk pair) !deps )

(* Build the kernel for a peeled nest, or raise Unfusable.  The result
   names the path the kernel takes; its function takes the closure-IR
   fallback (compiled separately) and yields the nest's [state -> unit]. *)
let kernel_of ctx (levels : Ast.do_loop list) (stmts : Ast.stmt list) :
    kernel_path * ((state -> unit) -> state -> unit) =
  let m = List.length levels in
  let lvl = Hashtbl.create 8 in
  let var_stores =
    Array.of_list
      (List.mapi
         (fun l (d : Ast.do_loop) ->
           let x = d.Ast.do_var in
           if Hashtbl.mem lvl x then
             raise (Unfusable Duplicate_loop_var);
           match Hashtbl.find_opt ctx.x_sc x with
           | Some i when ctx.x_kinds.(i) = KInt ->
               Hashtbl.add lvl x l;
               int_store ctx i
           | Some _ -> raise (Unfusable Loop_var_not_int)
           | None -> raise (Unfusable Loop_var_no_slot))
         levels)
  in
  let wrb = Hashtbl.create 8 in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.s_kind with
      | Ast.Assign (Ast.Var x, _) -> Hashtbl.replace wrb x ()
      | _ -> ())
    stmts;
  let env =
    {
      e_ctx = ctx;
      e_m = m;
      e_lvl = lvl;
      e_reads = ref [];
      e_refs = ref [];
      e_nrefs = ref 0;
      e_flops = ref 0;
      e_wrb = wrb;
      e_wrscal = Hashtbl.create 8;
    }
  in
  (* fpb.(l): flops the machine charges for one evaluation of level l's
     bounds (real-constant arithmetic); level l's bounds are evaluated
     once per iteration of the enclosing levels *)
  let fpb = Array.make m 0 in
  let comp_bound l e =
    let fl = ref 0 in
    let f = icomp_trunc env fl e in
    fpb.(l) <- fpb.(l) + !fl;
    f
  in
  let blos =
    Array.of_list (List.mapi (fun l d -> comp_bound l d.Ast.do_lo) levels)
  in
  let bhis =
    Array.of_list (List.mapi (fun l d -> comp_bound l d.Ast.do_hi) levels)
  in
  let bsteps =
    Array.of_list
      (List.mapi
         (fun l (d : Ast.do_loop) ->
           match d.Ast.do_step with
           | Some e -> comp_bound l e
           | None -> fun _ -> 1)
         levels)
  in
  (* a fold's accumulator is assigned by its statement alone and read by
     no other statement; a fold whose [e] reads it too reads the previous
     point's value ([Carried_scalar]) *)
  let fold_of s =
    match fold_shape ctx s with
    | Some (x, _, _) as f
      when List.for_all
             (fun s' ->
               s' == s || not (List.exists (mentions x) (Ast.stmt_exprs s')))
             stmts ->
        f
    | _ -> None
  in
  (* each statement with the reference ids it registered *)
  let kst, spans =
    List.filter_map
      (fun s ->
        let lo = !(env.e_nrefs) in
        Option.map
          (fun k -> (k, (lo, !(env.e_nrefs))))
          (comp_kstmt env (fold_of s) s))
      stmts
    |> List.split
  in
  let kst = Array.of_list kst and spans = Array.of_list spans in
  if Array.length kst = 0 then raise (Unfusable Empty_body);
  let fpi = !(env.e_flops) in
  let refs = Array.of_list (List.rev !(env.e_refs)) (* e_refs: newest first *) in
  let kinfo =
    Array.map
      (fun (slot, affs) ->
        let bounds = ctx.x_bounds.(slot) in
        let strides = strides_of bounds in
        let base = base_of bounds strides in
        let flat = Array.make m 0 in
        Array.iteri
          (fun d (a : aff) ->
            for l = 0 to m - 1 do
              flat.(l) <- flat.(l) + (a.Fission.coeffs.(l) * strides.(d))
            done)
          affs;
        {
          k_slot = slot;
          k_bounds = bounds;
          k_strides = strides;
          k_base = base;
          k_coeff = Array.map (fun (a : aff) -> a.Fission.coeffs) affs;
          k_resid =
            Array.map
              (fun (a : aff) ->
                match a.Fission.syms with
                | [] ->
                    let c = a.const in
                    fun _ -> c
                | syms ->
                    let c = a.const in
                    fun st ->
                      List.fold_left
                        (fun acc (i, mu) ->
                          acc + (mu * Array.unsafe_get st.si i))
                        c syms)
              affs;
          k_flat = flat;
        })
      refs
  in
  let nrefs = Array.length kinfo in
  let pre = Array.of_list (List.sort_uniq compare !(env.e_reads)) in
  let npre = Array.length pre in
  (* rows along the legal level whose references have the least summed
     stride, the innermost of them on a tie; a nest with a fold tries only
     the source innermost level, where folding rows performs source
     order's operations in its order.  With no level legal and no fold,
     the legal diagonal of least summed stride, the outer pair on a tie;
     with none, the closure IR *)
  let path =
    let steps =
      Array.of_list
        (List.map
           (fun (d : Ast.do_loop) ->
             match d.Ast.do_step with
             | None -> Some 1
             | Some e -> (
                 match cfold env e with
                 | Some s when s <> 0 -> Some s
                 | _ -> None))
           levels)
    in
    let cost f = Array.fold_left (fun c k -> c + abs (f k.k_flat)) 0 kinfo in
    let writes =
      Array.map (function Kstore (_, w, _) -> w | Kreal _ | Kfold _ -> -1) kst
    in
    let level_ok, diag_ok = row_legal ~steps refs spans writes in
    let fold = Array.exists (function Kfold _ -> true | _ -> false) kst in
    let by_cost c = List.stable_sort (fun x y -> compare (c x) (c y)) in
    (* levels innermost first: on a tie the stable sort keeps the inner *)
    let levels =
      if fold then [ m - 1 ]
      else
        by_cost
          (fun l -> cost (fun fl -> fl.(l)))
          (List.init m (fun l -> m - 1 - l))
    in
    match List.find_opt level_ok levels with
    | Some l -> Row l
    | None when fold -> raise (Unfusable No_row_order)
    | None -> (
        let step l = Option.value ~default:1 steps.(l) in
        let pairs =
          List.concat_map
            (fun a -> List.init (m - 1 - a) (fun k -> (a, a + 1 + k)))
            (List.init m Fun.id)
        in
        by_cost
          (fun (a, b) -> cost (fun fl -> (fl.(a) * step a) - (fl.(b) * step b)))
          pairs
        |> List.find_opt diag_ok
        |> function
        | Some (a, b) -> Diag (a, b)
        | None -> raise (Unfusable No_row_order))
  in
  (* a row moves level [ra], and on a diagonal also [rb] (-1 otherwise) *)
  let ra, rb = match path with Row l -> (l, -1) | Diag (a, b) -> (a, b) in
  let g =
    { g_steps = []; g_top = 0; g_floor = 0; g_regs = 0; g_invs = 0;
      g_along = Array.init m (fun l -> l = ra || l = rb);
      g_scal = Hashtbl.create 4 }
  in
  Array.iter (rstmt g) kst;
  (* scratch slots and their rows *)
  let exits =
    Array.of_list (Hashtbl.fold (fun i v acc -> (i, opnd g v) :: acc) g.g_scal [])
  in
  let rsteps = Array.of_list (List.rev g.g_steps) in
  let nsteps = Array.length rsteps and regs = g.g_regs and invs = g.g_invs in
  let kernel fallback st =
    (* any entry-read slot unset, zero step, empty trip space, or an
       unprovable subscript range: run the closure IR, which reproduces
       the machine bit for bit (including errors and partial updates) *)
    let ok = ref true in
    for i = 0 to npre - 1 do
      if not (Array.unsafe_get st.sset (Array.unsafe_get pre i)) then
        ok := false
    done;
    if not !ok then fallback st
    else begin
      let los = Array.map (fun f -> f st) blos in
      let his = Array.map (fun f -> f st) bhis in
      let steps = Array.map (fun f -> f st) bsteps in
      if Array.exists (fun s -> s = 0) steps then fallback st
      else begin
        let trips =
          Array.init m (fun l ->
              Machine.trip_count ~lo:los.(l) ~hi:his.(l) ~step:steps.(l))
        in
        if Array.exists (fun t -> t = 0) trips then fallback st
        else begin
          let ivs =
            Array.init m (fun l ->
                let last = los.(l) + ((trips.(l) - 1) * steps.(l)) in
                if steps.(l) > 0 then Iv.make los.(l) last
                else Iv.make last los.(l))
          in
          let safe = ref true in
          Array.iter
            (fun k ->
              Array.iteri
                (fun d (blo, bhi) ->
                  if !safe then begin
                    let r = k.k_resid.(d) st in
                    let iv = ref (Iv.make r r) in
                    let coeff = k.k_coeff.(d) in
                    for l = 0 to m - 1 do
                      if coeff.(l) <> 0 then
                        iv :=
                          Iv.sum !iv (Iv.affine ~mul:coeff.(l) ~add:0 ivs.(l))
                    done;
                    if Iv.lo !iv < blo || Iv.hi !iv > bhi then safe := false
                  end)
                k.k_bounds)
            kinfo;
          if not !safe then fallback st
          else begin
            let rbase =
              Array.map
                (fun k ->
                  let s = ref (-k.k_base) in
                  Array.iteri
                    (fun d f -> s := !s + (f st * k.k_strides.(d)))
                    k.k_resid;
                  !s)
                kinfo
            in
            let vals = Array.make m 0 in
            let offs = Array.make nrefs 0 in
            let lstep = Array.make m 0 in
            lstep.(ra) <- steps.(ra);
            if rb >= 0 then lstep.(rb) <- -steps.(rb);
            let kd =
              Array.map
                (fun k ->
                  let d = ref 0 in
                  for l = 0 to m - 1 do
                    d := !d + (k.k_flat.(l) * lstep.(l))
                  done;
                  !d)
                kinfo
            in
            let ta = trips.(ra) and tb = if rb >= 0 then trips.(rb) else 0 in
            (* a diagonal's longest row is its shorter side *)
            let cap = min (if rb < 0 then ta else min ta tb) row_cap in
            let need = (regs * cap) + invs in
            if Array.length st.rows < need then
              st.rows <- Array.create_float need;
            let w =
              { w_st = st; w_buf = st.rows; w_n = cap; w_inv = regs * cap;
                w_offs = offs; w_kd = kd; w_vals = vals; w_lstep = lstep }
            in
            (* the row of [len] points from the loop values at its start,
               in pieces of at most [cap] *)
            let row len =
              for r = 0 to nrefs - 1 do
                let k = kinfo.(r) in
                let o = ref rbase.(r) in
                for l' = 0 to m - 1 do
                  o := !o + (k.k_flat.(l') * vals.(l'))
                done;
                offs.(r) <- !o
              done;
              let first = ref 0 in
              while !first < len do
                let n = min cap (len - !first) in
                w.w_n <- n;
                for s = 0 to nsteps - 1 do
                  (Array.unsafe_get rsteps s) w
                done;
                first := !first + n;
                for r = 0 to nrefs - 1 do
                  offs.(r) <- offs.(r) + (n * kd.(r))
                done;
                vals.(ra) <- vals.(ra) + (n * lstep.(ra));
                if rb >= 0 then vals.(rb) <- vals.(rb) + (n * lstep.(rb))
              done
            in
            (* the other levels in source order, on a diagonal with the
               wavefront [n_a + n_b] in [ra]'s place, then one row *)
            let wave = ref 0 in
            let rec go l =
              if l = m then begin
                if rb < 0 then begin
                  vals.(ra) <- los.(ra);
                  row ta
                end
                else begin
                  let na = max 0 (!wave - tb + 1) in
                  vals.(ra) <- los.(ra) + (na * steps.(ra));
                  vals.(rb) <- los.(rb) + ((!wave - na) * steps.(rb));
                  row (min (ta - 1) !wave - na + 1)
                end
              end
              else if l = ra && rb >= 0 then
                for n = 0 to ta + tb - 2 do
                  wave := n;
                  go (l + 1)
                done
              else if l = ra || l = rb then go (l + 1)
              else begin
                vals.(l) <- los.(l);
                for _ = 1 to trips.(l) do
                  go (l + 1);
                  vals.(l) <- vals.(l) + steps.(l)
                done
              end
            in
            go 0;
            (* scratch scalars leave with the last iteration's value: the
               last row ends at the last point in source order *)
            Array.iter
              (fun (i, o) ->
                st.sf.(i) <-
                  Array.unsafe_get (obuf w o)
                    (obase w o + ((w.w_n - 1) * ostride w o));
                st.sset.(i) <- true)
              exits;
            (* batched charge: body flops per point times the trip-space
               size, plus the machine's bound-evaluation charges (level
               l's bounds are re-evaluated once per enclosing iteration) *)
            let bfl = ref 0 and evals = ref 1 in
            for l = 0 to m - 1 do
              bfl := !bfl + (fpb.(l) * !evals);
              evals := !evals * trips.(l)
            done;
            let total = !evals in
            st.flops <- st.flops +. float_of_int ((total * fpi) + !bfl);
            st.kmoved <- st.kmoved +. float_of_int (total * nrefs * 8);
            for l = 0 to m - 1 do
              var_stores.(l) st (los.(l) + (trips.(l) * steps.(l)))
            done
          end
        end
      end
    end
  in
  (path, kernel)

(* Record one coverage entry and return its index (program order, the
   final position in cu_cov); -1 when recording is off (inside fallback
   bodies), which also disables profiling instrumentation. *)
let record_cov ?path ctx ~line ~vars ~fused ~frag reason =
  if not ctx.x_record then -1
  else begin
    let idx = List.length !(ctx.x_cov) in
    ctx.x_cov :=
      ( { cov_line = line; cov_vars = vars; cov_fused = fused;
          cov_reason = reason; cov_frag = frag },
        path )
      :: !(ctx.x_cov);
    idx
  end

(* Wrap a recorded nest's closure with self-profiling: calls, flop delta
   and fused-kernel byte delta, minus whatever inner profiled nests
   already claimed during this execution (recorded nests can contain
   recorded nests when a fallback body is compiled with recording on) *)
let profiled idx nest =
  if idx < 0 then nest
  else
    fun st ->
      let f0 = st.flops and b0 = st.kmoved in
      let af0 = st.kattr_flops and ab0 = st.kattr_bytes in
      nest st;
      let df = st.flops -. f0 and db = st.kmoved -. b0 in
      let self_f = df -. (st.kattr_flops -. af0) in
      let self_b = db -. (st.kattr_bytes -. ab0) in
      st.kcalls.(idx) <- st.kcalls.(idx) + 1;
      st.kflops.(idx) <- st.kflops.(idx) +. self_f;
      st.kbytes.(idx) <- st.kbytes.(idx) +. self_b;
      st.kattr_flops <- af0 +. df;
      st.kattr_bytes <- ab0 +. db

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let comp_assign_var ctx x rhs =
  match Hashtbl.find_opt ctx.x_sc x with
  | None ->
      (* every Var target is collected during slot assignment, so this is
         unreachable; fail like the machine would on execution *)
      fun _ -> error "variable '%s' has no slot (compiler bug)" x
  | Some i -> (
      match ctx.x_kinds.(i) with
      | KInt ->
          let f = as_int rhs in
          fun st ->
            st.si.(i) <- f st;
            st.sset.(i) <- true
      | KReal ->
          let f = as_float rhs in
          fun st ->
            st.sf.(i) <- f st;
            st.sset.(i) <- true
      | KBool ->
          let f = as_bool rhs in
          fun st ->
            st.sb.(i) <- f st;
            st.sset.(i) <- true
      | KDyn -> (
          match ctx.x_types.(i) with
          | Ast.Integer ->
              let f = as_int rhs in
              fun st ->
                st.sd.(i) <- Value.Int (f st);
                st.sset.(i) <- true
          | Ast.Real | Ast.Double ->
              let f = as_float rhs in
              fun st ->
                st.sd.(i) <- Value.Real (f st);
                st.sset.(i) <- true
          | Ast.Logical ->
              let f = as_bool rhs in
              fun st ->
                st.sd.(i) <- Value.Bool (f st);
                st.sset.(i) <- true))

(* A closure compiled on its first call: a fused nest's fallback runs
   only when the kernel's entry check fails, which most nests never do.
   Domains ranks can make that first call at the same time, and forcing
   one [Lazy.t] from two domains raises; here each compiles its own copy
   instead, which is harmless because the closure IR is a pure function
   of the AST. *)
let on_first_use make =
  let cell = Atomic.make None in
  fun st ->
    match Atomic.get cell with
    | Some f -> f st
    | None ->
        let f = make () in
        Atomic.set cell (Some f);
        f st

let rec comp_block ctx (block : Ast.block) : state -> unit =
  let stmts = Array.of_list block in
  let fns = Array.map (comp_stmt ctx) stmts in
  let n = Array.length fns in
  let labels =
    List.concat
      (List.mapi
         (fun i st ->
           match st.Ast.s_label with Some l -> [ (l, i) ] | None -> [])
         block)
  in
  if labels = [] then fun st ->
    for i = 0 to n - 1 do
      fns.(i) st
    done
  else
    fun st ->
      let rec go i =
        if i < n then
          match fns.(i) st with
          | () -> go (i + 1)
          | exception Jump l -> (
              match List.assoc_opt l labels with
              | Some j -> go j
              | None -> raise (Jump l))
      in
      go 0

and comp_stmt ctx (st : Ast.stmt) : state -> unit =
  match st.Ast.s_kind with
  | Ast.Assign (Ast.Var x, rhs) -> comp_assign_var ctx x (comp ctx rhs)
  | Ast.Assign (Ast.Ref (name, args), rhs) ->
      if Hashtbl.mem ctx.x_ar name then begin
        let fr = as_float (comp ctx rhs) in
        let set = comp_ref_set ctx name args in
        fun s ->
          let v = fr s in
          set s v
      end
      else begin
        (* the machine evaluates rhs then the indices, then fails the
           array lookup *)
        let fr = as_scalar (comp ctx rhs) in
        let idxf = List.map (fun a -> as_int (comp ctx a)) args in
        fun s ->
          ignore (fr s);
          List.iter (fun f -> ignore (f s)) idxf;
          error "array '%s' is not declared" name
      end
  | Ast.Assign (_, rhs) ->
      let fr = as_scalar (comp ctx rhs) in
      fun s ->
        ignore (fr s);
        error "invalid assignment target"
  | Ast.Continue -> fun _ -> ()
  | Ast.Goto l -> fun _ -> raise (Jump l)
  | Ast.If (branches, els) -> (
      let brs =
        List.map
          (fun (c, b) -> (as_bool (comp ctx c), comp_block ctx b))
          branches
      in
      let els = Option.map (comp_block ctx) els in
      fun s ->
        let rec pick = function
          | [] -> ( match els with Some f -> f s | None -> ())
          | (c, f) :: rest -> if c s then f s else pick rest
        in
        pick brs)
  | Ast.Do d -> comp_do ctx ~line:st.Ast.s_line d
  | Ast.Call (name, _) ->
      fun _ ->
        error "CALL %s: subroutine calls must be inlined before execution"
          name
  | Ast.Return | Ast.Stop -> fun _ -> raise Machine.Stop_run
  | Ast.Read items ->
      let setters = List.map (comp_read_target ctx) items in
      let n = List.length items in
      fun s ->
        let values = s.hooks.Machine.h_read s n in
        List.iteri (fun i set -> set s values.(i)) setters
  | Ast.Write items ->
      let fs = List.map (fun e -> as_scalar (comp ctx e)) items in
      fun s -> s.hooks.Machine.h_write s (List.map (fun f -> f s) fs)
  | Ast.Comm c ->
      let sid = st.Ast.s_id in
      fun s -> s.hooks.Machine.h_comm s ~sid c
  | Ast.Pipeline_recv { dim; dir; arrays } ->
      let sid = st.Ast.s_id in
      fun s -> s.hooks.Machine.h_pipe_recv s ~sid ~dim ~dir arrays
  | Ast.Pipeline_send { dim; dir; arrays } ->
      let sid = st.Ast.s_id in
      fun s -> s.hooks.Machine.h_pipe_send s ~sid ~dim ~dir arrays

and comp_read_target ctx (item : Ast.expr) : state -> float -> unit =
  match item with
  | Ast.Var x -> (
      match Hashtbl.find_opt ctx.x_sc x with
      | Some i -> float_store ctx i
      | None -> fun _ _ -> error "variable '%s' has no slot (compiler bug)" x)
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.x_ar name then comp_ref_set ctx name args
      else begin
        let idxf = List.map (fun a -> as_int (comp ctx a)) args in
        fun s _ ->
          List.iter (fun f -> ignore (f s)) idxf;
          error "array '%s' is not declared" name
      end
  | _ -> fun _ _ -> error "invalid assignment target"

and comp_do ctx ~line (d : Ast.do_loop) : state -> unit =
  (* a nest the fused tier does not take: one coverage entry under all
     its perfect levels' variables (when it is a field loop), then the
     plain closure IR.  Inner sub-nests may still fuse (e.g. triangular
     bounds); they just don't get coverage entries of their own *)
  let fallback levels reason =
    let idx =
      if is_field_loop ctx d then
        record_cov ctx ~line
          ~vars:(List.map (fun (l : Ast.do_loop) -> l.Ast.do_var) levels)
          ~fused:false ~frag:d.Ast.do_fission reason
      else -1
    in
    profiled idx (comp_do_plain { ctx with x_record = false } d)
  in
  if not ctx.x_fuse then comp_do_plain ctx d
  else
    match peel d with
    | P_descend -> comp_do_plain ctx d
    | P_bad (levels, reason) -> fallback levels reason
    | P_leaf (levels, stmts) -> (
        let vars = List.map (fun (l : Ast.do_loop) -> l.Ast.do_var) levels in
        match kernel_of ctx levels stmts with
        | path, kernel ->
            let idx =
              record_cov ~path ctx ~line ~vars ~fused:true
                ~frag:d.Ast.do_fission Fused
            in
            (* dynamic fall-back path: plain closure IR, no nested kernels *)
            profiled idx
              (kernel
                 (on_first_use (fun () ->
                      comp_do_plain { ctx with x_fuse = false } d)))
        | exception Unfusable reason -> fallback levels reason)

and comp_do_plain ctx (d : Ast.do_loop) : state -> unit =
  let flo = as_int (comp ctx d.Ast.do_lo) in
  let fhi = as_int (comp ctx d.Ast.do_hi) in
  let fstep =
    match d.Ast.do_step with
    | Some e -> as_int (comp ctx e)
    | None -> fun _ -> 1
  in
  let body = comp_block ctx d.Ast.do_body in
  let set_var =
    match Hashtbl.find_opt ctx.x_sc d.Ast.do_var with
    | Some i -> int_store ctx i
    | None ->
        fun _ _ ->
          error "variable '%s' has no slot (compiler bug)" d.Ast.do_var
  in
  fun st ->
    let lo = flo st in
    let hi = fhi st in
    let step = fstep st in
    if step = 0 then error "DO loop with zero step";
    let i = ref lo in
    if step > 0 then
      while !i <= hi do
        set_var st !i;
        body st;
        i := !i + step
      done
    else
      while !i >= hi do
        set_var st !i;
        body st;
        i := !i + step
      done;
    set_var st !i

(* ------------------------------------------------------------------ *)
(* Slot assignment and unit compilation                                *)
(* ------------------------------------------------------------------ *)

let collect_scalar_names (u : Ast.program_unit) ~is_array =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let add n =
    if (not (is_array n)) && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      order := n :: !order
    end
  in
  List.iter (fun d -> if d.Ast.d_dims = [] then add d.Ast.d_name) u.Ast.u_decls;
  List.iter (fun (n, _) -> add n) u.Ast.u_consts;
  List.iter (fun (n, _) -> add n) u.Ast.u_data;
  let add_expr e =
    Ast.fold_exprs (fun () e -> match e with Ast.Var x -> add x | _ -> ()) () e
  in
  Ast.iter_stmts
    (fun st ->
      List.iter add_expr (Ast.stmt_exprs st);
      match st.Ast.s_kind with
      | Ast.Do d -> add d.Ast.do_var
      | Ast.Comm (Ast.Allreduce_max v)
      | Ast.Comm (Ast.Allreduce_min v)
      | Ast.Comm (Ast.Allreduce_sum v) ->
          add v
      | Ast.Comm (Ast.Broadcast vars) -> List.iter add vars
      | _ -> ())
    u.Ast.u_body;
  List.rev !order

let kind_of_type = function
  | Ast.Integer -> KInt
  | Ast.Real | Ast.Double -> KReal
  | Ast.Logical -> KBool

let kind_matches kind (v : Value.scalar) =
  match (kind, v) with
  | KInt, Value.Int _ | KReal, Value.Real _ | KBool, Value.Bool _ -> true
  | _ -> false

let compile ?(fuse = true) (u : Ast.program_unit) : cu =
  (* the machine's initial environment: PARAMETER constants, declared
     array bounds and DATA contents, with identical semantics (and
     identical failure modes) by construction; storage waits for
     [create] *)
  let init = Machine.initial u in
  let arrays = Array.of_list (Machine.init_arrays init) in
  let ar_names = Array.map fst arrays in
  let ar_init = Array.map snd arrays in
  let ar_index = Hashtbl.create 32 in
  Array.iteri (fun i n -> Hashtbl.replace ar_index n i) ar_names;
  let sc_names =
    Array.of_list
      (collect_scalar_names u ~is_array:(Hashtbl.mem ar_index))
  in
  let sc_index = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace sc_index n i) sc_names;
  let sc_types = Array.map (Machine.init_type init) sc_names in
  let init_bindings = Machine.init_scalars init in
  let sc_kinds = Array.map kind_of_type sc_types in
  let sc_init = ref [] in
  Array.iteri
    (fun i n ->
      match List.assoc_opt n init_bindings with
      | None -> ()
      | Some v ->
          (* a PARAMETER whose value class disagrees with the slot's
             static type (e.g. an implicit-integer name bound to a real
             expression) falls back to a dynamically-typed slot *)
          if not (kind_matches sc_kinds.(i) v) then sc_kinds.(i) <- KDyn;
          sc_init := (i, v) :: !sc_init)
    sc_names;
  let cu =
    {
      cu_unit = u;
      sc_index;
      sc_names;
      sc_kinds;
      sc_types;
      sc_init = List.rev !sc_init;
      ar_index;
      ar_names;
      ar_init;
      cu_body = (fun _ -> assert false);
      cu_cov = [];
      cu_paths = [];
    }
  in
  let cov = ref [] in
  let consts = Hashtbl.create 16 in
  if fuse then begin
    let assigned = Hashtbl.create 32 in
    let mark = function
      | Ast.Var x -> Hashtbl.replace assigned x ()
      | _ -> ()
    in
    Ast.iter_stmts
      (fun st ->
        match st.Ast.s_kind with
        | Ast.Assign (lhs, _) -> mark lhs
        | Ast.Do d -> Hashtbl.replace assigned d.Ast.do_var ()
        | Ast.Read items -> List.iter mark items
        | _ -> ())
      u.Ast.u_body;
    List.iter
      (fun (n, _) ->
        if not (Hashtbl.mem assigned n) then
          match List.assoc_opt n init_bindings with
          | Some v -> Hashtbl.replace consts n v
          | None -> ())
      u.Ast.u_consts
  end;
  let ctx =
    {
      x_sc = sc_index;
      x_kinds = sc_kinds;
      x_types = sc_types;
      x_ar = ar_index;
      x_bounds = Array.map (fun a -> a.Machine.ai_bounds) ar_init;
      x_fuse = fuse;
      x_record = fuse;
      x_cov = cov;
      x_consts = consts;
    }
  in
  cu.cu_body <- comp_block ctx u.Ast.u_body;
  let cov = List.rev !cov in
  cu.cu_cov <- List.map fst cov;
  cu.cu_paths <- List.map snd cov;
  cu

(* compiled units are pure functions of the AST (and the fuse flag):
   memoize per physical unit so every rank of a run — and every run over
   the same program — shares one compilation *)
let memo : (Ast.program_unit * bool * cu) list ref = ref []
let memo_limit = 16
let memo_lock = Mutex.create ()

let of_unit ?(fuse = true) u =
  let hit =
    Mutex.protect memo_lock (fun () ->
        List.find_opt (fun (u', f, _) -> u' == u && f = fuse) !memo)
  in
  match hit with
  | Some (_, _, cu) -> cu
  | None ->
      (* compile outside the lock: worker domains of a sweep never share
         physical units, so serializing their compilations would only
         cost parallelism, not save work *)
      let cu = compile ~fuse u in
      Mutex.protect memo_lock (fun () ->
          let keep = List.filteri (fun i _ -> i < memo_limit - 1) !memo in
          memo := (u, fuse, cu) :: keep);
      cu

let coverage cu = cu.cu_cov
let kernel_paths cu = cu.cu_paths

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)
(* ------------------------------------------------------------------ *)

let create ?(hooks = sequential_hooks) ?(input = []) cu =
  let n = Array.length cu.sc_names in
  let arrs = Array.map Machine.allocate cu.ar_init in
  let ncov = List.length cu.cu_cov in
  let st =
    {
      cu;
      sf = Array.make n 0.0;
      si = Array.make n 0;
      sb = Array.make n false;
      sd = Array.make n (Value.Int 0);
      sset = Array.make n false;
      arrs;
      adata = Array.map (fun a -> a.Value.data) arrs;
      flops = 0.0;
      input;
      out_rev = [];
      hooks;
      kcalls = Array.make ncov 0;
      kflops = Array.make ncov 0.0;
      kbytes = Array.make ncov 0.0;
      kmoved = 0.0;
      kattr_flops = 0.0;
      kattr_bytes = 0.0;
      rows = [||];
    }
  in
  List.iter
    (fun (i, v) ->
      (match cu.sc_kinds.(i) with
      | KInt -> st.si.(i) <- Value.to_int v
      | KReal -> st.sf.(i) <- Value.to_float v
      | KBool -> st.sb.(i) <- Value.to_bool v
      | KDyn -> st.sd.(i) <- v);
      st.sset.(i) <- true)
    cu.sc_init;
  st

let run st =
  try st.cu.cu_body st with
  | Machine.Stop_run -> ()
  | Jump l -> error "jump to unknown label %d" l

let unit_of st = st.cu.cu_unit
let flops st = st.flops
let reset_flops st = st.flops <- 0.0
let output st = List.rev st.out_rev

type kernel_stat = {
  ks_line : int;
  ks_vars : string list;
  ks_fused : bool;
  ks_frag : Ast.fission_tag option;
  ks_calls : int;
  ks_flops : float;
  ks_bytes : float;
}

let kernel_stats st =
  List.mapi
    (fun i (c : coverage_entry) ->
      {
        ks_line = c.cov_line;
        ks_vars = c.cov_vars;
        ks_fused = c.cov_fused;
        ks_frag = c.cov_frag;
        ks_calls = st.kcalls.(i);
        ks_flops = st.kflops.(i);
        ks_bytes = st.kbytes.(i);
      })
    st.cu.cu_cov

let scalar_opt st name =
  match Hashtbl.find_opt st.cu.sc_index name with
  | None -> None
  | Some i ->
      if not st.sset.(i) then None
      else
        Some
          (match st.cu.sc_kinds.(i) with
          | KInt -> Value.Int st.si.(i)
          | KReal -> Value.Real st.sf.(i)
          | KBool -> Value.Bool st.sb.(i)
          | KDyn -> st.sd.(i))

let scalar st name =
  match scalar_opt st name with
  | Some v -> v
  | None -> error "variable '%s' used before being set" name

let set_scalar st name (v : Value.scalar) =
  match Hashtbl.find_opt st.cu.sc_index name with
  | None -> error "variable '%s' has no slot in the compiled unit" name
  | Some i -> (
      st.sset.(i) <- true;
      match st.cu.sc_kinds.(i) with
      | KInt -> st.si.(i) <- Value.to_int v
      | KReal -> st.sf.(i) <- Value.to_float v
      | KBool -> st.sb.(i) <- Value.to_bool v
      | KDyn -> (
          match st.cu.sc_types.(i) with
          | Ast.Integer -> st.sd.(i) <- Value.Int (Value.to_int v)
          | Ast.Real | Ast.Double -> st.sd.(i) <- Value.Real (Value.to_float v)
          | Ast.Logical -> st.sd.(i) <- Value.Bool (Value.to_bool v)))

let array st name =
  match Hashtbl.find_opt st.cu.ar_index name with
  | Some i -> st.arrs.(i)
  | None -> error "array '%s' is not declared" name

let has_array st name = Hashtbl.mem st.cu.ar_index name
let array_names st = Array.to_list st.cu.ar_names

let scalar_bindings st =
  Array.to_list st.cu.sc_names
  |> List.filter_map (fun n ->
         match scalar_opt st n with Some v -> Some (n, v) | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
