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
   deterministically and tests can match constructors. *)
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
(* Array layout: the strides and base offset fused kernels index by    *)
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
  let slot, off = comp_offset ctx ~read:true name args in
  F (fun st -> st.adata.(slot).(off st))

(* the (state -> float -> unit) store side of an array element *)
and comp_ref_set ctx name args : state -> float -> unit =
  let slot, off = comp_offset ctx ~read:false name args in
  fun st v -> st.adata.(slot).(off st) <- v

(* an element's array slot and data offset, as Machine computes it: every
   subscript evaluated left to right, then Value.linear_index checks them
   against the bounds.  A failure reads as Machine's: the subscripts are
   listed on a read ("u(2,31): ...") but not on a write ("u: ...") *)
and comp_offset ctx ~read name args : int * (state -> int) =
  let slot = Hashtbl.find ctx.x_ar name in
  let idxf = Array.of_list (List.map (fun a -> as_int (comp ctx a)) args) in
  ( slot,
    fun st ->
      let idx = Array.map (fun f -> f st) idxf in
      try Value.linear_index st.arrs.(slot) idx
      with Invalid_argument m ->
        if read then
          error "%s(%s): %s" name
            (String.concat "," (Array.to_list (Array.map string_of_int idx)))
            m
        else error "%s: %s" name m )

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
module Access = Autocfd_analysis.Access

(* entry-invariant affine form of a subscript over the fused loop
   variables: [sum coeff_l * var_l + const + sum mul_s * slot_s], with
   per-level coefficients and (KInt slot, multiplier) symbols — the
   form the dependence test reads *)
type aff = int Access.aff

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
  e_names : int Access.names;  (* subscripts: [subscript_leaf], [cfold] *)
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
let rec cfold ctx (e : Ast.expr) : int option =
  match e with
  | Ast.Const_int c -> Some c
  | Ast.Var x -> (
      match Hashtbl.find_opt ctx.x_consts x with
      | Some (Value.Int c) -> Some c
      | _ -> None)
  | Ast.Unop (Ast.Neg, a) -> Option.map (fun c -> -c) (cfold ctx a)
  | Ast.Binop (op, a, b) -> (
      match (cfold ctx a, cfold ctx b) with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Some (x + y)
          | Ast.Sub -> Some (x - y)
          | Ast.Mul -> Some (x * y)
          | Ast.Div -> if y = 0 then None else Some (x / y)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* A subscript name as the kernel sees it.  Scalars the body assigns
   are barred (the kernel resolves subscript residuals once at entry); a
   constant folds, so the dependence test can compare it with a literal
   subscript, and an integral real one makes the machine evaluate in
   float; other integer scalars are entry-invariant symbols. *)
let subscript_leaf ctx ~lvl ~wrb ~reads x : int Access.leaf =
  match Hashtbl.find_opt lvl x with
  | Some l -> Access.Level l
  | None -> (
      if Hashtbl.mem wrb x then raise (Unfusable Scalar_subscript);
      match Hashtbl.find_opt ctx.x_consts x with
      | Some (Value.Int c) -> Access.Int c
      | Some (Value.Real r) when Float.is_integer r -> Access.Real (truncate r)
      | _ -> (
          match Hashtbl.find_opt ctx.x_sc x with
          | Some i when ctx.x_kinds.(i) = KInt ->
              reads := i :: !reads;
              Access.Sym i
          | _ -> Access.Other))

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
      match cfold env.e_ctx b with
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
      match cfold env.e_ctx b with
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
  | Fref of int  (* registered reference id *)
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
  | Kstore of int * fx  (* written reference id, rhs *)
  | Kreal of int * fx  (* real scratch scalar slot := rhs *)
  | Kfold of int * bin * fx  (* real slot := slot op rhs: Add Sub Mul Max Min *)

let reg_ref env slot (args : Ast.expr list) : int =
  let bounds = env.e_ctx.x_bounds.(slot) in
  if List.length args <> Array.length bounds then
    raise (Unfusable Rank_mismatch);
  (* each float operation of a subscript charges one flop per iteration;
     anything the machine could fail on is refused, so entry-time
     evaluation is exact *)
  let subscript e =
    match Access.subscript env.e_names e with
    | Access.Aff a, flops ->
        env.e_flops := !(env.e_flops) + flops;
        a
    | Access.Opaque, _ -> raise (Unfusable Non_affine_subscript)
  in
  let affs = Array.of_list (List.map subscript args) in
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
      | Some slot -> Ff (Fref (reg_ref env slot args))
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
                  match cfold env.e_ctx b with
                  | Some c when c <> 0 -> Fi (Iop1 ((fun x -> x / c), fa))
                  | _ -> raise (Unfusable Int_division))
              | Ast.Pow -> (
                  match cfold env.e_ctx b with
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
          Some (Kstore (reg_ref env slot args, rf)))
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

let[@inline] un_fn u x =
  match u with
  | Neg -> -.x
  | Abs -> Float.abs x
  | Sqrt -> Float.sqrt x
  | Exp -> Float.exp x
  | Log -> Float.log x
  | Sin -> Float.sin x
  | Cos -> Float.cos x
  | Tan -> Float.tan x
  | Atan -> Float.atan x

let[@inline] bin_fn b x y =
  match b with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Pow -> Float.pow x y
  | Max -> Float.max x y
  | Min -> Float.min x y
  | Rem -> Float.rem x y
  | Sign -> if y >= 0.0 then Float.abs x else -.Float.abs x

(* ---- row path: every node evaluates a whole row into an unboxed
   register, one closure call per node per row ---- *)

(* One row of the kernel, along its row level or its diagonal, shared by
   its steps.  A row longer than [row_cap] points runs as consecutive
   pieces of at most that many, which keeps every dependence a whole row
   keeps (pieces run in row order) and bounds the scratch buffer.  A step
   names each row it reads or writes by an operand id, which the row maps
   to an array, an offset and a step: a reference's id is its own, and
   the registers and cells after them (see [rid]) live in the state's
   buffer, register [r] at [r * cap], then one float per cell (a
   constant, written at kernel entry, or a row invariant, written once
   per piece). *)
let row_cap = 128

type row = {
  w_st : state;
  mutable w_n : int;  (* points in this piece of the row *)
  w_data : float array array;  (* per operand id: the array it lives in *)
  w_offs : int array;  (* per operand id: its offset at the piece's start *)
  w_kd : int array;  (* per operand id: its offset step along the row *)
  w_vals : int array;  (* loop values at the row's start *)
  w_lstep : int array;  (* per level: its loop value's step along the row *)
}

(* how a step reads an operand: a cell's value once per piece, a row at
   unit stride (a register, or a reference whose row stride is 1) at
   [base + t], and any other row (strides 0, -1, 2, a diagonal's) by its
   stride *)
type opnd = Ocell of int | Ounit of int | Ostride of int  (* operand id *)

type shape = Scell | Sunit | Sstride

let oid (Ocell i | Ounit i | Ostride i) = i

(* The loops below take their operator and operand shapes as constants
   at each call site, where the compiler inlines them and folds every
   match on a constant: each step is one closure specialised, when the
   kernel is compiled, to its operator and its operands' shapes, with no
   match per call or per point and its arithmetic unboxed.  [at] reads
   an operand at point [t]: a cell's value [v], read before the loop, a
   unit row at [i + t], another row at its running offset [j]. *)
let[@inline] at s (x : float array) i j v t =
  match s with
  | Scell -> v
  | Sunit -> Array.unsafe_get x (i + t)
  | Sstride -> Array.unsafe_get x j

(* register [d] := [a] op [c] *)
let[@inline] bin_loop b sa sc a c d w =
  let dat = w.w_data and off = w.w_offs and kd = w.w_kd in
  let y = Array.unsafe_get dat d and yd = Array.unsafe_get off d in
  let xa = Array.unsafe_get dat a and ia = Array.unsafe_get off a in
  let xc = Array.unsafe_get dat c and ic = Array.unsafe_get off c in
  let va = Array.unsafe_get xa ia and vc = Array.unsafe_get xc ic in
  let ka = Array.unsafe_get kd a and kc = Array.unsafe_get kd c in
  let ja = ref ia and jc = ref ic in
  for t = 0 to w.w_n - 1 do
    Array.unsafe_set y (yd + t)
      (bin_fn b (at sa xa ia !ja va t) (at sc xc ic !jc vc t));
    (match sa with Sstride -> ja := !ja + ka | _ -> ());
    match sc with Sstride -> jc := !jc + kc | _ -> ()
  done

(* register [d] := op [a] *)
let[@inline] un_loop u sa a d w =
  let y = Array.unsafe_get w.w_data d and yd = Array.unsafe_get w.w_offs d in
  let x = Array.unsafe_get w.w_data a and ia = Array.unsafe_get w.w_offs a in
  let v = Array.unsafe_get x ia in
  let ka = Array.unsafe_get w.w_kd a and ja = ref ia in
  for t = 0 to w.w_n - 1 do
    Array.unsafe_set y (yd + t) (un_fn u (at sa x ia !ja v t));
    match sa with Sstride -> ja := !ja + ka | _ -> ()
  done

(* row [d] := row [a], point by point in row order: a store, or a
   reference's row copied into a register *)
let[@inline] move_loop sa sd a d w =
  let dat = w.w_data and off = w.w_offs and kd = w.w_kd in
  let y = Array.unsafe_get dat d and yd = Array.unsafe_get off d in
  let x = Array.unsafe_get dat a and ia = Array.unsafe_get off a in
  let v = Array.unsafe_get x ia in
  let ka = Array.unsafe_get kd a and ky = Array.unsafe_get kd d in
  let ja = ref ia and jy = ref yd in
  for t = 0 to w.w_n - 1 do
    let x = at sa x ia !ja v t in
    (match sd with
    | Sunit -> Array.unsafe_set y (yd + t) x
    | _ ->
        Array.unsafe_set y !jy x;
        jy := !jy + ky);
    match sa with Sstride -> ja := !ja + ka | _ -> ()
  done

(* fold row [a] into real slot [i] point by point in row order, which is
   source order: a nest with a fold runs its rows along the source
   innermost level *)
let[@inline] fold_loop b sa i a w =
  let x = Array.unsafe_get w.w_data a and ia = Array.unsafe_get w.w_offs a in
  let v = Array.unsafe_get x ia in
  let ka = Array.unsafe_get w.w_kd a and ja = ref ia in
  let sf = w.w_st.sf in
  let acc = ref (Array.unsafe_get sf i) in
  for t = 0 to w.w_n - 1 do
    acc := bin_fn b !acc (at sa x ia !ja v t);
    match sa with Sstride -> ja := !ja + ka | _ -> ()
  done;
  Array.unsafe_set sf i !acc

(* The steps: one closure per operator and shape.  The four arithmetic
   operators have a loop for each shape pair; two cells meet only when a
   scratch scalar holds one (others fold at compile time), and take the
   strided loop, where a cell has stride 0.  The other operators, the
   unary steps but [-] and [abs], and folds of a row not at unit stride
   take the strided loop too. *)
let bin_step b a c d =
  let i = oid a and j = oid c in
  match (b, a, c) with
  | Add, Ocell _, Ounit _ -> fun w -> bin_loop Add Scell Sunit i j d w
  | Add, Ounit _, Ocell _ -> fun w -> bin_loop Add Sunit Scell i j d w
  | Add, Ounit _, Ounit _ -> fun w -> bin_loop Add Sunit Sunit i j d w
  | Add, Ocell _, Ostride _ -> fun w -> bin_loop Add Scell Sstride i j d w
  | Add, Ostride _, Ocell _ -> fun w -> bin_loop Add Sstride Scell i j d w
  | Add, Ounit _, Ostride _ -> fun w -> bin_loop Add Sunit Sstride i j d w
  | Add, Ostride _, Ounit _ -> fun w -> bin_loop Add Sstride Sunit i j d w
  | Add, _, _ -> fun w -> bin_loop Add Sstride Sstride i j d w
  | Sub, Ocell _, Ounit _ -> fun w -> bin_loop Sub Scell Sunit i j d w
  | Sub, Ounit _, Ocell _ -> fun w -> bin_loop Sub Sunit Scell i j d w
  | Sub, Ounit _, Ounit _ -> fun w -> bin_loop Sub Sunit Sunit i j d w
  | Sub, Ocell _, Ostride _ -> fun w -> bin_loop Sub Scell Sstride i j d w
  | Sub, Ostride _, Ocell _ -> fun w -> bin_loop Sub Sstride Scell i j d w
  | Sub, Ounit _, Ostride _ -> fun w -> bin_loop Sub Sunit Sstride i j d w
  | Sub, Ostride _, Ounit _ -> fun w -> bin_loop Sub Sstride Sunit i j d w
  | Sub, _, _ -> fun w -> bin_loop Sub Sstride Sstride i j d w
  | Mul, Ocell _, Ounit _ -> fun w -> bin_loop Mul Scell Sunit i j d w
  | Mul, Ounit _, Ocell _ -> fun w -> bin_loop Mul Sunit Scell i j d w
  | Mul, Ounit _, Ounit _ -> fun w -> bin_loop Mul Sunit Sunit i j d w
  | Mul, Ocell _, Ostride _ -> fun w -> bin_loop Mul Scell Sstride i j d w
  | Mul, Ostride _, Ocell _ -> fun w -> bin_loop Mul Sstride Scell i j d w
  | Mul, Ounit _, Ostride _ -> fun w -> bin_loop Mul Sunit Sstride i j d w
  | Mul, Ostride _, Ounit _ -> fun w -> bin_loop Mul Sstride Sunit i j d w
  | Mul, _, _ -> fun w -> bin_loop Mul Sstride Sstride i j d w
  | Div, Ocell _, Ounit _ -> fun w -> bin_loop Div Scell Sunit i j d w
  | Div, Ounit _, Ocell _ -> fun w -> bin_loop Div Sunit Scell i j d w
  | Div, Ounit _, Ounit _ -> fun w -> bin_loop Div Sunit Sunit i j d w
  | Div, Ocell _, Ostride _ -> fun w -> bin_loop Div Scell Sstride i j d w
  | Div, Ostride _, Ocell _ -> fun w -> bin_loop Div Sstride Scell i j d w
  | Div, Ounit _, Ostride _ -> fun w -> bin_loop Div Sunit Sstride i j d w
  | Div, Ostride _, Ounit _ -> fun w -> bin_loop Div Sstride Sunit i j d w
  | Div, _, _ -> fun w -> bin_loop Div Sstride Sstride i j d w
  | Pow, _, _ -> fun w -> bin_loop Pow Sstride Sstride i j d w
  | Max, _, _ -> fun w -> bin_loop Max Sstride Sstride i j d w
  | Min, _, _ -> fun w -> bin_loop Min Sstride Sstride i j d w
  | Rem, _, _ -> fun w -> bin_loop Rem Sstride Sstride i j d w
  | Sign, _, _ -> fun w -> bin_loop Sign Sstride Sstride i j d w

let un_step u a d =
  let i = oid a in
  match (u, a) with
  | Neg, Ounit _ -> fun w -> un_loop Neg Sunit i d w
  | Abs, Ounit _ -> fun w -> un_loop Abs Sunit i d w
  | Neg, _ -> fun w -> un_loop Neg Sstride i d w
  | Abs, _ -> fun w -> un_loop Abs Sstride i d w
  | Sqrt, _ -> fun w -> un_loop Sqrt Sstride i d w
  | Exp, _ -> fun w -> un_loop Exp Sstride i d w
  | Log, _ -> fun w -> un_loop Log Sstride i d w
  | Sin, _ -> fun w -> un_loop Sin Sstride i d w
  | Cos, _ -> fun w -> un_loop Cos Sstride i d w
  | Tan, _ -> fun w -> un_loop Tan Sstride i d w
  | Atan, _ -> fun w -> un_loop Atan Sstride i d w

(* [unit]: the destination's row runs at unit stride *)
let move_step a d ~unit =
  let i = oid a in
  match (a, unit) with
  | Ounit _, true -> fun w -> move_loop Sunit Sunit i d w
  | Ocell _, true -> fun w -> move_loop Scell Sunit i d w
  | Ostride _, true -> fun w -> move_loop Sstride Sunit i d w
  | Ounit _, false -> fun w -> move_loop Sunit Sstride i d w
  | Ocell _, false -> fun w -> move_loop Scell Sstride i d w
  | Ostride _, false -> fun w -> move_loop Sstride Sstride i d w

let fold_step b i a =
  let k = oid a in
  match (b, a) with
  | Add, Ounit _ -> fun w -> fold_loop Add Sunit i k w
  | Sub, Ounit _ -> fun w -> fold_loop Sub Sunit i k w
  | Mul, Ounit _ -> fun w -> fold_loop Mul Sunit i k w
  | Max, Ounit _ -> fun w -> fold_loop Max Sunit i k w
  | Min, Ounit _ -> fun w -> fold_loop Min Sunit i k w
  | Add, _ -> fun w -> fold_loop Add Sstride i k w
  | Sub, _ -> fun w -> fold_loop Sub Sstride i k w
  | Mul, _ -> fun w -> fold_loop Mul Sstride i k w
  | Max, _ -> fun w -> fold_loop Max Sstride i k w
  | Min, _ -> fun w -> fold_loop Min Sstride i k w
  | (Div | Pow | Rem | Sign), _ -> assert false

(* row values at compile time: constants and row invariants stay
   scalar until an operand needs them *)
type rv =
  | Vconst of float
  | Vinv of (row -> float)  (* evaluated once per row *)
  | Vreg of int  (* a register *)
  | Vop of opnd  (* a reference's row, or a cell *)

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
  mutable g_cells : int;  (* cells so far *)
  mutable g_consts : (int * float) list;  (* constant cells' ids and values *)
  g_nrefs : int;  (* the kernel's references *)
  g_unit : bool array;  (* per reference: is its row stride 1 *)
  g_along : bool array;  (* per level: does its loop value move along a row *)
  g_scal : (int, rv) Hashtbl.t;  (* real scratch slot -> its row *)
}

let emit g s = g.g_steps <- s :: g.g_steps

let reg g =
  let r = g.g_top in
  g.g_top <- r + 1;
  g.g_regs <- max g.g_regs g.g_top;
  r

(* operand ids after the references alternate: register [r] is
   [nrefs + 2r], cell [k] is [nrefs + 2k + 1] *)
let rid g r = g.g_nrefs + (2 * r)

let cell g =
  let k = g.g_cells in
  g.g_cells <- k + 1;
  g.g_nrefs + (2 * k) + 1

let opnd g = function
  | Vop o -> o
  | Vreg r -> Ounit (rid g r)
  | Vconst c ->
      let i = cell g in
      g.g_consts <- (i, c) :: g.g_consts;
      Ocell i
  | Vinv f ->
      let i = cell g in
      emit g (fun w ->
          Array.unsafe_set (Array.unsafe_get w.w_data i)
            (Array.unsafe_get w.w_offs i) (f w));
      Ocell i

let scalar_of = function
  | Vconst c -> fun _ -> c
  | Vinv f -> f
  | Vreg _ | Vop _ -> assert false

let irow = function Iinv f -> fun w _ -> f w | Irow f -> f

let rec rfx g (e : fx) : rv =
  match e with
  | Fconst c -> Vconst c
  | Fslot i -> (
      match Hashtbl.find_opt g.g_scal i with
      | Some v -> v
      | None -> Vinv (fun w -> Array.unsafe_get w.w_st.sf i))
  | Fref id -> Vop (if g.g_unit.(id) then Ounit id else Ostride id)
  | Fof_int a -> (
      let mark = g.g_top in
      match rix g a with
      | Iinv f -> Vinv (fun w -> float_of_int (f w))
      | Irow f ->
          g.g_top <- mark;
          let d = reg g in
          let y = rid g d in
          emit g (fun w ->
              let x = Array.unsafe_get w.w_data y in
              let yd = Array.unsafe_get w.w_offs y in
              for t = 0 to w.w_n - 1 do
                Array.unsafe_set x (yd + t) (float_of_int (f w t))
              done);
          Vreg d)
  | Fun (u, a) -> (
      let mark = g.g_top in
      match rfx g a with
      | Vconst c -> Vconst (un_fn u c)
      | Vinv f -> Vinv (fun w -> un_fn u (f w))
      | v ->
          let o = opnd g v in
          g.g_top <- mark;
          let d = reg g in
          emit g (un_step u o (rid g d));
          Vreg d)
  | Fbin (b, x, y) -> (
      let mark = g.g_top in
      let va = rfx g x in
      let vb = rfx g y in
      match (va, vb) with
      | Vconst p, Vconst q -> Vconst (bin_fn b p q)
      | (Vconst _ | Vinv _), (Vconst _ | Vinv _) ->
          let fa = scalar_of va and fb = scalar_of vb in
          Vinv (fun w -> bin_fn b (fa w) (fb w))
      | _ ->
          let oa = opnd g va in
          let ob = opnd g vb in
          g.g_top <- mark;
          let d = reg g in
          emit g (bin_step b oa ob (rid g d));
          Vreg d)

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
      | v ->
          (* read when the consuming step runs: [v]'s register stays
             below that step's own *)
          let i = oid (opnd g v) in
          Irow
            (fun w t ->
              truncate
                (Array.unsafe_get (Array.unsafe_get w.w_data i)
                   (Array.unsafe_get w.w_offs i + (t * Array.unsafe_get w.w_kd i)))))
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
   scalar keeps its row in a register (or as its cell or constant) for
   the statements after it, and a fold folds its row into its
   accumulator's slot. *)
let rstmt g = function
  | Kfold (i, op, rhs) ->
      emit g (fold_step op i (opnd g (rfx g rhs)));
      g.g_top <- g.g_floor
  | Kstore (wid, rhs) ->
      emit g (move_step (opnd g (rfx g rhs)) wid ~unit:g.g_unit.(wid));
      g.g_top <- g.g_floor
  | Kreal (i, rhs) ->
      let v =
        match rfx g rhs with
        | Vop ((Ounit _ | Ostride _) as o) ->
            (* a reference's row: later statements may store into the
               array *)
            let d = reg g in
            emit g (move_step o (rid g d) ~unit:true);
            Vreg d
        | Vinv _ as v -> Vop (opnd g v)
        | v -> v
      in
      (match v with
      | Vreg d -> g.g_floor <- max g.g_floor (d + 1)
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
   two references to one array, at least one a write, give one
   [Access.distance] vector, computed once; the two returned tests, one for a row
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
  let dims = Array.map (fun (_, affs) -> Array.map (fun a -> Access.Aff a) affs) refs in
  let deps = ref [] in
  let add order r r' =
    match Access.distance ~steps:signs dims.(r) dims.(r') with
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
  let reads = ref [] in
  let env =
    {
      e_ctx = ctx;
      e_m = m;
      e_lvl = lvl;
      e_reads = reads;
      e_refs = ref [];
      e_nrefs = ref 0;
      e_flops = ref 0;
      e_wrb = wrb;
      e_wrscal = Hashtbl.create 8;
      e_names =
        Access.names ~depth:m
          ~leaf:(subscript_leaf ctx ~lvl ~wrb ~reads)
          ~fold:(cfold ctx) ~is_array:(Hashtbl.mem ctx.x_ar);
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
    match Access.fold env.e_names s with
    | Some (x, op, e)
      when List.for_all
             (fun s' ->
               s' == s || not (List.exists (mentions x) (Ast.stmt_exprs s')))
             stmts ->
        let op =
          match op with
          | `Add -> Add | `Sub -> Sub | `Mul -> Mul | `Max -> Max | `Min -> Min
        in
        Some (x, op, e)
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
              flat.(l) <- flat.(l) + (a.Access.coeffs.(l) * strides.(d))
            done)
          affs;
        {
          k_slot = slot;
          k_bounds = bounds;
          k_strides = strides;
          k_base = base;
          k_coeff = Array.map (fun (a : aff) -> a.Access.coeffs) affs;
          k_resid =
            Array.map
              (fun (a : aff) ->
                match a.Access.syms with
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
  (* each level's step, when it is a compile-time constant *)
  let steps =
    Array.of_list
      (List.map
         (fun (d : Ast.do_loop) ->
           match d.Ast.do_step with
           | None -> Some 1
           | Some e -> (
               match cfold env.e_ctx e with
               | Some s when s <> 0 -> Some s
               | _ -> None))
         levels)
  in
  (* rows along the legal level whose references have the least summed
     stride, the innermost of them on a tie; a nest with a fold tries only
     the source innermost level, where folding rows performs source
     order's operations in its order.  With no level legal and no fold,
     the legal diagonal of least summed stride, the outer pair on a tie;
     with none, the closure IR *)
  let path =
    let cost f = Array.fold_left (fun c k -> c + abs (f k.k_flat)) 0 kinfo in
    let writes =
      Array.map (function Kstore (w, _) -> w | Kreal _ | Kfold _ -> -1) kst
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
  (* a reference's offset step along a row whose levels move by [lstep] *)
  let row_stride k lstep =
    let d = ref 0 in
    for l = 0 to m - 1 do
      d := !d + (k.k_flat.(l) * lstep.(l))
    done;
    !d
  in
  (* the references whose row stride the levels' constant steps make 1
     (the kernel's entry evaluates the same steps) *)
  let unit =
    match (steps.(ra), if rb < 0 then Some 0 else steps.(rb)) with
    | Some sa, Some sb ->
        let lstep =
          Array.init m (fun l -> if l = ra then sa else if l = rb then -sb else 0)
        in
        Array.map (fun k -> row_stride k lstep = 1) kinfo
    | _ -> Array.make nrefs false
  in
  let g =
    { g_steps = []; g_top = 0; g_floor = 0; g_regs = 0; g_cells = 0;
      g_consts = []; g_nrefs = nrefs; g_unit = unit;
      g_along = Array.init m (fun l -> l = ra || l = rb);
      g_scal = Hashtbl.create 4 }
  in
  Array.iter (rstmt g) kst;
  (* scratch slots and their rows *)
  let exits =
    Array.of_list
      (Hashtbl.fold (fun i v acc -> (i, oid (opnd g v)) :: acc) g.g_scal [])
  in
  let rsteps = Array.of_list (List.rev g.g_steps) in
  let nsteps = Array.length rsteps and regs = g.g_regs and cells = g.g_cells in
  let nids = nrefs + (2 * max regs cells) and consts = g.g_consts in
  (* stride classes: references with equal per-level flat strides share
     one offset per row, to which each adds its entry base *)
  let classes = ref [] in
  let cls =
    Array.map
      (fun k ->
        match List.assoc_opt k.k_flat !classes with
        | Some c -> c
        | None ->
            let c = List.length !classes in
            classes := (k.k_flat, c) :: !classes;
            c)
      kinfo
  in
  let cflat = Array.of_list (List.rev_map fst !classes) in
  let ncls = Array.length cflat in
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
            let lstep = Array.make m 0 in
            lstep.(ra) <- steps.(ra);
            if rb >= 0 then lstep.(rb) <- -steps.(rb);
            let ta = trips.(ra) and tb = if rb >= 0 then trips.(rb) else 0 in
            (* a diagonal's longest row is its shorter side *)
            let cap = min (if rb < 0 then ta else min ta tb) row_cap in
            let need = (regs * cap) + cells in
            if Array.length st.rows < need then
              st.rows <- Array.create_float need;
            (* the operand table: each reference's array and stride, each
               register's and cell's place in the buffer *)
            let data = Array.make nids st.rows in
            let offs = Array.make nids 0 and kd = Array.make nids 0 in
            Array.iteri
              (fun r k ->
                data.(r) <- st.adata.(k.k_slot);
                kd.(r) <- row_stride k lstep)
              kinfo;
            for r = 0 to regs - 1 do
              offs.(nrefs + (2 * r)) <- r * cap;
              kd.(nrefs + (2 * r)) <- 1
            done;
            for k = 0 to cells - 1 do
              offs.(nrefs + (2 * k) + 1) <- (regs * cap) + k
            done;
            List.iter (fun (i, c) -> st.rows.(offs.(i)) <- c) consts;
            let w =
              { w_st = st; w_n = cap; w_data = data; w_offs = offs; w_kd = kd;
                w_vals = vals; w_lstep = lstep }
            in
            let pos = Array.make ncls 0 in
            (* the row of [len] points from the loop values at its start,
               in pieces of at most [cap]: one position per stride class,
               plus each reference's entry base *)
            let row len =
              for c = 0 to ncls - 1 do
                let f = cflat.(c) and o = ref 0 in
                for l = 0 to m - 1 do
                  o := !o + (f.(l) * vals.(l))
                done;
                pos.(c) <- !o
              done;
              for r = 0 to nrefs - 1 do
                offs.(r) <- rbase.(r) + pos.(cls.(r))
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
                st.sf.(i) <- data.(o).(offs.(o) + ((w.w_n - 1) * kd.(o)));
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

let flops st = st.flops
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

let array_names st = Array.to_list st.cu.ar_names

let scalar_bindings st =
  Array.to_list st.cu.sc_names
  |> List.filter_map (fun n ->
         match scalar_opt st n with Some v -> Some (n, v) | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
