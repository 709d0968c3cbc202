open Autocfd_fortran

exception Stop_run
exception Runtime_error of string
exception Jump of int

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

let () =
  Printexc.register_printer (function
    | Runtime_error m -> Some ("runtime error: " ^ m)
    | _ -> None)

type 'm hooks = {
  h_block : (int -> int * int) option;
  h_comm : 'm -> sid:int -> Ast.comm -> unit;
  h_pipe_recv :
    'm -> sid:int -> dim:int -> dir:Ast.direction -> (string * int) list -> unit;
  h_pipe_send :
    'm -> sid:int -> dim:int -> dir:Ast.direction -> (string * int) list -> unit;
  h_read : 'm -> int -> float array;
  h_write : 'm -> Value.scalar list -> unit;
}

type t = {
  unit_ : Ast.program_unit;
  scalars : (string, Value.scalar) Hashtbl.t;
  arrays : (string, Value.arr) Hashtbl.t;
  dtypes : (string, Ast.dtype) Hashtbl.t;  (* declared scalar types *)
  mutable input : float list;
  mutable out_rev : string list;
  mutable flops : float;
  mutable names_memo : string list option;
      (* sorted array names; declarations are fixed once the unit starts *)
  hooks : t hooks;
}

let default_read t n =
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    match t.input with
    | [] -> error "READ: input exhausted"
    | x :: rest ->
        out.(i) <- x;
        t.input <- rest
  done;
  out

let default_write t values =
  let line =
    String.concat " "
      (List.map (fun v -> Format.asprintf "%a" Value.pp_scalar v) values)
  in
  t.out_rev <- line :: t.out_rev

let sequential_hooks_with ~read ~write =
  {
    h_block = None;
    h_comm =
      (fun _ ~sid:_ _ ->
        error "communication statement on the sequential machine");
    h_pipe_recv =
      (fun _ ~sid:_ ~dim:_ ~dir:_ _ ->
        error "pipeline recv on the sequential machine");
    h_pipe_send =
      (fun _ ~sid:_ ~dim:_ ~dir:_ _ ->
        error "pipeline send on the sequential machine");
    h_read = read;
    h_write = write;
  }

let sequential_hooks =
  sequential_hooks_with ~read:default_read ~write:default_write

let flops t = t.flops
let output t = List.rev t.out_rev

(* implicit typing: I-N integer, otherwise real *)
let implicit_type name =
  if name = "" then Ast.Real
  else match name.[0] with 'i' .. 'n' -> Ast.Integer | _ -> Ast.Real

let scalar_type t name =
  match Hashtbl.find_opt t.dtypes name with
  | Some ty -> ty
  | None -> implicit_type name

let scalar t name =
  match Hashtbl.find_opt t.scalars name with
  | Some v -> v
  | None -> error "variable '%s' used before being set" name

let set_scalar t name (v : Value.scalar) =
  let v =
    match scalar_type t name with
    | Ast.Integer -> Value.Int (Value.to_int v)
    | Ast.Real | Ast.Double -> Value.Real (Value.to_float v)
    | Ast.Logical -> Value.Bool (Value.to_bool v)
  in
  Hashtbl.replace t.scalars name v

let array t name =
  match Hashtbl.find_opt t.arrays name with
  | Some a -> a
  | None -> error "array '%s' is not declared" name

let array_names t =
  match t.names_memo with
  | Some names -> names
  | None ->
      let names =
        Hashtbl.fold (fun k _ acc -> k :: acc) t.arrays []
        |> List.sort compare
      in
      t.names_memo <- Some names;
      names

let scalar_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.scalars []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let charge t n = t.flops <- t.flops +. float_of_int n

(* iterations of DO var = lo, hi [, step]; the loop body runs exactly this
   many times and the variable's exit value is lo + trips*step *)
let trip_count ~lo ~hi ~step =
  if step = 0 then invalid_arg "Machine.trip_count: zero step"
  else if step > 0 then if lo > hi then 0 else ((hi - lo) / step) + 1
  else if lo < hi then 0
  else ((lo - hi) / -step) + 1

let rec eval t (e : Ast.expr) : Value.scalar =
  match e with
  | Ast.Const_int i -> Value.Int i
  | Ast.Const_real f -> Value.Real f
  | Ast.Const_bool b -> Value.Bool b
  | Ast.Const_str s -> Value.Str s
  | Ast.Var x -> scalar t x
  | Ast.Ref (name, args) ->
      if Hashtbl.mem t.arrays name then begin
        let idx = Array.of_list (List.map (eval_int t) args) in
        try Value.Real (Value.get (array t name) idx)
        with Invalid_argument m -> error "%s(%s): %s" name
               (String.concat "," (Array.to_list (Array.map string_of_int idx)))
               m
      end
      else eval_intrinsic t name args
  | Ast.Unop (Ast.Neg, a) -> (
      match eval t a with
      | Value.Int i -> Value.Int (-i)
      | v -> charge t 1; Value.Real (-.Value.to_float v))
  | Ast.Unop (Ast.Lnot, a) -> Value.Bool (not (Value.to_bool (eval t a)))
  | Ast.Binop (op, a, b) -> eval_binop t op a b
  | Ast.Local_lo (d, a) -> (
      let v = eval_int t a in
      match t.hooks.h_block with
      | None -> Value.Int v
      | Some f -> Value.Int (max v (fst (f d))))
  | Ast.Local_hi (d, a) -> (
      let v = eval_int t a in
      match t.hooks.h_block with
      | None -> Value.Int v
      | Some f -> Value.Int (min v (snd (f d))))

and eval_int t e = Value.to_int (eval t e)
and eval_float t e = Value.to_float (eval t e)

and eval_binop t op a b =
  let open Ast in
  match op with
  | And -> Value.Bool (Value.to_bool (eval t a) && Value.to_bool (eval t b))
  | Or -> Value.Bool (Value.to_bool (eval t a) || Value.to_bool (eval t b))
  | Lt | Le | Gt | Ge | Eq | Ne ->
      let va = eval t a and vb = eval t b in
      let x = Value.to_float va and y = Value.to_float vb in
      let r =
        match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
        | Eq -> x = y
        | Ne -> x <> y
        | _ -> assert false
      in
      Value.Bool r
  | Add | Sub | Mul | Div | Pow -> (
      let va = eval t a and vb = eval t b in
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
                Value.Real (Float.pow (float_of_int x) (float_of_int y))
              else
                let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
                Value.Int (pow 1 y)
          | _ -> assert false)
      | va, vb ->
          charge t 1;
          let x = Value.to_float va and y = Value.to_float vb in
          let r =
            match op with
            | Add -> x +. y
            | Sub -> x -. y
            | Mul -> x *. y
            | Div -> x /. y
            | Pow -> Float.pow x y
            | _ -> assert false
          in
          Value.Real r)

and eval_intrinsic t name args =
  let f1 g =
    match args with
    | [ a ] -> charge t 1; Value.Real (g (eval_float t a))
    | _ -> error "intrinsic %s expects 1 argument" name
  in
  let fold2 g =
    match args with
    | a :: rest when rest <> [] ->
        List.fold_left
          (fun acc e ->
            charge t 1;
            g acc (eval_float t e))
          (eval_float t a) rest
        |> fun x -> Value.Real x
    | _ -> error "intrinsic %s expects at least 2 arguments" name
  in
  match name with
  | "abs" -> (
      match args with
      | [ a ] -> (
          match eval t a with
          | Value.Int i -> Value.Int (abs i)
          | v -> charge t 1; Value.Real (Float.abs (Value.to_float v)))
      | _ -> error "abs expects 1 argument")
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
      | [ a; b ] -> Value.Int (max (eval_int t a) (eval_int t b))
      | _ -> error "max0 expects 2 arguments")
  | "min0" -> (
      match args with
      | [ a; b ] -> Value.Int (min (eval_int t a) (eval_int t b))
      | _ -> error "min0 expects 2 arguments")
  | "mod" -> (
      match args with
      | [ a; b ] -> (
          match (eval t a, eval t b) with
          | Value.Int x, Value.Int y ->
              if y = 0 then error "mod by zero" else Value.Int (x mod y)
          | va, vb ->
              charge t 1;
              Value.Real (Float.rem (Value.to_float va) (Value.to_float vb)))
      | _ -> error "mod expects 2 arguments")
  | "float" | "real" | "dble" -> (
      match args with
      | [ a ] -> Value.Real (eval_float t a)
      | _ -> error "%s expects 1 argument" name)
  | "int" -> (
      match args with
      | [ a ] -> Value.Int (eval_int t a)
      | _ -> error "int expects 1 argument")
  | "sign" -> (
      match args with
      | [ a; b ] ->
          charge t 1;
          let x = eval_float t a and y = eval_float t b in
          Value.Real (if y >= 0.0 then Float.abs x else -.Float.abs x)
      | _ -> error "sign expects 2 arguments")
  | _ ->
      error "'%s' is neither a declared array nor a supported intrinsic" name

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

let assign t lhs v =
  match lhs with
  | Ast.Var x -> set_scalar t x v
  | Ast.Ref (name, args) ->
      let idx = Array.of_list (List.map (eval_int t) args) in
      (try Value.set (array t name) idx (Value.to_float v)
       with Invalid_argument m -> error "%s: %s" name m)
  | _ -> error "invalid assignment target"

let rec exec_block t block =
  let arr = Array.of_list block in
  let n = Array.length arr in
  let rec go i =
    if i < n then
      match (try exec t arr.(i); None with Jump l -> Some l) with
      | None -> go (i + 1)
      | Some l -> (
          (* jump to a label within this block, else propagate *)
          match
            Array.to_seqi arr
            |> Seq.find (fun (_, st) -> st.Ast.s_label = Some l)
          with
          | Some (j, _) -> go j
          | None -> raise (Jump l))
  in
  go 0

and exec t st =
  match st.Ast.s_kind with
  | Ast.Assign (lhs, rhs) -> assign t lhs (eval t rhs)
  | Ast.Continue -> ()
  | Ast.Goto l -> raise (Jump l)
  | Ast.If (branches, els) -> (
      let rec pick = function
        | [] -> Option.iter (exec_block t) els
        | (c, b) :: rest ->
            if Value.to_bool (eval t c) then exec_block t b else pick rest
      in
      pick branches)
  | Ast.Do d ->
      let lo = eval_int t d.Ast.do_lo in
      let hi = eval_int t d.Ast.do_hi in
      let step =
        match d.Ast.do_step with Some e -> eval_int t e | None -> 1
      in
      if step = 0 then error "DO loop with zero step";
      let trips = trip_count ~lo ~hi ~step in
      for k = 0 to trips - 1 do
        set_scalar t d.Ast.do_var (Value.Int (lo + (k * step)));
        exec_block t d.Ast.do_body
      done;
      set_scalar t d.Ast.do_var (Value.Int (lo + (trips * step)))
  | Ast.Call (name, _) ->
      error "CALL %s: subroutine calls must be inlined before execution" name
  | Ast.Return | Ast.Stop -> raise Stop_run
  | Ast.Read items ->
      let values = t.hooks.h_read t (List.length items) in
      List.iteri (fun i it -> assign t it (Value.Real values.(i))) items
  | Ast.Write items -> t.hooks.h_write t (List.map (eval t) items)
  | Ast.Comm c -> t.hooks.h_comm t ~sid:st.Ast.s_id c
  | Ast.Pipeline_recv { dim; dir; arrays } ->
      t.hooks.h_pipe_recv t ~sid:st.Ast.s_id ~dim ~dir arrays
  | Ast.Pipeline_send { dim; dir; arrays } ->
      t.hooks.h_pipe_send t ~sid:st.Ast.s_id ~dim ~dir arrays

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

type array_init = { ai_bounds : (int * int) array; ai_data : float array }

let allocate a =
  let arr = Value.make_array a.ai_bounds in
  (match Array.length a.ai_data with
  | 0 -> ()
  | 1 -> Value.fill arr a.ai_data.(0)
  | n -> Array.blit a.ai_data 0 arr.Value.data 0 n);
  arr

(* a machine without array storage (its [arrays] table stays empty) and
   the declared arrays, sorted by name *)
type init = { env : t; decls : (string * array_init) list }

let initial (u : Ast.program_unit) =
  let t =
    {
      unit_ = u;
      scalars = Hashtbl.create 64;
      arrays = Hashtbl.create 1;
      dtypes = Hashtbl.create 64;
      input = [];
      out_rev = [];
      flops = 0.0;
      names_memo = None;
      hooks = sequential_hooks;
    }
  in
  (* PARAMETER constants become pre-set scalars *)
  let cenv = Autocfd_analysis.Env.of_unit u in
  List.iter
    (fun (name, e) ->
      match Autocfd_analysis.Env.eval_int cenv e with
      | Some v ->
          Hashtbl.replace t.dtypes name (implicit_type name);
          Hashtbl.replace t.scalars name
            (match implicit_type name with
            | Ast.Integer -> Value.Int v
            | _ -> Value.Real (float_of_int v))
      | None -> (
          (* non-integer parameter (e.g. eps = 1.0e-6) *)
          match eval t e with
          | v -> Hashtbl.replace t.scalars name v
          | exception Runtime_error _ ->
              error "parameter '%s' is not a constant" name))
    u.Ast.u_consts;
  (* declarations: bounds and their element counts, no storage *)
  let shapes = Hashtbl.create 32 in
  List.iter
    (fun d ->
      Hashtbl.replace t.dtypes d.Ast.d_name d.Ast.d_type;
      if d.Ast.d_dims <> [] then begin
        let bounds =
          Array.of_list
            (List.map
               (fun (lo, hi) ->
                 let l =
                   try eval_int t lo
                   with Runtime_error _ ->
                     error "array '%s': non-constant lower bound" d.Ast.d_name
                 in
                 let h =
                   try eval_int t hi
                   with Runtime_error _ ->
                     error "array '%s': non-constant upper bound" d.Ast.d_name
                 in
                 (l, h))
               d.Ast.d_dims)
        in
        Hashtbl.replace shapes d.Ast.d_name
          ({ ai_bounds = bounds; ai_data = [||] }, Value.elements bounds)
      end)
    u.Ast.u_decls;
  (* DATA initialization *)
  List.iter
    (fun (name, values) ->
      match Hashtbl.find_opt shapes name with
      | Some (a, n) ->
          let vs = List.map (fun e -> Value.to_float (eval t e)) values in
          let k = List.length vs in
          if k = 1 || k = n then
            Hashtbl.replace shapes name
              ({ a with ai_data = Array.of_list vs }, n)
          else error "DATA %s: %d values for %d elements" name k n
      | None -> (
          match values with
          | [ e ] -> set_scalar t name (eval t e)
          | _ -> error "DATA %s: scalar takes exactly one value" name))
    u.Ast.u_data;
  let decls =
    Hashtbl.fold (fun name (a, _) acc -> (name, a) :: acc) shapes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { env = t; decls }

let init_arrays i = i.decls
let init_scalars i = scalar_bindings i.env
let init_type i name = scalar_type i.env name

let create ?(hooks = sequential_hooks) ?(input = []) (u : Ast.program_unit) =
  let i = initial u in
  let t = { i.env with arrays = Hashtbl.create 32; input; hooks } in
  List.iter
    (fun (name, a) -> Hashtbl.replace t.arrays name (allocate a))
    i.decls;
  t

let run t =
  try exec_block t t.unit_.Ast.u_body with
  | Stop_run -> ()
  | Jump l -> error "jump to unknown label %d" l
