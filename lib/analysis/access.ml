(* Array accesses: the affine form of a subscript, its decomposer, the
   access summary of a statement list and the dependence distance.  Each
   client describes its nest with its own [names]; nothing here knows
   which client calls. *)

open Autocfd_fortran
module SS = Set.Make (String)

type 'k aff = { coeffs : int array; const : int; syms : ('k * int) list }
type 'k dim = Aff of 'k aff | Opaque
type 'k leaf = Level of int | Int of int | Real of int | Sym of 'k | Other

type 'k names = {
  depth : int;
  leaf : string -> 'k leaf;
  fold : Ast.expr -> int option;
  is_array : string -> bool;
  zero : int array;  (* the coefficients of a constant, shared *)
  units : int array option array;  (* per level, shared once built *)
}

let names ~depth ~leaf ~fold ~is_array =
  { depth; leaf; fold; is_array; zero = Array.make depth 0;
    units = Array.make depth None }

(* ------------------------------------------------------------------ *)
(* Decomposition                                                       *)
(* ------------------------------------------------------------------ *)

(* Forms share coefficient arrays: a constant carries [n.zero] and a
   lone loop variable its level's unit array, so the usual [i + 1] or
   [5] allocates no array. *)
let const n c = { coeffs = n.zero; const = c; syms = [] }

let level n l =
  let coeffs =
    match n.units.(l) with
    | Some u -> u
    | None ->
        let u = Array.make n.depth 0 in
        u.(l) <- 1;
        n.units.(l) <- Some u;
        u
  in
  { coeffs; const = 0; syms = [] }

let scale n c a =
  {
    coeffs = (if a.coeffs == n.zero then n.zero else Array.map (( * ) c) a.coeffs);
    const = c * a.const;
    syms = List.map (fun (x, mu) -> (x, c * mu)) a.syms;
  }

let add n a b =
  {
    coeffs =
      (if b.coeffs == n.zero then a.coeffs
       else if a.coeffs == n.zero then b.coeffs
       else Array.mapi (fun l k -> k + b.coeffs.(l)) a.coeffs);
    const = a.const + b.const;
    syms = a.syms @ b.syms;
  }

(* canonical symbols: sorted and combined, zero multipliers dropped *)
let norm a =
  match a.syms with
  | [] -> a
  | [ (_, 0) ] -> { a with syms = [] }
  | [ _ ] -> a
  | syms ->
      let rec combine = function
        | (x, m) :: (y, m') :: rest when x = y -> combine ((x, m + m') :: rest)
        | (_, 0) :: rest -> combine rest
        | s :: rest -> s :: combine rest
        | [] -> []
      in
      { a with syms = combine (List.sort (fun (x, _) (y, _) -> compare x y) syms) }

exception Not_affine

let subscript n e =
  let flops = ref 0 in
  (* the form and whether the machine evaluates it in float *)
  let rec go (e : Ast.expr) =
    match e with
    | Ast.Const_int c -> (const n c, false)
    | Ast.Const_real r when Float.is_integer r -> (const n (truncate r), true)
    | Ast.Var x -> (
        match n.leaf x with
        | Level l -> (level n l, false)
        | Int c -> (const n c, false)
        | Real c -> (const n c, true)
        | Sym k -> ({ (const n 0) with syms = [ (k, 1) ] }, false)
        | Other -> raise Not_affine)
    | Ast.Unop (Ast.Neg, a) ->
        let fa, re = go a in
        charge re;
        (scale n (-1) fa, re)
    | Ast.Binop (((Ast.Add | Ast.Sub) as op), a, b) ->
        let fa, ra = go a in
        let fb, rb = go b in
        let re = ra || rb in
        charge re;
        (add n fa (if op = Ast.Sub then scale n (-1) fb else fb), re)
    | Ast.Binop (Ast.Mul, a, b) -> (
        let by c x =
          let fx, re = go x in
          charge re;
          (scale n c fx, re)
        in
        match n.fold a with
        | Some c -> by c b
        | None -> (
            match n.fold b with Some c -> by c a | None -> raise Not_affine))
    | _ -> (
        match n.fold e with Some c -> (const n c, false) | None -> raise Not_affine)
  and charge re = if re then incr flops in
  match go e with
  | a, _ -> (Aff (norm a), !flops)
  | exception Not_affine -> (Opaque, !flops)

let fold n (s : Ast.stmt) =
  match s.Ast.s_kind with
  | Ast.Assign
      (Ast.Var x, Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul) as op), Ast.Var y, e))
    when x = y ->
      Some (x, (match op with Ast.Add -> `Add | Ast.Sub -> `Sub | _ -> `Mul), e)
  | Ast.Assign
      ( Ast.Var x,
        Ast.Ref ((("max" | "amax1" | "min" | "amin1") as f), [ Ast.Var y; e ]) )
    when x = y && not (n.is_array f) ->
      Some (x, (if f = "max" || f = "amax1" then `Max else `Min), e)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Access summary                                                      *)
(* ------------------------------------------------------------------ *)

type 'k aref = {
  name : string;
  write : bool;
  dims : 'k dim array option;
  stmt : int;
}

type 'k t = {
  refs : 'k aref list;
  reads : SS.t;
  writes : SS.t;
  early : SS.t;
  io : bool;
  opaque : bool;
}

let summarize ?(visit = fun _ -> true) n block =
  let refs = ref [] and reads = ref SS.empty and writes = ref SS.empty in
  let early = ref SS.empty and io = ref false and opaque = ref false in
  let nstmt = ref 0 (* statements met *) in
  (* scalars certainly assigned at this point of the walk *)
  let assigned = ref SS.empty in
  let is_level x = match n.leaf x with Level _ -> true | _ -> false in
  let add_ref ~write name dims = refs := { name; write; dims; stmt = !nstmt } :: !refs in
  let array_ref ~write name args =
    add_ref ~write name
      (Some (Array.of_list (List.map (fun e -> fst (subscript n e)) args)))
  in
  let read_scalar x =
    if not (is_level x) then begin
      reads := SS.add x !reads;
      if not (SS.mem x !assigned) then early := SS.add x !early
    end
  in
  let write_scalar x =
    if not (is_level x) then begin
      writes := SS.add x !writes;
      assigned := SS.add x !assigned
    end
  in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Const_int _ | Ast.Const_real _ | Ast.Const_bool _ | Ast.Const_str _ ->
        ()
    | Ast.Var x ->
        if n.is_array x then add_ref ~write:false x None else read_scalar x
    | Ast.Ref (name, args) ->
        (* subscripts and call arguments are reads themselves *)
        List.iter expr args;
        if n.is_array name then array_ref ~write:false name args
    | Ast.Unop (_, a) | Ast.Local_lo (_, a) | Ast.Local_hi (_, a) -> expr a
    | Ast.Binop (_, a, b) ->
        expr a;
        expr b
  in
  (* an assignment target, after its right-hand side *)
  let target (e : Ast.expr) =
    match e with
    | Ast.Var x when n.is_array x -> add_ref ~write:true x None
    | Ast.Var x -> write_scalar x
    | Ast.Ref (name, args) when n.is_array name ->
        List.iter expr args;
        array_ref ~write:true name args
    | Ast.Ref (_, args) ->
        List.iter expr args;
        opaque := true
    | e ->
        expr e;
        opaque := true
  in
  let rec stmt (s : Ast.stmt) =
    incr nstmt;
    if visit s then kind s
  and kind (s : Ast.stmt) =
    match s.Ast.s_kind with
    | Ast.Continue -> ()
    | Ast.Assign (lhs, rhs) ->
        expr rhs;
        target lhs
    | Ast.If (branches, els) ->
        (* a scalar is certainly assigned after the IF when every branch,
           the missing ELSE included, assigns it *)
        let before = !assigned in
        let branch c b =
          assigned := before;
          Option.iter expr c;
          List.iter stmt b;
          !assigned
        in
        let outs = List.map (fun (c, b) -> branch (Some c) b) branches in
        let out_else = branch None (Option.value ~default:[] els) in
        assigned := List.fold_left SS.inter out_else outs
    | Ast.Do d ->
        expr d.Ast.do_lo;
        expr d.Ast.do_hi;
        Option.iter expr d.Ast.do_step;
        write_scalar d.Ast.do_var;
        List.iter stmt d.Ast.do_body
    | Ast.Read items ->
        io := true;
        List.iter target items
    | Ast.Write items ->
        io := true;
        List.iter expr items
    | Ast.Call (_, args) ->
        opaque := true;
        (* arguments pass by reference: the callee may write them *)
        List.iter
          (fun (a : Ast.expr) ->
            match a with
            | Ast.Var x when n.is_array x ->
                add_ref ~write:false x None;
                add_ref ~write:true x None
            | Ast.Var x ->
                read_scalar x;
                write_scalar x
            | a -> expr a)
          args
    | Ast.Goto _ | Ast.Return | Ast.Stop | Ast.Comm _ | Ast.Pipeline_recv _
    | Ast.Pipeline_send _ ->
        opaque := true
  in
  List.iter stmt block;
  { refs = List.rev !refs; reads = !reads; writes = !writes; early = !early;
    io = !io; opaque = !opaque }

(* ------------------------------------------------------------------ *)
(* Dependence distance                                                 *)
(* ------------------------------------------------------------------ *)

(* Fold the constraint one subscript pair puts on D = Ka - Kb (per
   level: a's loop value minus b's when the two touch one element) into
   [d]: [`Ok], [`Disjoint] when the subscripts can never be equal, or
   [`Unknown] when they cannot be related. *)
let constrain d (fa : 'k aff) (fb : 'k aff) =
  if fa.coeffs <> fb.coeffs || fa.syms <> fb.syms then `Unknown
  else begin
    let delta = fb.const - fa.const in
    (* the one level the subscript moves with, if any *)
    let lv = ref (-1) in
    for l = 0 to Array.length fa.coeffs - 1 do
      if fa.coeffs.(l) <> 0 then lv := if !lv = -1 then l else -2
    done;
    if !lv = -1 then if delta <> 0 then `Disjoint else `Ok
    else if !lv = -2 then `Unknown
    else
      let l = !lv in
      let c = fa.coeffs.(l) in
      if delta mod c <> 0 then `Disjoint
      else
        match d.(l) with
        | Some k -> if k <> delta / c then `Disjoint else `Ok
        | None ->
            d.(l) <- Some (delta / c);
            `Ok
  end

(* The distance vector from the constraints [d] of a pair that may
   touch one element ([unknown]: some dimension could not be related):
   per level, b's loop value minus a's times the sign of that level's
   step ([steps]), so a positive entry means b's instance runs later at
   that level.  An entry is [None] where the subscripts leave the level
   free or cannot be related, or where a nonzero distance meets a step of
   unknown sign. *)
let oriented steps d unknown =
  Array.mapi
    (fun l k ->
      match k with
      | _ when unknown -> None
      | Some 0 -> Some 0
      | Some k -> Option.map (fun sg -> -k * sg) steps.(l)
      | None -> None)
    d

let distance ~steps (da : 'k dim array) (db : 'k dim array) =
  let d = Array.make (Array.length steps) None in
  let rec go i unknown =
    if i = Array.length da then Some (oriented steps d unknown)
    else
      match (da.(i), db.(i)) with
      | Aff fa, Aff fb -> (
          match constrain d fa fb with
          | `Disjoint -> None
          | `Unknown -> go (i + 1) true
          | `Ok -> go (i + 1) unknown)
      | _ -> go (i + 1) true
  in
  if Array.length da <> Array.length db then Some (oriented steps d true)
  else go 0 false
