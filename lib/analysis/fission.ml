(* Loop fission / distribution.

   A perfect DO nest whose innermost body mixes kernel-fusable affine
   assignments with non-fusable residue (IF statements, I/O, integer
   quirks) is split into maximal independent sub-nests so the affine
   fragments reach the fused-kernel tier while only the genuine residue
   stays on the closure IR.  The pass is purely an AST transform applied
   before any analysis or engine sees the unit, so every execution
   engine runs the same fissioned program and cross-engine bit-identity
   is preserved by construction.

   Algorithm (classic loop distribution):
     1. summarize every body statement's accesses — scalars read/written,
        array references with per-dimension affine forms over the nest's
        loop variables, I/O;
     2. build a statement-level dependence graph: scalar conflicts and
        undecidable array conflicts merge statements (edges both ways);
        array conflicts with a provable distance vector give a directed
        edge from the lexically-earlier executed instance's statement;
     3. compute strongly connected components (Tarjan) — statements on a
        loop-carried cycle must stay in one nest — and emit one sub-nest
        per SCC group in topological order (stable: ties broken by the
        smallest original statement index).

   Legality is conservative: any construct the summarizer cannot prove
   independent keeps its statements together, and a nest is left alone
   entirely when splitting could change semantics (GOTO/CALL/RETURN/
   STOP/communication anywhere inside, labels targeted by GOTOs, loop
   bounds reading body-written scalars, assignments to loop variables).
   Scalar temporaries are not expanded: every statement touching a
   body-written scalar lands in the same fragment.

   One caveat, shared with classical distribution: a run that stops with
   a runtime error mid-nest observes a different partial state, because
   fragments execute their full trip space in sequence instead of
   interleaved.  Error-free executions — everything the equivalence
   suites and the bundled apps exercise — are bit-identical. *)

open Autocfd_fortran
module SS = Set.Make (String)

type split = {
  sp_line : int;  (** source line of the original nest's outer DO *)
  sp_vars : string list;  (** loop variables, outermost first *)
  sp_nfrags : int;  (** fragments emitted *)
}

(* ------------------------------------------------------------------ *)
(* Statement access summaries                                          *)
(* ------------------------------------------------------------------ *)

(* per-dimension subscript form over the nest's loop variables *)
type 'k aff = {
  coeffs : int array;  (* per nest level, outer-first *)
  const : int;
  syms : ('k * int) list;  (* entry-invariant integer scalars *)
}

type 'k dim = Aff of 'k aff | Opaque_dim

type aref = {
  ar_name : string;
  ar_write : bool;
  ar_dims : string dim array option;  (* None: whole-array conflict *)
}

type acc = {
  mutable sreads : SS.t;
  mutable swrites : SS.t;
  mutable refs : aref list;
  mutable io : bool;
  mutable opaque : bool;  (* summary failed: conflicts with everything *)
}

type ctx = {
  c_lvl : (string, int) Hashtbl.t;  (* loop var -> level, outer-first *)
  c_m : int;
  c_consts : Env.t;  (* never-assigned PARAMETER constants *)
  c_arrays : (string, unit) Hashtbl.t;
  c_types : (string, Ast.dtype) Hashtbl.t;
  c_wrb : SS.t;  (* scalars assigned anywhere in the body *)
  c_steps : int option array;  (* per level: step sign, if known *)
}

let implicit_type name =
  if name = "" then Ast.Real
  else match name.[0] with 'i' .. 'n' -> Ast.Integer | _ -> Ast.Real

let type_of_scalar ctx x =
  match Hashtbl.find_opt ctx.c_types x with
  | Some t -> t
  | None -> implicit_type x

let cfold ctx e = Env.eval_int ctx.c_consts e

let dim_zero ctx = { coeffs = Array.make ctx.c_m 0; const = 0; syms = [] }

let dim_scale c (d : 'a) =
  match d with
  | Opaque_dim -> Opaque_dim
  | Aff a ->
      Aff
        {
          coeffs = Array.map (fun k -> c * k) a.coeffs;
          const = c * a.const;
          syms = List.map (fun (x, mu) -> (x, c * mu)) a.syms;
        }

let dim_add a b =
  match (a, b) with
  | Aff a, Aff b ->
      Aff
        {
          coeffs = Array.mapi (fun l k -> k + b.coeffs.(l)) a.coeffs;
          const = a.const + b.const;
          syms = a.syms @ b.syms;
        }
  | _ -> Opaque_dim

(* canonical form: syms sorted and combined, zero multipliers dropped *)
let dim_norm = function
  | Opaque_dim -> Opaque_dim
  | Aff { syms = []; _ } as d -> d
  | Aff ({ syms = [ (_, 0) ]; _ } as a) -> Aff { a with syms = [] }
  | Aff { syms = [ _ ]; _ } as d -> d
  | Aff a ->
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun (x, mu) ->
          Hashtbl.replace tbl x
            (mu + Option.value ~default:0 (Hashtbl.find_opt tbl x)))
        a.syms;
      let syms =
        Hashtbl.fold (fun x mu l -> if mu = 0 then l else (x, mu) :: l) tbl []
        |> List.sort compare
      in
      Aff { a with syms }

(* affine decomposition of one subscript; [Opaque_dim] when the machine's
   value cannot be written as coeffs * loop vars + const + invariant
   integer scalars *)
let rec adec ctx (e : Ast.expr) : string dim =
  match cfold ctx e with
  | Some c -> Aff { (dim_zero ctx) with const = c }
  | None -> (
      match e with
      | Ast.Const_int c -> Aff { (dim_zero ctx) with const = c }
      | Ast.Const_real r when Float.is_integer r ->
          Aff { (dim_zero ctx) with const = truncate r }
      | Ast.Var x -> (
          match Hashtbl.find_opt ctx.c_lvl x with
          | Some l ->
              let coeffs = Array.make ctx.c_m 0 in
              coeffs.(l) <- 1;
              Aff { (dim_zero ctx) with coeffs }
          | None ->
              if SS.mem x ctx.c_wrb then Opaque_dim
              else if type_of_scalar ctx x = Ast.Integer then
                Aff { (dim_zero ctx) with syms = [ (x, 1) ] }
              else Opaque_dim)
      | Ast.Unop (Ast.Neg, a) -> dim_scale (-1) (adec ctx a)
      | Ast.Binop (Ast.Add, a, b) -> dim_add (adec ctx a) (adec ctx b)
      | Ast.Binop (Ast.Sub, a, b) ->
          dim_add (adec ctx a) (dim_scale (-1) (adec ctx b))
      | Ast.Binop (Ast.Mul, a, b) -> (
          match cfold ctx a with
          | Some c -> dim_scale c (adec ctx b)
          | None -> (
              match cfold ctx b with
              | Some c -> dim_scale c (adec ctx a)
              | None -> Opaque_dim))
      | _ -> Opaque_dim)

let fresh_acc () =
  { sreads = SS.empty; swrites = SS.empty; refs = []; io = false;
    opaque = false }

let read_scalar ctx acc x =
  if not (Hashtbl.mem ctx.c_lvl x) then acc.sreads <- SS.add x acc.sreads

let add_ref ctx acc ~write name args =
  let dims = Array.of_list (List.map (fun e -> dim_norm (adec ctx e)) args) in
  acc.refs <- { ar_name = name; ar_write = write; ar_dims = Some dims }
              :: acc.refs

let rec expr_acc ctx acc (e : Ast.expr) =
  match e with
  | Ast.Const_int _ | Ast.Const_real _ | Ast.Const_bool _ | Ast.Const_str _ ->
      ()
  | Ast.Var x -> read_scalar ctx acc x
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.c_arrays name then
        add_ref ctx acc ~write:false name args
      else ();
      (* subscripts / intrinsic arguments are themselves reads *)
      List.iter (expr_acc ctx acc) args
  | Ast.Unop (_, a) -> expr_acc ctx acc a
  | Ast.Binop (_, a, b) ->
      expr_acc ctx acc a;
      expr_acc ctx acc b
  | Ast.Local_lo (_, a) | Ast.Local_hi (_, a) -> expr_acc ctx acc a

let rec stmt_acc ctx acc (s : Ast.stmt) =
  match s.Ast.s_kind with
  | Ast.Continue -> ()
  | Ast.Assign (Ast.Ref (name, args), rhs) ->
      expr_acc ctx acc rhs;
      List.iter (expr_acc ctx acc) args;
      if Hashtbl.mem ctx.c_arrays name then
        add_ref ctx acc ~write:true name args
      else acc.opaque <- true
  | Ast.Assign (Ast.Var x, rhs) ->
      expr_acc ctx acc rhs;
      acc.swrites <- SS.add x acc.swrites
  | Ast.Assign (_, _) -> acc.opaque <- true
  | Ast.If (branches, els) ->
      List.iter
        (fun (c, b) ->
          expr_acc ctx acc c;
          List.iter (stmt_acc ctx acc) b)
        branches;
      Option.iter (List.iter (stmt_acc ctx acc)) els
  | Ast.Read items ->
      acc.io <- true;
      List.iter
        (fun item ->
          match item with
          | Ast.Var x -> acc.swrites <- SS.add x acc.swrites
          | Ast.Ref (name, args) when Hashtbl.mem ctx.c_arrays name ->
              List.iter (expr_acc ctx acc) args;
              (* input element positions depend on the run, not the
                 subscript form: conflict with the whole array *)
              acc.refs <-
                { ar_name = name; ar_write = true; ar_dims = None }
                :: acc.refs
          | e -> expr_acc ctx acc e)
        items
  | Ast.Write items ->
      acc.io <- true;
      List.iter (expr_acc ctx acc) items
  | Ast.Do _ ->
      (* imperfect structure inside the candidate body: keep everything
         it could touch together *)
      acc.opaque <- true
  | Ast.Goto _ | Ast.Call _ | Ast.Return | Ast.Stop | Ast.Comm _
  | Ast.Pipeline_recv _ | Ast.Pipeline_send _ ->
      (* the eligibility scan rejects nests containing these *)
      acc.opaque <- true

(* ------------------------------------------------------------------ *)
(* Dependence test                                                     *)
(* ------------------------------------------------------------------ *)

type dir = No_dep | Fwd | Bwd | Both

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

(* per-level distance between an instance of a reference with
   subscripts [da] and an instance of one with [db] that touch one
   element; [None]: they never do *)
let dims_distance steps (da : 'k dim array) (db : 'k dim array) =
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

let distance ~steps a b =
  let dims = Array.map (fun f -> dim_norm (Aff f)) in
  dims_distance steps (dims a) (dims b)

(* direction of the dependence between reference [a] of a lexically
   earlier statement and reference [b] of a later one.  [Fwd]: every
   conflicting pair has a's instance executing no later than b's, so
   running a's fragment first preserves order; [Bwd]: the reverse;
   [Both]: undecided (or instances in both orders).  The decision is
   lexicographic over the distance vector, outer level first. *)
let dep_dir ctx (a : aref) (b : aref) : dir =
  match
    match (a.ar_dims, b.ar_dims) with
    | Some da, Some db -> dims_distance ctx.c_steps da db
    | None, _ | _, None -> Some (Array.make ctx.c_m None)
  with
  | None -> No_dep
  | Some d ->
      let rec decide l =
        if l >= ctx.c_m then Fwd (* D = 0: loop-independent, source is a *)
        else
          match d.(l) with
          | None -> Both
          | Some 0 -> decide (l + 1)
          | Some k -> if k > 0 then Fwd else Bwd
      in
      decide 0

let scalar_conflict a b =
  (not (SS.is_empty (SS.inter a.swrites (SS.union b.sreads b.swrites))))
  || not (SS.is_empty (SS.inter a.sreads b.swrites))

(* dependence of later statement [j] (summary [b]) on earlier statement
   [i] (summary [a]), combined over every conflicting access pair *)
let stmt_dep ctx a b : dir =
  if a.opaque || b.opaque then Both
  else if scalar_conflict a b then Both
  else if a.io && b.io then Both
  else
    List.fold_left
      (fun acc (ra : aref) ->
        if acc = Both then Both
        else
          List.fold_left
            (fun acc (rb : aref) ->
              if acc = Both then Both
              else if ra.ar_name <> rb.ar_name
                      || ((not ra.ar_write) && not rb.ar_write)
              then acc
              else
                match (acc, dep_dir ctx ra rb) with
                | acc, No_dep -> acc
                | No_dep, d -> d
                | Fwd, Fwd -> Fwd
                | Bwd, Bwd -> Bwd
                | Both, _ | _, Both | Fwd, Bwd | Bwd, Fwd -> Both)
            acc b.refs)
      No_dep a.refs

(* ------------------------------------------------------------------ *)
(* Fusability heuristic (profitability only, never legality)           *)
(* ------------------------------------------------------------------ *)

let known_intrinsics =
  [ "abs"; "sqrt"; "exp"; "log"; "sin"; "cos"; "tan"; "atan"; "max";
    "amax1"; "min"; "amin1"; "max0"; "min0"; "mod"; "float"; "real";
    "dble"; "int"; "sign" ]

type ty = TInt | TReal | TUnknown

let rec type_of ctx (e : Ast.expr) : ty =
  match e with
  | Ast.Const_int _ -> TInt
  | Ast.Const_real _ -> TReal
  | Ast.Const_bool _ | Ast.Const_str _ -> TUnknown
  | Ast.Var x -> (
      if Hashtbl.mem ctx.c_lvl x then TInt
      else
        match type_of_scalar ctx x with
        | Ast.Integer -> TInt
        | Ast.Real | Ast.Double -> TReal
        | Ast.Logical -> TUnknown)
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.c_arrays name then TReal
      else if List.mem name [ "float"; "real"; "dble"; "sqrt"; "exp"; "log";
                              "sin"; "cos"; "tan"; "atan"; "amax1"; "amin1" ]
      then TReal
      else if List.mem name [ "int"; "max0"; "min0" ] then TInt
      else if List.mem name [ "abs"; "max"; "min"; "sign"; "mod" ] then
        List.fold_left
          (fun acc a ->
            match (acc, type_of ctx a) with
            | TInt, TInt -> TInt
            | TUnknown, _ | _, TUnknown -> TUnknown
            | _ -> TReal)
          TInt args
      else TUnknown
  | Ast.Unop (Ast.Neg, a) -> type_of ctx a
  | Ast.Unop (Ast.Lnot, _) -> TUnknown
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow), a, b) -> (
      match (type_of ctx a, type_of ctx b) with
      | TInt, TInt -> TInt
      | TUnknown, _ | _, TUnknown -> TUnknown
      | _ -> TReal)
  | Ast.Binop (_, _, _) -> TUnknown
  | Ast.Local_lo _ | Ast.Local_hi _ -> TUnknown

let rec fusable_expr ctx (e : Ast.expr) : bool =
  match e with
  | Ast.Const_int _ | Ast.Const_real _ -> true
  | Ast.Const_bool _ | Ast.Const_str _ -> false
  | Ast.Var x ->
      Hashtbl.mem ctx.c_lvl x
      || (match type_of_scalar ctx x with
         | Ast.Integer | Ast.Real | Ast.Double -> true
         | Ast.Logical -> false)
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.c_arrays name then
        List.for_all (fun a -> adec ctx a <> Opaque_dim) args
      else
        List.mem name known_intrinsics
        && List.for_all (fusable_expr ctx) args
        && (match (name, args) with
           | "mod", _ when type_of ctx e = TInt -> false
           | _ -> true)
  | Ast.Unop (Ast.Neg, a) -> fusable_expr ctx a
  | Ast.Unop (Ast.Lnot, _) -> false
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul) as _op, a, b) ->
      fusable_expr ctx a && fusable_expr ctx b
  | Ast.Binop (Ast.Div, a, b) ->
      fusable_expr ctx a && fusable_expr ctx b
      && (type_of ctx e = TReal
         || (match cfold ctx b with Some c -> c <> 0 | None -> false))
  | Ast.Binop (Ast.Pow, a, b) ->
      fusable_expr ctx a && fusable_expr ctx b
      && (type_of ctx e = TReal
         || (match b with Ast.Const_int y -> y >= 0 | _ -> false))
  | Ast.Binop (_, _, _) -> false
  | Ast.Local_lo _ | Ast.Local_hi _ -> false

let fusable_stmt ctx (s : Ast.stmt) : bool =
  match s.Ast.s_kind with
  | Ast.Continue -> true
  | Ast.Assign (Ast.Ref (name, args), rhs) ->
      Hashtbl.mem ctx.c_arrays name
      && List.for_all (fun a -> adec ctx a <> Opaque_dim) args
      && fusable_expr ctx rhs
  | Ast.Assign (Ast.Var x, rhs) ->
      (match type_of_scalar ctx x with
      | Ast.Integer | Ast.Real | Ast.Double -> true
      | Ast.Logical -> false)
      && fusable_expr ctx rhs
  | _ -> false

let writes_array ctx (s : Ast.stmt) =
  match s.Ast.s_kind with
  | Ast.Assign (Ast.Ref (name, _), _) -> Hashtbl.mem ctx.c_arrays name
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SCC grouping (Tarjan) + stable topological order                    *)
(* ------------------------------------------------------------------ *)

(* returns the list of components, each a sorted list of node indices,
   topologically ordered (every edge src -> dst has src's component no
   later than dst's), ties broken by smallest member index *)
let scc_topo n (adj : int list array) : int list list =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp_of = Array.make n (-1) in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let c = !ncomp in
      incr ncomp;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp_of.(w) <- c;
            if w <> v then pop ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  let nc = !ncomp in
  let members = Array.make nc [] in
  for v = n - 1 downto 0 do
    members.(comp_of.(v)) <- v :: members.(comp_of.(v))
  done;
  (* condensation edges + Kahn with min-member priority *)
  let indeg = Array.make nc 0 in
  let cadj = Array.make nc [] in
  Array.iteri
    (fun v ws ->
      List.iter
        (fun w ->
          let cv = comp_of.(v) and cw = comp_of.(w) in
          if cv <> cw && not (List.mem cw cadj.(cv)) then begin
            cadj.(cv) <- cw :: cadj.(cv);
            indeg.(cw) <- indeg.(cw) + 1
          end)
        ws)
    adj;
  let minm = Array.map (function x :: _ -> x | [] -> max_int) members in
  let order = ref [] in
  let remaining = ref nc in
  let ready = Array.make nc false in
  for c = 0 to nc - 1 do
    ready.(c) <- indeg.(c) = 0
  done;
  while !remaining > 0 do
    (* pick the ready component whose smallest statement comes first *)
    let best = ref (-1) in
    for c = 0 to nc - 1 do
      if ready.(c) && (!best < 0 || minm.(c) < minm.(!best)) then best := c
    done;
    let c = !best in
    ready.(c) <- false;
    minm.(c) <- max_int;
    decr remaining;
    order := c :: !order;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready.(w) <- true)
      cadj.(c)
  done;
  List.rev_map (fun c -> members.(c)) !order

(* ------------------------------------------------------------------ *)
(* Nest eligibility and rebuilding                                     *)
(* ------------------------------------------------------------------ *)

let filter_continues body =
  List.filter
    (fun (s : Ast.stmt) ->
      match s.Ast.s_kind with Ast.Continue -> false | _ -> true)
    body

(* peel a perfect nest: outer-first levels plus the innermost body *)
let rec peel acc (d : Ast.do_loop) =
  let acc = d :: acc in
  match filter_continues d.Ast.do_body with
  | [ { Ast.s_kind = Ast.Do d'; _ } ] -> peel acc d'
  | body -> (List.rev acc, body)

let expr_vars e =
  Ast.fold_exprs
    (fun vs e -> match e with Ast.Var x -> SS.add x vs | _ -> vs)
    SS.empty e

let goto_targets (u : Ast.program_unit) =
  let t = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.s_kind with Ast.Goto l -> t := l :: !t | _ -> ())
    u.Ast.u_body;
  !t

type uenv = {
  u_consts : Env.t;
  u_arrays : (string, unit) Hashtbl.t;
  u_types : (string, Ast.dtype) Hashtbl.t;
  u_goto_targets : int list;
}

let uenv_of (u : Ast.program_unit) =
  let arrays = Hashtbl.create 32 in
  let types = Hashtbl.create 64 in
  List.iter
    (fun (d : Ast.decl) ->
      if d.Ast.d_dims <> [] then Hashtbl.replace arrays d.Ast.d_name ()
      else Hashtbl.replace types d.Ast.d_name d.Ast.d_type)
    u.Ast.u_decls;
  (* only PARAMETER constants the body never reassigns are entry-invariant *)
  let assigned = Hashtbl.create 32 in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s_kind with
      | Ast.Assign (Ast.Var x, _) -> Hashtbl.replace assigned x ()
      | Ast.Do d -> Hashtbl.replace assigned d.Ast.do_var ()
      | Ast.Read items ->
          List.iter
            (function Ast.Var x -> Hashtbl.replace assigned x () | _ -> ())
            items
      | _ -> ())
    u.Ast.u_body;
  let acc = ref [] in
  List.iter
    (fun (name, e) ->
      if not (Hashtbl.mem assigned name) then
        match Env.eval_int (Env.of_alist !acc) e with
        | Some v -> acc := (name, v) :: !acc
        | None -> ())
    u.Ast.u_consts;
  {
    u_consts = Env.of_alist !acc;
    u_arrays = arrays;
    u_types = types;
    u_goto_targets = goto_targets u;
  }

(* statements (at any depth) of kinds that rule fission out wholesale *)
let has_forbidden (d : Ast.do_loop) =
  let bad = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.s_kind with
      | Ast.Goto _ | Ast.Call _ | Ast.Return | Ast.Stop | Ast.Comm _
      | Ast.Pipeline_recv _ | Ast.Pipeline_send _ ->
          bad := true
      | _ -> ())
    d.Ast.do_body;
  !bad

let has_targeted_label ue (d : Ast.do_loop) =
  ue.u_goto_targets <> []
  && begin
       let bad = ref false in
       Ast.iter_stmts
         (fun s ->
           match s.Ast.s_label with
           | Some l when List.mem l ue.u_goto_targets -> bad := true
           | _ -> ())
         d.Ast.do_body;
       !bad
     end

(* scalars assigned anywhere under the body statements (including inside
   IF branches) *)
let body_writes stmts =
  List.fold_left
    (fun ws s ->
      Ast.fold_stmts
        (fun ws s ->
          match s.Ast.s_kind with
          | Ast.Assign (Ast.Var x, _) -> SS.add x ws
          | Ast.Do d -> SS.add d.Ast.do_var ws
          | Ast.Read items ->
              List.fold_left
                (fun ws -> function Ast.Var x -> SS.add x ws | _ -> ws)
                ws items
          | _ -> ws)
        ws [ s ])
    SS.empty stmts

(* rebuild one fragment: duplicate every level (fresh statement ids, the
   source line preserved), provenance tag on the outermost *)
let rebuild ~line (levels : Ast.do_loop list) tag stmts =
  let rec go = function
    | [] -> assert false
    | [ (last : Ast.do_loop) ] ->
        Ast.mk_stmt ~line
          (Ast.Do { last with Ast.do_body = stmts; do_fission = None })
    | l :: rest ->
        Ast.mk_stmt ~line
          (Ast.Do { l with Ast.do_body = [ go rest ]; do_fission = None })
  in
  match go levels with
  | { Ast.s_kind = Ast.Do d; _ } as st ->
      { st with Ast.s_kind = Ast.Do { d with Ast.do_fission = Some tag } }
  | st -> st

(* attempt to distribute one nest; [None] when it must stay intact *)
let try_fission ue (st : Ast.stmt) (d : Ast.do_loop) :
    (Ast.stmt list * split) option =
  let levels, body = peel [] d in
  let n = List.length body in
  if n < 2 then None
  else if has_forbidden d || has_targeted_label ue d then None
  else begin
    let vars = List.map (fun (l : Ast.do_loop) -> l.Ast.do_var) levels in
    let m = List.length vars in
    let lvl = Hashtbl.create 8 in
    let dup = ref false in
    List.iteri
      (fun i v ->
        if Hashtbl.mem lvl v then dup := true else Hashtbl.add lvl v i)
      vars;
    if !dup then None
    else begin
      let wrb = body_writes body in
      let consts = ue.u_consts in
      let steps =
        Array.of_list
          (List.map
             (fun (l : Ast.do_loop) ->
               match l.Ast.do_step with
               | None -> Some 1
               | Some e -> (
                   match Env.eval_int consts e with
                   | Some s when s <> 0 -> Some (compare s 0)
                   | _ -> None))
             levels)
      in
      let ctx =
        {
          c_lvl = lvl;
          c_m = m;
          c_consts = consts;
          c_arrays = ue.u_arrays;
          c_types = ue.u_types;
          c_wrb = wrb;
          c_steps = steps;
        }
      in
      (* loop variables assigned in the body, or bounds/steps reading
         body-written scalars or the nest's own (same-or-inner) loop
         variables: leave the nest alone *)
      let bounds_ok =
        List.for_all (fun v -> not (SS.mem v wrb)) vars
        && List.for_all
             (fun i ->
               let l = List.nth levels i in
               let bvars =
                 SS.union (expr_vars l.Ast.do_lo)
                   (SS.union (expr_vars l.Ast.do_hi)
                      (match l.Ast.do_step with
                      | Some e -> expr_vars e
                      | None -> SS.empty))
               in
               SS.is_empty (SS.inter bvars wrb)
               && List.for_all
                    (fun j -> not (SS.mem (List.nth vars j) bvars))
                    (List.init (m - i) (fun k -> i + k)))
             (List.init m Fun.id)
      in
      if not bounds_ok then None
      else begin
        let stmts = Array.of_list body in
        let accs =
          Array.map
            (fun s ->
              let a = fresh_acc () in
              stmt_acc ctx a s;
              a)
            stmts
        in
        (* adjacency: edge i -> j means i's fragment must run first *)
        let adj = Array.make n [] in
        let edge i j = adj.(i) <- j :: adj.(i) in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            match stmt_dep ctx accs.(i) accs.(j) with
            | No_dep -> ()
            | Fwd -> edge i j
            | Bwd -> edge j i
            | Both ->
                edge i j;
                edge j i
          done
        done;
        let groups = scc_topo n adj in
        if List.length groups < 2 then None
        else begin
          (* profitability: at least one all-fusable fragment that writes
             an array, and at least one residue statement — otherwise
             splitting only duplicates loop overhead *)
          let fus = Array.map (fusable_stmt ctx) stmts in
          let promising =
            List.exists
              (fun g ->
                List.for_all (fun i -> fus.(i)) g
                && List.exists (fun i -> writes_array ctx stmts.(i)) g)
              groups
            && Array.exists not fus
          in
          if not promising then None
          else begin
            let nfrags = List.length groups in
            let line = st.Ast.s_line in
            let frags =
              List.mapi
                (fun k g ->
                  rebuild ~line levels
                    { Ast.fi_frag = k + 1; fi_nfrags = nfrags }
                    (List.map (fun i -> stmts.(i)) g))
                groups
            in
            Some (frags, { sp_line = line; sp_vars = vars; sp_nfrags = nfrags })
          end
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Unit traversal                                                      *)
(* ------------------------------------------------------------------ *)

let distribute (u : Ast.program_unit) : Ast.program_unit * split list =
  let ue = uenv_of u in
  let splits = ref [] in
  let rec walk_block block = List.concat_map walk_stmt block
  and walk_stmt (s : Ast.stmt) : Ast.stmt list =
    match s.Ast.s_kind with
    | Ast.Do d -> (
        match try_fission ue s d with
        | Some (frags, sp) ->
            splits := sp :: !splits;
            frags
        | None ->
            [ { s with
                Ast.s_kind =
                  Ast.Do { d with Ast.do_body = walk_block d.Ast.do_body } } ])
    | Ast.If (branches, els) ->
        [ { s with
            Ast.s_kind =
              Ast.If
                ( List.map (fun (c, b) -> (c, walk_block b)) branches,
                  Option.map walk_block els ) } ]
    | _ -> [ s ]
  in
  let body = walk_block u.Ast.u_body in
  ({ u with Ast.u_body = body }, List.rev !splits)
