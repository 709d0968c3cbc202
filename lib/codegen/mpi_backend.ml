open Autocfd_fortran
module A = Autocfd_analysis
module P = Autocfd_partition

(* short F77-style names for the block-bound variables *)
let lo_var d = Printf.sprintf "acfdl%d" d
let hi_var d = Printf.sprintf "acfdh%d" d
let coord_var d = Printf.sprintf "acfdc%d" d

type ctx = {
  gi : A.Grid_info.t;
  topo : P.Topology.t;
  unit_ : Ast.program_unit;
  env : A.Env.t;
  bounds : (string, (int * int) list) Hashtbl.t;  (* array_bounds, memoized *)
  header : string;  (* the shared declaration header, rendered once *)
  buf : Buffer.t;
  (* generated communication subroutines, in order *)
  mutable subs : (string * (string -> unit)) list;  (* name, emitter *)
  mutable counter : int;
}

let line ctx s =
  Buffer.add_string ctx.buf s;
  Buffer.add_char ctx.buf '\n'

let fresh ctx prefix =
  ctx.counter <- ctx.counter + 1;
  Printf.sprintf "%s%d" prefix ctx.counter

let ndims ctx = A.Grid_info.ndims ctx.gi
let parts ctx = P.Topology.parts ctx.topo

(* declared integer bounds of an array, from the unit's declarations *)
let array_bounds ctx name =
  match Hashtbl.find_opt ctx.bounds name with
  | Some b -> b
  | None -> (
      match
        List.find_opt (fun d -> d.Ast.d_name = name) ctx.unit_.Ast.u_decls
      with
      | None -> failwith ("mpi backend: no declaration for " ^ name)
      | Some d ->
          let b =
            List.map
              (fun (lo, hi) ->
                (A.Env.eval_int_exn ctx.env lo, A.Env.eval_int_exn ctx.env hi))
              d.Ast.d_dims
          in
          Hashtbl.replace ctx.bounds name b;
          b)

(* what [f] writes, as a string, so that text used twice renders once *)
let render ctx f =
  let sub = { ctx with buf = Buffer.create 1024 } in
  f sub;
  Buffer.contents sub.buf

let status_dims ctx name =
  match A.Grid_info.find_status ctx.gi name with
  | Some sa -> sa.A.Grid_info.sa_dims
  | None -> failwith ("mpi backend: not a status array: " ^ name)

(* all status arrays that appear in the unit, with declarations *)
let status_arrays ctx =
  List.filter
    (fun d ->
      d.Ast.d_dims <> [] && A.Grid_info.is_status ctx.gi d.Ast.d_name)
    ctx.unit_.Ast.u_decls
  |> List.map (fun d -> d.Ast.d_name)

(* the COMMON block each status array lives in; arrays outside any common
   go into the generated /acfdfl/ block so the communication subroutines
   can reach them *)
let loose_status_arrays ctx =
  List.filter
    (fun name ->
      not
        (List.exists
           (fun (_, members) -> List.mem name members)
           ctx.unit_.Ast.u_commons))
    (status_arrays ctx)

let commons_with_status ctx =
  List.filter
    (fun (_, members) ->
      List.exists (fun m -> A.Grid_info.is_status ctx.gi m) members)
    ctx.unit_.Ast.u_commons

(* maximum plane buffer size for any transfer of any array: a full array
   is a safe literal bound *)
let max_array_size ctx =
  List.fold_left
    (fun acc name ->
      let size =
        List.fold_left
          (fun s (lo, hi) -> s * (hi - lo + 1))
          1 (array_bounds ctx name)
      in
      max acc size)
    1 (status_arrays ctx)

(* ------------------------------------------------------------------ *)
(* Shared declaration header for main and generated subroutines        *)
(* ------------------------------------------------------------------ *)

let mpi_params =
  "      parameter (mpi_comm_world = 0, mpi_real8 = 27)\n\
   \      parameter (mpi_max = 1, mpi_min = 2, mpi_sum = 3)\n\
   \      parameter (mpi_status_size = 8)"

let shared_header ctx =
  if ctx.unit_.Ast.u_consts <> [] then
    line ctx
      (Printf.sprintf "      parameter (%s)"
         (String.concat ", "
            (List.map
               (fun (n, e) -> n ^ " = " ^ Pretty.expr e)
               ctx.unit_.Ast.u_consts)));
  line ctx mpi_params;
  (* status array declarations *)
  List.iter
    (fun name ->
      let dims =
        String.concat ", "
          (List.map
             (fun (lo, hi) ->
               if lo = 1 then string_of_int hi
               else Printf.sprintf "%d:%d" lo hi)
             (array_bounds ctx name))
      in
      line ctx (Printf.sprintf "      real %s(%s)" name dims))
    (status_arrays ctx);
  (* original commons that carry status arrays *)
  List.iter
    (fun (blk, members) ->
      line ctx
        (Printf.sprintf "      common /%s/ %s"
           (if blk = "" then "blank" else blk)
           (String.concat ", " members)))
    (commons_with_status ctx);
  (match loose_status_arrays ctx with
  | [] -> ()
  | loose ->
      line ctx
        (Printf.sprintf "      common /acfdfl/ %s" (String.concat ", " loose)));
  (* block-info common *)
  let nd = ndims ctx in
  let bound_vars =
    List.concat_map
      (fun d -> [ lo_var d; hi_var d; coord_var d ])
      (List.init nd Fun.id)
  in
  line ctx
    (Printf.sprintf "      integer acfdrk, acfdnp, %s"
       (String.concat ", " bound_vars));
  line ctx
    (Printf.sprintf "      common /acfdcb/ acfdrk, acfdnp, %s"
       (String.concat ", " bound_vars));
  line ctx (Printf.sprintf "      real acfdbf(%d)" (max_array_size ctx));
  line ctx "      common /acfdbc/ acfdbf";
  line ctx "      integer acfder, acfdst(mpi_status_size)";
  (* pack/unpack loop variables (would be implicitly REAL otherwise) *)
  let max_rank =
    List.fold_left
      (fun acc name -> max acc (List.length (array_bounds ctx name)))
      1 (status_arrays ctx)
  in
  line ctx
    (Printf.sprintf "      integer %s"
       (String.concat ", "
          (List.init max_rank (fun k -> Printf.sprintf "acfdi%d" (k + 1)))))

(* ------------------------------------------------------------------ *)
(* The acfdini subroutine: rank -> coords -> balanced block bounds     *)
(* ------------------------------------------------------------------ *)

let emit_init ctx =
  line ctx "";
  line ctx "c     rank to block bounds: the balanced demarcation-line split";
  line ctx "      subroutine acfdini";
  Buffer.add_string ctx.buf ctx.header;
  line ctx "      integer acfdr";
  line ctx "      call mpi_comm_rank(mpi_comm_world, acfdrk, acfder)";
  line ctx "      call mpi_comm_size(mpi_comm_world, acfdnp, acfder)";
  let nd = ndims ctx in
  let p = parts ctx in
  let grid = P.Topology.grid ctx.topo in
  line ctx "      acfdr = acfdrk";
  (* row-major: last dimension varies fastest *)
  for d = nd - 1 downto 0 do
    line ctx (Printf.sprintf "      %s = mod(acfdr, %d)" (coord_var d) p.(d));
    line ctx (Printf.sprintf "      acfdr = acfdr / %d" p.(d))
  done;
  for d = 0 to nd - 1 do
    let base = grid.(d) / p.(d) and rem = grid.(d) mod p.(d) in
    line ctx
      (Printf.sprintf "      %s = %s * %d + min(%s, %d) + 1" (lo_var d)
         (coord_var d) base (coord_var d) rem);
    line ctx
      (Printf.sprintf "      %s = %s + %d" (hi_var d) (lo_var d) (base - 1));
    if rem > 0 then
      line ctx
        (Printf.sprintf "      if (%s .lt. %d) %s = %s + 1" (coord_var d) rem
           (hi_var d) (hi_var d))
  done;
  line ctx "      return";
  line ctx "      end"

(* neighbor rank along dim d: rank +- stride, stride = product of parts of
   later dimensions (row-major) *)
let rank_stride ctx d =
  let p = parts ctx in
  let s = ref 1 in
  for k = d + 1 to ndims ctx - 1 do
    s := !s * p.(k)
  done;
  !s

(* ------------------------------------------------------------------ *)
(* Pack/unpack loop nests                                              *)
(* ------------------------------------------------------------------ *)

(* Emit a loop nest over the given textual (lo, hi) ranges and apply [f]
   to the subscript list inside.  Loop variables are acfdi1.. *)
let emit_box ctx ~indent ranges f =
  let n = List.length ranges in
  let vars = List.init n (fun k -> Printf.sprintf "acfdi%d" (k + 1)) in
  List.iteri
    (fun k (lo, hi) ->
      line ctx
        (Printf.sprintf "%s      do %s = %s, %s"
           (String.make (2 * k) ' ' ^ indent)
           (List.nth vars k) lo hi))
    ranges;
  f (String.make (2 * n) ' ' ^ indent) vars;
  for k = n - 1 downto 0 do
    line ctx (Printf.sprintf "%s      end do" (String.make (2 * k) ' ' ^ indent))
  done

(* ranges (textual) of the halo planes OWNED by [who] for a transfer:
   [who] is `Me or `Neighbor (whose bounds were precomputed into nlo/nhi
   variables for the transfer dimension) *)
let transfer_ranges ctx ~who name ~dim ~(dir : Ast.direction) ~depth
    ~ext_of_dim =
  let bounds = array_bounds ctx name in
  let dims = status_dims ctx name in
  List.mapi
    (fun k (alo, ahi) ->
      match if k < Array.length dims then dims.(k) else None with
      | None -> (string_of_int alo, string_of_int ahi)
      | Some g when g = dim ->
          let l, h =
            match who with
            | `Me -> (lo_var g, hi_var g)
            | `Neighbor -> ("acfdnl", "acfdnh")
          in
          (match dir with
          | Ast.Dplus ->
              (Printf.sprintf "max(%s, %s - %d)" l h (depth - 1), h)
          | Ast.Dminus ->
              (l, Printf.sprintf "min(%s, %s + %d)" h l (depth - 1)))
      | Some g ->
          let ext = if g < dim then ext_of_dim g else 0 in
          if ext = 0 then (lo_var g, hi_var g)
          else
            ( Printf.sprintf "max(%d, %s - %d)" alo (lo_var g) ext,
              Printf.sprintf "min(%d, %s + %d)" ahi (hi_var g) ext ))
    bounds

let emit_pack ctx ~indent name ranges =
  line ctx (Printf.sprintf "%s      acfdn = 0" indent);
  emit_box ctx ~indent ranges (fun ind vars ->
      line ctx (Printf.sprintf "%s      acfdn = acfdn + 1" ind);
      line ctx
        (Printf.sprintf "%s      acfdbf(acfdn) = %s(%s)" ind name
           (String.concat ", " vars)))

let emit_unpack ctx ~indent name ranges =
  line ctx (Printf.sprintf "%s      acfdn = 0" indent);
  emit_box ctx ~indent ranges (fun ind vars ->
      line ctx (Printf.sprintf "%s      acfdn = acfdn + 1" ind);
      line ctx
        (Printf.sprintf "%s      %s(%s) = acfdbf(acfdn)" ind name
           (String.concat ", " vars)))

(* count the box volume into acfdn without touching data *)
let emit_count ctx ~indent ranges =
  line ctx (Printf.sprintf "%s      acfdn = 0" indent);
  emit_box ctx ~indent ranges (fun ind _ ->
      line ctx (Printf.sprintf "%s      acfdn = acfdn + 1" ind))

(* ------------------------------------------------------------------ *)
(* Exchange subroutine for one combined synchronization point          *)
(* ------------------------------------------------------------------ *)

(* compute a neighbor's block bounds for dimension g into acfdnl/acfdnh,
   for the neighbor at coordinate [coord_expr] *)
let emit_neighbor_bounds ctx g coord_expr =
  let grid = P.Topology.grid ctx.topo and p = parts ctx in
  let base = grid.(g) / p.(g) and rem = grid.(g) mod p.(g) in
  line ctx
    (Printf.sprintf "        acfdnl = (%s) * %d + min(%s, %d) + 1" coord_expr
       base coord_expr rem);
  line ctx (Printf.sprintf "        acfdnh = acfdnl + %d" (base - 1));
  if rem > 0 then
    line ctx
      (Printf.sprintf "        if (%s .lt. %d) acfdnh = acfdnh + 1" coord_expr
         rem)

let emit_exchange_sub ctx name transfers =
  line ctx "";
  line ctx "c     combined synchronization point: aggregated halo exchange";
  line ctx (Printf.sprintf "      subroutine %s" name);
  Buffer.add_string ctx.buf ctx.header;
  line ctx "      integer acfdn, acfdnb, acfdnl, acfdnh";
  let transfers =
    List.sort
      (fun (a : Ast.transfer) b ->
        compare
          (a.Ast.xfer_dim, a.Ast.xfer_array, a.Ast.xfer_dir)
          (b.Ast.xfer_dim, b.Ast.xfer_array, b.Ast.xfer_dir))
      transfers
  in
  let ext_of_dim g =
    List.fold_left
      (fun acc (t : Ast.transfer) ->
        if t.Ast.xfer_dim = g then max acc t.Ast.xfer_depth else acc)
      0 transfers
  in
  let p = parts ctx in
  List.iteri
    (fun idx (t : Ast.transfer) ->
      let g = t.Ast.xfer_dim in
      let stride = rank_stride ctx g in
      let tag = idx + 1 in
      let send_guard, recv_guard, send_delta, recv_delta =
        match t.Ast.xfer_dir with
        | Ast.Dplus ->
            ( Printf.sprintf "%s .lt. %d" (coord_var g) (p.(g) - 1),
              Printf.sprintf "%s .gt. 0" (coord_var g),
              stride, -stride )
        | Ast.Dminus ->
            ( Printf.sprintf "%s .gt. 0" (coord_var g),
              Printf.sprintf "%s .lt. %d" (coord_var g) (p.(g) - 1),
              -stride, stride )
      in
      line ctx
        (Printf.sprintf "c     %s along dim %d, %s, depth %d" t.Ast.xfer_array
           g
           (match t.Ast.xfer_dir with Ast.Dplus -> "+" | Ast.Dminus -> "-")
           t.Ast.xfer_depth);
      (* even coordinates send first, odd receive first: deadlock-free
         with synchronous sends; each side's text renders once for both
         orders *)
      let send =
        render ctx (fun ctx ->
            line ctx (Printf.sprintf "      if (%s) then" send_guard);
            line ctx
              (Printf.sprintf "        acfdnb = acfdrk + (%d)" send_delta);
            emit_pack ctx ~indent:"  " t.Ast.xfer_array
              (transfer_ranges ctx ~who:`Me t.Ast.xfer_array ~dim:g
                 ~dir:t.Ast.xfer_dir ~depth:t.Ast.xfer_depth ~ext_of_dim);
            line ctx
              (Printf.sprintf
                 "        call mpi_send(acfdbf, acfdn, mpi_real8, acfdnb, %d,"
                 tag);
            line ctx "     &    mpi_comm_world, acfder)";
            line ctx "      end if")
      in
      let recv =
        render ctx (fun ctx ->
            line ctx (Printf.sprintf "      if (%s) then" recv_guard);
            line ctx
              (Printf.sprintf "        acfdnb = acfdrk + (%d)" recv_delta);
            emit_neighbor_bounds ctx g
              (Printf.sprintf
                 (match t.Ast.xfer_dir with
                 | Ast.Dplus -> "%s - 1"
                 | Ast.Dminus -> "%s + 1")
                 (coord_var g));
            let ranges =
              transfer_ranges ctx ~who:`Neighbor t.Ast.xfer_array ~dim:g
                ~dir:t.Ast.xfer_dir ~depth:t.Ast.xfer_depth ~ext_of_dim
            in
            emit_count ctx ~indent:"  " ranges;
            line ctx
              (Printf.sprintf
                 "        call mpi_recv(acfdbf, acfdn, mpi_real8, acfdnb, %d,"
                 tag);
            line ctx "     &    mpi_comm_world, acfdst, acfder)";
            emit_unpack ctx ~indent:"  " t.Ast.xfer_array ranges;
            line ctx "      end if")
      in
      line ctx (Printf.sprintf "      if (mod(%s, 2) .eq. 0) then" (coord_var g));
      Buffer.add_string ctx.buf send;
      Buffer.add_string ctx.buf recv;
      line ctx "      else";
      Buffer.add_string ctx.buf recv;
      Buffer.add_string ctx.buf send;
      line ctx "      end if")
    transfers;
  line ctx "      return";
  line ctx "      end"

(* ------------------------------------------------------------------ *)
(* Pipeline wait / forward subroutines                                 *)
(* ------------------------------------------------------------------ *)

let emit_pipe_sub ctx name ~recv ~dim ~(dir : Ast.direction) arrays =
  line ctx "";
  line ctx
    (Printf.sprintf "c     mirror-image pipeline %s along dim %d"
       (if recv then "wait (upstream halo)" else "forward (downstream)")
       dim);
  line ctx (Printf.sprintf "      subroutine %s" name);
  Buffer.add_string ctx.buf ctx.header;
  line ctx "      integer acfdn, acfdnb, acfdnl, acfdnh";
  let p = parts ctx in
  let stride = rank_stride ctx dim in
  let upstream_dir =
    match dir with Ast.Dplus -> Ast.Dminus | Ast.Dminus -> Ast.Dplus
  in
  let peer_dir = if recv then upstream_dir else dir in
  let guard, delta =
    match peer_dir with
    | Ast.Dplus ->
        (Printf.sprintf "%s .lt. %d" (coord_var dim) (p.(dim) - 1), stride)
    | Ast.Dminus -> (Printf.sprintf "%s .gt. 0" (coord_var dim), -stride)
  in
  line ctx (Printf.sprintf "      if (%s) then" guard);
  line ctx (Printf.sprintf "        acfdnb = acfdrk + (%d)" delta);
  List.iteri
    (fun idx (arr_name, depth) ->
      let tag = 100 + idx in
      if recv then begin
        (* the sender's boundary planes land in our ghost region *)
        (match peer_dir with
        | Ast.Dminus ->
            emit_neighbor_bounds ctx dim (Printf.sprintf "%s - 1" (coord_var dim))
        | Ast.Dplus ->
            emit_neighbor_bounds ctx dim (Printf.sprintf "%s + 1" (coord_var dim)));
        emit_count ctx ~indent:"  "
          (transfer_ranges ctx ~who:`Neighbor arr_name ~dim ~dir ~depth
             ~ext_of_dim:(fun _ -> 0));
        line ctx
          (Printf.sprintf
             "        call mpi_recv(acfdbf, acfdn, mpi_real8, acfdnb, %d,"
             tag);
        line ctx "     &    mpi_comm_world, acfdst, acfder)";
        emit_unpack ctx ~indent:"  " arr_name
          (transfer_ranges ctx ~who:`Neighbor arr_name ~dim ~dir ~depth
             ~ext_of_dim:(fun _ -> 0))
      end
      else begin
        emit_pack ctx ~indent:"  " arr_name
          (transfer_ranges ctx ~who:`Me arr_name ~dim ~dir ~depth
             ~ext_of_dim:(fun _ -> 0));
        line ctx
          (Printf.sprintf
             "        call mpi_send(acfdbf, acfdn, mpi_real8, acfdnb, %d,"
             tag);
        line ctx "     &    mpi_comm_world, acfder)"
      end)
    arrays;
  line ctx "      end if";
  line ctx "      return";
  line ctx "      end"

(* ------------------------------------------------------------------ *)
(* Allgather subroutine                                                *)
(* ------------------------------------------------------------------ *)

let emit_gather_sub ctx name arrays =
  line ctx "";
  line ctx "c     replicated-loop input gather: every owner broadcasts";
  line ctx (Printf.sprintf "      subroutine %s" name);
  Buffer.add_string ctx.buf ctx.header;
  line ctx "      integer acfdn, acfdr";
  let nd = ndims ctx in
  let p = parts ctx in
  let grid = P.Topology.grid ctx.topo in
  (* per-root bounds into acfdg<L/H><d> *)
  let gl d = Printf.sprintf "acfdg%d" d and gh d = Printf.sprintf "acfdq%d" d in
  line ctx
    (Printf.sprintf "      integer %s"
       (String.concat ", "
          (List.concat_map (fun d -> [ gl d; gh d ]) (List.init nd Fun.id))));
  line ctx "      integer acfdrr";
  line ctx "      do acfdr = 0, acfdnp - 1";
  line ctx "        acfdrr = acfdr";
  for d = nd - 1 downto 0 do
    let base = grid.(d) / p.(d) and rem = grid.(d) mod p.(d) in
    line ctx (Printf.sprintf "        acfdn = mod(acfdrr, %d)" p.(d));
    line ctx (Printf.sprintf "        acfdrr = acfdrr / %d" p.(d));
    line ctx
      (Printf.sprintf "        %s = acfdn * %d + min(acfdn, %d) + 1" (gl d)
         base rem);
    line ctx (Printf.sprintf "        %s = %s + %d" (gh d) (gl d) (base - 1));
    if rem > 0 then
      line ctx
        (Printf.sprintf "        if (acfdn .lt. %d) %s = %s + 1" rem (gh d)
           (gh d))
  done;
  List.iter
    (fun arr_name ->
      let bounds = array_bounds ctx arr_name in
      let dims = status_dims ctx arr_name in
      let ranges =
        List.mapi
          (fun k (alo, ahi) ->
            match if k < Array.length dims then dims.(k) else None with
            | None -> (string_of_int alo, string_of_int ahi)
            | Some g -> (gl g, gh g))
          bounds
      in
      line ctx "        if (acfdrk .eq. acfdr) then";
      emit_pack ctx ~indent:"    " arr_name ranges;
      line ctx "        else";
      emit_count ctx ~indent:"    " ranges;
      line ctx "        end if";
      line ctx
        "        call mpi_bcast(acfdbf, acfdn, mpi_real8, acfdr,";
      line ctx "     &      mpi_comm_world, acfder)";
      line ctx "        if (acfdrk .ne. acfdr) then";
      emit_unpack ctx ~indent:"    " arr_name ranges;
      line ctx "        end if")
    arrays;
  line ctx "      end do";
  line ctx "      return";
  line ctx "      end"

(* ------------------------------------------------------------------ *)
(* Body statement rendering                                            *)
(* ------------------------------------------------------------------ *)

(* replace Local_lo/Local_hi with max/min against the block bounds *)
let rec subst_local (e : Ast.expr) =
  match e with
  | Ast.Local_lo (d, a) ->
      Ast.Ref ("max", [ subst_local a; Ast.Var (lo_var d) ])
  | Ast.Local_hi (d, a) ->
      Ast.Ref ("min", [ subst_local a; Ast.Var (hi_var d) ])
  | Ast.Unop (op, a) -> Ast.Unop (op, subst_local a)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, subst_local a, subst_local b)
  | Ast.Ref (n, args) -> Ast.Ref (n, List.map subst_local args)
  | e -> e

let allreduce_stmts mpi_op v =
  [
    Ast.mk_stmt
      (Ast.Assign (Ast.Var "acfdt1", Ast.Var v));
    Ast.mk_stmt
      (Ast.Call
         ( "mpi_allreduce",
           [ Ast.Var "acfdt1"; Ast.Var v; Ast.Const_int 1;
             Ast.Var "mpi_real8"; Ast.Var mpi_op; Ast.Var "mpi_comm_world";
             Ast.Var "acfder" ] ));
  ]

let rec transform_block ctx block =
  List.concat_map (transform_stmt ctx) block

and transform_stmt ctx st =
  let mk = Ast.mk_stmt ?label:st.Ast.s_label ~line:st.Ast.s_line in
  match st.Ast.s_kind with
  | Ast.Comm (Ast.Exchange ts) ->
      let name = fresh ctx "acfdx" in
      ctx.subs <- (name, fun n -> emit_exchange_sub ctx n ts) :: ctx.subs;
      [ mk (Ast.Call (name, [])) ]
  | Ast.Comm (Ast.Allreduce_max v) -> allreduce_stmts "mpi_max" v
  | Ast.Comm (Ast.Allreduce_min v) -> allreduce_stmts "mpi_min" v
  | Ast.Comm (Ast.Allreduce_sum v) -> allreduce_stmts "mpi_sum" v
  | Ast.Comm (Ast.Broadcast vars) ->
      List.map
        (fun v ->
          Ast.mk_stmt
            (Ast.Call
               ( "mpi_bcast",
                 [ Ast.Var v; Ast.Const_int 1; Ast.Var "mpi_real8";
                   Ast.Const_int 0; Ast.Var "mpi_comm_world";
                   Ast.Var "acfder" ] )))
        vars
  | Ast.Comm (Ast.Allgather arrays) ->
      let name = fresh ctx "acfdg" in
      ctx.subs <- (name, fun n -> emit_gather_sub ctx n arrays) :: ctx.subs;
      [ mk (Ast.Call (name, [])) ]
  | Ast.Comm Ast.Barrier ->
      [ mk (Ast.Call ("mpi_barrier", [ Ast.Var "mpi_comm_world"; Ast.Var "acfder" ])) ]
  | Ast.Pipeline_recv { dim; dir; arrays } ->
      let name = fresh ctx "acfdp" in
      ctx.subs <-
        (name, fun n -> emit_pipe_sub ctx n ~recv:true ~dim ~dir arrays)
        :: ctx.subs;
      [ mk (Ast.Call (name, [])) ]
  | Ast.Pipeline_send { dim; dir; arrays } ->
      let name = fresh ctx "acfdp" in
      ctx.subs <-
        (name, fun n -> emit_pipe_sub ctx n ~recv:false ~dim ~dir arrays)
        :: ctx.subs;
      [ mk (Ast.Call (name, [])) ]
  | Ast.Read items ->
      (* rank 0 reads, then broadcasts each item *)
      let read_guard =
        Ast.mk_stmt
          (Ast.If
             ( [ ( Ast.Binop (Ast.Eq, Ast.Var "acfdrk", Ast.Const_int 0),
                   [ Ast.mk_stmt (Ast.Read (List.map subst_local items)) ] )
               ],
               None ))
      in
      let bcasts =
        List.map
          (fun it ->
            Ast.mk_stmt
              (Ast.Call
                 ( "mpi_bcast",
                   [ subst_local it; Ast.Const_int 1; Ast.Var "mpi_real8";
                     Ast.Const_int 0; Ast.Var "mpi_comm_world";
                     Ast.Var "acfder" ] )))
          items
      in
      read_guard :: bcasts
  | Ast.Write items ->
      [ Ast.mk_stmt
          (Ast.If
             ( [ ( Ast.Binop (Ast.Eq, Ast.Var "acfdrk", Ast.Const_int 0),
                   [ Ast.mk_stmt (Ast.Write (List.map subst_local items)) ] )
               ],
               None )) ]
  | Ast.Do d ->
      [ { st with
          Ast.s_kind =
            Ast.Do
              { d with
                do_lo = subst_local d.Ast.do_lo;
                do_hi = subst_local d.Ast.do_hi;
                do_step = Option.map subst_local d.Ast.do_step;
                do_body = transform_block ctx d.Ast.do_body } } ]
  | Ast.If (branches, els) ->
      [ { st with
          Ast.s_kind =
            Ast.If
              ( List.map
                  (fun (c, b) -> (subst_local c, transform_block ctx b))
                  branches,
                Option.map (transform_block ctx) els ) } ]
  | Ast.Assign (l, r) ->
      [ { st with Ast.s_kind = Ast.Assign (subst_local l, subst_local r) } ]
  | Ast.Call (n, args) ->
      [ { st with Ast.s_kind = Ast.Call (n, List.map subst_local args) } ]
  | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop -> [ st ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let emit ~gi ~topo (u : Ast.program_unit) =
  let ctx =
    {
      gi;
      topo;
      unit_ = u;
      env = A.Env.of_unit u;
      bounds = Hashtbl.create 16;
      header = "";
      buf = Buffer.create 4096;
      subs = [];
      counter = 0;
    }
  in
  let ctx = { ctx with header = render ctx shared_header } in
  let body = transform_block ctx u.Ast.u_body in
  (* header comment *)
  line ctx "c  Auto-CFD generated SPMD program (Fortran 77 + MPI)";
  line ctx
    (Printf.sprintf "c  partition: %s over grid %s"
       (P.Topology.shape_to_string (P.Topology.parts topo))
       (P.Topology.shape_to_string (P.Topology.grid topo)));
  line ctx "c";
  line ctx (Printf.sprintf "      program %s" u.Ast.u_name);
  Buffer.add_string ctx.buf ctx.header;
  (* non-status declarations (scalars, work variables) *)
  List.iter
    (fun d ->
      if not (A.Grid_info.is_status gi d.Ast.d_name) then
        line ctx (Pretty.decl d))
    u.Ast.u_decls;
  (* commons without status arrays *)
  List.iter
    (fun (blk, members) ->
      if
        not
          (List.exists (fun m -> A.Grid_info.is_status gi m) members)
      then
        line ctx
          (Printf.sprintf "      common /%s/ %s"
             (if blk = "" then "blank" else blk)
             (String.concat ", " members)))
    u.Ast.u_commons;
  line ctx "      real acfdt1";
  List.iter
    (fun (name, values) ->
      line ctx
        (Printf.sprintf "      data %s /%s/" name
           (String.concat ", " (List.map Pretty.data_value values))))
    u.Ast.u_data;
  line ctx "      call mpi_init(acfder)";
  line ctx "      call acfdini";
  line ctx (Pretty.block ~indent:6 body);
  line ctx "      call mpi_finalize(acfder)";
  line ctx "      end";
  emit_init ctx;
  List.iter (fun (name, emitter) -> emitter name) (List.rev ctx.subs);
  Buffer.contents ctx.buf
