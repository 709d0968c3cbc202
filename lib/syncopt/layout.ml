open Autocfd_fortran

type block_id = int

type owner =
  | Top
  | Loop_body of int
  | Branch of int * int
  | Else of int

type binfo = {
  bi_owner : owner;
  bi_stmts : Ast.stmt array;
  bi_parent : (block_id * int) option;
  bi_slots : int array;  (* clock per insertion slot, length n+1 *)
}

type t = {
  blocks : binfo array;
  coords : (int, block_id * int) Hashtbl.t;
}

let of_unit (u : Ast.program_unit) =
  let blocks = ref [] in
  let nblocks = ref 0 in
  let coords = Hashtbl.create 256 in
  let tick =
    let c = ref 0 in
    fun () -> incr c; !c
  in
  let rec walk_block ~owner ~parent stmts =
    let id = !nblocks in
    incr nblocks;
    (* reserve the slot *)
    blocks := (id, None) :: !blocks;
    let arr = Array.of_list stmts in
    let slots = Array.make (Array.length arr + 1) 0 in
    Array.iteri
      (fun i st ->
        slots.(i) <- tick ();
        Hashtbl.replace coords st.Ast.s_id (id, i);
        walk_stmt ~block:id ~index:i st)
      arr;
    slots.(Array.length arr) <- tick ();
    let info =
      { bi_owner = owner; bi_stmts = arr; bi_parent = parent;
        bi_slots = slots }
    in
    blocks :=
      List.map (fun (i, b) -> if i = id then (i, Some info) else (i, b))
        !blocks;
    id
  and walk_stmt ~block ~index st =
    match st.Ast.s_kind with
    | Ast.Do d ->
        ignore
          (walk_block ~owner:(Loop_body st.Ast.s_id)
             ~parent:(Some (block, index)) d.Ast.do_body)
    | Ast.If (branches, els) ->
        List.iteri
          (fun bi (_, b) ->
            ignore
              (walk_block ~owner:(Branch (st.Ast.s_id, bi))
                 ~parent:(Some (block, index)) b))
          branches;
        Option.iter
          (fun b ->
            ignore
              (walk_block ~owner:(Else st.Ast.s_id)
                 ~parent:(Some (block, index)) b))
          els
    | _ -> ()
  in
  ignore (walk_block ~owner:Top ~parent:None u.Ast.u_body);
  let n = !nblocks in
  let arr = Array.make n None in
  List.iter (fun (i, b) -> arr.(i) <- b) !blocks;
  let blocks =
    Array.map
      (function
        | Some b -> b
        | None -> assert false)
      arr
  in
  { blocks; coords }

let nblocks t = Array.length t.blocks
let owner t id = t.blocks.(id).bi_owner
let stmts t id = t.blocks.(id).bi_stmts
let parent t id = t.blocks.(id).bi_parent
let coord t sid = Hashtbl.find t.coords sid
let slot_clock t id i = t.blocks.(id).bi_slots.(i)
