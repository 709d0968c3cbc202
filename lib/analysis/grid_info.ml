open Autocfd_fortran

type status_array = {
  sa_name : string;
  sa_rank : int;
  sa_dims : int option array;
}

type t = {
  grid_names : string list;
  grid : int array;
  status : status_array list;
  dist_overrides : (string * int) list;
  serial_lines : int list;
}

let find_decl program name =
  let in_unit u =
    List.find_opt (fun d -> d.Ast.d_name = name) u.Ast.u_decls
  in
  let units =
    (* prefer the main unit's declaration *)
    let mains, subs =
      List.partition (fun u -> u.Ast.u_kind = Ast.Main) program.Ast.p_units
    in
    mains @ subs
  in
  List.find_map in_unit units

(* every name a directive kind lists, with its directive's line *)
let located pick dirs =
  List.concat_map
    (fun (d : Directive.t) ->
      List.map (fun x -> (d.Directive.dir_line, x)) (pick d.Directive.dir_kind))
    dirs

let resolve_status program grid (line, (name, explicit)) =
  let fail fmt = Loc.errorf (Loc.make line 0) fmt in
  match find_decl program name with
  | None -> fail "status array '%s' is not declared" name
  | Some decl ->
      let rank = List.length decl.Ast.d_dims in
      let owner =
        List.find
          (fun u -> List.exists (fun d -> d.Ast.d_name = name) u.Ast.u_decls)
          program.Ast.p_units
      in
      let env = Env.of_unit owner in
      let extents =
        List.map
          (fun (lo, hi) ->
            match (Env.eval_int env lo, Env.eval_int env hi) with
            | Some l, Some h -> Some (h - l + 1)
            | _ -> None)
          decl.Ast.d_dims
      in
      let sa_dims =
        match explicit with
        | Some k ->
            if k > rank then
              fail "status(%s:%d): array has only %d dimensions" name k rank;
            Array.init rank (fun i -> if i < k then Some i else None)
        | None ->
            (* match declared extents against grid extents, in order *)
            let next = ref 0 in
            Array.of_list
              (List.map
                 (fun ext ->
                   if !next < Array.length grid && ext = Some grid.(!next)
                   then begin
                     let g = !next in
                     incr next;
                     Some g
                   end
                   else None)
                 extents)
      in
      if not (Array.exists Option.is_some sa_dims) then
        fail
          "status array '%s': no dimension matches the grid extents (declare \
           it over the grid parameters or use status(%s:k))"
          name name;
      { sa_name = name; sa_rank = rank; sa_dims }

let of_program (program : Ast.program) =
  let dirs = program.Ast.p_directives in
  let grid_dirs = located (function Directive.Grid g -> g | _ -> []) dirs in
  let grid_names = List.map snd grid_dirs in
  let main = List.find_opt (fun u -> u.Ast.u_kind = Ast.Main) program.Ast.p_units in
  (* a missing directive belongs to the main unit's PROGRAM line *)
  let missing what =
    Loc.errorf
      (Loc.make (Option.fold ~none:0 ~some:(fun u -> u.Ast.u_line) main) 0)
      "missing directive: c$acfd %s(...) is required" what
  in
  if grid_names = [] then missing "grid";
  let main =
    match main with Some u -> u | None -> failwith "program has no main unit"
  in
  let env = Env.of_unit main in
  let grid =
    Array.of_list
      (List.map
         (fun (line, n) ->
           match Env.lookup env n with
           | Some v -> v
           | None ->
               Loc.errorf (Loc.make line 0)
                 "grid extent '%s' is not a PARAMETER of the main unit" n)
         grid_dirs)
  in
  let status_specs =
    located (function Directive.Status s -> s | _ -> []) dirs
  in
  if status_specs = [] then missing "status";
  let status = List.map (resolve_status program grid) status_specs in
  {
    grid_names;
    grid;
    status;
    dist_overrides = Directive.dist_overrides dirs;
    serial_lines = Directive.serial_lines dirs;
  }

let ndims t = Array.length t.grid

let find_status t name =
  List.find_opt (fun s -> s.sa_name = name) t.status

let is_status t name = Option.is_some (find_status t name)

let grid_dim_of t name k =
  match find_status t name with
  | None -> None
  | Some s -> if k < s.sa_rank then s.sa_dims.(k) else None

let distance t name =
  match List.assoc_opt name t.dist_overrides with
  | Some d -> d
  | None -> 1

let pp ppf t =
  Format.fprintf ppf "grid %s = %s; status arrays: %s"
    (String.concat " x " t.grid_names)
    (String.concat " x " (Array.to_list (Array.map string_of_int t.grid)))
    (String.concat ", "
       (List.map
          (fun s ->
            Printf.sprintf "%s(%s)" s.sa_name
              (String.concat ","
                 (Array.to_list
                    (Array.map
                       (function Some g -> string_of_int g | None -> "*")
                       s.sa_dims))))
          t.status))
