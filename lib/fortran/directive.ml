(** [c$acfd] user directives — the "minimum number of user directives"
    Auto-CFD requires (the paper's Appendix 1 equivalent).

    Syntax, one directive per comment line:
    {v
    c$acfd grid(ni, nj, nk)      names of the flow-field extent constants
    c$acfd status(u, v, p, q:3)  status arrays; [name:k] = first k dims are
                                 status dimensions (default: inferred by
                                 matching declared extents to the grid)
    c$acfd dist(a, 2)            dependency distance override for array a
    c$acfd serial                keep the next DO loop sequential
    v} *)

type kind =
  | Grid of string list
  | Status of (string * int option) list
  | Dist of string * int
  | Serial
[@@deriving show { with_path = false }, eq]

type t = { dir_line : int; dir_kind : kind }
[@@deriving show { with_path = false }, eq]

let prefix = "$acfd"

(* the characters [String.trim] removes *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [prefix] from index [k] on matches [line] at [at + k], ignoring case *)
let rec prefix_at line at k =
  k = String.length prefix
  || Char.lowercase_ascii line.[at + k] = prefix.[k]
     && prefix_at line at (k + 1)

(** [recognize line] is the directive payload when [line] is a [c$acfd]
    comment (case-insensitive, 'c', 'C' or '*' in column 1, or a '!$acfd'
    free-form comment). *)
let recognize line =
  (* the trimmed line is [line.[i .. j-1]]; only a directive is copied *)
  let n = String.length line in
  let i = ref 0 and j = ref n in
  while !i < n && is_blank line.[!i] do incr i done;
  while !j > !i && is_blank line.[!j - 1] do decr j done;
  let i = !i and j = !j in
  let start = i + 1 + String.length prefix in
  if
    start < j
    && (match line.[i] with 'c' | 'C' | '*' | '!' -> true | _ -> false)
    && prefix_at line (i + 1) 0
    (* [c$acfd>] marks generated annotations, not user directives *)
    && line.[start] <> '>'
  then Some (String.sub line start (j - start))
  else None

let split_args s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* payload looks like "  grid(ni, nj, nk)" or "  serial"
   @raise Loc.Error at [line] on a malformed directive *)
let parse ~line payload =
  let error msg = raise (Loc.Error (Loc.make line 0, msg)) in
  let payload = String.trim (String.lowercase_ascii payload) in
  let name, args =
    match String.index_opt payload '(' with
    | None -> (payload, [])
    | Some i ->
        if payload.[String.length payload - 1] <> ')' then
          error "unterminated directive argument list";
        let name = String.trim (String.sub payload 0 i) in
        let inner =
          String.sub payload (i + 1) (String.length payload - i - 2)
        in
        (name, split_args inner)
  in
  let kind =
    match name with
    | "grid" ->
        if args = [] then error "grid() needs arguments";
        Grid args
    | "status" ->
        let parse_one a =
          match String.split_on_char ':' a with
          | [ n ] -> (n, None)
          | [ n; k ] -> (
              match int_of_string_opt (String.trim k) with
              | Some k when k > 0 -> (String.trim n, Some k)
              | _ -> error "bad status dimension count")
          | _ -> error ("bad status() argument: " ^ a)
        in
        Status (List.map parse_one args)
    | "dist" -> (
        match args with
        | [ a; k ] -> (
            match int_of_string_opt k with
            | Some k when k > 0 -> Dist (a, k)
            | _ -> error "dist() distance must be > 0")
        | _ -> error "dist(array, k) expects 2 arguments")
    | "serial" -> Serial
    | other -> error ("unknown directive: " ^ other)
  in
  { dir_line = line; dir_kind = kind }

let grids dirs =
  List.concat_map
    (fun d -> match d.dir_kind with Grid g -> g | _ -> [])
    dirs

let status_arrays dirs =
  List.concat_map
    (fun d -> match d.dir_kind with Status s -> s | _ -> [])
    dirs

let dist_overrides dirs =
  List.filter_map
    (fun d -> match d.dir_kind with Dist (a, k) -> Some (a, k) | _ -> None)
    dirs

let serial_lines dirs =
  List.filter_map
    (fun d -> match d.dir_kind with Serial -> Some d.dir_line | _ -> None)
    dirs
