(** Source locations (1-based line numbers of the original file). *)

type t = { line : int; col : int } [@@deriving show { with_path = false }, eq]

let none = { line = 0; col = 0 }
let make line col = { line; col }

(** A parse or analysis diagnostic. *)
exception Error of t * string

let errorf loc fmt =
  Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt

(* ["line N: msg"], or [msg] alone for an unlocated error *)
let () =
  Printexc.register_printer (function
    | Error (loc, msg) when loc.line > 0 ->
        Some (Printf.sprintf "line %d: %s" loc.line msg)
    | Error (_, msg) -> Some msg
    | _ -> None)
