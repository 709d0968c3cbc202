type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~headers = { title; headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d"
         (List.length t.headers) (List.length row));
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line row =
    "| "
    ^ String.concat " | " (List.map2 pad row widths)
    ^ " |"
  in
  let sep =
    "+"
    ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (line r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let cell_int = string_of_int
let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f
let cell_pct f = Printf.sprintf "%.0f%%" (f *. 100.)
