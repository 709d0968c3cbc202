(* Prometheus text exposition: log2 bucket ladders, the text rendering of
   metric families and its parser.  The data lives in [Metrics]; this
   module only renders and reads text. *)

let log_buckets ~lo ~hi =
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Registry.log_buckets: need 0 < lo < hi";
  let rec go acc b = if b >= hi then List.rev (b :: acc) else go (b :: acc) (b *. 2.0) in
  Array.of_list (go [] lo)

(* power-of-two decades: 1 µs .. ~16 s *)
let seconds_buckets = log_buckets ~lo:1e-6 ~hi:16.0

(* 64 B .. 16 MiB *)
let bytes_buckets = log_buckets ~lo:64.0 ~hi:16777216.0

(* first bucket whose upper bound is >= v ("le" semantics); the last
   slot catches values above every bound *)
let bucket bounds v =
  let n = Array.length bounds in
  let rec find i = if i >= n || v <= bounds.(i) then i else find (i + 1) in
  find 0

type hist = { bounds : float array; counts : int array; sum : float }

type samples =
  | Counter of ((string * string) list * float) list
  | Gauge of ((string * string) list * float) list
  | Histogram of ((string * string) list * hist) list

type family = { name : string; help : string; samples : samples }

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let float_text f =
  if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_text labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let to_prometheus families =
  let b = Buffer.create 4096 in
  let sample name labels v =
    Buffer.add_string b name;
    Buffer.add_string b (label_text labels);
    Buffer.add_char b ' ';
    Buffer.add_string b (float_text v);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun f ->
      let header kind =
        Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" f.name f.help f.name
          kind
      in
      let scalars kind series =
        header kind;
        List.iter (fun (labels, v) -> sample f.name labels v) series
      in
      match f.samples with
      | Counter [] | Gauge [] | Histogram [] -> ()
      | Counter series -> scalars "counter" series
      | Gauge series -> scalars "gauge" series
      | Histogram series ->
          header "histogram";
          List.iter
            (fun (labels, h) ->
              let cum = ref 0 in
              Array.iteri
                (fun i c ->
                  cum := !cum + c;
                  let le =
                    if i < Array.length h.bounds then float_text h.bounds.(i)
                    else "+Inf"
                  in
                  sample (f.name ^ "_bucket") (labels @ [ ("le", le) ])
                    (float_of_int !cum))
                h.counts;
              sample (f.name ^ "_sum") labels h.sum;
              sample (f.name ^ "_count") labels (float_of_int !cum))
            series)
    (List.stable_sort (fun a b -> String.compare a.name b.name) families);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus parsing (round-trip checks and tooling)                  *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

exception Parse_error of string

let parse_value text =
  match text with
  | "+Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | "NaN" -> Float.nan
  | _ -> (
      match float_of_string_opt text with
      | Some v -> v
      | None -> raise (Parse_error ("bad sample value: " ^ text)))

let parse_labels s =
  (* s is the text between '{' and '}' *)
  let n = String.length s in
  let pos = ref 0 in
  let labels = ref [] in
  let fail msg = raise (Parse_error msg) in
  while !pos < n do
    let eq =
      match String.index_from_opt s !pos '=' with
      | Some i -> i
      | None -> fail "label without '='"
    in
    let name = String.trim (String.sub s !pos (eq - !pos)) in
    if eq + 1 >= n || s.[eq + 1] <> '"' then fail "label value not quoted";
    let b = Buffer.create 16 in
    let i = ref (eq + 2) in
    let closed = ref false in
    while not !closed do
      if !i >= n then fail "unterminated label value"
      else
        match s.[!i] with
        | '"' ->
            closed := true;
            incr i
        | '\\' ->
            if !i + 1 >= n then fail "truncated escape";
            (match s.[!i + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            i := !i + 2
        | c ->
            Buffer.add_char b c;
            incr i
    done;
    labels := (name, Buffer.contents b) :: !labels;
    pos := !i;
    if !pos < n then
      if s.[!pos] = ',' then incr pos
      else fail "expected ',' between labels"
  done;
  List.rev !labels

let parse_prometheus text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line '{' with
           | Some lb ->
               let rb =
                 match String.rindex_opt line '}' with
                 | Some i when i > lb -> i
                 | _ -> raise (Parse_error ("unbalanced '{': " ^ line))
               in
               let name = String.sub line 0 lb in
               let labels =
                 parse_labels (String.sub line (lb + 1) (rb - lb - 1))
               in
               let rest = String.trim
                   (String.sub line (rb + 1) (String.length line - rb - 1))
               in
               Some
                 { s_name = name; s_labels = labels;
                   s_value = parse_value rest }
           | None -> (
               match String.index_opt line ' ' with
               | None -> raise (Parse_error ("sample without value: " ^ line))
               | Some sp ->
                   let name = String.sub line 0 sp in
                   let rest =
                     String.trim
                       (String.sub line (sp + 1) (String.length line - sp - 1))
                   in
                   Some
                     { s_name = name; s_labels = [];
                       s_value = parse_value rest }))
