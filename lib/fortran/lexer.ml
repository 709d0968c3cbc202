type token = { tok : Token.t; tline : int }

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '$'

(* [String.lowercase_ascii (String.sub s i len)] in one copy *)
let lower_sub s i len =
  let b = Bytes.create len in
  for k = 0 to len - 1 do
    Bytes.unsafe_set b k (Char.lowercase_ascii (String.unsafe_get s (i + k)))
  done;
  Bytes.unsafe_to_string b

(* Dot-delimited operator words: .lt. .and. .true. ... *)
let dot_words =
  [
    ("lt", Token.Lt); ("le", Token.Le); ("gt", Token.Gt); ("ge", Token.Ge);
    ("eq", Token.Eq); ("ne", Token.Ne); ("and", Token.And); ("or", Token.Or);
    ("not", Token.Not); ("true", Token.True); ("false", Token.False);
  ]

(* [dot_word_at s i] recognizes a dot-operator starting at the '.' at
   index [i]; returns (token, length including both dots). *)
let dot_word_at s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && is_alpha s.[!j] do incr j done;
  if !j < n && s.[!j] = '.' && !j > i + 1 then
    let word = lower_sub s (i + 1) (!j - i - 1) in
    match List.assoc_opt word dot_words with
    | Some tok -> Some (tok, !j - i + 1)
    | None -> None
  else None

(* Lex a number starting at [i]; stops before a dot-operator such as the
   ".lt." in "1.lt.2".  Returns (token, next index). *)
let lex_number line s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && is_digit s.[!j] do incr j done;
  let has_frac = ref false in
  (if !j < n && s.[!j] = '.' then
     match dot_word_at s !j with
     | Some _ -> () (* "1.lt.2": the dot belongs to the operator *)
     | None ->
         has_frac := true;
         incr j;
         while !j < n && is_digit s.[!j] do incr j done);
  let has_exp = ref false in
  (if !j < n && (match Char.lowercase_ascii s.[!j] with
                 | 'e' | 'd' -> true
                 | _ -> false)
   then
     let k = ref (!j + 1) in
     let () = if !k < n && (s.[!k] = '+' || s.[!k] = '-') then incr k in
     if !k < n && is_digit s.[!k] then begin
       has_exp := true;
       incr k;
       while !k < n && is_digit s.[!k] do incr k done;
       j := !k
     end);
  let text = String.sub s i (!j - i) in
  if !has_frac || !has_exp then
    let text =
      String.map (fun c -> if c = 'd' || c = 'D' then 'e' else c) text
    in
    match float_of_string_opt text with
    | Some f -> (Token.Real f, !j)
    | None -> Loc.errorf (Loc.make line i) "malformed real literal %S" text
  else
    match int_of_string_opt text with
    | Some k -> (Token.Int k, !j)
    | None -> Loc.errorf (Loc.make line i) "malformed integer literal %S" text

(* push the tokens of one logical line onto [out], newest first *)
let push_tokens out line s =
  let n = String.length s in
  let emit tok = out := { tok; tline = line } :: !out in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if is_digit c then begin
      let tok, j = lex_number line s !i in
      emit tok;
      i := j
    end
    else if is_alpha c || c = '_' then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      emit (Token.Ident (lower_sub s !i (!j - !i)));
      i := !j
    end
    else if c = '\'' then begin
      (* string literal with '' escaping *)
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while not !closed && !j < n do
        if s.[!j] = '\'' then
          if !j + 1 < n && s.[!j + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            j := !j + 2
          end
          else begin
            closed := true;
            incr j
          end
        else begin
          Buffer.add_char buf s.[!j];
          incr j
        end
      done;
      if not !closed then
        Loc.errorf (Loc.make line !i) "unterminated string literal";
      emit (Token.Str (Buffer.contents buf));
      i := !j
    end
    else if c = '.' then begin
      match dot_word_at s !i with
      | Some (tok, len) ->
          emit tok;
          i := !i + len
      | None ->
          if !i + 1 < n && is_digit s.[!i + 1] then begin
            (* leading-dot real like .5e3 — lex_number handles it since its
               integer-part loop accepts zero digits *)
            let tok, j = lex_number line s !i in
            emit tok;
            i := j
          end
          else Loc.errorf (Loc.make line !i) "unexpected '.'"
    end
    else begin
      (* NUL stands for the end of the line: no pair below ends in it *)
      let next = if !i + 1 < n then s.[!i + 1] else '\000' in
      match (c, next) with
      | '*', '*' -> emit Token.Power; i := !i + 2
      | '<', '=' -> emit Token.Le; i := !i + 2
      | '>', '=' -> emit Token.Ge; i := !i + 2
      | '=', '=' -> emit Token.Eq; i := !i + 2
      | '/', '=' -> emit Token.Ne; i := !i + 2
      | _ -> (
          (match c with
          | '+' -> emit Token.Plus
          | '-' -> emit Token.Minus
          | '*' -> emit Token.Star
          | '/' -> emit Token.Slash
          | '(' -> emit Token.Lparen
          | ')' -> emit Token.Rparen
          | ',' -> emit Token.Comma
          | ':' -> emit Token.Colon
          | '=' -> emit Token.Assign
          | '<' -> emit Token.Lt
          | '>' -> emit Token.Gt
          | _ -> Loc.errorf (Loc.make line !i) "unexpected character %C" c);
          incr i)
    end
  done

let tokens_of_line line s =
  let out = ref [] in
  push_tokens out line s;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Logical-line assembly                                               *)
(* ------------------------------------------------------------------ *)

type raw_line = { rline : int; rtext : string }

(* index of the first character [String.trim] keeps, or the length *)
let first_kept s =
  let i = ref 0 in
  while !i < String.length s && Directive.is_blank s.[!i] do incr i done;
  !i

let is_comment_line s =
  String.length s > 0
  && (s.[0] = 'c' || s.[0] = 'C' || s.[0] = '*'
     ||
     let i = first_kept s in
     i = String.length s || s.[i] = '!')

(* Strip a trailing '!' comment, respecting string literals. *)
let strip_bang s =
  let n = String.length s in
  let rec scan i in_str =
    if i >= n then s
    else if in_str then
      if s.[i] = '\'' then scan (i + 1) false else scan (i + 1) true
    else if s.[i] = '\'' then scan (i + 1) true
    else if s.[i] = '!' then String.sub s 0 i
    else scan (i + 1) false
  in
  scan 0 false

(* Fixed-form continuation: nonblank, non-'0' character in column 6 with
   columns 1-5 blank. *)
let is_fixed_continuation s =
  String.length s >= 6
  && s.[0] = ' ' && s.[1] = ' ' && s.[2] = ' ' && s.[3] = ' ' && s.[4] = ' '
  && s.[5] <> ' ' && s.[5] <> '0'

let assemble source =
  let lines = String.split_on_char '\n' source in
  let directives = ref [] in
  let logical = ref [] in
  let pending = Buffer.create 80 in
  let pending_line = ref 0 in
  let flush_pending () =
    if Buffer.length pending > 0 then begin
      logical := { rline = !pending_line; rtext = Buffer.contents pending }
                 :: !logical;
      Buffer.clear pending
    end
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      match Directive.recognize raw with
      | Some payload ->
          directives := Directive.parse ~line:lineno payload :: !directives
      | None ->
          if is_comment_line raw then ()
          else
            let body = strip_bang raw in
            let first = first_kept body in
            if first = String.length body then ()
            else if is_fixed_continuation body then begin
              if Buffer.length pending = 0 then
                Loc.errorf (Loc.make lineno 6)
                  "continuation line without a preceding statement";
              Buffer.add_char pending ' ';
              Buffer.add_string pending
                (String.sub body 6 (String.length body - 6))
            end
            else begin
              (* free-form leading '&' continuation: the rest of the
                 trimmed line *)
              if body.[first] = '&' && Buffer.length pending > 0 then begin
                let last = ref (String.length body) in
                while Directive.is_blank body.[!last - 1] do decr last done;
                Buffer.add_char pending ' ';
                Buffer.add_substring pending body (first + 1)
                  (!last - first - 1)
              end
              else begin
                flush_pending ();
                pending_line := lineno;
                Buffer.add_string pending body
              end;
              (* trailing '&' continuation: keep accumulating the trimmed
                 text before the '&' *)
              let k = ref (Buffer.length pending - 1) in
              while !k >= 0 && Directive.is_blank (Buffer.nth pending !k) do
                decr k
              done;
              if !k >= 0 && Buffer.nth pending !k = '&' then begin
                let cur = String.trim (Buffer.contents pending) in
                Buffer.clear pending;
                Buffer.add_string pending
                  (String.sub cur 0 (String.length cur - 1))
              end
            end)
    lines;
  flush_pending ();
  (List.rev !logical, List.rev !directives)

(* Extract a leading statement label: digits followed by whitespace. *)
let split_label s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  let start = !i in
  while !i < n && is_digit s.[!i] do incr i done;
  if !i > start && !i < n && (s.[!i] = ' ' || s.[!i] = '\t') then
    let label = int_of_string (String.sub s start (!i - start)) in
    (Some label, String.sub s !i (n - !i))
  else (None, s)

let tokenize source =
  let logical, directives = assemble source in
  let out = ref [] in
  List.iter
    (fun { rline; rtext } ->
      let label, rest = split_label rtext in
      Option.iter
        (fun l -> out := { tok = Token.Label l; tline = rline } :: !out)
        label;
      push_tokens out rline rest;
      out := { tok = Token.Newline; tline = rline } :: !out)
    logical;
  (* the end of input sits on the last line holding code *)
  let last = List.fold_left (fun _ l -> l.rline) 0 logical in
  (List.rev ({ tok = Token.Eof; tline = last } :: !out), directives)
