(** Lexer for the Fortran-77 subset.

    The lexer is line-oriented: it first assembles logical lines (handling
    column-1 comments, '!' trailing comments, '&' and column-6 continuations,
    and statement labels), extracts [c$acfd] directives, then tokenizes each
    logical line, separating them with {!Token.Newline}. *)

type token = { tok : Token.t; tline : int }

val tokenize : string -> token list * Directive.t list
(** [tokenize source] is the token stream (terminated by [Eof]) and the
    directives found in comments.
    @raise Loc.Error on malformed input, directives included. *)

val tokens_of_line : int -> string -> token list
(** Tokenize a single pre-assembled logical line (no newline/eof appended).
    Exposed for tests. *)
