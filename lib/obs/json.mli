(** A minimal JSON value type with a compact printer and a strict parser.

    The observability layer exports metric registries, span trees and
    benchmark results as machine-readable JSON ([BENCH_results.json], the
    CLI's [--json] flags).  The repository deliberately depends only on
    the preinstalled packages, so this module provides the small JSON
    subset those exports need: UTF-8 pass-through strings, exact ints,
    floats, arrays and objects.  Numbers parse as [Int] when they contain
    no fraction or exponent, [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no insignificant whitespace). *)

val add_quoted : Buffer.t -> string -> int -> int -> unit
(** [add_quoted buf s off len] appends [s.[off, off + len)] as a JSON
    string literal, quotes included: the escaper {!to_string} prints
    every [Str] with, for writers that print rows without building a
    [t]. *)

val to_multiline : t -> string
(** Line-oriented rendering: one top-level object member per line —
    greppable output for [BENCH_results.json] and [uindex-cli stats
    --json].  Nested values stay compact. *)

val pp : Format.formatter -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Strict parse of one JSON value (surrounding whitespace allowed).
    Raises {!Parse_error} with a position diagnostic on malformed
    input. *)

val member : string -> t -> t option
(** Object member lookup; [None] on missing keys and non-objects. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
