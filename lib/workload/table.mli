(** Plain-text rendering of result tables and figure series. *)

val render : header:string list -> rows:string list list -> string
(** Column-aligned table with a rule under the header. *)

val section : string -> string
(** A report heading: a blank line, the title, and a rule of [=] as wide
    as the title. *)

val subsection : string -> string
(** A blank line, then [-- title --]. *)

val render_series :
  title:string -> x_label:string -> series:(string * (int * float) list) list ->
  string
(** One row per x value, one column per named series (the layout of the
    paper's figures as numbers). *)

val fmt_f : float -> string
(** One decimal place. *)
