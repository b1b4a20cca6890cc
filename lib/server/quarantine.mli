(** The corruption quarantine: a process-wide registry of pages (and
    page-less findings) that failed verification while the server was
    live.

    Two producers feed it — {!Service} when a request trips
    [Storage_error.Corruption] mid-query, and {!Scrub} when a background
    verification pass finds damage — and both record the same shape:
    the failing page (when known), the detector component, and the
    detail string.  Consumers are the [health] admin response and the
    [server.quarantined_pages] gauge.  Quarantining never blocks
    serving: queries that do not touch a damaged page keep answering,
    and queries that do get a typed [data_corruption] reply — never a
    silent wrong answer, never a dropped connection. *)

type entry = {
  page : int option;  (** the failing page, when the detector knew it *)
  component : string;  (** detector name, e.g. ["pager.page"] *)
  detail : string;
  source : string;  (** ["request"] or ["scrub"] *)
  first_at : float;
  mutable last_at : float;
  mutable hits : int;  (** times this (page, component) was re-reported *)
}

val record :
  source:string -> ?page:int -> component:string -> detail:string -> unit ->
  unit
(** Adds or re-hits the entry keyed by [(page, component)].  Thread- and
    domain-safe. *)

val entries : unit -> entry list
(** All entries, oldest first. *)

val pages : unit -> int list
(** Distinct quarantined page ids, ascending. *)

val length : unit -> int

val summary_json : unit -> Obs.Json.t
(** The [health] response's quarantine section: length, distinct pages,
    and per-entry records. *)

val reset : unit -> unit
(** Empty the registry (tests; a salvage would also clear it). *)
