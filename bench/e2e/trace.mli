(** Nested spans and named counters for the benchmark's traced runs.

    Spans are recorded from the benchmark's own code, around each call
    into a library ("layer"); nothing inside the libraries is
    instrumented.  Everything is kept in memory until the run ends.
    Stdlib only: the caller supplies the clock. *)

type span = {
  id : int;
  name : string;  (** ["<layer>.<stage>"], e.g. ["physdesign.exact"]. *)
  start : float;  (** Seconds on the caller's clock. *)
  stop : float;
  parent : int;  (** Id of the enclosing span, [-1] for a root. *)
  request_id : int;  (** Shared by every span of one request or row. *)
}

type t

val create : now:(unit -> float) -> t

val span : t -> ?request_id:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name], a child of the
    innermost open span.  [request_id] defaults to the parent's. *)

val count : t -> string -> float -> unit
(** Add to a named counter. *)

val counter : t -> string -> float
(** A counter's total, [0.] if never counted. *)

val spans : t -> span list
(** Completed spans in start order. *)

val root_time : t -> float
(** Sum of the durations of the root spans: the traced wall time. *)

val self_times : t -> (string * float) list
(** Per span name: the summed duration minus the time its child spans
    cover, sorted by name. *)

val to_chrome_json : t -> string
(** The spans as Chrome trace-event JSON ("X" events, microseconds),
    which trace viewers open directly. *)
