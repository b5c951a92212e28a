(** Streaming summary statistics over float observations. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int
val total : t -> float
val mean : t -> float
(** 0. when empty. *)

val stddev : t -> float
val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], by linear interpolation over
    the sorted observations.
    @raise Invalid_argument when empty or [p] out of range. *)

val median : t -> float
