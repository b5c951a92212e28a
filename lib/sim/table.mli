(** Plain-text table rendering for benchmark reports. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val pp : Format.formatter -> t -> unit
(** Renders with a title line, a header, a rule, and aligned columns. *)
