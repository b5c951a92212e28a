(** IPv4 addresses. *)

type t

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t
val of_string : string -> t option
val to_string : t -> string

val localhost : t
(** 127.0.0.1 *)

val make : subnet:int -> host:int -> t
(** [make ~subnet ~host] is 10.[subnet].0.[host] — the test-cluster
    addressing scheme. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
