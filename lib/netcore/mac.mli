(** 48-bit Ethernet MAC addresses. *)

type t

val of_int64 : int64 -> t
(** Low 48 bits are used. *)

val to_int64 : t -> int64

val of_bytes : Bytes.t -> int -> t
(** The address in the 6 bytes at the given offset, in wire (network)
    order. *)

val of_string : string -> t option
(** Parses ["aa:bb:cc:dd:ee:ff"]. *)

val to_string : t -> string

val broadcast : t

val of_domid : machine:int -> domid:int -> t
(** Deterministic guest MAC in the Xen OUI (00:16:3e), unique per
    (machine, domain) pair. *)

val is_broadcast : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
