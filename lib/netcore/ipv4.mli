(** IPv4 header (no options, as the simulated stack never emits them). *)

type protocol = Icmp | Tcp | Udp

val protocol_number : protocol -> int
val protocol_of_number : int -> protocol option

type header = {
  src : Ip.t;
  dst : Ip.t;
  protocol : protocol;
  ident : int;  (** 16-bit datagram id, shared by all fragments *)
  frag_offset : int;  (** payload offset in bytes; multiple of 8 *)
  more_fragments : bool;
  ttl : int;
}

val header_length : int
(** 20 bytes. *)

val make :
  src:Ip.t -> dst:Ip.t -> protocol:protocol -> ?ident:int -> unit -> header
(** An unfragmented header with default TTL 64. *)

val is_fragment : header -> bool
(** True for any packet that is part of a fragmented datagram. *)

val pp_header : Format.formatter -> header -> unit
