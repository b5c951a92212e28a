(** Transport-layer headers carried inside IPv4 packets. *)

type icmp = {
  echo_kind : [ `Request | `Reply ];
  icmp_ident : int;  (** 16-bit *)
  icmp_seq : int;  (** 16-bit *)
}

type udp = { udp_src_port : int; udp_dst_port : int }

type tcp_flags = { syn : bool; ack : bool; fin : bool; psh : bool; rst : bool }

type tcp = {
  tcp_src_port : int;
  tcp_dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : tcp_flags;
  window : int;  (** advertised receive window, bytes (16-bit) *)
}

type t = Icmp of icmp | Udp of udp | Tcp of tcp

val length : t -> int
(** On-the-wire header length: ICMP 8, UDP 8, TCP 20. *)

val no_flags : tcp_flags

val src_port : t -> int option
val dst_port : t -> int option

val protocol : t -> Ipv4.protocol

val pp : Format.formatter -> t -> unit
