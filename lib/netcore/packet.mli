(** Network packets (the simulation's [struct sk_buff]).

    A packet is an Ethernet frame with a typed body.  IPv4 bodies carry
    either a parsed transport header plus payload ([Full]) or, for IP
    fragments other than a whole datagram, an opaque slice of the original
    transport-header+payload blob ([Fragment]) — mirroring how real IP
    fragmentation works on raw bytes. *)

type ipv4_content =
  | Full of { transport : Transport.t; payload : Bytes.t }
  | Fragment of Bytes.t

type body =
  | Ipv4_body of { header : Ipv4.header; content : ipv4_content }
  | Arp_body of Arp.t
  | Xenloop_body of Bytes.t
      (** XenLoop control messages travel as a distinct layer-3 protocol
          (paper Sect. 3.2): discovery announcements and channel bootstrap
          messages. *)

type t = { src_mac : Mac.t; dst_mac : Mac.t; body : body }

val ethernet_header_length : int
(** 14 bytes. *)

val ethertype : body -> int
(** 0x0800 IPv4, 0x0806 ARP, 0x58D0 for XenLoop control. *)

(** {1 Constructors} *)

val udp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  ?ident:int ->
  Bytes.t ->
  t

val tcp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  header:Transport.tcp ->
  ?ident:int ->
  Bytes.t ->
  t

val icmp_echo :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  kind:[ `Request | `Reply ] ->
  icmp_ident:int ->
  icmp_seq:int ->
  ?ident:int ->
  Bytes.t ->
  t

val arp : src_mac:Mac.t -> dst_mac:Mac.t -> Arp.t -> t
val xenloop_ctrl : src_mac:Mac.t -> dst_mac:Mac.t -> Bytes.t -> t

(** {1 Accessors} *)

val ip_header : t -> Ipv4.header option
val transport : t -> Transport.t option
val payload : t -> Bytes.t option
(** Payload of a [Full] IPv4 body. *)

val wire_length : t -> int
(** Total frame length in bytes: Ethernet header + body as serialized. *)

val is_ipv4 : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
