(** IP fragmentation and reassembly. *)

val fragment : mtu:int -> Packet.t -> Packet.t list
(** Split an IPv4 packet whose IP length exceeds [mtu] into fragments; a
    packet that fits (or a non-IPv4 packet) is returned unchanged as a
    singleton.  [mtu] is the maximum IP datagram size (e.g. 1500 for
    Ethernet).
    @raise Invalid_argument if [mtu] leaves no payload space. *)

type reassembler

val create_reassembler : unit -> reassembler

val push : reassembler -> Packet.t -> (Packet.t option, Codec.error) result
(** Feed a packet.  Non-fragments come straight back as [Ok (Some p)];
    fragments return [Ok None] until the datagram completes, at which point
    the reassembled [Full] packet is returned.  A completed datagram whose
    transport blob fails to parse yields an error. *)

val pending_datagrams : reassembler -> int
