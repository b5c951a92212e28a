(** Binary serialization of packets.

    Shared-memory data paths (the XenLoop FIFO, the netfront/netback rings)
    transport real bytes through real pages, so packets must round-trip
    through an on-the-wire format.  The format follows the actual protocols
    (Ethernet II, IPv4, ICMP echo, UDP, TCP) closely enough that headers
    and checksums are genuine; transport checksums are computed without the
    IPv4 pseudo-header. *)

type error =
  | Truncated
  | Bad_ethertype of int
  | Bad_protocol of int
  | Bad_checksum of string  (** which layer failed *)
  | Malformed of string

val pp_error : Format.formatter -> error -> unit

val serialize : ?csum:bool -> Packet.t -> Bytes.t
(** [~csum:false] leaves the transport checksum field zero (checksum
    elision on the trusted xenloop channel, DESIGN.md §15).  Such bytes
    parse only with [~verify_transport:false]; re-serializing them with
    the default [~csum:true] — as any netfront/physnet fallback does —
    reproduces the always-compute baseline bit for bit.  IPv4 header
    checksums are always computed. *)

val serialize_head : Packet.t -> Bytes.t -> int
(** [serialize_head p buf] writes the leading bytes of
    [serialize ~csum:false p] into [buf] and returns how many: every
    header, up to {!tail}.  With the tail written after them, they make
    the frame without building it in one buffer.
    @raise Invalid_argument if [buf] is shorter than {!max_header_length}. *)

val tail : Packet.t -> View.t
(** The bytes a frame carries after its headers: the transport payload,
    the fragment blob or the control message ({!View.empty} for ARP).
    The frame is [serialize_head]'s bytes followed by these; the tail is
    a view of the packet's own buffer, not a copy. *)

val restore_transport_checksum : Bytes.t -> unit
(** Compute the transport checksum of a serialized frame and store it in
    place: [restore_transport_checksum (serialize ~csum:false p)] leaves
    exactly the bytes of [serialize p].  A frame that already carries its
    checksum is unchanged; one [serialize] does not checksum (not IPv4, a
    fragment, an unknown protocol, a truncated header) is left as it
    is. *)

val parse : ?verify_transport:bool -> Bytes.t -> (Packet.t, error) result
(** [~verify_transport:false] skips the transport-checksum check (GRO on
    a channel whose descriptor carries the [csum_ok] flag); IPv4 header
    checksums are still verified.  Headers are read in place and the
    payload is copied out once; the packet's payload is the view of that
    whole copy.  A TCP header whose data offset is not 5
    (the stack sends no options) is [Malformed "TCP data offset"]. *)

val max_header_length : int
(** 54: Ethernet, IPv4 and TCP headers — the most of a frame's leading
    bytes the parser ever reads as header fields. *)

val parse_with :
  ?verify_transport:bool ->
  head:Bytes.t ->
  len:int ->
  (int -> int -> Bytes.t) ->
  (Packet.t, error) result
(** {!parse} of a [len]-byte frame that need not be contiguous.  [head]
    holds at least its first [min len max_header_length] bytes.  The last
    argument, [sub off n], returns a fresh copy of the [n] frame bytes at
    [off]; it is called once per payload, fragment blob or control
    message, always past the headers.  [parse data] is
    [parse_with ~head:data ~len:(Bytes.length data) (Bytes.sub data)].
    @raise Invalid_argument if [head] is too short. *)

(** {1 Transport blobs}

    IP fragmentation slices the serialized transport-header+payload blob;
    these are the helpers the fragmenter and reassembler use. *)

val serialize_transport : ?csum:bool -> Transport.t -> payload:View.t -> Bytes.t

(** Length of [serialize_transport transport ~payload] without building
    it — the fragmenter's fits-in-one-MTU test needs only the size. *)
val transport_length : Transport.t -> payload:View.t -> int

val parse_transport :
  ?verify:bool -> Ipv4.protocol -> Bytes.t -> (Transport.t * View.t, error) result
(** The payload is a view of the blob itself, not a copy. *)
