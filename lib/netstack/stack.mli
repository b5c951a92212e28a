(** The per-host IP stack.

    One stack instance runs inside each guest (and Dom0, and each native
    host).  It owns the host's devices, neighbour cache, POST_ROUTING
    netfilter hooks, IP fragmentation/reassembly, and in-kernel ICMP echo.
    UDP and TCP are separate layers ({!Udp}, {!Tcp}) that register
    themselves as protocol handlers.

    All protocol processing is charged to the host's vCPU resource, so the
    stack contends with everything else the domain does. *)

type t

exception Unreachable of Netcore.Ip.t
exception No_route of Netcore.Ip.t

val create :
  engine:Sim.Engine.t ->
  params:Hypervisor.Params.t ->
  cpu:Sim.Resource.t ->
  ip:Netcore.Ip.t ->
  mac:Netcore.Mac.t ->
  unit ->
  t

val engine : t -> Sim.Engine.t
val params : t -> Hypervisor.Params.t
val cpu : t -> Sim.Resource.t
val ip_addr : t -> Netcore.Ip.t
val mac_addr : t -> Netcore.Mac.t

val attach_device : t -> Netdevice.t -> unit
(** Attach the host's Ethernet device ([eth0]); the stack installs its
    receive handler on it.  The loopback device is built in. *)

val device : t -> Netdevice.t option
val loopback_device : t -> Netdevice.t

val neighbor : t -> Neighbor.t
val post_routing : t -> Netfilter.t

(** {1 Output path} *)

val ip_send :
  t -> dst:Netcore.Ip.t -> transport:Netcore.Transport.t -> payload:Netcore.View.t -> unit
(** Route, resolve, build, fragment to the egress MTU, run POST_ROUTING
    hooks on each fragment, and transmit.  Charges protocol tx cost and the
    user-to-kernel copy on the host CPU (simulated: the host keeps the
    view and copies nothing).  Process context.
    @raise No_route when the destination is off-host and no device is
    attached. *)

val egress : t -> Netdevice.t -> Netcore.Packet.t -> unit
(** The one hand-off of an IP frame to a device: the output path calls it
    for every frame its POST_ROUTING hooks accept, and the XenLoop module
    for every frame that leaves its channel for netfront (DESIGN.md §15).
    A TCP frame whose payload is wider than the device's budget — its gso
    size or MTU, less 40 header bytes — is software-segmented into
    frames of exactly that budget, charging the per-segment TCP tx work
    the jumbo send skipped; every other frame goes as it is. *)

val tcp_mss : t -> Netcore.Ip.t -> int
(** Segment size for TCP towards this destination: on a TSO-capable egress
    device TCP may emit GSO super-frames up to the device's gso size;
    otherwise MTU - 40. *)

(** {1 Jumbo segmentation offload (DESIGN.md §15)} *)

val set_tx_jumbo_hint : t -> (dst:Netcore.Ip.t -> int) option -> unit
(** Register the xenloop module's answer to "how many TCP payload bytes
    may one segment towards [dst] carry?" — the negotiated gso ceiling
    of an active gso-capable channel, or 0 (no jumbo path; the per-MSS
    sender is untouched).  The hint is consulted per send, so a channel
    tearing down mid-stream simply stops coalescing; a jumbo frame
    already in flight that then leaves by netfront or the physical
    device is software-segmented back to wire-exact MSS by {!egress}. *)

val tx_jumbo_hint : t -> dst:Netcore.Ip.t -> int
(** The current hint for [dst] (0 when none is registered). *)

(** {1 Input path} *)

val inject_rx : t -> Netcore.Packet.t -> unit
(** Deliver a frame into the stack as if it came from a device ([netif_rx]).
    This is the entry point the XenLoop receiver uses.  Process context. *)

val inject_rx_borrowed :
  t -> Netcore.Packet.t -> release:(copied:bool -> unit) -> unit
(** {!inject_rx} for a frame whose payload is a borrowed view of a
    grant-mapped pool slot (loaned-slot receive, DESIGN.md §11).
    [release] must be called exactly once when the payload's borrow ends:
    [~copied:false] if the bytes were consumed or dropped in place,
    [~copied:true] if they had to be duplicated into private memory (a
    parked reassembly fragment, an out-of-order TCP hold).  The transport
    layer claims the release with {!take_rx_release}; if nothing claims it
    by the time delivery returns, it fires here with [~copied:false].
    [release] must tolerate a second call (idempotent). *)

val take_rx_release : t -> (copied:bool -> unit) option
(** Transport-layer side of {!inject_rx_borrowed}: claim (and clear) the
    in-flight delivery's release callback.  [None] for a normal, unborrowed
    delivery — the caller then treats the payload as private memory. *)

val set_protocol_handler :
  t -> Netcore.Ipv4.protocol -> (Netcore.Packet.t -> unit) -> unit
(** Register the UDP or TCP input function.  Handlers receive reassembled
    [Full] packets in process context.  ICMP is handled internally.
    @raise Invalid_argument for [Icmp]. *)

(** {1 Per-flow congestion signals (QoS backpressure, DESIGN.md §14)} *)

val set_congestion_handler :
  t ->
  proto:int ->
  (sport:int -> dst:Netcore.Ip.t -> dport:int -> congested:bool -> unit) ->
  unit
(** Register the transport-layer receiver for congestion edges on flows
    of IP protocol number [proto] (6 = TCP, 17 = UDP).  {!Tcp.attach}
    and {!Udp.create} install theirs. *)

val notify_congestion :
  t ->
  proto:int ->
  sport:int ->
  dst:Netcore.Ip.t ->
  dport:int ->
  congested:bool ->
  unit
(** Deliver a congestion edge for the local flow
    [(proto, sport) -> (dst, dport)].  Called by the XenLoop channel
    when a per-flow watermark crosses; a [sport] of 0 addresses every
    socket towards [dst] (3-tuple aggregate — fragmented-UDP flows
    carry no ports).  No-op when no handler is registered. *)

(** {1 XenLoop control frames} *)

val set_ctrl_handler : t -> (Netcore.Packet.t -> unit) -> unit
(** Handler for frames of the XenLoop layer-3 protocol type. *)

val send_ctrl : t -> dst_mac:Netcore.Mac.t -> Bytes.t -> unit
(** Transmit a XenLoop control frame directly through the Ethernet device,
    below IP and the netfilter hooks. *)

val gratuitous_arp : t -> unit
(** Broadcast a gratuitous ARP announcing this host's IP-to-MAC binding.
    Sent after live migration so that bridges and switches relearn the
    guest's new location. *)

(** {1 ICMP echo} *)

val ping :
  t ->
  dst:Netcore.Ip.t ->
  ?payload_len:int ->
  ?timeout:Sim.Time.span ->
  unit ->
  Sim.Time.span option
(** Send an echo request and wait for the reply; [None] on timeout
    (default 1 s).  Blocking; process context. *)

(** {1 Statistics} *)

type stats = {
  mutable tx_datagrams : int;
  mutable rx_datagrams : int;
  mutable stolen_by_hook : int;
  mutable dropped_not_mine : int;
  mutable echo_requests_served : int;
  mutable sw_segmented : int;
      (** TCP frames wider than their device's budget that {!egress}
          software-segmented back to wire MSS (DESIGN.md §15 fallback) *)
}

val stats : t -> stats
