(** Transport-level XenLoop — the paper's future-work prototype (Sect. 6).

    The published XenLoop intercepts below the network layer, so every
    packet still pays IP and UDP processing on both sides.  The authors
    close the paper asking whether interception {e between the socket and
    transport layers} could "eliminate network protocol processing overhead
    from the inter-VM data path".  This module is that prototype for UDP:

    - outgoing datagrams whose destination IP belongs to a co-resident,
      channel-connected guest are shipped as {!Proto.App_payload} control
      frames over the existing XenLoop channel — no IP header, no UDP
      header, no checksums, no fragmentation.  Each is one frame on the
      queue's ordinary transmit path ({!Guest_module.send_app_payload}),
      inline, pooled or waiting on the backlog like any other;
    - arriving payloads are copied directly into the destination socket's
      buffer.

    Everything else (discovery, bootstrap, teardown, migration) is the
    standard {!Guest_module} machinery; when the fast path is not available
    the datagram transparently falls back to the normal stack, which the
    regular packet-level XenLoop hook may still accelerate. *)

type t

val enable :
  xl_module:Guest_module.t -> udp:Netstack.Udp.t -> unit -> t
(** Install the shortcut on a guest's UDP layer. *)

val disable : t -> unit
(** Remove the hooks; traffic reverts to the packet-level path. *)

val sent_via_shortcut : t -> int

val received_via_shortcut : t -> int
