(** UDP sockets. *)

type t
(** The per-host UDP layer. *)

type socket

type bind_error = Port_in_use | No_ports_left

val attach : Stack.t -> t
(** Create the UDP layer and register it as the stack's UDP protocol
    handler. *)

val bind : t -> ?port:int -> unit -> (socket, bind_error) result
(** Bind to a port (an ephemeral one if omitted). *)

val port : socket -> int

val max_datagram : int
(** 65507 bytes, as for real UDP over IPv4. *)

val sendto : socket -> dst:Netcore.Ip.t -> dst_port:int -> Bytes.t -> unit
(** Blocking (process context); charges syscall plus stack costs.  The
    stack keeps the buffer, not a copy, so the caller must not change it
    after the call.
    While the socket's congestion signal is raised (QoS backpressure,
    DESIGN.md §14) the send is charged against a 64 KiB sendspace
    budget ([sendspace] in udp.ml) and blocks at the limit until the
    channel clears.
    @raise Invalid_argument beyond {!max_datagram}.
    @raise Stack.Unreachable / {!Stack.No_route} as from the IP layer. *)

val sendto_nb : socket -> dst:Netcore.Ip.t -> dst_port:int -> Bytes.t -> bool
(** Non-blocking {!sendto}: where the blocking variant would wait for
    sendspace it returns [false] without transmitting (EWOULDBLOCK).
    Always [true] when the socket is not congested. *)

val recvfrom : socket -> Netcore.Ip.t * int * Bytes.t
(** Blocking receive.  A datagram delivered as a borrowed pool-slot view
    (loaned-slot receive, DESIGN.md §11) is released here — the app read
    it straight out of the slot, so the borrow ends with no extra kernel
    copy. *)

val recv_opt : socket -> (Netcore.Ip.t * int * Bytes.t) option

val recvfrom_view :
  socket -> Netcore.Ip.t * int * Bytes.t * (unit -> unit)
(** {!recvfrom} with an explicit release: the returned thunk ends the
    datagram's borrow (idempotent; a no-op for datagrams that arrived by
    copy).  For apps that want to hold the view across further receives —
    each held view pins one pool slot until released. *)

val close : socket -> unit

val drops : socket -> int
(** Datagrams dropped because the socket receive buffer was full. *)

(** {1 Transport-level shortcut hooks}

    Support for interception {e between the socket and transport layers}
    (the XenLoop paper's future-work direction): a shortcut provider can
    consume outgoing datagrams before any UDP/IP processing happens, and
    inject incoming payloads directly into a destination socket. *)

val set_tx_shortcut :
  t ->
  (dst:Netcore.Ip.t -> dst_port:int -> src_port:int -> Bytes.t -> bool) ->
  unit
(** Consulted by {!sendto} before the normal transport path (never for
    self-addressed traffic).  Returning [true] consumes the datagram. *)

val clear_tx_shortcut : t -> unit

val deliver_local :
  t -> src:Netcore.Ip.t -> src_port:int -> dst_port:int -> Bytes.t -> unit
(** Deliver a payload straight into the socket bound to [dst_port], as the
    shortcut's receive side.  Charges only the copy into the socket buffer
    (no transport processing — that is the point). *)
