(** Network device abstraction, the boundary between the protocol stack and
    a driver (netfront vif, physical NIC, or loopback).

    The stack calls {!transmit} to hand a frame to the driver; the driver
    calls {!receive} ([netif_rx]) to push an incoming frame up into
    whatever the stack registered with {!set_receive_handler}. *)

type t

val create : name:string -> mtu:int -> ?gso_size:int -> mac:Netcore.Mac.t -> unit -> t
(** [gso_size] advertises segmentation offload: TCP may hand the device
    frames up to this size; the device (or its backend) segments at the
    real MTU where needed.  Absent for devices without TSO. *)

val name : t -> string
val mtu : t -> int
val gso_size : t -> int option
val mac : t -> Netcore.Mac.t

val set_transmit : t -> (Netcore.Packet.t -> unit) -> unit
(** Installed by the driver. *)

val transmit : t -> Netcore.Packet.t -> unit
(** Called by the stack.  No-op (counted as a drop) until a driver is
    attached. *)

val set_receive_handler : t -> (Netcore.Packet.t -> unit) -> unit
(** Installed by the stack. *)

val receive : t -> Netcore.Packet.t -> unit
(** Called by the driver to deliver an incoming frame. *)

(** {1 Taps}

    Observers see every frame the device transmits or receives — the
    attachment point for {!Capture}. *)

type direction = Tx | Rx

val add_tap : t -> (direction -> Netcore.Packet.t -> unit) -> unit

(** {1 Statistics} *)

val tx_packets : t -> int
