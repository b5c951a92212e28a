(** Packet capture — tcpdump for the simulated network.

    Attach to any {!Netdevice} and every transmitted/received frame is
    recorded with its simulated timestamp and a one-line dissection; dump
    or filter the capture when a protocol exchange needs a post-mortem. *)

type t

type direction = Netdevice.direction = Tx | Rx

type record = {
  at : Sim.Time.t;
  dev : string;
  dir : direction;
  packet : Netcore.Packet.t;
}

val attach : engine:Sim.Engine.t -> Netdevice.t -> t
(** Start capturing on a device (capture begins with the next frame). *)

val stop : t -> unit
(** Stop recording (records are retained). *)

val records : t -> record list
(** In capture order. *)

val count : t -> int

val filter : t -> (record -> bool) -> record list

val tcp_only : record -> bool
val udp_only : record -> bool

val pp : Format.formatter -> t -> unit
