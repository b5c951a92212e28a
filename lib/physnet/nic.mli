(** A physical NIC on the 1 Gbps network.

    Transmit: driver cost on the owning CPU, then serialization onto the
    wire (a serial resource — this is where the 1 Gbps limit lives), then
    the switch.  Receive: interrupt-moderation latency, then driver cost on
    the owning CPU, then delivery to whatever the owner registered
    (a host stack's device, or a Dom0 bridge uplink). *)

type t

val create :
  engine:Sim.Engine.t ->
  params:Hypervisor.Params.t ->
  cpu:Sim.Resource.t ->
  switch:Switch.t ->
  mac:Netcore.Mac.t ->
  name:string ->
  t

val send : t -> Netcore.Packet.t -> unit
(** Process context. *)

val set_receiver : t -> (Netcore.Packet.t -> unit) -> unit

val attach_to_device : t -> Netstack.Netdevice.t -> unit
(** Wire this NIC as the driver of a stack's Ethernet device: the device's
    transmit goes to {!send}, received frames go up via the device. *)

val frames_sent : t -> int
val frames_received : t -> int

val detach : t -> unit
(** Remove the NIC from the switch. *)
