(** A network endpoint: one host (or guest) with a full socket stack. *)

type t = {
  ep_name : string;
  cpu : Sim.Resource.t;
  stack : Netstack.Stack.t;
  udp : Netstack.Udp.t;
  tcp : Netstack.Tcp.t;
}

val make :
  engine:Sim.Engine.t ->
  params:Hypervisor.Params.t ->
  cpu:Sim.Resource.t ->
  name:string ->
  ip:Netcore.Ip.t ->
  mac:Netcore.Mac.t ->
  t
(** Builds the stack and attaches the UDP and TCP layers.  The Ethernet
    device is attached separately by the scenario (vif, NIC, or none for
    pure-loopback hosts). *)

val ip : t -> Netcore.Ip.t
