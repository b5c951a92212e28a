(** A store-and-forward Ethernet switch with MAC learning. *)

type t
type port

val create : engine:Sim.Engine.t -> params:Hypervisor.Params.t -> t

val attach : t -> name:string -> deliver:(Netcore.Packet.t -> unit) -> port
val detach : t -> port -> unit

val transmit : t -> from:port -> Netcore.Packet.t -> unit
(** Forward a frame: learns the source MAC, waits the switch latency, then
    delivers to the learned port (or floods).  Process context. *)
