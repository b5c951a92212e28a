(** What a workload needs from an endpoint: its socket layers. *)

type t = {
  stack : Netstack.Stack.t;
  udp : Netstack.Udp.t;
  tcp : Netstack.Tcp.t;
}

val engine : t -> Sim.Engine.t
