(** Deterministic flow-hash steering across a channel's queue pairs.

    An RSS-style generalization of the paper's single FIFO pair: the
    transmit hook hashes the flow identity and picks one of the channel's
    N queues.  TCP hashes on the 5-tuple (proto, src/dst IP, src/dst
    port); UDP and all fragments hash on the 3-tuple (proto, src/dst IP)
    so a datagram's fragments — which carry no ports — can never be split
    from their unfragmented siblings (the Linux RSS default, for the same
    reason); everything else falls back to the destination MAC.  Purely
    functional: a given flow always lands on the same queue for a given
    queue count. *)

type flow_key =
  | Ip_flow of { proto : int; src : int32; dst : int32; sport : int; dport : int }
  | Mac_flow of int64

val ip_flow :
  proto:int -> src:Netcore.Ip.t -> dst:Netcore.Ip.t -> sport:int -> dport:int ->
  flow_key
(** Build an IP flow key directly (benches use this to predict queue
    placement for chosen ports). *)

val flow_key : Netcore.Packet.t -> flow_key
(** Extract the steering key: 5-tuple for unfragmented TCP, 3-tuple
    (ports zeroed) for UDP and for any fragment, destination MAC
    otherwise. *)

val qos_flow_key : Netcore.Packet.t -> flow_key
(** The QoS accounting identity: like {!flow_key} but unfragmented UDP
    keeps its ports (one flow per socket pair), so a flooding socket is
    isolated from its neighbours even when steering maps both to the
    same queue.  Fragments still collapse to the 3-tuple. *)

val describe_key : flow_key -> string
(** Stable human-readable rendering, e.g. ["udp:10.0.0.1:5001>10.0.0.2:9000"],
    used as the flow label in stats and bench JSON. *)

val queue_index : flow_key -> queues:int -> int
(** [hash key mod queues]; always 0 when [queues <= 1]. *)
