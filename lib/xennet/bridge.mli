(** The software bridge in the driver domain (paper Fig. 1).

    All standard-path traffic between co-resident guests crosses this
    bridge: vif → netback → bridge → netback → vif.  The bridge learns MAC
    addresses and forwards {e batches} — runs of same-flow frames that the
    tx-side netback coalesced — so the TSO-style cost advantage of large
    TCP transfers survives the traversal.  Forwarding is charged to the
    driver domain's vCPU. *)

type t

type port

val create :
  engine:Sim.Engine.t ->
  params:Hypervisor.Params.t ->
  cpu:Sim.Resource.t ->
  name:string ->
  t

val attach : t -> name:string -> deliver:(Netcore.Packet.t list -> unit) -> port
(** [deliver] receives forwarded batches (each a non-empty same-destination
    run of frames).  Returns the port handle used as the source when
    injecting. *)

val detach : t -> port -> unit
(** Remove a port; its learned MAC entries are flushed. *)

val port_name : port -> string

val inject : t -> from:port -> Netcore.Packet.t list -> unit
(** Offer a batch to the bridge (process context).  The bridge learns the
    source MAC, then forwards to the learned destination port, or floods
    all other ports for unknown/broadcast destinations. *)

val ports : t -> int
val lookup : t -> Netcore.Mac.t -> port option
