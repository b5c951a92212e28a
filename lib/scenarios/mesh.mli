(** Parameterized N-guest x M-host mesh topology generator (DESIGN.md §12).

    One description — guest count, host count — builds the whole world:
    per host a Xen machine, its bridge, a Dom0 endpoint and a running
    {!Xenloop.Discovery}; per guest a domain, stack, vif and loaded
    {!Xenloop.Guest_module}; on a multi-host mesh one physical switch
    with an uplink NIC per host.  Guests are placed in contiguous blocks
    across hosts, so low-stride neighbour traffic is mostly co-resident.

    This is what the [mesh_sweep] bench section, the eviction tests, and
    the opt-in chaos eviction cases build on — the hand-wired duo /
    cluster3 worlds stay for the digest-pinned scenarios. *)

module Params = Hypervisor.Params
module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain
module Gm = Xenloop.Guest_module

type host = {
  h_index : int;
  h_machine : Machine.t;
  h_bridge : Xennet.Bridge.t;
  h_dom0 : Endpoint.t;
  h_discovery : Xenloop.Discovery.t;
}

type guest = {
  g_index : int;  (** global 0-based index across the whole mesh *)
  g_host : int;  (** index into [hosts] *)
  g_domain : Domain.t;
  g_endpoint : Endpoint.t;
  g_module : Gm.t;
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  switch : Physnet.Switch.t option;  (** [None] on a single-host mesh *)
  hosts : host array;
  guests : guest array;
}

val build :
  ?params:Params.t ->
  ?fifo_k:int ->
  guests:int ->
  hosts:int ->
  unit ->
  t
(** Every guest's module runs with [params] (default
    {!Hypervisor.Params.default}): its queue count and rung are
    [params.xenloop_queues] and [params.xenloop_rung].  Raises
    [Invalid_argument] unless 1 <= hosts <= guests and guests >= 2. *)

val guest_ip : int -> Netcore.Ip.t
(** Address of the guest with the given global index: 10.2.x.y, unique
    far past one /24. *)

val warmup : t -> unit
(** [prime_arp] and [scan_all] plus settle time: mapping tables
    populated, caches warm, no channels. *)

val co_resident : t -> int -> int -> bool
val ping : t -> src:int -> dst:int -> unit

val establish_ring : t -> degree:int -> unit
(** Guest i pings its next [degree] co-resident successors (mod N): the
    sparse traffic matrix — live channels per guest ~ degree. *)

val establish_all_pairs : t -> unit
(** Every co-resident pair pings once: the dense worst case.  Quadratic
    per host. *)

(** {1 Mesh-wide aggregates} (sums over all guests / hosts) *)

val live_channels : t -> int
val channel_pool_bytes : t -> int
val grant_entries : t -> int
val announce_bytes : t -> int
val announcements_sent : t -> int
val announcements_suppressed : t -> int
val channels_established : t -> int
val channels_evicted : t -> int
