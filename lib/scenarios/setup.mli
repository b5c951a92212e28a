(** Builders for the paper's four communication scenarios (Sect. 4):

    - {e inter-machine}: two native hosts across the 1 Gbps switch;
    - {e netfront/netback}: two guests on one Xen machine, standard path
      through the Dom0 software bridge;
    - {e XenLoop}: the same two guests with the XenLoop module loaded and
      the Dom0 discovery module running;
    - {e native loopback}: two processes on one non-virtualized host
      talking over the loopback interface. *)

type kind = Inter_machine | Netfront_netback | Xenloop_path | Native_loopback

val kind_label : kind -> string
val all_kinds : kind list

type duo = {
  engine : Sim.Engine.t;
  params : Hypervisor.Params.t;
  client : Endpoint.t;
  server : Endpoint.t;
  server_ip : Netcore.Ip.t;
  label : string;
  warmup : unit -> unit;
      (** Process context: resolves ARP, triggers discovery and XenLoop
          channel bootstrap, and waits for the fast path to engage, so
          measurements start from steady state (as the paper's benchmarks
          do after their first packets). *)
  modules : Xenloop.Guest_module.t list;
      (** Loaded XenLoop modules (empty outside the XenLoop scenario). *)
  machine : Hypervisor.Machine.t option;
      (** The shared machine for the two virtualized scenarios. *)
  discovery : Xenloop.Discovery.t option;
      (** The Dom0 discovery module (XenLoop scenario only) — exposed so
          the chaos harness can fault its announcements. *)
}

val build :
  ?params:Hypervisor.Params.t ->
  ?fifo_k:int ->
  ?client_queues:int ->
  ?server_queues:int ->
  ?client_rung:Hypervisor.Params.rung ->
  ?server_rung:Hypervisor.Params.rung ->
  ?cpu_model:Hypervisor.Machine.cpu_model ->
  kind ->
  duo
(** Fresh engine and world for the given scenario.  [fifo_k] only affects
    the XenLoop scenario (paper Fig. 5); [client_queues]/[server_queues]
    override each module's advertised queue count (default
    {!Hypervisor.Params.xenloop_queues}), letting tests exercise asymmetric
    negotiation; [client_rung]/[server_rung] override each guest's
    {!Hypervisor.Params.t.xenloop_rung}, so tests can pit modules on
    different rungs of the feature ladder against each other; [cpu_model]
    selects dedicated vCPUs (default) or the credit scheduler for the Xen
    scenarios. *)

(** {1 N-guest clusters}

    Discovery and the mapping table are inherently N-party (paper
    Sect. 3.2); a cluster scenario exercises pairwise channels among many
    co-resident guests. *)

type cluster = {
  c_engine : Sim.Engine.t;
  c_params : Hypervisor.Params.t;
  c_machine : Hypervisor.Machine.t;
  guests : (Hypervisor.Domain.t * Endpoint.t * Xenloop.Guest_module.t) list;
  c_discovery : Xenloop.Discovery.t;
  c_warmup : unit -> unit;
      (** Runs a discovery scan and all-pairs pings so every channel is
          established (process context). *)
}

val build_cluster :
  ?params:Hypervisor.Params.t ->
  ?fifo_k:int ->
  ?queues:int ->
  ?cpu_model:Hypervisor.Machine.cpu_model ->
  guests:int ->
  unit ->
  cluster

(** {1 Pieces reused by the migration world} *)

val attach_stack_to_bridge :
  params:Hypervisor.Params.t ->
  bridge:Xennet.Bridge.t ->
  stack:Netstack.Stack.t ->
  name:string ->
  unit
(** Plug a Dom0-resident stack straight into the software bridge (Dom0
    needs no netback for its own traffic). *)
