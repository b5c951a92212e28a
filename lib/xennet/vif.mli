(** A guest's virtual network interface: the netfront driver in the guest
    and its netback counterpart in the driver domain, joined by I/O rings
    and an event channel and plugged into the software bridge (paper
    Sect. 2, Fig. 1).

    Cost model per the paper: the guest pays ring work plus an
    event-channel hypercall per packet; the driver domain pays a fixed
    per-packet cost plus a per-page grant-copy cost, on each side of the
    bridge.  The tx-side netback coalesces back-to-back segments of one
    TCP flow into a TSO-style batch (up to [tso_max_frame] bytes), which
    is what makes TCP through netback several times faster than UDP —
    exactly the asymmetry in the paper's Table 2. *)

type t

val create :
  machine:Hypervisor.Machine.t ->
  guest:Hypervisor.Domain.t ->
  bridge:Bridge.t ->
  stack:Netstack.Stack.t ->
  unit ->
  t
(** Builds the split driver, attaches the device to the guest's stack as
    its Ethernet device, and plugs the netback side into the bridge. *)

val detach : t -> unit
(** Disconnect (guest shutdown or migration out): unplugs the bridge port
    and closes the event channel.  Frames transmitted afterwards are
    dropped, as on a real unplugged vif. *)

val is_attached : t -> bool

(** {1 Statistics} *)

val tx_batches : t -> int
(** Batches the tx-side netback processed. *)

val tx_packets_through_netback : t -> int
