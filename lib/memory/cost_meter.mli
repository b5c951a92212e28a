(** Operation accounting.

    The substrate libraries count the operations that dominate Xen inter-VM
    networking cost (hypercalls, page copies, page zeroings, event-channel
    notifications); the hypervisor's cost model converts counts into
    simulated time, and the benchmark harness reports them so experiments
    can explain *why* a data path is slow. *)

type t

(** The hypercalls the substrate issues, each counted in a fixed slot. *)
type hypercall =
  | Gnttab_map_grant_ref
  | Gnttab_unmap_grant_ref
  | Gnttab_copy
  | Gnttab_transfer
  | Evtchn_send

type op =
  | Hypercall of hypercall
  | Page_copy of int  (** bytes copied *)
  | Page_zero
  | Event_notify
  | Domain_switch
  | Grant_map  (** one granted page mapped — a per-connect setup cost *)
  | Grant_unmap

val create : unit -> t

val record : t -> op -> unit

val hypercalls : t -> int
val hypercall_count : t -> hypercall -> int
val bytes_copied : t -> int
(** Per-packet data-path copies.  Kept distinct from {!grant_maps} so a
    copies-per-byte figure never smears one-time connect costs over the
    packets that follow. *)

val page_zeroes : t -> int
val event_notifies : t -> int
val domain_switches : t -> int

val grant_maps : t -> int
(** Granted pages mapped (one-time per-connect costs, amortized over the
    channel lifetime — not per-packet work). *)

val reset : t -> unit

val merge_into : src:t -> dst:t -> unit
