(** Neighbour (ARP) cache.

    XenLoop consults this system-maintained cache to resolve a packet's
    next-hop MAC before deciding whether the destination is co-resident
    (paper Sect. 3.1). *)

type t

val create : unit -> t

val lookup : t -> Netcore.Ip.t -> Netcore.Mac.t option

(** {1 Pending resolutions} *)

val add_waiter : t -> Netcore.Ip.t -> (Netcore.Mac.t -> unit) -> unit
(** Queue a callback to fire when the address is resolved. *)

val resolved : t -> Netcore.Ip.t -> Netcore.Mac.t -> unit
(** Insert and fire all waiters. *)
