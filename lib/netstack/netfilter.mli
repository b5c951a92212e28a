(** Netfilter-style hook points.

    XenLoop inserts itself as a POST_ROUTING hook: it inspects every
    outgoing packet below the network layer and may {e steal} those bound
    for a co-resident guest (paper Sect. 3.1). *)

type verdict = Accept | Steal

type t
type hook_handle

val create : unit -> t

val register : t -> (Netcore.Packet.t -> verdict) -> hook_handle
(** Hooks run in registration order. *)

val register_batch : t -> (Netcore.Packet.t list -> verdict list) -> hook_handle
(** A hook that sees a whole transmit burst at once (e.g. all fragments of
    one datagram) and returns one verdict per packet, in order.  Under
    single-packet traversal it receives one-element lists.  A
    short verdict list leaves the remaining packets [Accept]ed. *)

val unregister : t -> hook_handle -> unit

val run_batch : t -> Netcore.Packet.t list -> verdict list
(** Traverse all hooks with a burst of packets, preserving per-hook
    registration order and per-packet burst order; packets stolen by an
    earlier hook are not shown to later hooks.  Returns the per-packet
    verdicts in input order. *)

val hook_count : t -> int
