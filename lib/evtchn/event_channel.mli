(** Xen-style inter-domain event channels.

    An event channel is a 1-bit notification mechanism between two domains.
    Notifications are level-triggered and coalesce: sending to a port whose
    pending bit is already set has no additional effect.  This matters for
    performance modelling — a fast producer batching packets into a FIFO
    pays for far fewer interrupt deliveries than packets sent.

    One {!t} models the event-channel subsystem of a single physical
    machine. *)

type t

type domid = int
type port = int

type error = Bad_port | Already_bound | Not_bound

val pp_error : Format.formatter -> error -> unit

val create :
  engine:Sim.Engine.t -> delivery_latency:(unit -> Sim.Time.span) -> t
(** [delivery_latency] is sampled at each delivery; it models virtual IRQ
    injection plus the wake-up delay before the target domain runs. *)

val alloc_unbound : t -> dom:domid -> remote:domid -> port
(** Allocate a port on [dom] that only [remote] may bind to. *)

val bind_interdomain :
  t -> dom:domid -> remote:domid -> remote_port:port -> (port, error) result
(** Bind a local port on [dom] to [remote]'s unbound port, completing the
    channel. *)

val set_handler : t -> dom:domid -> port:port -> (unit -> unit) -> unit
(** Register the callback run (in process context) when a notification is
    delivered to [port].  Replaces any previous handler. *)

val notify :
  t -> dom:domid -> port:port -> meter:Memory.Cost_meter.t -> (unit, error) result
(** Send an event through [dom]'s end of the channel.  Costs one hypercall
    (EVTCHNOP_send).  Sets the peer's pending bit; if the bit was clear and
    the peer is unmasked, schedules the peer's handler after the delivery
    latency. *)

(** {2 Host-only wakes}

    A consumer lingering on a shared ring is not waiting for an interrupt:
    it re-reads memory every poll interval.  The simulator parks it on a
    {!Sim.Engine.waiter} instead, and the producer side wakes it through
    the channel at zero simulated cost — no hypercall, no event, no
    pending bit, and never faulted, because nothing crosses the
    hypervisor. *)

type endpoint

val set_waiter : t -> dom:domid -> port:port -> Sim.Engine.waiter -> unit
(** Park target for wakes arriving at [dom]'s [port].
    @raise Invalid_argument on an unknown port. *)

val peer_endpoint : t -> dom:domid -> port:port -> endpoint option
(** The far end of [dom]'s bound [port], resolved once and kept: {!wake}
    through it needs no lookup, and keeps working after the channel is
    closed. *)

val wake : endpoint -> unit
(** {!Sim.Engine.wake} the waiter registered at this endpoint, if any. *)

val mask : t -> dom:domid -> port:port -> unit
val unmask : t -> dom:domid -> port:port -> unit
(** Unmasking a port with its pending bit set triggers delivery, as in
    Xen. *)

val is_pending : t -> dom:domid -> port:port -> bool

val close : t -> dom:domid -> port:port -> unit
(** Tear down both endpoints.  Subsequent operations return [Bad_port]. *)

val peer : t -> dom:domid -> port:port -> (domid * port) option
val active_channels : t -> int

(** {2 Fault injection}

    Hooks for the chaos harness (lib/chaos).  The injector is consulted on
    every {!notify} whose channel is bound; it may drop the virtual IRQ on
    the floor or delay its delivery.  Because channels are level-triggered
    and coalescing, a dropped doorbell is recovered by any later successful
    notify on the same port — exactly the property the harness checks. *)

type notify_fault =
  | Notify_deliver  (** normal delivery *)
  | Notify_drop  (** hypercall succeeds, IRQ never arrives *)
  | Notify_delay of Sim.Time.span  (** extra delivery latency *)

val set_fault_injector :
  t -> (dom:domid -> port:port -> notify_fault) option -> unit
(** [dom]/[port] identify the notifying end.  [None] removes the hook. *)
