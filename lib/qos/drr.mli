(** Weighted deficit-round-robin scheduler over per-flow sub-queues.

    Generic in both the flow key ['k] and the queued value ['v]; the
    caller supplies each item's byte length so the scheduler never
    inspects payloads.  Flows are created lazily on first [enqueue],
    carry a weight (re-asserted on every enqueue), and share service in
    proportion to [quantum * weight] bytes per round. *)

type ('k, 'v) t

(** [create ~quantum ~max_per_flow ()] builds an empty scheduler.
    [quantum] is the per-visit byte credit for weight-1 flows;
    [max_per_flow] bounds each flow's sub-queue depth in items.
    Raises [Invalid_argument] if either is non-positive. *)
val create : quantum:int -> max_per_flow:int -> unit -> ('k, 'v) t

val max_per_flow : ('k, 'v) t -> int

(** [enqueue t ~key ~weight ~len v] appends [v] to [key]'s sub-queue.
    Returns [false] without queueing when the sub-queue already holds
    [max_per_flow] items — the caller decides the overflow policy
    (XenLoop reroutes that frame through netfront). *)
val enqueue : ('k, 'v) t -> key:'k -> weight:int -> len:int -> 'v -> bool

(** The item DRR serves next, as [(key, value, len)], left queued; [None]
    iff the scheduler is empty.  Opens the ring-head flow's visit
    (replenishing its deficit by [quantum * weight]) unless one is open,
    and rotates past flows whose head item exceeds their replenished
    deficit, which bank the credit.  Repeated peeks without a [pop]
    return the same item, so a consumer that cannot take it yet just
    stops and peeks again later. *)
val peek : ('k, 'v) t -> ('k * 'v * int) option

(** Remove the item [peek] returns.  The flow's visit ends — it rotates
    to the ring tail, or leaves the ring with its deficit zeroed once
    empty — when its next item no longer fits the deficit.  Raises
    [Invalid_argument] on an empty scheduler. *)
val pop : ('k, 'v) t -> unit

(** One whole DRR visit: the [peek]/[pop] sequence up to the end of the
    serving flow's visit, as [(key, items)].  [None] iff empty. *)
val select : ('k, 'v) t -> ('k * ('v * int) list) option

(** The ring-head flow's head item and its byte length, or [None] when
    empty.  A pure read: unlike [peek] it opens no visit, so it may name
    an item [peek] would skip this round.  Used by the "does the head fit
    in the FIFO" check. *)
val head : ('k, 'v) t -> ('v * int) option

val flow_length : ('k, 'v) t -> 'k -> int
val length : ('k, 'v) t -> int
val bytes : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool

(** Remove and return every queued item, grouped by flow in ring
    (service) order, each flow's items in FIFO order.  Deficits are
    zeroed.  Used at channel teardown to flush or save the backlog. *)
val drain_all : ('k, 'v) t -> ('k * 'v * int) list

(** Fold over active (non-empty) flows in service order. *)
val fold_flows :
  ('a -> 'k -> items:int -> bytes:int -> 'a) -> ('k, 'v) t -> 'a -> 'a
