(** Calendar-queue event scheduler: a circular timer wheel for the
    near-future window, a binary heap of the same cells as far-future
    overflow, preserving exact (time, seq) pop order.

    Cells are caller-owned mutable records, each registered in the wheel
    it was made for; every link between cells is an int index into that
    registry, so relinking stores no pointer.  The steady-state
    insert/remove/pop cycle performs no allocation, which is what lets
    {!Engine} pool them.

    Time is in plain [int] nanoseconds (63-bit — ±146 years of simulated
    time) so cell updates never box an [Int64]. *)

type 'a cell = {
  mutable c_time : int;  (** event time, ns *)
  mutable c_seq : int;  (** tie-break: insertion sequence *)
  mutable c_value : 'a;
  mutable c_next : int;
      (** not used by the wheel: the owner may chain free cells through
          it by [c_id] (the engine's freelist), ending with {!nil}'s *)
  mutable c_loc : int;  (** where the cell currently lives (internal) *)
  c_id : int;  (** this cell's index in its wheel's registry *)
}

type 'a t

val create : dummy:'a -> 'a t
(** An empty wheel.  [dummy] fills the internal sentinel cell's value. *)

val make_cell : 'a t -> 'a -> 'a cell
(** A fresh unlinked cell usable with this wheel, registered in it for
    the wheel's whole life. *)

val cell : 'a t -> int -> 'a cell
(** The registered cell with this [c_id] (unchecked: the id must come
    from a cell of this wheel). *)

val nil : 'a t -> 'a cell
(** The wheel's sentinel: returned by {!pop} on an empty wheel; callers
    may use its [c_id] to end their own [c_next] chains. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val insert : 'a t -> 'a cell -> unit
(** Queue a cell at its [c_time]/[c_seq], which must not change while it
    is queued.  Times before the current cursor
    are admitted (they pop at the cursor position, still in (time, seq)
    order relative to their slot). *)

val remove : 'a t -> 'a cell -> bool
(** Unlink a queued cell ([false] if it was not queued).  O(slot length)
    in the wheel, O(heap) in the overflow. *)

val pop : 'a t -> 'a cell
(** Remove and return the minimum-(time, seq) cell, or {!nil} when empty.
    Advances the internal cursor; callers must only advance their clock
    monotonically with the popped times (which the engine does). *)

val pop_before : 'a t -> int -> 'a cell
(** [pop_before t limit_ns] pops the minimum cell if its time is at most
    [limit_ns], else returns {!nil} leaving the queue's contents intact.
    One slot scan instead of the peek-then-pop two — the bounded run
    loop's fast path. *)

val clear_through : 'a t -> int -> bool
(** [clear_through t limit_ns] is [true] iff no queued cell has
    [c_time <= limit_ns].  It may advance the internal cursor across
    empty slots, up to [limit_ns]'s tick, so callers must only move their
    clock past the cells they have seen, as with {!pop_before}: the
    engine moves it to [limit_ns] only on a [true]. *)
