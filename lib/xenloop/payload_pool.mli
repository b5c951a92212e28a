(** Grant-mapped payload pool for the zero-copy descriptor channel.

    One pool per queue per direction: a control page plus a ring of
    [slots] fixed-size slots of [slot_pages] pages each, all granted by
    the listener and mapped once by the connector during the channel
    handshake — so the grant-map hypercalls are paid per connect, not per
    packet (the XWAY-style descriptor/payload split; see DESIGN.md §7).

    The sender writes a payload once into a free slot and pushes only a
    {e descriptor} through the FIFO; the receiver consumes the payload in
    place and returns the slot on the shared free ring.  Like the FIFO
    indices, the free ring's head and tail are free-running 32-bit
    counters each incremented by exactly one side, so the pool is
    lock-free.

    The control page also carries the listener's [inline_max] stamp so
    both directions agree on the copy/descriptor threshold, and the gref
    table of the data pages so the handshake message only needs the
    control page's own gref. *)

type t

val pages_for : slots:int -> slot_pages:int -> int
(** Total pages a pool occupies: one control page + [slots * slot_pages]. *)

val geometry_valid : slots:int -> slot_pages:int -> bool
(** Whether {!init} would accept this geometry ([slots] a power of two,
    free ring + gref table fitting the control page); a listener with an
    invalid configured geometry creates the channel without pools. *)

val init :
  ?max_loans:int ->
  ?gso_max:int ->
  ctrl:Memory.Page.t ->
  data:Memory.Page.t array ->
  slots:int ->
  slot_pages:int ->
  inline_max:int ->
  unit ->
  t
(** Format the control page (listener side).  [slots] must be a power of
    two and the free ring plus gref table must fit the control page.
    [max_loans] (default 0 = loans off) is the listener's loan-credit
    stamp: the most slots either receiver may hold borrowed at once (each
    side uses [min own stamp]).  [gso_max] (default 0 = gso off) is the
    listener's segmentation-offload stamp: the largest TCP payload one
    jumbo descriptor may carry on this channel: the listener stamps
    [gso_max_bytes] (guest_module.ml) and each side uses [min own stamp]
    (DESIGN.md §15).
    @raise Invalid_argument otherwise. *)

val write_grefs : t -> Memory.Grant_table.gref array -> unit
(** Stamp the data pages' grant references into the control page, in slot
    order ([slots * slot_pages] entries). *)

val read_grefs : ctrl:Memory.Page.t -> Memory.Grant_table.gref array
(** What the connector reads (from the mapped control page) to learn the
    data pages it must map. *)

val attach : ctrl:Memory.Page.t -> data:Memory.Page.t array -> t
(** Attach a view over an already-initialized pool (connector side, or
    the listener re-deriving its own view). *)

val slots : t -> int
val slot_bytes : t -> int
(** Payload capacity of one slot. *)

val inline_threshold : t -> int
(** The listener's [xenloop_inline_max] stamp; each sender uses
    [max own peer_stamp] so both ends stay conservative. *)

val max_loans_stamp : t -> int
(** The listener's loan-credit stamp; [0] means loaned-slot receive is off
    for this channel and the receiver always copies out. *)

val gso_stamp : t -> int
(** The listener's segmentation-offload stamp; [0] means gso is off for
    this channel and every frame keeps the per-MSS descriptor path. *)

val free_slots : t -> int

val alloc : t -> int option
(** Sender: pop a free slot, or [None] when the pool is exhausted (the
    caller degrades that packet to the inline path). *)

val alloc_slot : t -> int
(** {!alloc} without the option box: the slot number, or [-1] when the
    free ring is empty (or a fault forces exhaustion).  The sender's
    per-packet path. *)

val unalloc : t -> int -> unit
(** Sender-local revert of its own most recent {!alloc}, before the
    descriptor is published (e.g. the FIFO refused the entry). *)

val free : t -> int -> unit
(** Receiver: return a consumed slot on the shared free ring. *)

val loan : t -> int -> unit
(** Receiver: mark a popped descriptor's slot as borrowed by the
    application instead of freeing it — the slot stays off the free ring
    until {!release}.  Loan state is view-local (the shared page never
    records it).
    @raise Invalid_argument on a double loan. *)

val release : t -> int -> unit
(** Application handed the view back: clear the loan and return the slot
    on the free ring.  After {!force_return_loans} the view is dead and
    any late release is a silent no-op.
    @raise Invalid_argument if the slot was never loaned (on a live view). *)

val outstanding_loans : t -> int
(** Slots currently borrowed through this view — the receiver's loan
    credit check, and the chaos harness's quiescence check. *)

val force_return_loans : t -> int
(** Channel teardown: return every borrowed slot to the free ring now
    (the pool pages are about to be unmapped) and mark the view dead so
    late releases no-op.  Returns how many loans were force-returned. *)

val write : t -> slot:int -> src:Bytes.t -> len:int -> unit
(** The sender's single payload copy, into the slot's pages. *)

val read : t -> slot:int -> off:int -> len:int -> Bytes.t
(** The receiver's in-place view of a slot (materialized as bytes for the
    simulated stack; no copy is charged for it). *)

(** {1 Scatter vectors}

    A frame held in pool slots is a scatter vector: chunk [i] is a pair
    [(slot, n)] naming the frame's next [n] bytes, stored at [off] within
    [slot].  A plain descriptor is a one-chunk vector at its offset, a
    jumbo several chunks at offset 0.  Both functions expect a vector the
    receiver has validated (slots in range, lengths summing to the frame
    length and fitting their slots). *)

val read_scatter :
  t ->
  off:int ->
  (int * int) array ->
  pos:int ->
  len:int ->
  dst:Bytes.t ->
  dst_off:int ->
  unit
(** Copy the [len] frame bytes at [pos] out of the vector into [dst] at
    [dst_off], allocating nothing. *)

val write_scatter :
  t ->
  off:int ->
  slots:int array ->
  lens:int array ->
  pos:int ->
  src:Bytes.t ->
  src_off:int ->
  len:int ->
  unit
(** The transmit mirror of {!read_scatter}: write the [len] bytes of
    [src] at [src_off] as frame bytes [pos .. pos + len - 1] of the
    vector whose chunk [i] is [(slots.(i), lens.(i))], allocating
    nothing.  The range may straddle chunks.  The sender builds a frame
    straight from its packet with one call per contiguous piece: the
    headers ({!Netcore.Codec.serialize_head}) at [pos] 0, then each run of
    the payload ({!Netcore.Codec.tail}, {!Netcore.View.iter}) behind them.
    The vector is the sender's own allocation; it must cover the range.
    @raise Invalid_argument on a slot, span or buffer out of bounds. *)

val parse_scatter :
  ?verify_transport:bool ->
  t ->
  off:int ->
  len:int ->
  (int * int) array ->
  (Netcore.Packet.t, Netcore.Codec.error) result
(** {!Netcore.Codec.parse} of the [len]-byte frame the vector holds,
    without gathering it: the headers are read from a copy of the
    vector's first bytes (they may straddle chunks) and the payload is
    copied from the slots straight into the packet — one copy.  With
    verification on, the transport checksum is the header's sum plus the
    payload's.  Returns exactly what [Codec.parse] returns on the
    gathered bytes. *)

val sanity : t -> string option
(** Chaos-harness invariant: slot conservation over the shared free ring —
    magic/geometry intact, [free_slots <= slots], and every slot number in
    the live ring window valid, distinct, and not currently loaned out
    through this view (free + in-flight + loaned = total).
    Returns a description of the first violated property. *)

val set_alloc_fault : t -> (unit -> bool) option -> unit
(** Chaos-harness hook: when the callback returns [true], {!alloc} reports
    exhaustion even though free slots exist.  Registered per view — only
    this endpoint's allocations are affected — so the data path's
    pool-exhaustion fallback (degrade to the inline copy path) is exercised
    without corrupting the shared ring. *)
