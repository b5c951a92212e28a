(** The XenLoop lockless FIFO (paper Sect. 3.3, "FIFO design").

    A producer–consumer circular buffer living in shared memory pages.
    Each entry is an 8-byte metadata word followed by the packet payload in
    8-byte slots.  The number of slots is 2^k, while the free-running
    [front] and [back] indices are m-bit with m = 32 > k; because both are
    only ever incremented (mod 2^32) by exactly one side, no
    producer–consumer synchronization is needed and wrap-around falls out
    of the index arithmetic.  The first page is the {e descriptor page}:
    it holds the indices, the channel state flag, the geometry, and the
    grant references of the data pages (which is how the connector guest
    learns what to map during bootstrap). *)

type t

val default_k : int
(** 13: 2^13 slots of 8 bytes = 64 KiB, the paper's default FIFO size. *)

val data_pages_for : k:int -> int
(** Number of 4 KiB data pages backing 2^k slots. *)

(** {1 Queue-indexed layout}

    A multi-queue channel backs all its queues with one flat page pool
    (allocated in a single atomic grab) carved into per-queue
    [desc_lc | data_lc | desc_cl | data_cl] stripes. *)

val pages_per_queue : k:int -> int
(** Pages one bidirectional queue pair needs: two descriptor pages plus
    the data pages of both directions. *)

val pages_for_queues : k:int -> queues:int -> int

type queue_pages = {
  qp_desc_lc : Memory.Page.t;
  qp_data_lc : Memory.Page.t array;
  qp_desc_cl : Memory.Page.t;
  qp_data_cl : Memory.Page.t array;
}

val carve_queue : pool:Memory.Page.t array -> k:int -> index:int -> queue_pages
(** The pages of queue [index] within [pool].
    @raise Invalid_argument when the pool cannot hold that queue. *)

val max_k : int
(** Largest supported k (descriptor-page gref table is the limit). *)

(** {1 Setup (listener side)} *)

val init : desc:Memory.Page.t -> data:Memory.Page.t array -> k:int -> unit
(** Format the descriptor and mark the FIFO active.
    @raise Invalid_argument if the page count does not match [k] or [k]
    exceeds {!max_k}. *)

val write_grefs : desc:Memory.Page.t -> Memory.Grant_table.gref list -> unit
val read_grefs : desc:Memory.Page.t -> Memory.Grant_table.gref list

(** {1 Views}

    Both endpoints attach a view over the same pages; the producer side
    pushes, the consumer side pops.  Nothing stops a test from attaching
    both views in one process — they still share state through the pages,
    exactly like two guests sharing mapped memory. *)

val attach : desc:Memory.Page.t -> data:Memory.Page.t array -> t

val slots : t -> int
val max_packet : t -> int
(** Largest payload a single entry can carry; bigger packets must take the
    standard netfront path (paper Sect. 3.1). *)

val used_slots : t -> int
val free_slots : t -> int
val is_empty : t -> bool

val slots_for_payload : int -> int
(** Slots one entry occupies: the 8-byte metadata word plus the payload
    rounded up to whole slots. *)

val can_accept : t -> int -> bool
(** Whether a payload of this many bytes would fit right now: non-empty, at
    most {!max_packet}, and {!slots_for_payload} ≤ {!free_slots}.  This is
    the one authoritative admission check — callers must not re-derive it
    from slot arithmetic. *)

val try_push : t -> Bytes.t -> bool
(** Inline push: [false] when the payload does not fit in the free space
    (caller queues it on the waiting list). *)

(** {1 Descriptor entries (zero-copy payload pool)}

    With a {!Payload_pool} attached to the channel direction, payloads
    above the negotiated inline threshold are written once into a pool
    slot and the FIFO carries only a two-slot {e descriptor} entry —
    metadata word plus [{slot, offset, len, proto_hint}] — consumed in
    place by the receiver (DESIGN.md §7).  Without a pool every call
    below behaves bit-for-bit like the inline path. *)

(** {2 Zero-allocation producer path}

    [push_entry]'s result is one of the int codes below rather than a
    variant block, its labelled arguments are non-optional
    (optional-argument defaults box), and nothing is allocated on the
    OCaml heap for an inline push.  The per-packet path of the guest TX
    engine. *)

val push_failed : int  (** 0 — the entry did not enter the FIFO *)

val pushed_inline : int  (** 1 — inline copy path *)

val pushed_desc : int  (** 2 — descriptor through the payload pool *)

val pushed_inline_fallback : int
(** 3 — descriptor-eligible but the pool was exhausted; degraded inline *)

val push_entry :
  t ->
  pool:Payload_pool.t option ->
  inline_max:int ->
  proto_hint:int ->
  Bytes.t ->
  int
(** The one producer entry point for a pooled channel.  Payloads at or
    below [inline_max] (or with no [pool]) take the inline path exactly
    as {!try_push}; eligible larger payloads allocate a pool slot, pay
    their single copy into it, and publish a descriptor.  A refused push
    never consumes a pool slot. *)

val flag_app : int
(** Descriptor-flag bit: the slot payload is a socket-shortcut app datagram
    (8-byte app header — src ip u32, src port u16, 2 pad — then the datagram
    bytes) and [proto_hint] carries the destination port, not an
    EtherType/protocol hint. *)

val try_push_desc :
  t ->
  ?flags:int ->
  slot:int ->
  offset:int ->
  len:int ->
  proto_hint:int ->
  unit ->
  bool
(** Publish a descriptor for a payload already written to the pool
    (two FIFO slots).  [flags] (default none) is OR-ed into the entry's
    flag word next to the descriptor bit — {!flag_app} and
    {!flag_csum_ok} are the defined extra bits.  {!push_entry} is the
    normal caller for plain frames. *)

(** {2 Jumbo descriptors (segmentation offload, DESIGN.md §15)}

    A gso-negotiated sender publishes one entry for a frame larger than a
    single pool slot: the payload is scatter-written across several slots
    and the entry carries the chunk vector.  Never produced or consumed
    unless both endpoints negotiated gso — a gso-off channel's byte
    streams are bit-for-bit free of these. *)

val flag_jumbo : int
(** Descriptor-flag bit: multi-slot scatter entry (always set together
    with the descriptor bit). *)

val flag_csum_ok : int
(** Descriptor-flag bit: the sender elided the transport checksum on this
    trusted channel; the receiver parses verify-free and any
    netfront/physnet fallback must re-serialize (which recomputes). *)

val max_jumbo_chunks : int
(** Structural bound on a jumbo entry's chunk count (32). *)

val jumbo_ring_slots : int -> int
(** Ring slots a jumbo entry with this many chunks occupies (2 + n). *)

val can_accept_jumbo : t -> nchunks:int -> bool
(** Whether a jumbo entry with this many chunks would fit right now.  Pool
    slot availability is the caller's check — the chunk payloads are
    already written when the entry is pushed. *)

val try_push_jumbo :
  t ->
  ?flags:int ->
  chunk_slots:int array ->
  chunk_lens:int array ->
  nchunks:int ->
  total_len:int ->
  proto_hint:int ->
  unit ->
  bool
(** Publish a jumbo entry for a frame already scatter-written into
    [nchunks] pool slots (prefixes of [chunk_slots]/[chunk_lens]).
    [total_len] is the whole frame length and may exceed {!max_packet}.
    On [false] the caller owns the pool-slot rollback. *)

val can_accept_entry : t -> ?pool:Payload_pool.t -> ?inline_max:int -> int -> bool
(** {!can_accept} generalized over the descriptor path: whether
    {!push_entry} with the same pool and threshold would succeed right now.  The one
    authoritative admission check for pooled queues. *)

type entry =
  | Inline of Bytes.t
  | Desc of { d_slot : int; d_off : int; d_len : int; d_proto : int; d_flags : int }
  | Jumbo of {
      j_len : int;
      j_proto : int;
      j_flags : int;
      j_chunks : (int * int) array;  (** (pool slot, chunk length) *)
    }

val pop_entry : t -> entry option
(** Consume the next entry, whichever kind it is.  For [Desc] and [Jumbo]
    the caller resolves the payload against its mapped pool and returns
    the slot(s) on the pool's free ring.  A [Jumbo] chunk vector is
    delivered as read — the caller validates slots and lengths against
    its pool and drops (with accounting) on mismatch.
    @raise Invalid_argument on corrupt entry metadata (including a jumbo
    chunk count outside [1, {!max_jumbo_chunks}], which breaks ring
    framing itself). *)

val pop : t -> Bytes.t option
(** Inline-only consumer view of {!pop_entry}.
    @raise Invalid_argument on corrupt metadata or a descriptor entry
    (an endpoint without a pool must never see one). *)

val is_active : t -> bool
val mark_inactive : t -> unit
(** Channel teardown flag, visible to the other endpoint through shared
    memory. *)

(** {1 Notification-suppression flags}

    Two header words in the shared descriptor page (an engineering
    extension over the paper's layout, mirroring Xen's
    [RING_PUSH_REQUESTS_AND_CHECK_NOTIFY] consumer-state convention).
    The consumer publishes "I am actively draining" so the producer can
    skip the event-channel hypercall; the producer publishes "my waiting
    list is non-empty" so the consumer knows freed space is worth a
    notification.  Each flag is written by exactly one endpoint and read
    by the other. *)

val consumer_active : t -> bool
val set_consumer_active : t -> bool -> unit
(** Set by the consumer while it drains/polls this FIFO; a producer that
    sees it set may skip {e data-available} notifications. *)

val producer_waiting : t -> bool
val set_producer_waiting : t -> bool -> unit
(** Set by the producer while packets sit on its waiting list; a consumer
    that frees space only notifies back when it is set. *)

(** {1 Test hooks} *)

val force_indices : desc:Memory.Page.t -> int -> unit
(** Set both indices to an arbitrary 32-bit value (e.g. near 2^32) to
    exercise wrap-around. *)

val front : t -> int
val back : t -> int

val sanity : t -> string option
(** Chaos-harness invariant: checks the shared descriptor header for
    corruption — k/page geometry vs this view, boolean flags really 0/1,
    and [used_slots <= slots] (a free-running front that overtook back).
    Returns a description of the first violated property. *)
