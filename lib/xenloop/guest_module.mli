(** The XenLoop guest kernel module (paper Sect. 3).

    A self-contained module loaded into a guest: it inserts a netfilter
    hook between the network and link layers, advertises the guest's
    willingness in XenStore, maintains the soft-state mapping table from
    Dom0 announcements, sets up and tears down bidirectional FIFO channels
    with co-resident guests on demand, and transparently follows the guest
    through suspend, shutdown, and live migration.

    The data path: an outgoing packet whose next-hop MAC belongs to a
    co-resident, XenLoop-willing guest is copied into the outgoing FIFO
    (or waits, still a packet, on the waiting list when the FIFO is full),
    and the peer is signalled over the event channel; everything else — unknown
    destinations, packets larger than the FIFO, traffic during bootstrap —
    takes the standard netfront path untouched.  User applications never
    see any of this: full transparency.

    {b Multi-queue} (engineering extension): a channel carries N
    independent queue pairs instead of one, each with its own FIFO pair,
    event channel, waiting list, and suppression/poll state.  The transmit
    hook steers each packet by a deterministic flow hash ({!Steering}), so
    a bulk stream saturating one queue cannot head-of-line-block a
    latency-sensitive flow steered to another.  The queue count is
    negotiated during bootstrap as the min of both sides' advertised
    values; a count of 1 is the paper's single channel. *)

type t

type stats = {
  mutable via_channel_tx : int;
  mutable via_channel_rx : int;
  mutable queued_to_waiting : int;
  mutable waiting_overflows : int;
      (** frames rerouted through the standard netfront path because their
          flow's share of the queue's waiting list was already at
          {!Hypervisor.Params.xenloop_waiting_list_max} (with QoS off a
          queue has one flow) *)
  mutable too_big_fallback : int;
  mutable channels_established : int;
  mutable channels_torn_down : int;
      (** channels closed for any reason, an offered channel whose
          handshake was given up or abandoned included *)
  mutable bootstraps_started : int;
  mutable corrupt_channels : int;
      (** channels torn down because the peer corrupted the shared FIFO
          state — a misbehaving or malicious co-resident guest must never
          crash this one, only lose its fast path *)
  mutable notifies_sent : int;
      (** event-channel doorbells actually rung (one hypercall each) *)
  mutable notifies_suppressed : int;
      (** doorbells elided because the peer's consumer-active flag showed it
          already draining (rung [Notify] and above) *)
  mutable batches : int;
      (** multi-frame bursts pushed under one amortized charge and a single
          trailing notification (rung [Notify] and above) *)
  mutable poll_rounds : int;
      (** NAPI-style receiver poll iterations inside the event handler
          ({!Hypervisor.Params.xenloop_poll_window}): every tick of every
          linger, executed or skipped, up to the instant of the read *)
  mutable poll_missed_wakes : int;
      (** lingers that expired with work already waiting that nobody
          woke them for — a mutation that broke the wake contract
          (DESIGN.md §5); 0 in a correct build *)
  mutable steered_packets : int;
      (** packets placed on a specific queue by the flow hash (hook steals
          plus transport-shortcut payloads) *)
  mutable flow_cache_hits : int;
  mutable flow_cache_misses : int;
      (** per-flow routing-decision cache in the transmit hook; every
          soft-state replacement or channel set change invalidates it
          wholesale via an epoch counter *)
  mutable desc_tx : int;
      (** frames sent as payload-pool descriptors — one copy end to end
          (rung [Zerocopy] and above, DESIGN.md §7) *)
  mutable inline_tx : int;
      (** frames sent on the inline copy path (at or below the negotiated
          threshold, non-zero-copy channels, and pool-exhaustion
          degradations) *)
  mutable pool_fallbacks : int;
      (** descriptor-eligible frames degraded to the inline path because
          the payload pool had no free slot *)
  mutable loan_tx : int;
      (** descriptors pushed onto loan-negotiated queues — loan-eligible at
          the receiver (rung [Loans] and above, DESIGN.md §11) *)
  mutable loan_rx : int;
      (** received descriptors delivered as borrowed pool-slot views (the
          slot stays out of the free ring until the consumer releases it) *)
  mutable loan_returns : int;
      (** borrowed slots handed back by the consumer (including those that
          degenerated into a copy, e.g. out-of-order TCP holds) *)
  mutable loan_credit_stalls : int;
      (** received descriptors degraded to copy-out because the negotiated
          loan credit was exhausted (a slow consumer pinning the pool) *)
  mutable loans_force_returned : int;
      (** borrowed slots reclaimed at channel teardown (migration, peer
          loss, unload) before the pool pages were unmapped *)
  mutable bootstrap_failures : int;
      (** peers marked failed after a bootstrap handshake exhausted its
          retries (listener Create retries or connector ack wait); the
          peer sits in a cooldown ({!Hypervisor.Params.xenloop_bootstrap_cooldown})
          before any re-attempt *)
  mutable softstate_evictions : int;
      (** mapping-table entries dropped because no Dom0 announcement
          arrived within {!Hypervisor.Params.xenloop_softstate_ttl} —
          the soft-state expiry of paper Sect. 3.2 *)
  mutable channels_evicted : int;
      (** Active channels torn down by the bounded-state policy (the
          per-guest cap {!Hypervisor.Params.xenloop_channel_cap} or the
          idle LRU {!Hypervisor.Params.xenloop_channel_idle_ttl},
          DESIGN.md §12); grant-balanced, with in-flight traffic flushed
          over netfront exactly once *)
  mutable delta_announces : int;
      (** versioned delta announcements received from Dom0 (including
          full resyncs and keep-alive heartbeats, DESIGN.md §12) *)
  mutable jumbo_tx : int;
      (** jumbo descriptors pushed — one 64 KiB-class TCP super-frame
          carried as a single multi-slot scatter descriptor
          (rung [Gso], DESIGN.md §15) *)
  mutable jumbo_rx : int;
      (** jumbo descriptors reassembled and delivered whole (GRO) *)
  mutable jumbo_chunks_tx : int;
      (** pool slots the pushed jumbo descriptors carried in total *)
  mutable jumbo_drops : int;
      (** received jumbo descriptors dropped because their scatter-length
          vector was corrupt (chaos Jumbo_truncate): the slots are
          returned and the frame is lost loudly, never mis-delivered *)
  mutable csum_elided : int;
      (** frames serialized without computing a transport checksum
          because they were bound for a gso channel — the jumbo
          descriptor's [csum_ok] flag vouches for them instead *)
}

val create :
  domain:Hypervisor.Domain.t ->
  stack:Netstack.Stack.t ->
  current_machine:(unit -> Hypervisor.Machine.t) ->
  ?fifo_k:int ->
  ?max_queues:int ->
  unit ->
  t
(** Load the module into a guest.  [current_machine] is consulted whenever
    the module needs hypervisor facilities, so it stays correct across
    migration.  [fifo_k] sets the FIFO size to 2^k 8-byte slots per
    direction {e per queue} (default {!Fifo.default_k} = 64 KiB, the
    paper's setting).  [max_queues] is the queue count this guest
    advertises (default {!Hypervisor.Params.xenloop_queues}); each channel
    uses the min of both endpoints' advertised values, so 1 yields exactly
    the paper's single FIFO pair.  The module advertises the stack's
    {!Hypervisor.Params.t.xenloop_rung}; each channel runs at the lower of
    both ends' rungs, and the loan credit and jumbo ceiling of a pooled
    queue are negotiated through its pool control page (a stamp of zero
    keeps the rung below bit-for-bit).  {!Hypervisor.Params.t.qos_enabled}
    turns on per-flow accounting, DRR service of the waiting list by flow
    and watermark backpressure into the socket layer (DESIGN.md §14); off,
    every frame is one flow and the waiting list is served in FIFO order. *)

val unload : t -> unit
(** Remove the module: tears down all channels (flushing waiting packets
    through the standard path), withdraws the XenStore advertisement, and
    unregisters the netfilter hook.  Traffic continues via netfront. *)

val is_loaded : t -> bool

val stats : t -> stats
val mapping_size : t -> int
val connected_peer_ids : t -> int list
val has_channel_with : t -> domid:int -> bool

val failed_peer_ids : t -> int list
(** Peers currently in bootstrap-failure cooldown, sorted by domid. *)

val waiting_list_length : t -> domid:int -> int
(** Total frames parked on the waiting lists of all of this peer's
    queues. *)

val fifo_capacity_bytes : t -> int

(** {1 Bounded channel state (DESIGN.md §12)} *)

val live_channels : t -> int
(** Connected Active channels right now (both roles). *)

val active_channel_count : t -> int
(** Active channels including those whose ack is still in flight — the
    population the per-guest cap is enforced against. *)

val channel_pool_bytes : t -> int
(** Machine memory (bytes) backing this guest's Active channels — FIFO
    pages plus payload pools — counted only on the allocating (listener)
    side, so summing over a mesh never double counts. *)

val grant_entries : t -> int
(** Live entries in this guest's grant table (channel pages granted to
    peers).  Zero after a clean teardown of everything — the
    grant-balance half of the eviction contract. *)

val evict_lru : t -> bool
(** Tear down the least-recently-active channel (grant-balanced; waiting
    and in-flight frames flushed over netfront), leaving the peer in a
    short {!Hypervisor.Params.xenloop_evict_cooldown} so the freed slot
    is not immediately re-bootstrapped.  [false] when no Active channel
    exists.  The cap and idle-TTL policies use this internally; the chaos
    harness's Evict_storm fault drives it directly. *)

val announce_epoch : t -> int
(** The Dom0 announce epoch this guest has applied and acked (delta
    announcements, DESIGN.md §12); 0 until the first delta is applied
    and again after the mapping table is dropped. *)

(** {1 Multi-queue observability} *)

val max_queues : t -> int
(** The advertised (not negotiated) queue count. *)

val queue_count : t -> domid:int -> int
(** Negotiated queue count of the active channel to this peer; 0 when no
    channel is established. *)

type queue_stat = {
  qs_notifies_sent : int;
  qs_notifies_suppressed : int;
  qs_steered : int;
  qs_waiting : int;
  qs_desc_tx : int;
  qs_inline_tx : int;
  qs_pool_fallbacks : int;
  qs_loan_tx : int;
  qs_loan_rx : int;
  qs_loan_returns : int;
  qs_loan_credit_stalls : int;
}

val queue_stats : t -> domid:int -> queue_stat array
(** Per-queue counters of the active channel to this peer (index = queue
    index); [[||]] when no channel is established. *)

val zerocopy_active : t -> domid:int -> bool
(** Whether the active channel to this peer negotiated payload pools
    (i.e. both endpoints advertised zero-copy); [false] when the channel
    fell back to the inline path or does not exist. *)

val loans_active : t -> domid:int -> bool
(** Whether the active channel to this peer negotiated a non-zero loan
    credit on any queue (both endpoints advertised loans on a pooled
    channel); [false] otherwise. *)

val outstanding_loans : t -> int
(** Pool slots currently borrowed by this guest's socket layer across all
    live channels.  Must be zero at quiescence (every loaned view released
    or force-returned) — the chaos harness's loan-conservation check. *)

(** {1 Multi-tenant QoS (DESIGN.md §14)}

    Active only when {!Hypervisor.Params.t.qos_enabled} was on at
    {!create}; every function here is a no-op (or returns the
    empty/default answer) otherwise, so harness code can call them
    unconditionally. *)

type flow_stat = {
  fs_label : string;  (** human-readable flow key *)
  fs_bytes : int;  (** admitted to the QoS layer (pre-overflow) *)
  fs_frames : int;
  fs_descs : int;  (** of those pushed, descriptor-backed *)
  fs_overflows : int;
      (** frames rerouted via netfront because THIS flow's sub-queue was
          full (per-flow overflow: also counted in the module-wide
          [waiting_overflows]) *)
  fs_congestion_raises : int;
  fs_congestion_clears : int;
  fs_congested : bool;
}

val flow_stats : t -> flow_stat list
(** Per-flow accounting in flow-creation order; [[]] when QoS is off. *)

val set_congestion_fault_injector :
  t -> (Steering.flow_key -> bool) option -> unit
(** Chaos hook (Tenant_flood): [true] swallows that flow's congestion
    edge before it reaches the socket layer — a tenant that ignores
    backpressure.  Per-flow fairness must still hold: the misbehaving
    flow's frames overflow to netfront, never other tenants'. *)

(** {1 Transport-level shortcut}

    The paper's future-work direction (Sect. 6): intercepting between the
    socket and transport layers eliminates network protocol processing from
    the inter-VM data path entirely.  These two entry points let a socket
    layer ship raw application payloads over an established channel; see
    {!Socket_shortcut} for the glue. *)

val send_app_payload :
  t -> dst_ip:Netcore.Ip.t -> src_port:int -> dst_port:int -> Bytes.t -> bool
(** [true] if the payload was shipped (or queued) over a connected channel
    to the co-resident guest owning [dst_ip].  [false] when there is no
    such guest, the channel is still bootstrapping (a bootstrap is kicked
    off as a side effect), or the payload exceeds the FIFO: the caller must
    then use the standard path. *)

val set_app_payload_handler :
  t ->
  (src_ip:Netcore.Ip.t -> src_port:int -> dst_port:int -> Bytes.t -> unit) ->
  unit

val set_app_view_handler :
  t ->
  (src_ip:Netcore.Ip.t ->
  src_port:int ->
  dst_port:int ->
  Bytes.t ->
  release:(copied:bool -> unit) ->
  unit) ->
  unit
(** Loaned-slot delivery of transport-shortcut datagrams (DESIGN.md §11):
    on a loan-negotiated queue with available credit the handler receives a
    borrowed view of the pool slot and must call [release] exactly once
    when done — [~copied:false] for a pure zero-copy consume/drop,
    [~copied:true] if the datagram had to be duplicated into private
    memory first.  [release] is idempotent (extra calls no-op).  Without
    this handler — or without credit — delivery transparently degrades to
    the copy-out {!set_app_payload_handler} path. *)

(** {1 Fault injection and invariant checking}

    Chaos-harness hooks (DESIGN.md §9).  Each injector is a pure decision
    callback: it must not touch the module, only answer "fault this one?".
    Passing [None] clears the hook.  All hooks default to off and cost one
    option match when unset. *)

type ctrl_fault =
  | Ctrl_pass
  | Ctrl_drop  (** the control message silently vanishes *)
  | Ctrl_dup  (** delivered twice back to back *)
  | Ctrl_delay of Sim.Time.span  (** delivered late by the given span *)

val set_ctrl_fault_injector : t -> (Proto.t -> ctrl_fault) option -> unit
(** Consulted for every outgoing XenLoop control message (announcements
    are Dom0's and are faulted at {!Discovery}).  The bootstrap handshake
    must converge or fail cleanly under any answer sequence. *)

val set_push_fault_injector : t -> (unit -> bool) option -> unit
(** [true] makes the next FIFO push attempt act as if the FIFO were full,
    forcing the waiting-list / netfront degradation paths. *)

val set_pool_fault_injector : t -> (unit -> bool) option -> unit
(** [true] makes a payload-pool slot allocation fail, forcing the inline
    fallback ([pool_fallbacks]).  Applies to all current and future
    transmit pools of this module. *)

type loan_fault =
  | Loan_pass
  | Loan_leak
      (** the consumer never releases this borrowed slot — it stays pinned
          until channel teardown force-returns it *)
  | Loan_delay of Sim.Time.span
      (** the release is deferred by the given span (a slow consumer
          holding credit) *)

val set_loan_fault_injector : t -> (unit -> loan_fault) option -> unit
(** Consulted once per loaned delivery, at borrow time.  The loan-credit
    cap and slot conservation must hold under any answer sequence, and
    every leaked slot must be reclaimed by teardown
    ([loans_force_returned]). *)

val set_jumbo_fault_injector : t -> (unit -> bool) option -> unit
(** Chaos hook (Jumbo_truncate): [true] corrupts one chunk length in the
    next pushed jumbo descriptor's scatter vector (the payload is written
    intact and [total_len] stays honest).  The receiver must detect the
    mismatch, return the slots, and account the drop ([jumbo_drops]) —
    never deliver bytes the vector does not cover, never poison the
    channel. *)

val kill : t -> unit
(** Model the guest dying abruptly (chaos Peer_crash): the module stops
    reacting — no teardown, no unadvertisement, no peer notification, no
    resource release.  Pair with {!Hypervisor.Machine.crash_domain}, which
    reclaims everything the hypervisor accounted to the domain; peers must
    detect the loss through the soft-state control plane and reclaim their
    own half of every shared channel. *)

val tx_fifo : t -> domid:int -> queue:int -> Fifo.t option
(** The shared ring this module transmits on towards [domid] on [queue],
    for self-tests that write to it behind the module's back (a push there
    wakes nobody: see [poll_missed_wakes]). *)

val tx_pool : t -> domid:int -> queue:int -> Payload_pool.t option
(** The payload pool behind {!tx_fifo}'s descriptors, for self-tests that
    write or damage slot bytes behind the module's back. *)

val invariant_violations : t -> string list
(** Structural invariants over every live channel: FIFO control-word
    sanity both directions, payload-pool slot conservation, waiting lists
    within bound.  Empty list = healthy.  Messages carry peer domid and
    queue index; ordering is deterministic (sorted by peer). *)
