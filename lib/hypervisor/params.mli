(** The calibrated cost model, plus the knobs experiments turn.

    The costs are calibrated against the paper's own Table 1/2/3
    micro-measurements on its Pentium D / Xen 3.2 / 1 Gbps testbed (see
    EXPERIMENTS.md §Calibration for the derivations).  A tuning constant
    no experiment turns lives next to its one reader instead (e.g.
    [poll_interval] and [gso_max_bytes] in guest_module.ml). *)

(** The XenLoop feature ladder.  The paper's mechanism (Sects. 3.2-3.3)
    is the bottom rung; each rung above adds one engineering extension
    and keeps everything below it:
    - [Paper]: XenStore adverts, Dom0 announcements, the
      listener/connector handshake and FIFO pairs that carry every
      frame inline, one doorbell per frame;
    - [Notify]: doorbell suppression through the shared consumer-active
      flag, batched FIFO submission, and receiver polling for
      [xenloop_poll_window] (DESIGN.md §5);
    - [Zerocopy]: payloads above [xenloop_inline_max] go once into a
      grant-mapped payload pool and the FIFO carries a descriptor
      (DESIGN.md §7);
    - [Loans]: the receiver borrows descriptor slots instead of copying
      them out, up to [xenloop_max_loans] per queue (DESIGN.md §11);
    - [Gso]: a TCP sender moves up to 64 KiB as one jumbo descriptor
      with its checksum elided (DESIGN.md §15).

    [Notify] is local to each guest; the rungs above it need both ends,
    so a channel runs at the lower of the two rungs its ends advertise. *)
type rung = Paper | Notify | Zerocopy | Loans | Gso

type t = {
  (* --- Virtualization --- *)
  hypercall : Sim.Time.span;  (** trap into the hypervisor and back *)
  evtchn_delivery : Sim.Time.span;
      (** event-channel notification to handler start: virtual IRQ
          injection plus scheduling the target vCPU *)
  dom0_wakeup : Sim.Time.span;
      (** extra latency before netback processing starts in the driver
          domain (softirq + inter-domain switch penalty: TLB/cache) *)
  page_map : Sim.Time.span;  (** map or unmap one granted page *)
  page_zero : Sim.Time.span;  (** scrub one page before handing it over *)
  migration_downtime : Sim.Time.span;
      (** stop-and-copy blackout of live migration *)
  (* --- Guest / native protocol stack --- *)
  syscall : Sim.Time.span;
  udp_tx : Sim.Time.span;  (** UDP+IP output processing per datagram *)
  udp_rx : Sim.Time.span;
  tcp_tx : Sim.Time.span;  (** TCP output processing per segment *)
  tcp_rx : Sim.Time.span;
  tcp_ack : Sim.Time.span;  (** generating or absorbing a pure ACK *)
  icmp_proc : Sim.Time.span;  (** in-kernel echo processing per packet *)
  app_wakeup : Sim.Time.span;
      (** waking a process blocked in recv() (scheduler latency) *)
  netfilter_hook : Sim.Time.span;  (** one hook traversal per packet *)
  ip_rx : Sim.Time.span;  (** per-fragment IP input processing *)
  arp_proc : Sim.Time.span;
  copy_ns_per_byte : float;  (** effective memcpy cost, cache misses included *)
  xenloop_copy_ns_per_byte : float;
      (** copies into/out of the shared FIFO pages: cross-VM, cold-cache *)
  xenloop_fifo_op : Sim.Time.span;
      (** XenLoop FIFO bookkeeping per packet (metadata write, index update);
          from rung [Notify] up it is charged once per submitted burst *)
  xenloop_rung : rung;
      (** how far up the feature ladder ({!rung}) this guest's module
          goes; each channel runs at the lower of its two ends' rungs *)
  xenloop_poll_window : Sim.Time.span;
      (** NAPI-style receiver polling: after its event handler drains the
          FIFO, the receiver keeps polling this long before clearing its
          consumer-active flag and re-arming notifications, re-checking
          every 2 us ([poll_interval] in guest_module.ml); [span_zero]
          disables polling.  Read only at rung [Notify] and above *)
  xenloop_queues : int;
      (** queue pairs a guest advertises per peer channel (multi-queue flow
          steering, an engineering extension over the paper's single FIFO
          pair); each side uses min(own, peer's advertised), so 1 restores
          the paper-faithful single channel *)
  xenloop_waiting_list_max : int;
      (** per-flow bound on a queue's transmit backlog (the paper's
          waiting list), in frames; with QoS off a queue has one flow, so
          this bounds the whole backlog.  A frame whose flow is at the
          bound takes the standard netfront path instead of growing the
          queue without limit, and spills only its own flow's traffic *)
  xenloop_inline_max : int;
      (** largest payload still copied inline through the FIFO when
          zero-copy is on; each side applies max(own, peer's stamp) so both
          ends agree conservatively (paper-faithful copy path below it) *)
  xenloop_pool_slots : int;
      (** payload-pool slots per queue per direction (power of two); the
          pool is granted and mapped once at connect, amortizing map
          hypercalls over the channel lifetime *)
  xenloop_pool_slot_pages : int;
      (** pages per pool slot; must fit the largest TSO frame that reaches
          the hook (gso_size + link/IP/TCP headers) or large TCP frames
          degrade to the inline path *)
  xenloop_max_loans : int;
      (** loan credit: the most pool slots a receiver may hold borrowed per
          queue direction at once; at the limit further descriptor
          deliveries degrade transparently to copy-out so a slow consumer
          can never pin the whole pool (each side uses min(own, peer's
          stamp)) *)
  discovery_period : Sim.Time.span;
      (** Dom0 domain-discovery scan interval (paper: 5 s) *)
  xenloop_softstate_ttl : Sim.Time.span;
      (** mapping-table soft-state lifetime: a guest that hears no discovery
          announcement for this long evicts its whole mapping table and
          disengages its channels, falling back to netfront (paper's
          soft-state argument, Sect. 3.5; default 3 scan periods) *)
  xenloop_bootstrap_cooldown : Sim.Time.span;
      (** after [max_create_retries] unanswered Create_channel (or an
          unanswered Request_channel), the peer is marked failed and no new
          bootstrap is attempted until this much time has passed — bounds
          the retry storm against a dead or deaf peer *)
  xenloop_announce_refresh : Sim.Time.span;
      (** ceiling on announce silence towards an up-to-date guest: when
          nothing changed, Dom0 still sends a keep-alive (an empty delta
          announcement, DESIGN.md §12) this often so the soft-state TTL
          keeps being refreshed; must stay below [xenloop_softstate_ttl] *)
  xenloop_channel_cap : int;
      (** per-guest bound on simultaneously Active channels; establishing
          one more evicts the least-recently-active channel first.  0 =
          unbounded (the pre-cap behaviour) *)
  xenloop_channel_idle_ttl : Sim.Time.span;
      (** a connected channel with no traffic for this long is evicted
          (grant-balanced teardown; traffic falls back to netfront and
          re-establishes on demand).  Zero/negative = never *)
  xenloop_evict_cooldown : Sim.Time.span;
      (** how long an evicted peer stays in Failed_until before traffic
          may re-bootstrap the channel — keeps a cap-thrashing mesh from
          churning establish/evict cycles back to back *)
  (* --- QoS (DESIGN.md §14) --- *)
  qos_enabled : bool;
      (** per-flow fairness on the channel tx path: each queue's backlog
          keys frames by their accounting flow, so its per-flow sub-queues
          are served by deficit round robin, with per-flow accounting and
          watermark congestion signals into the socket layer.  [false]
          (the default) gives every frame one key, so the backlog is the
          FIFO-order waiting list *)
  qos_quantum : int;
      (** DRR byte credit per scheduler visit; every flow has weight 1 *)
  (* --- Netfront / netback split driver --- *)
  netfront_tx : Sim.Time.span;  (** ring work + grant issue, per packet *)
  netfront_rx : Sim.Time.span;
  netback_per_packet : Sim.Time.span;  (** fixed Dom0 cost per packet *)
  netback_per_page : Sim.Time.span;
      (** per 4 KiB: grant-copy hypercall + copy + accounting *)
  bridge_forward : Sim.Time.span;  (** software bridge lookup+forward *)
  tso_max_frame : int;
      (** TCP large frames through netfront (TSO-style); UDP gets none *)
  vif_gso_size : int option;
      (** the TSO budget a guest vif advertises to its stack ([None] =
          no offload, sender emits wire-MSS frames).  The per-MSS
          baseline the gso descriptor gate compares against (DESIGN.md
          §15) is this knob set to [None]. *)
  (* --- Physical network --- *)
  wire_gbps : float;
  wire_latency : Sim.Time.span;  (** propagation + switch store-and-forward *)
  nic_tx : Sim.Time.span;  (** driver + DMA setup per frame *)
  nic_rx : Sim.Time.span;
  nic_interrupt_latency : Sim.Time.span;
      (** interrupt moderation delay before the host sees a frame *)
  nic_mtu : int;
  (* --- Native loopback --- *)
  loopback_xmit : Sim.Time.span;  (** per-packet lo device cost *)
  loopback_mtu : int;
}

val default : t
(** The calibrated costs with every rung on ([Gso]) and 4 queues. *)

val paper : t
(** [default] at rung [Paper] with one queue pair: the mechanism as the
    paper describes it, the baseline every bench comparison starts from. *)

val rung_name : rung -> string
(** ["paper"], ["notify"], ["zerocopy"], ["loans"] or ["gso"]: the
    rung's token in a guest's XenStore advert. *)

val rung_of_name : string -> rung option
(** The inverse of {!rung_name}. *)

val copy_cost : t -> int -> Sim.Time.span
(** Time to memcpy [n] bytes. *)

val xenloop_copy_cost : t -> int -> Sim.Time.span
(** Time to copy [n] bytes into or out of a shared FIFO page. *)

val wire_time : t -> int -> Sim.Time.span
(** Serialization time of [n] bytes on the physical wire. *)

val pages_of_bytes : int -> int
(** Number of 4 KiB pages touched by an [n]-byte packet (at least 1). *)
