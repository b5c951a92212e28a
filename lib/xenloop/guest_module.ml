module P = Netcore.Packet
module Ec = Evtchn.Event_channel
module Gt = Memory.Grant_table
module Page = Memory.Page
module Params = Hypervisor.Params
module Domain = Hypervisor.Domain
module Machine = Hypervisor.Machine
module Stack = Netstack.Stack

type stats = {
  mutable via_channel_tx : int;
  mutable via_channel_rx : int;
  mutable queued_to_waiting : int;
  mutable waiting_overflows : int;
  mutable too_big_fallback : int;
  mutable channels_established : int;
  mutable channels_torn_down : int;
  mutable bootstraps_started : int;
  mutable corrupt_channels : int;
  mutable notifies_sent : int;
  mutable notifies_suppressed : int;
  mutable batches : int;
  mutable poll_rounds : int;
  mutable poll_missed_wakes : int;
  mutable steered_packets : int;
  mutable flow_cache_hits : int;
  mutable flow_cache_misses : int;
  mutable desc_tx : int;
  mutable inline_tx : int;
  mutable pool_fallbacks : int;
  mutable loan_tx : int;
  mutable loan_rx : int;
  mutable loan_returns : int;
  mutable loan_credit_stalls : int;
  mutable loans_force_returned : int;
  mutable bootstrap_failures : int;
  mutable softstate_evictions : int;
  mutable channels_evicted : int;
  mutable delta_announces : int;
  mutable jumbo_tx : int;  (** jumbo descriptors pushed (DESIGN.md §15) *)
  mutable jumbo_rx : int;  (** jumbo descriptors delivered *)
  mutable jumbo_chunks_tx : int;  (** pool slots those descriptors carried *)
  mutable jumbo_drops : int;
      (** jumbo descriptors dropped at rx for a corrupt chunk vector
          (slots returned, frame lost loudly — never mis-delivered) *)
  mutable csum_elided : int;
      (** frames serialized without a transport checksum because they
          were bound for a gso channel (the descriptor carries csum_ok) *)
}

type role = Listener | Connector

(* One of a channel's N independent queue pairs: its own FIFO pair, its own
   event-channel port, its own transmit backlog, and its own suppression/poll
   state, so a bulk stream saturating one queue never head-of-line-blocks
   flows steered to another. *)
type queue = {
  q_index : int;
  out_fifo : Fifo.t;
  in_fifo : Fifo.t;
  q_port : Ec.port;  (** this endpoint's event-channel port for this queue *)
  backlog : (Steering.flow_key, P.t) Qos.Drr.t;
      (** frames awaiting FIFO space (the paper's waiting list), still
          packets, in per-flow sub-queues served by deficit round robin
          (DESIGN.md §14); with QoS off every frame has the one key
          {!one_flow}, so the backlog is a FIFO *)
  q_tx_pool : Payload_pool.t option;
      (** payload pool our sends write into (zero-copy channels only);
          per queue, so steering stays lock-free *)
  q_rx_pool : Payload_pool.t option;
      (** pool the peer writes into; we consume in place and return slots *)
  q_inline_max : int;
      (** effective inline threshold: max of our configured value and the
          listener's stamp in the pool control page *)
  q_max_loans : int;
      (** effective loan credit for this queue direction: min of our
          configured [xenloop_max_loans] and the listener's stamp in the
          pool control page; 0 = loaned-slot receive off (copy-out path,
          bit-for-bit the pre-loan behaviour) *)
  q_gso_max : int;
      (** negotiated jumbo ceiling (max TCP payload bytes one jumbo
          descriptor may carry, DESIGN.md §15): min of our [gso_max_bytes]
          and the listener's stamp in the pool control page; 0 =
          segmentation offload off for this queue, every frame keeps the
          per-MSS paths bit-for-bit *)
  mutable q_busy : bool;
      (** an event handler is draining this queue (guards against
          re-entrant handlers interleaving across CPU charges) *)
  mutable q_tx_draining : bool;
      (** some process is inside [drain_backlog]; CPU charges yield, so the
          handler and a sender batch-flush could otherwise double-pop *)
  mutable q_closed : bool;
      (** the channel is closing or closed ({!close_channel}): module
          state, not shared memory, so a sender resuming from a CPU charge
          can check it without reading pages the close may have released *)
  mutable q_notifies_sent : int;
  mutable q_notifies_suppressed : int;
  mutable q_steered : int;
  mutable q_desc_tx : int;
  mutable q_pool_fallbacks : int;
  q_waiter : Sim.Engine.waiter;
      (** where this queue's handler parks while it lingers (DESIGN.md §5) *)
  q_ready : unit -> bool;  (** what the lingering handler waits for *)
  mutable q_peer_ep : Ec.endpoint option;
      (** the peer's end of [q_port], resolved on first use: wakes the
          peer's lingering handler *)
}

type channel = {
  peer_domid : int;
  peer_mac : Netcore.Mac.t;
  role : role;
  queues : queue array;  (** negotiated min of both sides' advertised counts *)
  mutable connected : bool;
  mutable ch_last_active : Sim.Time.t;
      (** last sim-time this channel moved a packet in either direction —
          the LRU key for cap/idle eviction (DESIGN.md §12) *)
  cleanup : unit -> unit;  (** releases every queue's pages, grants, ports *)
}

type awaiting = { ba_channel : channel; mutable retries : int }

(* [Requested_from_listener] carries a token so the request-timeout timer
   can tell "still the same unanswered request" from "a later bootstrap
   reused the state". *)
type bootstrap = Requested_from_listener of int | Awaiting_ack of awaiting

(* [Failed_until t]: bootstrap against this peer exhausted its retries (or
   the request was never answered); no new attempt before sim-time [t].
   Incoming control traffic from the peer proves it alive and clears the
   cooldown early. *)
type peer_state =
  | Bootstrapping of bootstrap
  | Active of channel
  | Failed_until of Sim.Time.t

(* Memoized per-flow routing decision (mapping-table lookup + steering
   hash), invalidated wholesale by bumping [epoch]. *)
type cached_decision = Cache_standard | Cache_queue of channel * queue

type cache_entry = { ce_epoch : int; ce_decision : cached_decision }

(* Multi-tenant QoS (DESIGN.md §14): per-module flow table (keys carry
   the peer address, so one table covers every channel).  [None] on
   t.qos means QoS is off: the backlog hooks do nothing and every frame
   is one flow. *)
type qos_state = {
  qt_flows : Steering.flow_key Qos.Flow_table.t;
  mutable qt_congestion_fault : (Steering.flow_key -> bool) option;
      (** chaos hook: [true] swallows this flow's congestion signal
          before it reaches the socket layer (Tenant_flood) *)
}

type t = {
  domain : Domain.t;
  stack : Stack.t;
  current_machine : unit -> Machine.t;
  k : int;
  max_queues : int;  (** what we advertise; channels carry the negotiated min *)
  rung : Params.rung;  (** what we advertise; channels run at the lower rung *)
  notify : bool;
      (** rung [Notify] or above: doorbell suppression, batched
          submission and receiver polling *)
  qos : qos_state option;
  mapping : Mapping_table.t;
  peers : (int, peer_state) Hashtbl.t;
  flow_cache : cache_entry Steering.Flow_table.t;
  mutable epoch : int;
  mutable hook : Netstack.Netfilter.hook_handle option;
  mutable saved_frames : P.t list;
  mutable app_handler :
    (src_ip:Netcore.Ip.t -> src_port:int -> dst_port:int -> Bytes.t -> unit) option;
  s : stats;
  mutable loaded : bool;
  mutable next_token : int;  (** Requested_from_listener incarnations *)
  mutable last_announce : Sim.Time.t;
      (** when the mapping table was last refreshed (soft-state TTL) *)
  mutable announce_epoch : int;
      (** the Dom0 announce epoch this guest has applied and acked
          (delta announcements only; 0 otherwise) *)
  mutable expiry_timer : Sim.Engine.timer option;
  tx_head : Bytes.t;
      (** a jumbo's serialized headers, written into its pool slots with
          the payload behind them; filled and consumed within one push *)
  (* Chaos-harness hooks (lib/chaos); [None] in production. *)
  mutable ctrl_fault : (Proto.t -> ctrl_fault) option;
  mutable push_fault : (unit -> bool) option;
  mutable pool_fault : (unit -> bool) option;
  mutable loan_fault : (unit -> loan_fault) option;
  mutable jumbo_fault : (unit -> bool) option;
      (** [true] corrupts one chunk length in the next jumbo descriptor's
          scatter vector (the payload itself is written intact) *)
}

and ctrl_fault = Ctrl_pass | Ctrl_drop | Ctrl_dup | Ctrl_delay of Sim.Time.span

and loan_fault =
  | Loan_pass
  | Loan_leak  (** the application never releases this borrowed view *)
  | Loan_delay of Sim.Time.span  (** slow consumer: release runs this much later *)

let max_create_retries = 3
let ack_timeout = Sim.Time.ms 500
let flow_cache_max = 4096

(* A lingering handler's ticks are counted when it resumes; a read in
   between counts the ticks elapsed so far (a waiter that is not parked
   has none left to hand out). *)
let stats t =
  Hashtbl.iter
    (fun _ state ->
      match state with
      | Active ch ->
          Array.iter
            (fun q ->
              t.s.poll_rounds <- t.s.poll_rounds + Sim.Engine.take_ticks q.q_waiter)
            ch.queues
      | Bootstrapping _ | Failed_until _ -> ())
    t.peers;
  t.s

let is_loaded t = t.loaded
let mapping_size t = Mapping_table.size t.mapping
let fifo_capacity_bytes t = (1 lsl t.k) * 8
let max_queues t = t.max_queues

(* Soft-state replacement and channel set changes invalidate every memoized
   flow decision at once; entries are lazily overwritten on the next miss.
   The table is bounded so a scan of short-lived flows cannot grow it
   without limit. *)
let bump_epoch t =
  t.epoch <- t.epoch + 1;
  if Steering.Flow_table.length t.flow_cache > flow_cache_max then
    Steering.Flow_table.reset t.flow_cache

let connected_peer_ids t =
  Hashtbl.fold
    (fun domid state acc ->
      match state with Active ch when ch.connected -> domid :: acc | _ -> acc)
    t.peers []
  |> List.sort compare

let has_channel_with t ~domid =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) -> ch.connected
  | Some (Bootstrapping _ | Failed_until _) | None -> false

let failed_peer_ids t =
  Hashtbl.fold
    (fun domid state acc ->
      match state with Failed_until _ -> domid :: acc | _ -> acc)
    t.peers []
  |> List.sort compare

let waiting_list_length t ~domid =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) ->
      Array.fold_left (fun acc q -> acc + Qos.Drr.length q.backlog) 0 ch.queues
  | Some (Bootstrapping _ | Failed_until _) | None -> 0

let queue_count t ~domid =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) -> Array.length ch.queues
  | Some (Bootstrapping _ | Failed_until _) | None -> 0

type queue_stat = {
  qs_notifies_sent : int;
  qs_notifies_suppressed : int;
  qs_steered : int;
  qs_desc_tx : int;
  qs_pool_fallbacks : int;
}

let queue_stats t ~domid =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) ->
      Array.map
        (fun q ->
          {
            qs_notifies_sent = q.q_notifies_sent;
            qs_notifies_suppressed = q.q_notifies_suppressed;
            qs_steered = q.q_steered;
            qs_desc_tx = q.q_desc_tx;
            qs_pool_fallbacks = q.q_pool_fallbacks;
          })
        ch.queues
  | Some (Bootstrapping _ | Failed_until _) | None -> [||]

let zerocopy_active t ~domid =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) ->
      ch.connected && Array.exists (fun q -> q.q_tx_pool <> None) ch.queues
  | Some (Bootstrapping _ | Failed_until _) | None -> false

let loans_active t ~domid =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) ->
      ch.connected && Array.exists (fun q -> q.q_max_loans > 0) ch.queues
  | Some (Bootstrapping _ | Failed_until _) | None -> false

let outstanding_loans t =
  (* A killed module's views are conceptually dead with the guest; the
     hypervisor reclaims its mappings, so nothing is outstanding. *)
  if not t.loaded then 0
  else
    Hashtbl.fold
      (fun _ state acc ->
        match state with
        | Active ch | Bootstrapping (Awaiting_ack { ba_channel = ch; _ }) ->
            Array.fold_left
              (fun acc q ->
                match q.q_rx_pool with
                | Some pool -> acc + Payload_pool.outstanding_loans pool
                | None -> acc)
              acc ch.queues
        | Bootstrapping (Requested_from_listener _) | Failed_until _ -> acc)
      t.peers 0

let my_domid t = Domain.domid t.domain
let cpu t = Stack.cpu t.stack
let params t = Stack.params t.stack
let engine t = Stack.engine t.stack
let meter t = Domain.meter t.domain

(* ------------------------------------------------------------------ *)
(* XenStore advertisement *)

(* Record the announce epoch this guest has applied where Dom0's scan can
   read it back (delta announcements, DESIGN.md §12).  The node is in our
   own subtree (the only place a guest may write) and does not end in
   "/xenloop", so ack writes never retrigger the discovery watch. *)
let write_ack t epoch =
  t.announce_epoch <- epoch;
  let machine = t.current_machine () in
  let domid = my_domid t in
  match
    Xenstore.write (Machine.xenstore machine) ~caller:domid
      ~path:(Discovery.ack_path ~domid)
      ~value:(string_of_int epoch)
  with
  | Ok () | Error _ -> ()

let advertise t =
  let machine = t.current_machine () in
  let domid = my_domid t in
  (* The advert value is the advertised queue count and rung, "4 gso". *)
  (match
     Xenstore.write (Machine.xenstore machine) ~caller:domid
       ~path:(Discovery.advert_path ~domid)
       ~value:
         (string_of_int t.max_queues ^ " " ^ Params.rung_name t.rung)
   with
  | Ok () | Error _ -> ());
  (* A fresh advert means a fresh mapping table: ack epoch 0 so Dom0's
     first delta to us is a full resync rather than a diff against state
     we no longer hold (e.g. after migration or reload). *)
  write_ack t 0

let unadvertise t =
  let machine = t.current_machine () in
  let domid = my_domid t in
  (match
     Xenstore.rm (Machine.xenstore machine) ~caller:domid
       ~path:(Discovery.advert_path ~domid)
   with
  | Ok () | Error _ -> ());
  match
    Xenstore.rm (Machine.xenstore machine) ~caller:domid
      ~path:(Discovery.ack_path ~domid)
  with
  | Ok () | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Channel data path (all per queue) *)

(* Wakes for lingering handlers (DESIGN.md §5): every mutation that can
   make a parked handler's [q_ready] true wakes it, at the instant it
   happens — the peer's handler through the event-channel endpoint, our
   own directly.  Host-only: no simulated cost, no event unless the
   handler is parked. *)
let wake_peer t q =
  match q.q_peer_ep with
  | Some ep -> Ec.wake ep
  | None -> (
      match
        Ec.peer_endpoint (Machine.evtchn (t.current_machine ())) ~dom:(my_domid t)
          ~port:q.q_port
      with
      | Some ep ->
          q.q_peer_ep <- Some ep;
          Ec.wake ep
      | None -> ())

let wake_self q = Sim.Engine.wake q.q_waiter

(* Ring or pool space we freed matters to the peer only while it has a
   backlog, which it publishes as producer-waiting. *)
let space_freed t q = if Fifo.producer_waiting q.in_fifo then wake_peer t q

(* A queue going down: both handlers must see it. *)
let mark_queue_inactive t q =
  Fifo.mark_inactive q.out_fifo;
  Fifo.mark_inactive q.in_fifo;
  wake_self q;
  wake_peer t q

(* One doorbell: the hypercall, never elided.  A close rings every
   queue this way, since a liveness signal must not be suppressed. *)
let ring_peer t q =
  wake_peer t q;
  t.s.notifies_sent <- t.s.notifies_sent + 1;
  q.q_notifies_sent <- q.q_notifies_sent + 1;
  Sim.Resource.use (cpu t) (params t).Params.hypercall;
  ignore
    (Ec.notify (Machine.evtchn (t.current_machine ())) ~dom:(my_domid t)
       ~port:q.q_port ~meter:(meter t))

(* Doorbell suppression: a consumer that has published "actively
   draining" in this queue's shared descriptor will see our data on its
   next poll round, so the hypercall is pure overhead.  Suppression state
   is per queue: a peer busily draining the bulk queue says nothing about
   its attention to the rr queue.  A closed queue has nobody to tell. *)
let notify_peer t q =
  if not q.q_closed then
    if t.notify && Fifo.consumer_active q.out_fifo then begin
      wake_peer t q;
      t.s.notifies_suppressed <- t.s.notifies_suppressed + 1;
      q.q_notifies_suppressed <- q.q_notifies_suppressed + 1
    end
    else ring_peer t q

(* The IP protocol number straight out of the serialized frame (Ethernet
   header + IPv4 protocol byte) — a descriptor hint only, so 0 for
   anything that is not a long-enough IPv4 frame. *)
let proto_hint_of raw =
  if Bytes.length raw >= 24 && Bytes.get_uint16_be raw 12 = 0x0800 then
    Bytes.get_uint8 raw 23
  else 0

let record_copy t len =
  Memory.Cost_meter.record (meter t) (Memory.Cost_meter.Page_copy len)

(* Chaos-harness hook: a forced FIFO push refusal, indistinguishable from
   a full ring to every caller (the frame queues on the backlog and
   is retried or flushed via netfront — never dropped). *)
let push_refused t =
  match t.push_fault with None -> false | Some f -> f ()

(* [outcome] is a {!Fifo.push_entry} result code; plain ints keep the
   per-packet TX path allocation-free. *)
let note_outcome t q outcome =
  if outcome = Fifo.push_failed then false
  else begin
    wake_peer t q;
    if outcome = Fifo.pushed_desc then begin
      q.q_desc_tx <- q.q_desc_tx + 1;
      t.s.desc_tx <- t.s.desc_tx + 1;
      (* Every descriptor on a loan-negotiated channel is loan-eligible at
         the receiver (which may still degrade it to copy-out under credit
         pressure — that shows up in its loan_credit_stalls, not here). *)
      if q.q_max_loans > 0 then t.s.loan_tx <- t.s.loan_tx + 1
    end
    else t.s.inline_tx <- t.s.inline_tx + 1;
    if outcome = Fifo.pushed_inline_fallback then begin
      q.q_pool_fallbacks <- q.q_pool_fallbacks + 1;
      t.s.pool_fallbacks <- t.s.pool_fallbacks + 1
    end;
    true
  end

(* Whether this frame is about to take the descriptor path on a
   loan-negotiated channel.  On such channels the pool slot is the frame's
   only resting place — the frame is built in the slot and the receiver's
   socket layer borrows it — so the sender skips both the copy charge and
   the copy record.  The prediction mirrors {!Fifo.desc_eligible} plus the
   exhaustion check; a chaos alloc fault can still downgrade the actual
   outcome to an inline fallback, whose copy is then recorded (the metric
   follows the real outcome, only the CPU charge follows the prediction). *)
let tx_loan_desc q len =
  q.q_max_loans > 0
  &&
  match q.q_tx_pool with
  | Some pool ->
      len > q.q_inline_max
      && len <= Payload_pool.slot_bytes pool
      && len <= Fifo.max_packet q.out_fifo
      && Payload_pool.free_slots pool > 0
  | None -> false

(* ------------------------------------------------------------------ *)
(* Jumbo segmentation offload (DESIGN.md §15).  A TCP super-frame larger
   than one pool slot rides the channel as a single jumbo descriptor
   whose scatter vector spans several slots; the receiver reassembles and
   delivers it as one frame (GRO).  [q_gso_max = 0] means every frame
   keeps the per-MSS paths bit-for-bit. *)

let jumbo_nchunks pool len =
  let sb = Payload_pool.slot_bytes pool in
  (len + sb - 1) / sb

(* Ethernet + IPv4 + TCP header bytes a serialized jumbo frame adds on
   top of its TCP payload; [q_gso_max] bounds the payload, so the frame
   bound is [q_gso_max + jumbo_header_slack]. *)
let jumbo_header_slack = 54

(* Ring room for the jumbo entry and pool slots for its scatter vector. *)
let jumbo_room q pool nchunks =
  Fifo.can_accept_jumbo q.out_fifo ~nchunks
  && Payload_pool.free_slots pool >= nchunks

(* Only a TCP super-frame rides a jumbo descriptor: its transport
   checksum is the one a trusted receiver may skip ([flag_csum_ok]), and
   [jumbo_tx] counts GSO segments.  Any other wide frame (a shortcut
   control frame) takes the pool or chunked inline path. *)
let is_tcp (packet : P.t) =
  match packet.P.body with
  | P.Ipv4_body { content = P.Full { transport = Netcore.Transport.Tcp _; _ }; _ } -> true
  | P.Ipv4_body _ | P.Arp_body _ | P.Xenloop_body _ -> false

let jumbo_eligible q packet len =
  q.q_gso_max > 0
  && len <= q.q_gso_max + jumbo_header_slack
  && is_tcp packet
  &&
  match q.q_tx_pool with
  | Some pool ->
      len > Payload_pool.slot_bytes pool
      && jumbo_nchunks pool len <= Fifo.max_jumbo_chunks
  | None -> false

(* [unalloc] rewinds only the most recent allocation, so a rollback walks
   the vector most-recent-first. *)
let unalloc_chunks pool chunk_slots n =
  for i = n - 1 downto 0 do
    Payload_pool.unalloc pool chunk_slots.(i)
  done

(* Fill [chunk_slots] from the free ring; the number of slots allocated
   before the ring ran out (or a chaos alloc fault struck). *)
let alloc_chunks pool chunk_slots =
  let allocated = ref 0 and exhausted = ref false in
  while (not !exhausted) && !allocated < Array.length chunk_slots do
    let slot = Payload_pool.alloc_slot pool in
    if slot < 0 then exhausted := true
    else begin
      chunk_slots.(!allocated) <- slot;
      incr allocated
    end
  done;
  !allocated

(* Write the packet across its vector — its headers, transport checksum
   elided, then its payload run by run (a corked TCP segment gathers
   several writes) — and return the descriptor's protocol hint. *)
let write_jumbo t pool packet ~chunk_slots ~chunk_lens =
  let head = t.tx_head in
  let head_len = Netcore.Codec.serialize_head packet head in
  Payload_pool.write_scatter pool ~off:0 ~slots:chunk_slots ~lens:chunk_lens ~pos:0
    ~src:head ~src_off:0 ~len:head_len;
  let pos = ref head_len in
  Netcore.View.iter (Netcore.Codec.tail packet) (fun src src_off len ->
      Payload_pool.write_scatter pool ~off:0 ~slots:chunk_slots ~lens:chunk_lens
        ~pos:!pos ~src ~src_off ~len;
      pos := !pos + len);
  proto_hint_of head

(* Push one frame as a jumbo descriptor: allocate the scatter vector,
   write the frame across the slots, publish one descriptor covering all
   of them.  Any refusal (ring room, slot exhaustion, a chaos alloc
   fault mid-vector) rolls the allocations back and reports [false], so
   the caller queues the frame exactly as it would on a full ring.
   [amortized] skips the per-push [xenloop_fifo_op] when the caller
   already charged it for the whole batch.  A close during the charge
   also refuses: the slots die with the pool pages, untouched.

   The descriptor carries [flag_csum_ok]: the frame comes from a trusted
   co-resident sender and its transport checksum is elided, so the
   receiver skips verification. *)
let push_jumbo ?(amortized = false) t q packet ~len =
  match q.q_tx_pool with
  | None -> false
  | Some pool ->
      let p = params t in
      let sb = Payload_pool.slot_bytes pool in
      let nchunks = jumbo_nchunks pool len in
      if not (jumbo_room q pool nchunks) then false
      else begin
        let chunk_slots = Array.make nchunks 0 in
        let allocated = alloc_chunks pool chunk_slots in
        if allocated < nchunks then begin
          unalloc_chunks pool chunk_slots allocated;
          q.q_pool_fallbacks <- q.q_pool_fallbacks + 1;
          t.s.pool_fallbacks <- t.s.pool_fallbacks + 1;
          false
        end
        else begin
          (* Charged only once the vector is ours: a refused jumbo costs
             nothing, and the inline retry in {!push_frame} pays its own
             way. *)
          if not amortized then Sim.Resource.use (cpu t) p.Params.xenloop_fifo_op;
          (* Like the loaned descriptor path, on a loan channel the slots
             are the frame's only resting place — no sender copy charged or
             recorded; a plain gso channel pays the one real copy. *)
          if q.q_max_loans = 0 then
            Sim.Resource.use (cpu t) (Params.xenloop_copy_cost p len);
          (not q.q_closed)
          && begin
               if q.q_max_loans = 0 then record_copy t len;
               let chunk_lens = Array.make nchunks sb in
               chunk_lens.(nchunks - 1) <- len - ((nchunks - 1) * sb);
               let proto_hint = write_jumbo t pool packet ~chunk_slots ~chunk_lens in
               (* Chaos hook: corrupt one chunk length in the published
                  vector — [total_len] stays honest and the payload was
                  written intact, so the receiver must catch the sum
                  mismatch and drop this frame loudly rather than
                  mis-deliver it. *)
               (match t.jumbo_fault with
               | Some f when chunk_lens.(0) > 1 && f () ->
                   chunk_lens.(0) <- chunk_lens.(0) - 1
               | _ -> ());
               if
                 Fifo.try_push_jumbo q.out_fifo ~flags:Fifo.flag_csum_ok ~chunk_slots
                   ~chunk_lens ~nchunks ~total_len:len ~proto_hint ()
               then begin
                 t.s.jumbo_tx <- t.s.jumbo_tx + 1;
                 t.s.jumbo_chunks_tx <- t.s.jumbo_chunks_tx + nchunks;
                 note_outcome t q Fifo.pushed_desc
               end
               else begin
                 unalloc_chunks pool chunk_slots nchunks;
                 false
               end
             end
        end
      end

(* The one per-frame push every sender path uses (paper Sect. 3.3, "Data
   transfer"), in a fixed order: draw the chaos refusal, check ring and
   pool room, charge the sender half of the data path, push.  A frame the
   channel refuses costs nothing; a frame that waits is charged once, when
   it lands.  [amortized]: the frame is part of a burst whose caller drew
   the refusal and charged [xenloop_fifo_op] once for the whole burst.

   The sender pays one copy — into the FIFO inline, into its pool slot(s)
   on the descriptor and jumbo paths — except on a loan channel, where a
   descriptor or jumbo is built in the slots the receiver borrows
   ({!tx_loan_desc}).  A jumbo-eligible frame the pool or ring refuses
   degrades to the chunked inline copy: a gso sender never parks frames
   behind an empty ring, where no peer notification would come to flush
   them.  The frame is a packet up to here; an inline or plain-descriptor
   entry is its serialization with the transport checksum (such an entry
   carries no [flag_csum_ok], so the receiver verifies it).

   The charges yield the CPU, so every step after one first checks
   [q_closed]: a channel closed meanwhile refuses the frame, and its
   pages are not read or written again. *)
let push_frame ?(amortized = false) t q packet =
  let len = P.wire_length packet in
  let entry_fits () =
    (not q.q_closed)
    && Fifo.can_accept_entry q.out_fifo ?pool:q.q_tx_pool
         ~inline_max:q.q_inline_max len
  in
  let push_entry () =
    let p = params t in
    let loan_desc = tx_loan_desc q len in
    let copy =
      if loan_desc then Sim.Time.span_zero else Params.xenloop_copy_cost p len
    in
    if not amortized then
      Sim.Resource.use (cpu t) (Sim.Time.span_add p.Params.xenloop_fifo_op copy)
    else if not loan_desc then Sim.Resource.use (cpu t) copy;
    (not q.q_closed)
    &&
    let raw = Netcore.Codec.serialize packet in
    let outcome =
      Fifo.push_entry q.out_fifo ~pool:q.q_tx_pool ~inline_max:q.q_inline_max
        ~proto_hint:(proto_hint_of raw) raw
    in
    let ok = note_outcome t q outcome in
    if ok && not (outcome = Fifo.pushed_desc && q.q_max_loans > 0) then
      record_copy t len;
    ok
  in
  (not q.q_closed)
  && (amortized || not (push_refused t))
  && ((jumbo_eligible q packet len && push_jumbo ~amortized t q packet ~len)
     || (entry_fits () && push_entry ()))

(* Whether a frame of this size would enter the queue right now —
   {!Fifo.can_accept} generalized over this queue's descriptor path,
   and over the jumbo path for gso-eligible lengths. *)
let queue_can_accept q packet len =
  (jumbo_eligible q packet len
  &&
  match q.q_tx_pool with
  | Some pool -> jumbo_room q pool (jumbo_nchunks pool len)
  | None -> false)
  (* [push_frame]'s degraded path: a jumbo the pool cannot scatter still
     enters if the chunked inline copy fits. *)
  || Fifo.can_accept_entry q.out_fifo ?pool:q.q_tx_pool
       ~inline_max:q.q_inline_max len

(* Bypass the channel entirely: the frame leaves through the standard
   netfront path (overflow reroute, a late sender, teardown flush,
   post-migration resend) by the stack's one egress, which fits it to
   the device exactly as if the hook had declined it (DESIGN.md §15). *)
let transmit_standard t packet =
  match Stack.device t.stack with
  | None -> ()
  | Some dev -> Stack.egress t.stack dev packet

(* ------------------------------------------------------------------ *)
(* Transmit backlog: a frame that does not fit in the FIFO waits and is
   "sent once enough resources are available" (paper Sect. 3.1).  Each
   queue has one backlog, a DRR scheduler over per-flow sub-queues of at
   most [xenloop_waiting_list_max] frames (DESIGN.md §14).  With QoS off
   every frame has the key [one_flow], so the backlog is a FIFO.  With
   QoS on the key is the frame's accounting flow, and the three hooks
   below do the multi-tenant part; each does nothing when [t.qos] is
   [None]. *)

let one_flow = Steering.Mac_flow 0L

(* Deliver a congestion edge for [flow]: unless a chaos fault swallows
   it, the per-socket signal into the netstack (TCP window clamp / UDP
   sendspace accounting).  MAC-keyed flows have no socket to signal. *)
let qos_signal t qs flow ~congested =
  let key = flow.Qos.Flow_table.f_key in
  let swallowed =
    match qs.qt_congestion_fault with Some f -> f key | None -> false
  in
  if not swallowed then
    match key with
    | Steering.Ip_flow { proto; src = _; dst; sport; dport } ->
        Stack.notify_congestion t.stack ~proto ~sport
          ~dst:(Netcore.Ip.of_int32 dst) ~dport ~congested
    | Steering.Mac_flow _ -> ()

(* Re-check [flow]'s watermark against its sub-queue depth, after each
   enqueue and each push of one of its frames. *)
let qos_update_watermark t qs q flow =
  match
    Qos.Watermark.update flow.Qos.Flow_table.f_mark
      ~used:(Qos.Drr.flow_length q.backlog flow.Qos.Flow_table.f_key)
      ~capacity:(Qos.Drr.max_per_flow q.backlog)
  with
  | `Raise -> qos_signal t qs flow ~congested:true
  | `Clear -> qos_signal t qs flow ~congested:false
  | `None -> ()

(* Admission hook: account the frame to its flow. *)
let qos_admit t ~key packet =
  match t.qos with
  | None -> ()
  | Some qs ->
      let flow = Qos.Flow_table.lookup qs.qt_flows key in
      flow.Qos.Flow_table.f_bytes <- flow.Qos.Flow_table.f_bytes + P.wire_length packet;
      flow.Qos.Flow_table.f_frames <- flow.Qos.Flow_table.f_frames + 1

(* Push hook: the frame is in the FIFO (and out of the backlog). *)
let qos_pushed t q ~key ~desc =
  match t.qos with
  | None -> ()
  | Some qs ->
      let flow = Qos.Flow_table.lookup qs.qt_flows key in
      if desc then flow.Qos.Flow_table.f_descs <- flow.Qos.Flow_table.f_descs + 1;
      qos_update_watermark t qs q flow

(* Overflow hook: [key]'s sub-queue was full, so the frame left through
   netfront — per flow, so a flooder spills its own traffic instead of
   evicting other tenants' frames. *)
let qos_overflowed t ~key =
  match t.qos with
  | None -> ()
  | Some qs ->
      let flow = Qos.Flow_table.lookup qs.qt_flows key in
      flow.Qos.Flow_table.f_overflows <- flow.Qos.Flow_table.f_overflows + 1

(* A frame the ring refused waits on the backlog — unless the channel
   closed while its sender had yielded in the send path: the close has
   already taken the backlog, so the frame leaves through netfront like
   the rest of the unsent. *)
let enqueue_backlog t q ~key packet =
  if q.q_closed then transmit_standard t packet
  else if
    Qos.Drr.enqueue q.backlog ~key ~weight:1 ~len:(P.wire_length packet) packet
  then begin
    t.s.queued_to_waiting <- t.s.queued_to_waiting + 1;
    (* Published through the shared descriptor so the peer knows freed
       space on this queue is worth a notification back to us. *)
    Fifo.set_producer_waiting q.out_fifo true;
    wake_self q;
    match t.qos with
    | Some qs -> qos_update_watermark t qs q (Qos.Flow_table.lookup qs.qt_flows key)
    | None -> ()
  end
  else begin
    (* The bounded backlog is full: the fast path degrades to the
       baseline, it never drops or queues without bound. *)
    t.s.waiting_overflows <- t.s.waiting_overflows + 1;
    qos_overflowed t ~key;
    transmit_standard t packet
  end

(* [push_frame] for a frame of [key]'s flow, counted as sent once it is
   in.  [queued]: the frame is the backlog's peeked head, popped only
   after the push succeeds — the push yields the CPU, and a concurrent
   sender must still find the frame queued, or it would overtake it. *)
let push_sent ?amortized ?(queued = false) t q ~key packet =
  let descs = q.q_desc_tx in
  push_frame ?amortized t q packet
  && begin
       if queued then begin
         Qos.Drr.pop q.backlog;
         wake_self q
       end;
       t.s.via_channel_tx <- t.s.via_channel_tx + 1;
       qos_pushed t q ~key ~desc:(q.q_desc_tx > descs);
       true
     end

(* Move backlogged frames into the FIFO in DRR order, one frame at a
   time, until the backlog is empty or its head does not fit. *)
let drain_backlog t q =
  if q.q_tx_draining then 0
  else begin
    q.q_tx_draining <- true;
    let pushed = ref 0 in
    let continue_draining = ref true in
    while !continue_draining do
      match Qos.Drr.peek q.backlog with
      | Some (key, packet, len) when (not q.q_closed) && queue_can_accept q packet len ->
          if push_sent ~queued:true t q ~key packet then incr pushed
          else continue_draining := false
      | Some _ | None -> continue_draining := false
    done;
    if (not q.q_closed) && Qos.Drr.is_empty q.backlog then
      Fifo.set_producer_waiting q.out_fifo false;
    q.q_tx_draining <- false;
    !pushed
  end

let send_via_channel t q ~key packet =
  (* Packets behind a non-empty backlog must queue too (per-queue
     ordering).  Like the batch path, the backlog is first serviced
     from the sending context: forward progress must not depend solely
     on a peer notify-back, because a frame parked while the ring was
     {e empty} (a refused push, an exhausted pool) leaves the peer
     nothing to consume and hence no reason to signal.  Whatever still
     cannot leave waits for the receiver's freed-space signal — "sent
     once enough resources are available" (paper Sect. 3.1).  This is
     what makes the FIFO size matter (Fig. 5): a small FIFO forces an
     event-channel round trip per FIFO-full of packets. *)
  if not (Qos.Drr.is_empty q.backlog) then ignore (drain_backlog t q);
  qos_admit t ~key packet;
  if (not (Qos.Drr.is_empty q.backlog)) || not (push_sent t q ~key packet) then
    enqueue_backlog t q ~key packet;
  (* Signal the receiver; also when we only queued, so the peer's next
     consumption round notifies us back to drain the backlog. *)
  notify_peer t q

(* The backlog key of a frame the transmit hook stole. *)
let key_of_packet t pkt =
  match t.qos with None -> one_flow | Some _ -> Steering.qos_flow_key pkt

let send_steal t q (_, packet) =
  send_via_channel t q ~key:(key_of_packet t packet) packet

let send_batch t q steals =
  (* One burst — all fragments of one datagram, or several back-to-back
     steals steered to the same queue — enters the FIFO under a single
     amortized bookkeeping charge and a single trailing notification. *)
  let p = params t in
  match steals with
  | [] -> ()
  | [ steal ] -> send_steal t q steal
  | steals when not t.notify -> List.iter (send_steal t q) steals
  | (_, first) :: _ ->
      t.s.batches <- t.s.batches + 1;
      (* Service the backlog from the sending context first: leaving it
         to the event handler alone starves it behind this process's own
         CPU charges, and ordering only needs queued frames to leave
         before the new burst. *)
      if not (Qos.Drr.is_empty q.backlog) then ignore (drain_backlog t q);
      (* Ordering: everything behind a non-empty backlog queues; so does
         a burst the ring refuses outright.  Otherwise the burst is one
         submission: one refusal draw and one [xenloop_fifo_op]; each
         frame still pays its copy before becoming visible to the
         consumer. *)
      let direct =
        (not q.q_closed)
        && Qos.Drr.is_empty q.backlog
        && (not (push_refused t))
        && queue_can_accept q first (P.wire_length first)
      in
      if direct then Sim.Resource.use (cpu t) p.Params.xenloop_fifo_op;
      let overflowed = ref (not direct) in
      List.iter
        (fun (_, packet) ->
          let key = key_of_packet t packet in
          qos_admit t ~key packet;
          if !overflowed || not (push_sent ~amortized:true t q ~key packet) then begin
            overflowed := true;
            enqueue_backlog t q ~key packet
          end)
        steals;
      notify_peer t q

(* ------------------------------------------------------------------ *)
(* Receive path and closing a channel *)

(* Channel death must not leave sockets clamped behind a congestion
   signal that will never clear: reset the closing channel's latched flow
   watermarks and emit the clear edge.  A latched flow always has frames
   in the sub-queue that latched it (the push that empties a sub-queue
   clears its watermark), so the channel's flows are exactly those with
   frames in its backlogs; a flow latched on another channel keeps its
   signal. *)
let qos_release_congestion t ch =
  match t.qos with
  | None -> ()
  | Some qs ->
      List.iter
        (fun flow ->
          let key = flow.Qos.Flow_table.f_key in
          if
            Qos.Watermark.congested flow.Qos.Flow_table.f_mark
            && Array.exists (fun q -> Qos.Drr.flow_length q.backlog key > 0) ch.queues
          then begin
            Qos.Watermark.reset flow.Qos.Flow_table.f_mark;
            qos_signal t qs flow ~congested:false
          end)
        (Qos.Flow_table.flows qs.qt_flows)

exception Corrupt_channel

(* The release closure handed out with a borrowed view of pool slots (one
   slot for a plain descriptor, every chunk slot for a jumbo): one closure,
   one loan_return, mirroring the one loan_rx the delivery counted.  The
   socket layer (or the application, through recvfrom_view) calls it when
   done; [copied] reports that the borrow degenerated into a copy in the
   stack (out-of-order TCP hold, fragment reassembly, explicit copy-out),
   which is then recorded so the copies/byte metric stays honest.
   Idempotent: late duplicates, and releases after teardown force-returned
   the slots, are no-ops. *)
let make_release t q pool ~chunks ~len =
  let released = ref false in
  let finish ~copied =
    if not !released then begin
      released := true;
      t.s.loan_returns <- t.s.loan_returns + 1;
      if copied then record_copy t len;
      Array.iter (fun (slot, _) -> Payload_pool.release pool slot) chunks;
      space_freed t q
    end
  in
  match (match t.loan_fault with None -> Loan_pass | Some f -> f ()) with
  | Loan_pass -> finish
  | Loan_leak ->
      (* Leaky application: the view is never handed back, the slots stay
         pinned until teardown force-returns them, and the credit check
         degrades later deliveries to copy-out. *)
      fun ~copied:_ -> ()
  | Loan_delay d -> fun ~copied -> Sim.Engine.after (engine t) d (fun () -> finish ~copied)

(* A pool payload copied out instead of borrowed: on a pre-loan channel
   this is the plain pool receive (no copy charged or recorded); on a loan
   channel it is the transparent credit-exhaustion fallback, whose one real
   copy is recorded. *)
let note_copy_out t q len =
  if q.q_max_loans > 0 then begin
    t.s.loan_credit_stalls <- t.s.loan_credit_stalls + 1;
    record_copy t len
  end

(* What a scatter vector — (pool slot, chunk length) pairs, each chunk read
   from [off] within its slot — says about the frame it claims to hold. *)
type scatter =
  | Scatter_bad_framing
      (** an out-of-range or repeated slot: the shared state itself cannot
          be trusted *)
  | Scatter_bad_lengths
      (** the chunk lengths do not account for the frame: this frame alone
          is undeliverable *)
  | Scatter_ok  (** the vector may be read *)

let check_scatter pool ~off ~len chunks =
  let nslots = Payload_pool.slots pool in
  let sb = Payload_pool.slot_bytes pool in
  let nchunks = Array.length chunks in
  let slots_ok = ref (nchunks > 0) in
  for i = 0 to nchunks - 1 do
    let s, _ = chunks.(i) in
    if s < 0 || s >= nslots then slots_ok := false;
    for k = 0 to i - 1 do
      if fst chunks.(k) = s then slots_ok := false
    done
  done;
  if not !slots_ok then Scatter_bad_framing
  else begin
    let sum = Array.fold_left (fun a (_, l) -> a + l) 0 chunks in
    if
      len > 0 && sum = len && off >= 0
      && Array.for_all (fun (_, l) -> l > 0 && off + l <= sb) chunks
    then Scatter_ok
    else Scatter_bad_lengths
  end

let drain_incoming t q =
  let consumed = ref 0 in
  let p = params t in
  let continue_draining = ref true in
  (* [flags] are the entry's descriptor flags (0 for an inline entry):
     only a frame whose sender did not stamp [flag_csum_ok]
     (trusted-channel checksum elision) gets its transport checksum
     verified, and [jumbo_rx] counts jumbo entries only. *)
  let parsed ~flags result =
    incr consumed;
    (match result with
    | Ok _ ->
        if flags land Fifo.flag_jumbo <> 0 then t.s.jumbo_rx <- t.s.jumbo_rx + 1;
        t.s.via_channel_rx <- t.s.via_channel_rx + 1
    | Error _ -> ());
    result
  in
  let inject = function
    | Ok packet -> Stack.inject_rx t.stack packet
    | Error _ ->
        (* An individual frame that fails to parse is dropped; the FIFO
           framing itself is still sound. *)
        ()
  in
  (* One frame held in pool slots: a plain descriptor is a one-chunk
     scatter vector at its offset, a jumbo (GRO receive, DESIGN.md §15)
     several chunks at offset 0, delivered whole.  It is parsed straight
     out of the slots — headers from the vector's first bytes, the
     payload copied once into the packet — before the slots go back. *)
  let deliver_pool_frame pool ~off ~len ~flags chunks =
    match check_scatter pool ~off ~len chunks with
    | Scatter_bad_framing -> raise Corrupt_channel
    | Scatter_bad_lengths ->
        (* A corrupted scatter length (chaos [Jumbo_truncate]) makes
           exactly this frame undeliverable — return the slots, account
           the drop loudly, keep the channel.  Never deliver bytes the
           vector does not account for. *)
        Array.iter (fun (s, _) -> Payload_pool.free pool s) chunks;
        space_freed t q;
        t.s.jumbo_drops <- t.s.jumbo_drops + 1;
        incr consumed
    | Scatter_ok ->
        let result =
          parsed ~flags
            (Payload_pool.parse_scatter
               ~verify_transport:(flags land Fifo.flag_csum_ok = 0)
               pool ~off ~len chunks)
        in
        if
          q.q_max_loans > 0
          && Payload_pool.outstanding_loans pool + Array.length chunks
             <= q.q_max_loans
        then begin
          (* Loaned delivery: the socket layer borrows every slot and the
             free-ring return waits for the application's release — no
             copy charged, none recorded. *)
          Array.iter (fun (s, _) -> Payload_pool.loan pool s) chunks;
          t.s.loan_rx <- t.s.loan_rx + 1;
          let release = make_release t q pool ~chunks ~len in
          match result with
          | Ok packet -> Stack.inject_rx_borrowed t.stack packet ~release
          | Error _ -> release ~copied:false
        end
        else begin
          note_copy_out t q len;
          Array.iter (fun (s, _) -> Payload_pool.free pool s) chunks;
          space_freed t q;
          inject result
        end
  in
  let rx_pool () =
    match q.q_rx_pool with
    | Some pool -> pool
    | None ->
        (* A descriptor on a channel we never negotiated pools for: the
           peer is off-protocol. *)
        raise Corrupt_channel
  in
  while !continue_draining do
    match Fifo.pop_entry q.in_fifo with
    | exception Invalid_argument _ ->
        (* The peer scribbled over the shared FIFO state.  Never trust it,
           never crash: poison the channel and let the caller disengage. *)
        raise Corrupt_channel
    | None -> continue_draining := false
    | Some entry -> (
        space_freed t q;
        (* Receiver half of the batch amortization: the first frame of a
           drain pays the FIFO bookkeeping, the rest only their copies.
           A pool payload is consumed in place out of the mapped pool —
           bookkeeping only. *)
        let bookkeeping =
          if t.notify && !consumed > 0 then Sim.Time.span_zero
          else p.Params.xenloop_fifo_op
        in
        match entry with
        | Fifo.Inline raw ->
            let len = Bytes.length raw in
            Sim.Resource.use (cpu t)
              (Sim.Time.span_add bookkeeping (Params.xenloop_copy_cost p len));
            record_copy t len;
            inject (parsed ~flags:0 (Netcore.Codec.parse raw))
        | Fifo.Desc { d_slot; d_off; d_len; d_flags; _ } ->
            let pool = rx_pool () in
            if
              d_slot < 0
              || d_slot >= Payload_pool.slots pool
              || d_off < 0 || d_len <= 0
              || d_off + d_len > Payload_pool.slot_bytes pool
            then raise Corrupt_channel;
            Sim.Resource.use (cpu t) bookkeeping;
            deliver_pool_frame pool ~off:d_off ~len:d_len ~flags:d_flags
              [| (d_slot, d_len) |]
        | Fifo.Jumbo { j_len; j_proto = _; j_flags; j_chunks } ->
            let pool = rx_pool () in
            Sim.Resource.use (cpu t) bookkeeping;
            deliver_pool_frame pool ~off:0 ~len:j_len ~flags:j_flags j_chunks)
  done;
  !consumed

(* The last step of {!close_channel}.  It does not wait for application
   releases: every loan still in flight is force-returned to the free
   ring (the pool pages are about to be unmapped) and the rx views go
   dead, so a late release from a socket buffer that outlives the channel
   is a harmless no-op.  Then pages, grants and ports are released and
   the close is counted. *)
let release_channel t ch =
  Array.iter
    (fun q ->
      match q.q_rx_pool with
      | None -> ()
      | Some pool ->
          let n = Payload_pool.force_return_loans pool in
          if n > 0 then begin
            space_freed t q;
            t.s.loans_force_returned <- t.s.loans_force_returned + n
          end)
    ch.queues;
  ch.cleanup ();
  t.s.channels_torn_down <- t.s.channels_torn_down + 1

(* The frames queue [q]'s peer never popped from its FIFO, in FIFO
   order, parsed back out of the ring and our own tx pool before the
   pages are released with the channel (no slot return needed — the free
   ring dies with them).  The frames are ours, so their transport
   checksums (elided on a jumbo) are not verified.  A frame that does not
   parse is dropped, and so is a jumbo whose scatter vector we cannot
   trust — a chaos fault corrupted it before teardown — rather than read
   out of range. *)
let reclaim_stranded t q =
  let stranded = ref [] in
  let keep = function
    | Ok packet -> stranded := packet :: !stranded
    | Error _ -> ()
  in
  (try
     let reclaiming = ref true in
     while !reclaiming do
       match Fifo.pop_entry q.out_fifo with
       | Some (Fifo.Inline raw) ->
           keep (Netcore.Codec.parse ~verify_transport:false raw)
       | Some (Fifo.Desc { d_slot; d_off; d_len; _ }) -> (
           match q.q_tx_pool with
           | Some pool ->
               keep
                 (Payload_pool.parse_scatter ~verify_transport:false pool ~off:d_off
                    ~len:d_len [| (d_slot, d_len) |])
           | None -> ())
       | Some (Fifo.Jumbo { j_len; j_chunks; _ }) -> (
           match q.q_tx_pool with
           | Some pool when check_scatter pool ~off:0 ~len:j_len j_chunks = Scatter_ok
             ->
               keep
                 (Payload_pool.parse_scatter ~verify_transport:false pool ~off:0
                    ~len:j_len j_chunks)
           | Some _ | None -> t.s.jumbo_drops <- t.s.jumbo_drops + 1)
       | None -> reclaiming := false
     done
   with Invalid_argument _ -> ());
  List.rev !stranded

(* What a close does with the frames the channel never delivered: keep
   them for the resend after migration (paper Sect. 3.4), send them now
   through netfront, or — on a channel whose shared state cannot be
   trusted — drop them, reading nothing back out of its pages. *)
type unsent = Save | Flush | Drop

(* Every queue's unsent frames in queue order — per queue, the frames
   reclaimed from its out-FIFO (when [reclaim]), then its backlog in
   service order — leaving each backlog empty.  Every queue is emptied
   before the first frame is sent on: each transmit yields the CPU. *)
let take_unsent t ch ~reclaim =
  Array.fold_left
    (fun acc q ->
      let reclaimed = if reclaim then reclaim_stranded t q else [] in
      let backlog =
        List.map (fun (_, packet, _) -> packet) (Qos.Drr.drain_all q.backlog)
      in
      acc @ reclaimed @ backlog)
    [] ch.queues

(* The one way a channel ends (DESIGN.md §6, "Closing a channel"), for
   unload, migration, stale announcements and delta leaves, the zombie
   re-Create, eviction, the peer's own close, quarantine, and a handshake
   that is given up or abandoned.  [entry] is what the peer's state
   becomes ([None]: forgotten).  [tell_peer]: ring every queue so the peer
   closes its side; a close the peer started skips it, as its ports are
   already gone.

   Everything up to the first yield happens at once: the queues are
   closed module-side, the peer entry changes and the epoch moves, so no
   handler, packet or later close finds the channel again, and a sender
   resuming from a CPU charge sends through netfront instead of touching
   the pages.  Closing a closed channel does nothing. *)
let close_channel t ch ~entry ~unsent ~tell_peer =
  if not (Array.exists (fun q -> q.q_closed) ch.queues) then begin
    (* [q_closed] makes a lingering handler's [q_ready] true. *)
    Array.iter
      (fun q ->
        q.q_closed <- true;
        wake_self q)
      ch.queues;
    (match entry with
    | None -> Hashtbl.remove t.peers ch.peer_domid
    | Some state -> Hashtbl.replace t.peers ch.peer_domid state);
    bump_epoch t;
    let trusted = ch.connected && unsent <> Drop in
    if trusted then
      Array.iter
        (fun q -> try ignore (drain_incoming t q) with Corrupt_channel -> ())
        ch.queues;
    (* Every FIFO goes inactive before any frame is reclaimed, so the peer
       stops pushing into pages about to be read back and released. *)
    Array.iter (mark_queue_inactive t) ch.queues;
    qos_release_congestion t ch;
    let frames = take_unsent t ch ~reclaim:trusted in
    (match unsent with
    | Save -> t.saved_frames <- t.saved_frames @ frames
    | Flush -> List.iter (transmit_standard t) frames
    | Drop -> ());
    if tell_peer then Array.iter (ring_peer t) ch.queues;
    release_channel t ch
  end

let disengage_peer t peer_domid ~unsent =
  match Hashtbl.find_opt t.peers peer_domid with
  | Some (Active ch | Bootstrapping (Awaiting_ack { ba_channel = ch; _ })) ->
      close_channel t ch ~entry:None ~unsent ~tell_peer:true
  | Some (Bootstrapping (Requested_from_listener _) | Failed_until _) ->
      Hashtbl.remove t.peers peer_domid
  | None -> ()

let teardown_all t ~unsent =
  let peer_ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.peers [] in
  List.iter (fun id -> disengage_peer t id ~unsent) peer_ids;
  Mapping_table.clear t.mapping;
  bump_epoch t

(* ------------------------------------------------------------------ *)
(* Bounded channel state (DESIGN.md §12): per-guest channel cap with
   idle-LRU eviction, plus join-storm damping on bootstrap *)

let active_channel_count t =
  Hashtbl.fold
    (fun _ state acc -> match state with Active _ -> acc + 1 | _ -> acc)
    t.peers 0

let bootstraps_inflight t =
  Hashtbl.fold
    (fun _ state acc ->
      match state with Bootstrapping _ -> acc + 1 | _ -> acc)
    t.peers 0

(* Join-storm damping: when a big announcement lands (say 100 guests at
   once), every co-resident packet wants to start a bootstrap in the same
   scan window.  Bounding the concurrent handshakes keeps grant/page
   allocation bursts flat; a refused bootstrap leaves no state behind, the
   packet takes the standard path, and the next packet towards that peer
   simply tries again once a slot frees up. *)
let bootstrap_max_inflight = 32

let bootstrap_allowed t = bootstraps_inflight t < bootstrap_max_inflight

(* Oldest Active channel by last traffic, ties broken towards the lower
   domid — deterministic, so chaos digests stay replayable. *)
let lru_active_peer t ~excluding =
  Hashtbl.fold
    (fun domid state best ->
      match state with
      | Active ch when domid <> excluding -> (
          match best with
          | Some (_, best_t, best_d)
            when Sim.Time.compare best_t ch.ch_last_active < 0
                 || (Sim.Time.compare best_t ch.ch_last_active = 0
                    && best_d < domid) ->
              best
          | Some _ | None -> Some (ch, ch.ch_last_active, domid))
      | _ -> best)
    t.peers None

(* A peer entry that refuses new bootstraps until [span] from now. *)
let cooldown t span = Failed_until (Sim.Time.add (Sim.Engine.now (engine t)) span)

(* Evict one Active channel: the peer entry becomes a short cooldown as
   the close begins, so the very next packet cannot race a new bootstrap
   into the slot being freed.  The close flushes the unsent traffic over
   netfront exactly once, so eviction is transparent to the flows riding
   the channel; they fall back to netfront until traffic re-establishes
   it.  Not a bootstrap failure: the peer is fine, we just chose to shed
   the state. *)
let evict_channel t peer_domid =
  match Hashtbl.find_opt t.peers peer_domid with
  | Some (Active ch) ->
      t.s.channels_evicted <- t.s.channels_evicted + 1;
      close_channel t ch
        ~entry:(Some (cooldown t (params t).Params.xenloop_evict_cooldown))
        ~unsent:Flush ~tell_peer:true;
      true
  | Some (Bootstrapping _) | Some (Failed_until _) | None -> false

let evict_lru t =
  if not t.loaded then false
  else
    match lru_active_peer t ~excluding:(-1) with
    | Some (_, _, domid) -> evict_channel t domid
    | None -> false

(* Make room for a channel to [peer_domid] under the configured cap by
   evicting LRU channels (never the one being established).  The guard
   bounds the loop against a pathological cap; in practice one round
   evicts one channel. *)
let make_room_under_cap t ~peer_domid =
  let cap = (params t).Params.xenloop_channel_cap in
  if cap > 0 then begin
    let guard = ref 64 in
    while active_channel_count t >= cap && !guard > 0 do
      decr guard;
      match lru_active_peer t ~excluding:peer_domid with
      | Some (_, _, victim) -> ignore (evict_channel t victim)
      | None -> guard := 0
    done
  end

(* Idle-LRU sweep, driven by the same periodic timer as the soft-state
   TTL: any connected channel quiet for [xenloop_channel_idle_ttl] is
   evicted, so an N-guest mesh's steady-state mapped memory tracks the
   traffic matrix, not N². *)
let idle_evict t =
  if t.loaded then begin
    let idle = (params t).Params.xenloop_channel_idle_ttl in
    if Sim.Time.span_is_positive idle then begin
      let now = Sim.Engine.now (engine t) in
      let victims =
        Hashtbl.fold
          (fun domid state acc ->
            match state with
            | Active ch
              when ch.connected
                   && Sim.Time.(now >= Sim.Time.add ch.ch_last_active idle) ->
                domid :: acc
            | _ -> acc)
          t.peers []
        |> List.sort compare
      in
      List.iter (fun domid -> ignore (evict_channel t domid)) victims
    end
  end

(* ------------------------------------------------------------------ *)
(* Live memory accounting (bench JSON): how much shared state this
   guest's channel set pins at steady state *)

let live_channels t =
  Hashtbl.fold
    (fun _ state acc ->
      match state with Active ch when ch.connected -> acc + 1 | _ -> acc)
    t.peers 0

(* Bytes of machine memory backing this guest's Active channels, counted
   once by the side that allocated them (the listener): every queue's FIFO
   descriptor+data pages plus both directions' payload pools.  Summing
   this over a mesh gives the total mapped pool, without double counting
   the connector's mappings of the same pages. *)
let channel_pool_bytes t =
  let pool_bytes = function
    | Some pp ->
        Memory.Page.size
        + (Payload_pool.slots pp * Payload_pool.slot_bytes pp)
    | None -> 0
  in
  Hashtbl.fold
    (fun _ state acc ->
      match state with
      | Active ch when ch.role = Listener ->
          let fifo_pages =
            Fifo.pages_for_queues ~k:t.k ~queues:(Array.length ch.queues)
          in
          Array.fold_left
            (fun acc q -> acc + pool_bytes q.q_tx_pool + pool_bytes q.q_rx_pool)
            (acc + (fifo_pages * Memory.Page.size))
            ch.queues
      | _ -> acc)
    t.peers 0

let grant_entries t =
  match Machine.grant_table (t.current_machine ()) (my_domid t) with
  | Some gt -> Gt.active_grants gt
  | None -> 0

let announce_epoch t = t.announce_epoch

(* ------------------------------------------------------------------ *)
(* Event-channel handler: packets arrived, or space was freed *)

(* The peer closed the channel (paper Sect. 3.3, "Channel teardown"): it
   marks every queue inactive before it rings, so one inactive queue means
   the whole channel is going.  Its ports are gone; nothing is rung
   back. *)
let peer_closed t ch = close_channel t ch ~entry:None ~unsent:Flush ~tell_peer:false

(* One quiescence round on one queue: receive everything pending, then
   service our own backlog into the space that popping just freed. *)
let drain_round t q =
  let total_consumed = ref 0 and total_pushed = ref 0 in
  let quiescent = ref false in
  while not !quiescent do
    let consumed = drain_incoming t q in
    let pushed = drain_backlog t q in
    total_consumed := !total_consumed + consumed;
    total_pushed := !total_pushed + pushed;
    if consumed = 0 && pushed = 0 then quiescent := true
  done;
  (!total_consumed, !total_pushed)

let queue_live q =
  (not q.q_closed) && Fifo.is_active q.in_fifo && Fifo.is_active q.out_fifo

(* Work a handler can do on this queue right now: a frame to receive, or
   a backlog head the ring and pool can now take. *)
let queue_has_work q =
  (not (Fifo.is_empty q.in_fifo))
  ||
  match Qos.Drr.head q.backlog with
  | Some (packet, len) -> queue_can_accept q packet len
  | None -> false

(* A lingering handler's [q_ready]: work, or the channel going down (never
   poll across a close: the peer's close must be handled).  A pure read;
   everything that can make it true wakes the queue's waiter. *)
let queue_ready q = (not (queue_live q)) || queue_has_work q

(* NAPI-style adaptive polling: after draining a queue to quiescence, stay
   in the handler for a short window re-checking that queue's FIFO, so a
   streaming sender keeps seeing our consumer-active flag and never rings
   the doorbell.  Per queue: polling the bulk queue does not keep the rr
   queue's flag set.  Returns [true] when new work appeared before the
   window expired.  The handler parks on the queue's waiter: its re-checks
   are a grid of [poll_interval] ticks ending at the window's tick count,
   of which only the woken ones and the last execute (DESIGN.md §5). *)
let poll_interval = Sim.Time.of_us_f 2.0

let poll_for_more t q =
  let p = params t in
  let window = p.Params.xenloop_poll_window in
  if not (Sim.Time.span_is_positive window) then false
  else begin
    let window_ns = Int64.to_int (Sim.Time.to_ns window) in
    let interval_ns = Int64.to_int (Sim.Time.to_ns poll_interval) in
    Sim.Engine.park q.q_waiter poll_interval
      ~max_ticks:((window_ns + interval_ns - 1) / interval_ns)
      q.q_ready;
    t.s.poll_rounds <- t.s.poll_rounds + Sim.Engine.take_ticks q.q_waiter;
    if Sim.Engine.missed_wake q.q_waiter then
      t.s.poll_missed_wakes <- t.s.poll_missed_wakes + 1;
    queue_live q && queue_has_work q
  end

let on_event t peer_domid qi () =
  if t.loaded then begin
    match Hashtbl.find_opt t.peers peer_domid with
    | Some (Active ch) when qi < Array.length ch.queues -> (
        let q = ch.queues.(qi) in
        if not q.q_busy then begin
          if not (queue_live q) then peer_closed t ch
          else begin
            q.q_busy <- true;
            let suppressing = t.notify in
            match
              let total_consumed = ref 0 and total_pushed = ref 0 in
              if suppressing then Fifo.set_consumer_active q.in_fifo true;
              let serving = ref true in
              while !serving do
                let consumed = drain_incoming t q in
                let pushed = drain_backlog t q in
                total_consumed := !total_consumed + consumed;
                total_pushed := !total_pushed + pushed;
                (* The channel closed while we were charged: stop serving
                   it, and leave its pages alone. *)
                if q.q_closed then serving := false
                else if suppressing then begin
                  (* Signal per round, not once at handler exit: the peer
                     must refill (or drain) {e while} we are still serving,
                     or the two endpoints alternate in lockstep, one
                     FIFO-full at a time.  Once the peer is inside its own
                     handler its consumer-active flag makes these notifies
                     free. *)
                  if
                    pushed > 0
                    || (consumed > 0 && Fifo.producer_waiting q.in_fifo)
                  then notify_peer t q;
                  if consumed = 0 && pushed = 0 then
                    serving := poll_for_more t q
                end
                else if consumed = 0 && pushed = 0 then serving := false
              done;
              let final_consumed = ref 0 and final_pushed = ref 0 in
              if suppressing && not q.q_closed then begin
                Fifo.set_consumer_active q.in_fifo false;
                (* Close the suppression race: a push that saw the flag
                   still set stayed silent, so look one last time after
                   clearing. *)
                let consumed, pushed = drain_round t q in
                final_consumed := consumed;
                final_pushed := pushed;
                total_consumed := !total_consumed + consumed;
                total_pushed := !total_pushed + pushed
              end;
              (!total_consumed, !total_pushed, !final_consumed, !final_pushed)
            with
            | exception Corrupt_channel ->
                q.q_busy <- false;
                (* Quarantine: one corrupt queue poisons the whole channel,
                   as the queues share their page pool and cleanup. *)
                if not q.q_closed then begin
                  Fifo.set_consumer_active q.in_fifo false;
                  t.s.corrupt_channels <- t.s.corrupt_channels + 1;
                  close_channel t ch ~entry:None ~unsent:Drop ~tell_peer:true
                end
            | total_consumed, total_pushed, final_consumed, final_pushed ->
                q.q_busy <- false;
                if total_consumed > 0 || total_pushed > 0 then
                  ch.ch_last_active <- Sim.Engine.now (engine t);
                if not (queue_live q) then
                  (* The peer closed the channel while we were busy; its
                     notify was swallowed by the busy guard, so close our
                     side now (nothing, if we closed it ourselves). *)
                  peer_closed t ch
                else if suppressing then begin
                  (* In-loop rounds already signalled; only the race-closing
                     final drain still needs its notification. *)
                  if
                    final_pushed > 0
                    || (final_consumed > 0 && Fifo.producer_waiting q.in_fifo)
                  then notify_peer t q
                end
                else if total_consumed > 0 || total_pushed > 0 then
                  (* Per-packet-notification baseline: exactly the seed
                     behaviour, one coalesced doorbell at handler exit. *)
                  notify_peer t q
          end
        end)
    | Some (Active _) | Some (Bootstrapping _) | Some (Failed_until _) | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Bootstrap: listener side *)

(* A queue as either side of the handshake first sees it: the shared
   FIFO pair and pools as attached, the negotiated limits, every counter
   at zero.  The chaos pool fault rides on the pool this side writes. *)
let new_queue t ~index ~out_fifo ~in_fifo ~port ~tx_pool ~rx_pool ~inline_max
    ~max_loans ~gso_max =
  (match tx_pool with
  | Some pool -> Payload_pool.set_alloc_fault pool t.pool_fault
  | None -> ());
  let waiter = Sim.Engine.waiter (engine t) in
  Ec.set_waiter (Machine.evtchn (t.current_machine ())) ~dom:(my_domid t) ~port waiter;
  let p = params t in
  let backlog =
    Qos.Drr.create ~quantum:(max 1 p.Params.qos_quantum)
      ~max_per_flow:(max 1 p.Params.xenloop_waiting_list_max) ()
  in
  let rec q =
  {
    q_index = index;
    out_fifo;
    in_fifo;
    q_port = port;
    backlog;
    q_tx_pool = tx_pool;
    q_rx_pool = rx_pool;
    q_inline_max = inline_max;
    q_max_loans = max_loans;
    q_gso_max = gso_max;
    q_busy = false;
    q_tx_draining = false;
    q_closed = false;
    q_notifies_sent = 0;
    q_notifies_suppressed = 0;
    q_steered = 0;
    q_desc_tx = 0;
    q_pool_fallbacks = 0;
    q_waiter = waiter;
    q_ready = (fun () -> queue_ready q);
    q_peer_ep = None;
  }
  in
  q

(* A run of pages the listener granted to its peer: [g_pages.(i)] is
   shared under [g_grefs.(i)].  Teardown releases pages one by one as
   their grants become endable, writing -1 over each gref it ended.  A
   channel keeps one run per FIFO and per payload pool, the descriptor
   or control page first. *)
type granted = { g_grefs : Gt.gref array; g_pages : Memory.Page.t array }

let grant_run ~gt ~peer pages =
  {
    g_grefs = Array.map (fun page -> Gt.grant_access gt ~to_dom:peer ~page ~writable:true) pages;
    g_pages = pages;
  }

(* The data pages' grefs go into the granted run's first page. *)
let data_grefs run = Array.sub run.g_grefs 1 (Array.length run.g_grefs - 1)

let grant_fifo_pages ~gt ~peer ~desc ~data =
  let run = grant_run ~gt ~peer (Array.append [| desc |] data) in
  Fifo.write_grefs ~desc (data_grefs run);
  run

(* End every grant in [runs] that the peer no longer maps and release its
   page; the result is how many are still mapped. *)
let end_grants ~gt ~frames ~domid runs =
  List.fold_left
    (fun pending run ->
      let pending = ref pending in
      Array.iteri
        (fun i gref ->
          if gref >= 0 then
            match Gt.end_access gt gref with
            | Ok () ->
                Memory.Frame_allocator.release frames ~owner:domid run.g_pages.(i);
                run.g_grefs.(i) <- -1;
                run.g_pages.(i) <- Memory.Page.placeholder
            | Error _ -> incr pending)
        run.g_grefs;
      !pending)
    0 runs

let send_ctrl t ~dst_mac msg =
  let deliver () = Stack.send_ctrl t.stack ~dst_mac (Proto.encode msg) in
  match t.ctrl_fault with
  | None -> deliver ()
  | Some f -> (
      match f msg with
      | Ctrl_pass -> deliver ()
      | Ctrl_drop -> ()
      | Ctrl_dup ->
          deliver ();
          deliver ()
      | Ctrl_delay d -> Sim.Engine.after (engine t) d deliver)

(* Retry exhaustion: the peer never answered, so stop — but leave a
   tombstone with a deadline instead of nothing.  Without the cooldown
   every packet classified towards the peer immediately restarts the
   bootstrap, and a dead or deaf peer turns the fast path into a retry
   storm of Create_channel grants and frame allocations. *)
let mark_bootstrap_failed t peer_domid =
  Hashtbl.replace t.peers peer_domid
    (cooldown t (params t).Params.xenloop_bootstrap_cooldown);
  t.s.bootstrap_failures <- t.s.bootstrap_failures + 1;
  bump_epoch t

let rec send_create_with_retry t ~peer_domid ~peer_mac ~msg ba =
  send_ctrl t ~dst_mac:peer_mac msg;
  Sim.Engine.after (engine t) ack_timeout (fun () ->
      match Hashtbl.find_opt t.peers peer_domid with
      | Some (Bootstrapping (Awaiting_ack ba')) when ba' == ba ->
          if ba.retries < max_create_retries then begin
            ba.retries <- ba.retries + 1;
            send_create_with_retry t ~peer_domid ~peer_mac ~msg ba
          end
          else begin
            (* Give up (paper: resend 3 times).  The close poisons the
               offered queues and rings them: a connector that mapped the
               grants and whose ack is still in flight must find the FIFOs
               inactive and disengage, not keep feeding a channel whose
               listener end no longer exists. *)
            t.s.bootstrap_failures <- t.s.bootstrap_failures + 1;
            close_channel t ba.ba_channel
              ~entry:(Some (cooldown t (params t).Params.xenloop_bootstrap_cooldown))
              ~unsent:Flush ~tell_peer:true
          end
      | _ -> ())

(* Grants the connector still has mapped when the listener tears down
   ([Still_mapped]) cannot be ended yet, and their pages must NOT go back
   to the free pool — a live peer can still write through the mapping.
   They stay owned and granted until the peer's own disengage unmaps them
   (or the hypervisor revokes a dead peer's mappings), and a short timer
   reaps them: end the grant, then release the page. *)
let reap_period = Sim.Time.of_us_f 100.0

let reap_grants t ~machine ~domid ~gt runs =
  let frames = Machine.frame_allocator machine in
  let rec reap () =
    match Machine.grant_table machine domid with
    | Some gt' when gt' == gt ->
        if end_grants ~gt ~frames ~domid runs > 0 then
          Sim.Engine.after (engine t) reap_period reap
    | Some _ | None ->
        (* The domain is gone (migration or death): the hypervisor already
           reclaimed its frames and dropped its grant table. *)
        ()
  in
  Sim.Engine.after (engine t) reap_period reap

(* Largest TCP payload one jumbo descriptor may carry; each side uses
   min(own, peer's control-page stamp). *)
let gso_max_bytes = 65536

let listener_create t ~peer_domid ~peer_mac ~peer_queues ~peer_rung =
  let machine = t.current_machine () in
  let domid = my_domid t in
  let p = params t in
  if not (bootstrap_allowed t) then ()
  else begin
  make_room_under_cap t ~peer_domid;
  match Machine.grant_table machine domid with
  | None -> ()
  | Some gt -> (
      (* The negotiated count: the min of what both sides advertise, so a
         single-queue peer gets exactly the paper's one FIFO pair. *)
      let nq = max 1 (min t.max_queues peer_queues) in
      (* The channel runs at the lower rung.  A misconfigured pool
         geometry quietly keeps it on the inline path rather than failing
         the bootstrap; the loan credit and the jumbo ceiling ride the
         pool control pages, and a zero stamp keeps the rung below. *)
      let rung = min t.rung peer_rung in
      let slots = p.Params.xenloop_pool_slots in
      let slot_pages = p.Params.xenloop_pool_slot_pages in
      let use_pools =
        rung >= Params.Zerocopy && Payload_pool.geometry_valid ~slots ~slot_pages
      in
      let inline_max = max 0 p.Params.xenloop_inline_max in
      let max_loans =
        if use_pools && rung >= Params.Loans then max 0 p.Params.xenloop_max_loans
        else 0
      in
      let gso_max = if use_pools && rung >= Params.Gso then gso_max_bytes else 0 in
      let fifo_pages = Fifo.pages_for_queues ~k:t.k ~queues:nq in
      let pool_pages_each =
        if use_pools then Payload_pool.pages_for ~slots ~slot_pages else 0
      in
      let frames = Machine.frame_allocator machine in
      (* Channel memory is real machine memory, charged to the listener;
         one atomic grab covers every queue's descriptor, data, and
         payload-pool pages, so a channel never comes up with some queues
         memory-less or descriptor-capable in one direction only. *)
      match
        Memory.Frame_allocator.allocate_many frames ~owner:domid
          ~count:(fifo_pages + (nq * 2 * pool_pages_each))
      with
      | Error Memory.Frame_allocator.Out_of_frames -> ()
      | Ok pool ->
          let ec = Machine.evtchn machine in
          let runs = ref [] in
          let all_ports = ref [] in
          let build_pool ~qi ~dir =
            (* Pool pages sit after the FIFO stripes: [lc | cl] per queue,
               in queue order, the control page first. *)
            let base = fifo_pages + (((qi * 2) + dir) * pool_pages_each) in
            let pages = Array.sub pool base pool_pages_each in
            let pp =
              Payload_pool.init ~max_loans ~gso_max ~ctrl:pages.(0)
                ~data:(Array.sub pages 1 (pool_pages_each - 1))
                ~slots ~slot_pages ~inline_max ()
            in
            let run = grant_run ~gt ~peer:peer_domid pages in
            Payload_pool.write_grefs pp (data_grefs run);
            runs := run :: !runs;
            (pp, run.g_grefs.(0))
          in
          let make_queue qi =
            let qp = Fifo.carve_queue ~pool ~k:t.k ~index:qi in
            Fifo.init ~desc:qp.Fifo.qp_desc_lc ~data:qp.Fifo.qp_data_lc ~k:t.k;
            Fifo.init ~desc:qp.Fifo.qp_desc_cl ~data:qp.Fifo.qp_data_cl ~k:t.k;
            let lc_run =
              grant_fifo_pages ~gt ~peer:peer_domid ~desc:qp.Fifo.qp_desc_lc
                ~data:qp.Fifo.qp_data_lc
            in
            let cl_run =
              grant_fifo_pages ~gt ~peer:peer_domid ~desc:qp.Fifo.qp_desc_cl
                ~data:qp.Fifo.qp_data_cl
            in
            runs := cl_run :: lc_run :: !runs;
            let pools =
              if use_pools then
                Some (build_pool ~qi ~dir:0, build_pool ~qi ~dir:1)
              else None
            in
            let port = Ec.alloc_unbound ec ~dom:domid ~remote:peer_domid in
            Ec.set_handler ec ~dom:domid ~port (on_event t peer_domid qi);
            all_ports := port :: !all_ports;
            let q =
              new_queue t ~index:qi
                ~out_fifo:
                  (Fifo.attach ~desc:qp.Fifo.qp_desc_lc ~data:qp.Fifo.qp_data_lc)
                ~in_fifo:
                  (Fifo.attach ~desc:qp.Fifo.qp_desc_cl ~data:qp.Fifo.qp_data_cl)
                ~port
                ~tx_pool:(Option.map (fun ((lc, _), _) -> lc) pools)
                ~rx_pool:(Option.map (fun (_, (cl, _)) -> cl) pools)
                ~inline_max ~max_loans ~gso_max
            in
            let qg_lc_pool, qg_cl_pool =
              match pools with
              | Some ((_, lc_gref), (_, cl_gref)) -> (Some lc_gref, Some cl_gref)
              | None -> (None, None)
            in
            ( q,
              {
                Proto.qg_lc_gref = lc_run.g_grefs.(0);
                qg_cl_gref = cl_run.g_grefs.(0);
                qg_port = port;
                qg_lc_pool;
                qg_cl_pool;
              } )
          in
          let built = Array.init nq make_queue in
          let queues = Array.map fst built in
          let grants = Array.to_list (Array.map snd built) in
          let runs = !runs and ports = !all_ports in
          let cleanup () =
            (* The connector may still hold mappings when teardown runs
               (its unmap rides the teardown notification, a few event
               latencies away), so a page is only returned to the free
               pool once its grant actually ends; the rest are parked
               with the reaper. *)
            if end_grants ~gt ~frames ~domid runs > 0 then
              reap_grants t ~machine ~domid ~gt runs;
            List.iter (fun port -> Ec.close ec ~dom:domid ~port) ports
          in
          let ch =
            {
              peer_domid;
              peer_mac;
              role = Listener;
              queues;
              connected = false;
              ch_last_active = Sim.Engine.now (engine t);
              cleanup;
            }
          in
          let ba = { ba_channel = ch; retries = 0 } in
          Hashtbl.replace t.peers peer_domid (Bootstrapping (Awaiting_ack ba));
          t.s.bootstraps_started <- t.s.bootstraps_started + 1;
          let msg = Proto.Create_channel { listener_domid = domid; queues = grants } in
          send_create_with_retry t ~peer_domid ~peer_mac ~msg ba)
  end

let start_bootstrap t ~peer_domid ~peer_mac =
  if my_domid t < peer_domid then begin
    (* The listener learns the peer's advertised queue count and rung
       from the announcement entry that put the peer in the mapping
       table. *)
    let peer_queues, peer_rung =
      match Mapping_table.find_domid t.mapping peer_domid with
      | Some e -> (e.Proto.entry_queues, e.Proto.entry_rung)
      | None -> (1, Params.Paper)
    in
    listener_create t ~peer_domid ~peer_mac ~peer_queues ~peer_rung
  end
  else if not (bootstrap_allowed t) then ()
  else begin
    make_room_under_cap t ~peer_domid;
    let token = t.next_token in
    t.next_token <- token + 1;
    Hashtbl.replace t.peers peer_domid
      (Bootstrapping (Requested_from_listener token));
    t.s.bootstraps_started <- t.s.bootstraps_started + 1;
    send_ctrl t ~dst_mac:peer_mac
      (Proto.Request_channel
         { requester_domid = my_domid t; max_queues = t.max_queues; rung = t.rung });
    (* The requester has no retry loop of its own — the listener drives the
       Create/Ack exchange — so bound the wait symmetrically: if nothing
       arrived within the listener's whole retry budget, the request (or
       every Create) was lost, and the peer goes into cooldown. *)
    Sim.Engine.after (engine t)
      (Sim.Time.span_scale (max_create_retries + 2) ack_timeout)
      (fun () ->
        match Hashtbl.find_opt t.peers peer_domid with
        | Some (Bootstrapping (Requested_from_listener tk)) when tk = token ->
            mark_bootstrap_failed t peer_domid
        | _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Bootstrap: connector side *)

(* The grefs a connector has mapped, oldest at the bottom. *)
type gref_stack = { mutable stack : Gt.gref array; mutable depth : int }

let push_gref s gref =
  if s.depth = Array.length s.stack then begin
    let grown = Array.make (max 64 (2 * s.depth)) 0 in
    Array.blit s.stack 0 grown 0 s.depth;
    s.stack <- grown
  end;
  s.stack.(s.depth) <- gref;
  s.depth <- s.depth + 1

let connector_accept t ~listener_domid ~listener_mac ~queue_grants =
  let machine = t.current_machine () in
  let domid = my_domid t in
  let p = params t in
  make_room_under_cap t ~peer_domid:listener_domid;
  match Machine.grant_table machine listener_domid with
  | None -> ()
  | Some listener_gt -> (
      let ec = Machine.evtchn machine in
      (* All queues map, or none do: on any failure every page mapped and
         every port bound so far is rolled back, leaving no half-attached
         channel behind. *)
      let mapped = { stack = [||]; depth = 0 } in
      let bound = ref [] in
      (* Newest first, as the mappings are rolled back. *)
      let unmap_all () =
        for i = mapped.depth - 1 downto 0 do
          ignore (Gt.unmap listener_gt mapped.stack.(i) ~by:domid ~meter:(meter t))
        done
      in
      (* A failed map yields [Page.placeholder]. *)
      let map_page gref =
        Sim.Resource.use (cpu t) p.Params.page_map;
        match Gt.map listener_gt gref ~by:domid ~meter:(meter t) with
        | Ok page ->
            push_gref mapped gref;
            page
        | Error _ -> Memory.Page.placeholder
      in
      (* Every gref is mapped, and charged, even past a failed one. *)
      let map_pages grefs =
        let pages = Array.make (Array.length grefs) Memory.Page.placeholder in
        let ok = ref true in
        Array.iteri
          (fun i gref ->
            let page = map_page gref in
            if page == Memory.Page.placeholder then ok := false else pages.(i) <- page)
          grefs;
        if !ok then Some pages else None
      in
      let map_fifo desc_gref =
        let desc = map_page desc_gref in
        if desc == Memory.Page.placeholder then None
        else
          match map_pages (Fifo.read_grefs ~desc) with
          | None -> None
          | Some data -> (
              match Fifo.attach ~desc ~data with
              | fifo -> Some fifo
              | exception Invalid_argument _ -> None)
      in
      (* Mapping a payload pool is the amortization the descriptor path is
         built on: every page — control and data — is mapped here, once,
         at connect time ([page_map] charged per page, the map hypercalls
         metered as per-connect costs), so pushing a descriptor later
         costs no mapping at all. *)
      let map_payload_pool ctrl_gref =
        let ctrl = map_page ctrl_gref in
        if ctrl == Memory.Page.placeholder then None
        else
          match Payload_pool.read_grefs ~ctrl with
          | exception Invalid_argument _ -> None
          | data_grefs -> (
              match map_pages data_grefs with
              | None -> None
              | Some data -> (
                  match Payload_pool.attach ~ctrl ~data with
                  | pp -> Some pp
                  | exception Invalid_argument _ -> None))
      in
      let inline_max = max 0 p.Params.xenloop_inline_max in
      let rec build qi acc = function
        | [] -> Some (List.rev acc)
        | qg :: rest -> (
            match (map_fifo qg.Proto.qg_lc_gref, map_fifo qg.Proto.qg_cl_gref) with
            | Some lc_fifo, Some cl_fifo -> (
                let pools =
                  match (qg.Proto.qg_lc_pool, qg.Proto.qg_cl_pool) with
                  | None, None -> `No_pools
                  | Some lc, Some cl -> (
                      match (map_payload_pool lc, map_payload_pool cl) with
                      | Some lp, Some cp -> `Pools (lp, cp)
                      | _ -> `Failed)
                  | _ -> `Failed
                in
                match pools with
                | `Failed -> None
                | (`No_pools | `Pools _) as pools -> (
                    match
                      Ec.bind_interdomain ec ~dom:domid ~remote:listener_domid
                        ~remote_port:qg.Proto.qg_port
                    with
                    | Error _ -> None
                    | Ok port ->
                        bound := port :: !bound;
                        Ec.set_handler ec ~dom:domid ~port
                          (on_event t listener_domid qi);
                        (* The connector transmits on the cl direction, so
                           its tx pool is the cl pool; the threshold is the
                           conservative max of both sides' settings (the
                           listener's rides in the pool control page).  The
                           listener also stamps the negotiated loan credit
                           and jumbo ceiling there: each side uses the min
                           of its own configured limit and the stamp, and a
                           stamp of zero (or this side opting out) disables
                           the feature for the queue on both ends. *)
                        let tx_pool, rx_pool, q_inline_max, max_loans, gso_max =
                          match pools with
                          | `No_pools -> (None, None, inline_max, 0, 0)
                          | `Pools (lp, cp) ->
                              let negotiated ours limit stamp =
                                if ours && stamp > 0 then min (max 0 limit) stamp
                                else 0
                              in
                              ( Some cp,
                                Some lp,
                                max inline_max (Payload_pool.inline_threshold cp),
                                negotiated (t.rung >= Params.Loans)
                                  p.Params.xenloop_max_loans
                                  (Payload_pool.max_loans_stamp lp),
                                negotiated (t.rung >= Params.Gso) gso_max_bytes
                                  (Payload_pool.gso_stamp lp) )
                        in
                        let q =
                          new_queue t ~index:qi ~out_fifo:cl_fifo
                            ~in_fifo:lc_fifo ~port ~tx_pool ~rx_pool
                            ~inline_max:q_inline_max ~max_loans ~gso_max
                        in
                        build (qi + 1) (q :: acc) rest))
            | _ -> None)
      in
      match build 0 [] queue_grants with
      | None ->
          unmap_all ();
          List.iter (fun port -> Ec.close ec ~dom:domid ~port) !bound
      | Some queues ->
          let queues = Array.of_list queues in
          let bound_ports = !bound in
          let cleanup () =
            unmap_all ();
            List.iter (fun port -> Ec.close ec ~dom:domid ~port) bound_ports
          in
          let ch =
            {
              peer_domid = listener_domid;
              peer_mac = listener_mac;
              role = Connector;
              queues;
              connected = true;
              ch_last_active = Sim.Engine.now (engine t);
              cleanup;
            }
          in
          Hashtbl.replace t.peers listener_domid (Active ch);
          bump_epoch t;
          t.s.channels_established <- t.s.channels_established + 1;
          send_ctrl t ~dst_mac:listener_mac
            (Proto.Channel_ack { connector_domid = domid });
          (* Anything already in the FIFOs must not wait for another
             notification that may never come. *)
          Array.iteri (fun qi _ -> on_event t listener_domid qi ()) queues)

(* ------------------------------------------------------------------ *)
(* Control-plane input *)

(* A complete mapping table, acked as epoch [ack] as soon as it is
   applied: the closes below yield, and a Dom0 scan in between must read
   the epoch the table already holds, not resend it. *)
let on_announce t entries ~ack =
  let domid = my_domid t in
  t.last_announce <- Sim.Engine.now (engine t);
  let others = List.filter (fun e -> e.Proto.entry_domid <> domid) entries in
  Mapping_table.update t.mapping others;
  (* Soft-state replacement invalidates every memoized flow decision. *)
  bump_epoch t;
  write_ack t ack;
  (* Soft state: peers absent from the announcement are gone. *)
  let stale =
    Hashtbl.fold
      (fun id _ acc -> if Mapping_table.mem_domid t.mapping id then acc else id :: acc)
      t.peers []
  in
  List.iter (fun id -> disengage_peer t id ~unsent:Flush) stale

(* Soft-state TTL (paper Sect. 3.5: state refreshed by the periodic
   announcements, never explicitly invalidated).  A guest that has heard
   nothing for [xenloop_softstate_ttl] — Dom0 died, announcements lost, the
   bridge wedged — must not keep steering into channels whose peers may be
   long gone: evict the whole table exactly as an empty announcement
   would. *)
let softstate_expire t =
  if t.loaded then begin
    let ttl = (params t).Params.xenloop_softstate_ttl in
    if
      Sim.Time.span_is_positive ttl
      && Mapping_table.size t.mapping > 0
      && Sim.Time.(Sim.Engine.now (engine t) >= Sim.Time.add t.last_announce ttl)
    then begin
      t.s.softstate_evictions <-
        t.s.softstate_evictions + Mapping_table.size t.mapping;
      (* We just threw the whole table away: under delta announcements our
         acked epoch must go back to zero, or Dom0 would keep treating us
         as up to date and never resend what we dropped. *)
      on_announce t [] ~ack:0
    end
  end

let on_ctrl_packet t (packet : P.t) =
  if t.loaded then begin
    match packet.P.body with
    | P.Xenloop_body data -> (
        match Proto.decode data with
        | Error _ -> ()
        | Ok (Proto.Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves })
          ->
            t.s.delta_announces <- t.s.delta_announces + 1;
            if da_full then begin
              (* Resync: our acked base fell out of Dom0's delta log (or we
                 just advertised) — the joins are the complete list, so this
                 is exactly a classic announcement plus an ack. *)
              on_announce t da_joins ~ack:da_epoch
            end
            else if da_base = t.announce_epoch then begin
              (* In-order delta: even an empty one is the keep-alive
                 heartbeat that refreshes the soft-state TTL. *)
              t.last_announce <- Sim.Engine.now (engine t);
              if da_joins <> [] || da_leaves <> [] then begin
                let domid = my_domid t in
                let joins =
                  List.filter (fun e -> e.Proto.entry_domid <> domid) da_joins
                in
                Mapping_table.apply_delta t.mapping ~joins ~leaves:da_leaves;
                bump_epoch t
              end;
              (* Acked before the closes, which yield (see {!on_announce}). *)
              write_ack t da_epoch;
              (* Soft state under deltas: leaves are the explicit
                 departures, so disengage exactly those (a rejoined guest
                 never appears in the aggregated leaves). *)
              List.iter
                (fun id ->
                  if not (Mapping_table.mem_domid t.mapping id) then
                    disengage_peer t id ~unsent:Flush)
                da_leaves
            end
            else
              (* A delta against a base we do not hold is dropped whole —
                 applying it could strand a guest that joined and left
                 inside the gap.  Dom0 sent it because it read an ack that
                 is not ours: a stale read returns the node's previous
                 value.  Rewriting our real epoch makes the previous value
                 the real one too, so Dom0's next read, stale or not,
                 resends from the right base (or a full resync) instead of
                 heartbeating a base we lack until our TTL expires. *)
              write_ack t t.announce_epoch
        | Ok (Proto.Request_channel { requester_domid; max_queues; rung }) -> (
            match Hashtbl.find_opt t.peers requester_domid with
            | Some (Failed_until _) ->
                (* The peer speaks — it is alive after all; drop the
                   cooldown and serve the request. *)
                Hashtbl.remove t.peers requester_domid;
                if my_domid t < requester_domid then
                  listener_create t ~peer_domid:requester_domid
                    ~peer_mac:packet.P.src_mac ~peer_queues:max_queues
                    ~peer_rung:rung
            | Some _ -> ()
            | None ->
                if my_domid t < requester_domid then
                  listener_create t ~peer_domid:requester_domid
                    ~peer_mac:packet.P.src_mac ~peer_queues:max_queues
                    ~peer_rung:rung)
        | Ok (Proto.Create_channel { listener_domid; queues }) -> (
            match Hashtbl.find_opt t.peers listener_domid with
            | Some (Active ch)
              when ch.role = Connector && Array.for_all queue_live ch.queues ->
                (* Duplicate create (our ack was in flight): re-ack. *)
                send_ctrl t ~dst_mac:packet.P.src_mac
                  (Proto.Channel_ack { connector_domid = my_domid t })
            | Some (Active ch) when ch.role = Connector ->
                (* A fresh Create while our channel to this listener is
                   already poisoned: the listener gave up on the old
                   incarnation (our ack was too late) and is starting over.
                   Disengage the zombie — its pages are going or gone on
                   the listener side — and accept the new offer. *)
                disengage_peer t listener_domid ~unsent:Flush;
                connector_accept t ~listener_domid
                  ~listener_mac:packet.P.src_mac ~queue_grants:queues
            | Some (Active _) -> ()
            | Some (Bootstrapping (Requested_from_listener _))
            | Some (Failed_until _)
            | None ->
                connector_accept t ~listener_domid ~listener_mac:packet.P.src_mac
                  ~queue_grants:queues
            | Some (Bootstrapping (Awaiting_ack _)) ->
                (* Simultaneous creates cannot happen: roles are fixed by
                   domain-id order. *)
                ())
        | Ok (Proto.App_payload { src_ip; src_port; dst_port; payload }) -> (
            match t.app_handler with
            | Some handler -> handler ~src_ip ~src_port ~dst_port payload
            | None -> ())
        | Ok (Proto.Channel_ack { connector_domid }) -> (
            match Hashtbl.find_opt t.peers connector_domid with
            | Some (Bootstrapping (Awaiting_ack ba)) ->
                ba.ba_channel.connected <- true;
                Hashtbl.replace t.peers connector_domid (Active ba.ba_channel);
                bump_epoch t;
                t.s.channels_established <- t.s.channels_established + 1;
                (* The connector may have pushed data before its ack reached
                   us; the matching notification was consumed while we were
                   still awaiting the ack, so drain every queue now. *)
                Array.iteri
                  (fun qi _ -> on_event t connector_domid qi ())
                  ba.ba_channel.queues
            | Some _ | None -> ()))
    | P.Ipv4_body _ | P.Arp_body _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The netfilter hook: the guest-specific software bridge *)

let frame_for_queue t q (packet : P.t) =
  (* The frame stays a packet until it is written into shared memory
     (DESIGN.md §15); {!Packet.wire_length} sizes it without building.
     A jumbo is written into its pool slots with its transport checksum
     elided — the jumbo descriptor carries [flag_csum_ok] and the
     trusted receiver skips verification. *)
  let len = P.wire_length packet in
  let jumbo = jumbo_eligible q packet len in
  if (not jumbo) && len > Fifo.max_packet q.out_fifo then begin
    t.s.too_big_fallback <- t.s.too_big_fallback + 1;
    `Standard_path
  end
  else begin
    q.q_steered <- q.q_steered + 1;
    t.s.steered_packets <- t.s.steered_packets + 1;
    if jumbo then t.s.csum_elided <- t.s.csum_elided + 1;
    `Channel (q, packet)
  end

(* Slow path of the routing decision: mapping-table lookup plus steering
   hash, memoized in the flow cache under the current epoch. *)
let classify_slow t (packet : P.t) key =
  match Mapping_table.lookup t.mapping packet.P.dst_mac with
  | None ->
      (* Not co-resident (as of this epoch's announcements): remember the
         negative result too, so external flows skip the table lookup. *)
      Steering.Flow_table.replace t.flow_cache key
        { ce_epoch = t.epoch; ce_decision = Cache_standard };
      `Standard_path
  | Some peer_domid -> (
      match Hashtbl.find_opt t.peers peer_domid with
      | Some (Active ch) when ch.connected ->
          let qi = Steering.queue_index key ~queues:(Array.length ch.queues) in
          let q = ch.queues.(qi) in
          Steering.Flow_table.replace t.flow_cache key
            { ce_epoch = t.epoch; ce_decision = Cache_queue (ch, q) };
          ch.ch_last_active <- Sim.Engine.now (engine t);
          frame_for_queue t q packet
      | Some (Active _) | Some (Bootstrapping _) ->
          (* Bootstrap in progress: standard path (paper Sect. 3.3).  Not
             cached — the decision flips without an epoch bump the moment
             the channel connects. *)
          `Standard_path
      | Some (Failed_until deadline) ->
          (* Cooldown after retry exhaustion: standard path, no new
             bootstrap until the deadline passes.  Not cached, so the
             first packet after the deadline retries immediately. *)
          if Sim.Time.(Sim.Engine.now (engine t) >= deadline) then begin
            Hashtbl.remove t.peers peer_domid;
            start_bootstrap t ~peer_domid ~peer_mac:packet.P.dst_mac
          end;
          `Standard_path
      | None ->
          start_bootstrap t ~peer_domid ~peer_mac:packet.P.dst_mac;
          `Standard_path)

(* Per-packet routing decision: steal onto one queue of a connected
   channel, or let the packet take the standard netfront path (kicking off
   a bootstrap on first co-resident traffic).  The flow cache memoizes the
   (mapping lookup, steering hash) pair per flow; any event that could
   change a decision bumps the epoch and thereby invalidates the cache
   wholesale. *)
let classify t (packet : P.t) =
  match packet.P.body with
  | P.Arp_body _ | P.Xenloop_body _ -> `Standard_path
  | P.Ipv4_body _ -> (
      let key = Steering.flow_key packet in
      match Steering.Flow_table.find_opt t.flow_cache key with
      | Some { ce_epoch; ce_decision } when ce_epoch = t.epoch -> (
          match ce_decision with
          | Cache_standard ->
              t.s.flow_cache_hits <- t.s.flow_cache_hits + 1;
              `Standard_path
          | Cache_queue (ch, q)
            when ch.connected && Fifo.is_active q.out_fifo ->
              t.s.flow_cache_hits <- t.s.flow_cache_hits + 1;
              (* LRU timestamp: a plain field store of the engine's already
                 boxed clock — no allocation on the fast path. *)
              ch.ch_last_active <- Sim.Engine.now (engine t);
              frame_for_queue t q packet
          | Cache_queue _ ->
              (* The channel died since this was cached (the epoch bump and
                 this packet raced); recompute. *)
              t.s.flow_cache_misses <- t.s.flow_cache_misses + 1;
              Steering.Flow_table.remove t.flow_cache key;
              classify_slow t packet key)
      | Some _ | None ->
          t.s.flow_cache_misses <- t.s.flow_cache_misses + 1;
          classify_slow t packet key)

(* The transmit hook sees whole bursts (all fragments of one datagram);
   consecutive steals steered to the same queue flush as one batch.
   Fragments of one datagram share a 3-tuple flow key, so a fragmented
   datagram is always one batch on one queue. *)
let hook_fn t (packets : P.t list) =
  if not t.loaded then List.map (fun _ -> Netstack.Netfilter.Accept) packets
  else begin
    let decisions = List.map (classify t) packets in
    let flush group =
      match List.rev group with
      | [] -> ()
      | (q, _) :: _ as steals -> send_batch t q steals
    in
    let pending =
      List.fold_left
        (fun pending decision ->
          match (decision, pending) with
          | `Standard_path, pending ->
              flush pending;
              []
          | `Channel ((q, _) as steal), ((q', _) :: _ as pending)
            when q == q' ->
              steal :: pending
          | `Channel steal, pending ->
              flush pending;
              [ steal ])
        [] decisions
    in
    flush pending;
    List.map
      (function
        | `Channel _ -> Netstack.Netfilter.Steal
        | `Standard_path -> Netstack.Netfilter.Accept)
      decisions
  end

(* ------------------------------------------------------------------ *)
(* Transport-level shortcut (paper Sect. 6 future work) *)

let set_app_payload_handler t handler = t.app_handler <- Some handler

let send_app_payload t ~dst_ip ~src_port ~dst_port payload =
  if not t.loaded then false
  else
    match Mapping_table.lookup_by_ip t.mapping dst_ip with
    | None -> false
    | Some entry -> (
        let peer_domid = entry.Proto.entry_domid in
        match Hashtbl.find_opt t.peers peer_domid with
        | Some (Active ch) when ch.connected ->
            ch.ch_last_active <- Sim.Engine.now (engine t);
            (* Shortcut payloads steer like hook traffic: UDP-flavoured
               5-tuple, so distinct port pairs spread across queues. *)
            let key =
              Steering.ip_flow ~proto:17 ~src:(Stack.ip_addr t.stack) ~dst:dst_ip
                ~sport:src_port ~dport:dst_port
            in
            let qi = Steering.queue_index key ~queues:(Array.length ch.queues) in
            let q = ch.queues.(qi) in
            let msg =
              Proto.App_payload
                {
                  src_ip = Stack.ip_addr t.stack;
                  src_port;
                  dst_port;
                  payload;
                }
            in
            let frame =
              Netcore.Packet.xenloop_ctrl ~src_mac:(Stack.mac_addr t.stack)
                ~dst_mac:entry.Proto.entry_mac (Proto.encode msg)
            in
            if P.wire_length frame > Fifo.max_packet q.out_fifo then begin
              t.s.too_big_fallback <- t.s.too_big_fallback + 1;
              false
            end
            else begin
              q.q_steered <- q.q_steered + 1;
              t.s.steered_packets <- t.s.steered_packets + 1;
              send_via_channel t q
                ~key:(match t.qos with None -> one_flow | Some _ -> key)
                frame;
              true
            end
        | Some (Active _) | Some (Bootstrapping _) | Some (Failed_until _) ->
            false
        | None ->
            (* First co-resident traffic: kick off the bootstrap and let the
               caller use the standard path meanwhile. *)
            start_bootstrap t ~peer_domid ~peer_mac:entry.Proto.entry_mac;
            false)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let prepare_migration t =
  unadvertise t;
  teardown_all t ~unsent:Save

let restore_after_migration t =
  advertise t;
  (* Resend packets saved from the backlogs (paper Sect. 3.4); taken
     first, as the egress may yield. *)
  let frames = t.saved_frames in
  t.saved_frames <- [];
  List.iter (transmit_standard t) frames

let unload t =
  if t.loaded then begin
    unadvertise t;
    Stack.set_tx_jumbo_hint t.stack None;
    teardown_all t ~unsent:Flush;
    (match t.hook with
    | Some handle -> Netstack.Netfilter.unregister (Stack.post_routing t.stack) handle
    | None -> ());
    t.hook <- None;
    (match t.expiry_timer with
    | Some timer -> Sim.Engine.cancel timer
    | None -> ());
    t.expiry_timer <- None;
    t.loaded <- false
  end

(* ------------------------------------------------------------------ *)
(* Chaos-harness hooks and invariants *)

(* The guest died abruptly: the module stops reacting, but runs none of the
   teardown choreography — no unadvertisement, no peer notification, no
   resource release.  Peers must learn of the loss through the control
   plane (the guest vanishes from announcements) and reclaim their own half
   of every shared channel; the hypervisor reclaims the rest
   ({!Hypervisor.Machine.crash_domain}). *)
let kill t =
  if t.loaded then begin
    (match t.expiry_timer with
    | Some timer -> Sim.Engine.cancel timer
    | None -> ());
    t.expiry_timer <- None;
    t.loaded <- false
  end

let tx_queue t ~domid ~queue =
  match Hashtbl.find_opt t.peers domid with
  | Some (Active ch) when queue >= 0 && queue < Array.length ch.queues ->
      Some ch.queues.(queue)
  | Some _ | None -> None

let tx_fifo t ~domid ~queue =
  Option.map (fun q -> q.out_fifo) (tx_queue t ~domid ~queue)

let tx_pool t ~domid ~queue =
  Option.bind (tx_queue t ~domid ~queue) (fun q -> q.q_tx_pool)

let set_ctrl_fault_injector t f = t.ctrl_fault <- f
let set_push_fault_injector t f = t.push_fault <- f

let iter_tx_pools t f =
  Hashtbl.iter
    (fun _ state ->
      match state with
      | Active ch | Bootstrapping (Awaiting_ack { ba_channel = ch; _ }) ->
          Array.iter
            (fun q -> match q.q_tx_pool with Some pool -> f pool | None -> ())
            ch.queues
      | Bootstrapping (Requested_from_listener _) | Failed_until _ -> ())
    t.peers

let set_pool_fault_injector t f =
  t.pool_fault <- f;
  (* Existing channels' tx pools pick the injector up immediately; queues
     created later inherit it at construction. *)
  iter_tx_pools t (fun pool -> Payload_pool.set_alloc_fault pool f)

let set_loan_fault_injector t f = t.loan_fault <- f
let set_jumbo_fault_injector t f = t.jumbo_fault <- f

(* ------------------------------------------------------------------ *)
(* QoS observability *)

let set_congestion_fault_injector t f =
  match t.qos with None -> () | Some qs -> qs.qt_congestion_fault <- f

type flow_stat = {
  fs_label : string;
  fs_bytes : int;
  fs_frames : int;
  fs_descs : int;
  fs_overflows : int;
  fs_congestion_raises : int;
  fs_congestion_clears : int;
  fs_congested : bool;
}

let flow_stats t =
  match t.qos with
  | None -> []
  | Some qs ->
      List.map
        (fun f ->
          {
            fs_label = f.Qos.Flow_table.f_label;
            fs_bytes = f.Qos.Flow_table.f_bytes;
            fs_frames = f.Qos.Flow_table.f_frames;
            fs_descs = f.Qos.Flow_table.f_descs;
            fs_overflows = f.Qos.Flow_table.f_overflows;
            fs_congestion_raises = Qos.Watermark.raises f.Qos.Flow_table.f_mark;
            fs_congestion_clears = Qos.Watermark.clears f.Qos.Flow_table.f_mark;
            fs_congested = Qos.Watermark.congested f.Qos.Flow_table.f_mark;
          })
        (Qos.Flow_table.flows qs.qt_flows)

let invariant_violations t =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let check_channel domid ch =
    Array.iter
      (fun q ->
        let where dir = Printf.sprintf "dom%d->dom%d q%d %s" (my_domid t) domid q.q_index dir in
        (match Fifo.sanity q.out_fifo with
        | Some msg -> note "%s fifo: %s" (where "out") msg
        | None -> ());
        (match Fifo.sanity q.in_fifo with
        | Some msg -> note "%s fifo: %s" (where "in") msg
        | None -> ());
        (match Option.map Payload_pool.sanity q.q_tx_pool with
        | Some (Some msg) -> note "%s pool: %s" (where "tx") msg
        | Some None | None -> ());
        (match Option.map Payload_pool.sanity q.q_rx_pool with
        | Some (Some msg) -> note "%s pool: %s" (where "rx") msg
        | Some None | None -> ());
        (match q.q_rx_pool with
        | Some pool ->
            (* The negotiated credit is a hard cap: the receive path must
               degrade to copy-out rather than borrow past it. *)
            let out = Payload_pool.outstanding_loans pool in
            if out > q.q_max_loans then
              note "%s loans over credit: %d > %d" (where "rx") out
                q.q_max_loans
        | None -> ());
        Qos.Drr.fold_flows
          (fun () key ~items ~bytes:_ ->
            if items > Qos.Drr.max_per_flow q.backlog then
              note "%s backlog flow %s over bound: %d > %d" (where "tx")
                (Steering.describe_key key) items
                (Qos.Drr.max_per_flow q.backlog))
          q.backlog ())
      ch.queues
  in
  Hashtbl.fold (fun domid state acc -> (domid, state) :: acc) t.peers []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (domid, state) ->
         match state with
         | Active ch | Bootstrapping (Awaiting_ack { ba_channel = ch; _ }) ->
             check_channel domid ch
         | Bootstrapping (Requested_from_listener _) | Failed_until _ -> ());
  List.rev !violations

(* The answer this module gives the TCP sender through
   {!Stack.set_tx_jumbo_hint}: the largest TCP payload one segment
   towards [dst] may carry — the best negotiated gso ceiling across the
   connected channel's queues, or 0 when there is no gso channel and the
   per-MSS sender stays untouched. *)
let jumbo_hint_for t ~dst =
  if not t.loaded then 0
  else
    match Mapping_table.lookup_by_ip t.mapping dst with
    | None -> 0
    | Some entry -> (
        match Hashtbl.find_opt t.peers entry.Proto.entry_domid with
        | Some (Active ch) when ch.connected ->
            Array.fold_left (fun acc q -> max acc q.q_gso_max) 0 ch.queues
        | Some _ | None -> 0)

let create ~domain ~stack ~current_machine ?(fifo_k = Fifo.default_k) ?max_queues
    () =
  let p = Stack.params stack in
  let mq =
    match max_queues with
    | Some q -> max 1 q
    | None -> max 1 p.Params.xenloop_queues
  in
  let rung = p.Params.xenloop_rung in
  let qos_state =
    if not p.Params.qos_enabled then None
    else
      Some
        {
          qt_flows = Qos.Flow_table.create ~label_of:Steering.describe_key ();
          qt_congestion_fault = None;
        }
  in
  let t =
    {
      domain;
      stack;
      current_machine;
      k = fifo_k;
      max_queues = mq;
      rung;
      notify = rung >= Params.Notify;
      qos = qos_state;
      mapping = Mapping_table.create ();
      peers = Hashtbl.create 8;
      flow_cache = Steering.Flow_table.create 64;
      epoch = 0;
      hook = None;
      saved_frames = [];
      app_handler = None;
      s =
        {
          via_channel_tx = 0;
          via_channel_rx = 0;
          queued_to_waiting = 0;
          waiting_overflows = 0;
          too_big_fallback = 0;
          channels_established = 0;
          channels_torn_down = 0;
          bootstraps_started = 0;
          corrupt_channels = 0;
          notifies_sent = 0;
          notifies_suppressed = 0;
          batches = 0;
          poll_rounds = 0;
          poll_missed_wakes = 0;
          steered_packets = 0;
          flow_cache_hits = 0;
          flow_cache_misses = 0;
          desc_tx = 0;
          inline_tx = 0;
          pool_fallbacks = 0;
          loan_tx = 0;
          loan_rx = 0;
          loan_returns = 0;
          loan_credit_stalls = 0;
          loans_force_returned = 0;
          bootstrap_failures = 0;
          softstate_evictions = 0;
          channels_evicted = 0;
          delta_announces = 0;
          jumbo_tx = 0;
          jumbo_rx = 0;
          jumbo_chunks_tx = 0;
          jumbo_drops = 0;
          csum_elided = 0;
        };
      loaded = true;
      next_token = 0;
      last_announce = Sim.Engine.now (Stack.engine stack);
      announce_epoch = 0;
      expiry_timer = None;
      tx_head = Bytes.create Netcore.Codec.max_header_length;
      ctrl_fault = None;
      push_fault = None;
      pool_fault = None;
      loan_fault = None;
      jumbo_fault = None;
    }
  in
  t.hook <-
    Some (Netstack.Netfilter.register_batch (Stack.post_routing stack) (hook_fn t));
  Stack.set_ctrl_handler stack (on_ctrl_packet t);
  (* A gso-capable module tells its own TCP sender how large a segment
     each destination's channel can swallow; with gso off the hint stays
     unregistered and the sender is bit-for-bit the per-MSS legacy. *)
  if rung >= Params.Gso then
    Stack.set_tx_jumbo_hint stack (Some (fun ~dst -> jumbo_hint_for t ~dst));
  advertise t;
  (let ttl = p.Params.xenloop_softstate_ttl in
   let idle = p.Params.xenloop_channel_idle_ttl in
   let pos = Sim.Time.span_is_positive in
   (* One periodic timer serves both expiries; its period tracks the
      shorter of the two configured horizons. *)
   let basis =
     if pos ttl && pos idle then
       Sim.Time.ns_int64 (Int64.min (Sim.Time.to_ns ttl) (Sim.Time.to_ns idle))
     else if pos ttl then ttl
     else idle
   in
   if pos basis then begin
     (* Check a few times per TTL so eviction lands within ~5/4 TTL of the
        last announcement (or last traffic), not a whole extra TTL late. *)
     let period =
       Sim.Time.span_max (Sim.Time.ms 1)
         (Sim.Time.ns_int64 (Int64.div (Sim.Time.to_ns basis) 4L))
     in
     t.expiry_timer <-
       Some
         (Sim.Engine.every (Stack.engine stack) period (fun () ->
              softstate_expire t;
              idle_evict t))
   end);
  Domain.on_pre_migrate domain (fun () -> if t.loaded then prepare_migration t);
  Domain.on_post_restore domain (fun () -> if t.loaded then restore_after_migration t);
  Domain.on_shutdown domain (fun () -> unload t);
  t
