module T = Netcore.Transport
module P = Netcore.Packet
module View = Netcore.View

type error = Refused | Closed | Already_bound

let pp_error fmt = function
  | Refused -> Format.pp_print_string fmt "connection refused"
  | Closed -> Format.pp_print_string fmt "connection closed"
  | Already_bound -> Format.pp_print_string fmt "port already bound"

exception Tcp_error of error

let ephemeral_base = 32768
let initial_rto = Sim.Time.ms 200
let max_rto_backoff = 16

(* 256 KiB receive buffer with a fixed window scale of 4 (RFC 1323 style:
   the 16-bit wire field carries the window in 4-byte units).  Both sides
   of this stack always apply the scale, as if the option were negotiated
   on every connection. *)
let default_recv_capacity = 262_140
let window_scale = 4

(* --- Serial arithmetic on 32-bit sequence numbers --- *)

let seq_add (s : int32) (n : int) = Int32.add s (Int32.of_int n)
let seq_diff (a : int32) (b : int32) = Int32.to_int (Int32.sub a b)
let seq_lt (a : int32) (b : int32) = Int32.sub a b < 0l

(* --- Types --- *)

type conn_key = { local_port : int; peer_ip : Netcore.Ip.t; peer_port : int }

type conn_state = Syn_sent | Syn_received | Established | Conn_closed

type conn = {
  tcp : t;
  key : conn_key;
  conn_mss : int;
  mutable state : conn_state;
  (* Send side *)
  mutable snd_nxt : int32;
  mutable snd_una : int32;
  mutable peer_window : int;
  window_avail : Sim.Condition.t;
  mutable cork : Bytes.t;
      (** autocork buffer (DESIGN.md §11): sub-MSS writes issued while
          data is in flight accumulate here instead of each becoming a
          tinygram segment — and, on a XenLoop channel, each pinning a
          whole pool slot.  Flushes on reaching the segment ceiling: one
          MSS normally, the jumbo limit when segmentation offload is
          negotiated (DESIGN.md §15) — the buffer is grown on demand so
          the sub-MSS tail of one large write coalesces into the front
          of the next jumbo instead of leaving as a runt segment. *)
  mutable cork_len : int;
  mutable nodelay : bool;
      (** TCP_NODELAY: latency-sensitive pipelined senders (MPI-style
          windowed workloads) opt out of autocorking entirely *)
  mutable congested : bool;
      (** per-flow congestion signal from below (QoS backpressure,
          DESIGN.md §14): while set, the effective send window is
          clamped to one MSS and the flight-drained autocork flush is
          deferred, so the connection trickles instead of refilling the
          channel's sub-queue *)
  (* Receive side *)
  mutable rcv_nxt : int32;
  recv_chunks : (View.t * (copied:bool -> unit) option) Queue.t;
      (** in-order data, each chunk the payload view of one segment; a
          chunk delivered as a borrowed pool-slot view (loaned-slot
          receive, DESIGN.md §11) carries its release, fired when the app
          drains past it *)
  mutable head_offset : int;
  mutable recv_buffered : int;
  recv_capacity : int;
  mutable fin_received : bool;
  mutable fin_sent : bool;
  mutable unacked_segments : int;
      (** received data segments not yet acknowledged (delayed ACK) *)
  mutable ooo_segments : (int32 * View.t) list;
      (** out-of-order data held for reassembly, sorted by sequence *)
  (* Retransmission: the substrate is normally lossless, but frames die
     during vif detach / migration blackout, so sequence-consuming segments
     are kept until acknowledged and retransmitted on timeout.  A data
     segment is a view of the application's write (or of a cork flush),
     so keeping it copies nothing. *)
  retx_queue : (int32 * View.t * Netcore.Transport.tcp_flags) Queue.t;
  mutable rto_armed : bool;
  mutable rto_backoff : int;
  data_arrived : Sim.Condition.t;
  state_changed : Sim.Condition.t;
  mutable sent_bytes : int;
  mutable received_bytes : int;
}

and listener = { l_port : int; accept_q : conn Sim.Mailbox.t; l_tcp : t }

and t = {
  stack : Stack.t;
  conns : (conn_key, conn) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable isn : int32;
}

let mss c = c.conn_mss
let peer c = (c.key.peer_ip, c.key.peer_port)
let local_port c = c.key.local_port
let bytes_sent c = c.sent_bytes
let bytes_received c = c.received_bytes

let params c = Stack.params c.tcp.stack
let cpu c = Stack.cpu c.tcp.stack
let conn_engine c = Stack.engine c.tcp.stack

let current_window c = c.recv_capacity - c.recv_buffered

(* The window the send side actually respects: the peer's advertised
   window, clamped to one MSS while the channel below signals
   congestion (a cwnd clamp in a stack whose loss-free substrate never
   grew a real congestion window). *)
let send_window c = if c.congested then min c.peer_window c.conn_mss else c.peer_window

(* --- Segment transmission --- *)

let seq_consumed (payload : View.t) (flags : T.tcp_flags) =
  payload.len + (if flags.T.syn then 1 else 0) + if flags.T.fin then 1 else 0

let prune_retx c =
  let pruned = ref false in
  let continue_pruning = ref true in
  while !continue_pruning && not (Queue.is_empty c.retx_queue) do
    let seq, payload, flags = Queue.peek c.retx_queue in
    let seg_end = seq_add seq (seq_consumed payload flags) in
    if seq_diff c.snd_una seg_end >= 0 then begin
      ignore (Queue.pop c.retx_queue);
      pruned := true
    end
    else continue_pruning := false
  done;
  if !pruned then c.rto_backoff <- 1

let rec arm_rto c =
  if not c.rto_armed then begin
    c.rto_armed <- true;
    let delay = Sim.Time.span_scale c.rto_backoff initial_rto in
    Sim.Engine.after (conn_engine c) delay (fun () ->
        c.rto_armed <- false;
        if c.state <> Conn_closed then begin
          prune_retx c;
          match Queue.peek_opt c.retx_queue with
          | None -> ()
          | Some (seq, payload, flags) ->
              (* Timeout: resend the oldest unacknowledged segment. *)
              if c.rto_backoff < max_rto_backoff then
                c.rto_backoff <- c.rto_backoff * 2;
              (try send_segment c ~seq ~flags ~payload with
              | Stack.Unreachable _ | Stack.No_route _ -> ());
              arm_rto c
        end)
  end

and send_segment c ~seq ~flags ~payload =
  let header =
    {
      T.tcp_src_port = c.key.local_port;
      tcp_dst_port = c.key.peer_port;
      seq;
      ack_seq = c.rcv_nxt;
      flags;
      window = current_window c / window_scale;
    }
  in
  Stack.ip_send c.tcp.stack ~dst:c.key.peer_ip ~transport:(T.Tcp header) ~payload

(* Transmit a sequence-consuming segment and keep it for retransmission. *)
let send_tracked c ~seq ~flags ~payload =
  Queue.push (seq, payload, flags) c.retx_queue;
  arm_rto c;
  send_segment c ~seq ~flags ~payload

(* Send as much of the cork as the peer window admits.  The cork never
   holds a full MSS, so this is at most one segment; PSH unconditionally —
   corked bytes are always the tail of an application write, and the
   immediate ACK it forces is what re-triggers the flush machinery. *)
let cork_flush_avail c =
  if c.cork_len > 0 && c.state = Established then begin
    let in_flight = seq_diff c.snd_nxt c.snd_una in
    let window_room = send_window c - in_flight in
    if window_room > 0 then begin
      let len = min c.cork_len window_room in
      (* A copy: the cork buffer is reused by the next write. *)
      let payload = View.of_bytes (Bytes.sub c.cork 0 len) in
      if len < c.cork_len then Bytes.blit c.cork len c.cork 0 (c.cork_len - len);
      c.cork_len <- c.cork_len - len;
      (* Advance [snd_nxt] before transmitting: [send_tracked] yields
         inside the CPU charge, and this flush may run in the receive
         fiber (handle_ack) concurrently with the app fiber sitting in
         [send] — both picking up the same pre-update [snd_nxt] would
         emit two different segments at one sequence number. *)
      let seq = c.snd_nxt in
      c.snd_nxt <- seq_add c.snd_nxt len;
      c.sent_bytes <- c.sent_bytes + len;
      send_tracked c ~seq
        ~flags:{ T.no_flags with T.ack = true; psh = true }
        ~payload
    end
  end

let flush_cork_blocking c =
  while c.cork_len > 0 && c.state = Established do
    let in_flight = seq_diff c.snd_nxt c.snd_una in
    if send_window c - in_flight <= 0 then Sim.Condition.await c.window_avail
    else cork_flush_avail c
  done

let set_nodelay c v =
  c.nodelay <- v;
  if v then flush_cork_blocking c

let send_pure_ack c =
  c.unacked_segments <- 0;
  Sim.Resource.use (cpu c) (params c).Hypervisor.Params.tcp_ack;
  send_segment c ~seq:c.snd_nxt
    ~flags:{ T.no_flags with T.ack = true }
    ~payload:View.empty

(* Delayed ACK (no timer needed: the substrate is lossless, and senders
   set PSH on the tail of every write, which forces an immediate ACK). *)
let ack_received_data c ~pushed =
  c.unacked_segments <- c.unacked_segments + 1;
  if pushed || c.unacked_segments >= 2 then send_pure_ack c

let send_rst t ~dst ~dst_port ~src_port ~seq =
  let header =
    {
      T.tcp_src_port = src_port;
      tcp_dst_port = dst_port;
      seq;
      ack_seq = 0l;
      flags = { T.no_flags with T.rst = true; ack = true };
      window = 0;
    }
  in
  Stack.ip_send t.stack ~dst ~transport:(T.Tcp header) ~payload:View.empty

(* --- Receive-side buffering --- *)

let append_data c ?release (payload : View.t) =
  Queue.push (payload, release) c.recv_chunks;
  c.recv_buffered <- c.recv_buffered + payload.len;
  c.received_bytes <- c.received_bytes + payload.len

(* Move the next [len] buffered bytes into [dst] at [dst_off]: the one
   copy from the receive queue to the application's buffer.  [len] must
   not exceed [recv_buffered], which counts exactly the queued bytes past
   [head_offset]. *)
let take_into c dst ~dst_off len =
  let taken = ref 0 in
  while !taken < len do
    let head, head_release = Queue.peek c.recv_chunks in
    let available = head.View.len - c.head_offset in
    let want = len - !taken in
    if available <= want then begin
      View.blit head ~src_off:c.head_offset dst ~dst_off:(dst_off + !taken)
        ~len:available;
      taken := !taken + available;
      ignore (Queue.pop c.recv_chunks);
      (* Chunk fully drained into the app's buffer: the borrow ends —
         the recv copy is the same one the private-buffer path pays. *)
      (match head_release with Some r -> r ~copied:false | None -> ());
      c.head_offset <- 0
    end
    else begin
      View.blit head ~src_off:c.head_offset dst ~dst_off:(dst_off + !taken)
        ~len:want;
      taken := len;
      c.head_offset <- c.head_offset + want
    end
  done;
  c.recv_buffered <- c.recv_buffered - len

(* --- Connection cleanup --- *)

let maybe_reap c =
  if c.fin_sent && c.fin_received then begin
    Hashtbl.remove c.tcp.conns c.key;
    if c.state <> Conn_closed then c.state <- Conn_closed
  end

let abort c =
  c.state <- Conn_closed;
  (* End any borrows parked in the receive buffer; the bytes stay readable
     to a late reader, but the pool slots must not remain pinned. *)
  let kept = Queue.create () in
  Queue.transfer c.recv_chunks kept;
  Queue.iter
    (fun (payload, release) ->
      (match release with Some r -> r ~copied:false | None -> ());
      Queue.push (payload, None) c.recv_chunks)
    kept;
  Hashtbl.remove c.tcp.conns c.key;
  Sim.Condition.broadcast c.window_avail;
  Sim.Condition.broadcast c.data_arrived;
  Sim.Condition.broadcast c.state_changed

(* --- Segment input --- *)

let handle_ack c (h : T.tcp) =
  if h.T.flags.T.ack then begin
    if seq_lt c.snd_una h.T.ack_seq then c.snd_una <- h.T.ack_seq;
    c.peer_window <- h.T.window * window_scale;
    prune_retx c;
    (* Autocork: the flight just drained — a corked tail must not sit
       waiting for application bytes that may never come.  Under a
       congestion signal the flush is deferred: the tail waits for the
       clear edge instead of poking the congested channel. *)
    if c.cork_len > 0 && (not c.congested) && seq_diff c.snd_nxt c.snd_una = 0 then
      cork_flush_avail c;
    Sim.Condition.broadcast c.window_avail
  end

let handle_segment_for_conn c ~release (h : T.tcp) (payload : View.t) =
  let p = params c in
  (* A borrowed payload is consumed out of the pool slot — no kernel copy
     to charge on this edge. *)
  Sim.Resource.use (cpu c)
    (if payload.len = 0 then p.Hypervisor.Params.tcp_ack
     else
       match release with
       | Some _ -> p.Hypervisor.Params.tcp_rx
       | None ->
           Sim.Time.span_add p.Hypervisor.Params.tcp_rx
             (Hypervisor.Params.copy_cost p payload.len));
  let release_pending = ref release in
  let end_borrow ~copied =
    match !release_pending with
    | Some r ->
        release_pending := None;
        r ~copied
    | None -> ()
  in
  if h.T.flags.T.rst then begin
    end_borrow ~copied:false;
    abort c
  end
  else begin
    match c.state with
    | Syn_sent ->
        if h.T.flags.T.syn && h.T.flags.T.ack then begin
          c.rcv_nxt <- seq_add h.T.seq 1;
          handle_ack c h;
          c.state <- Established;
          send_pure_ack c;
          Sim.Condition.broadcast c.state_changed
        end
    | Syn_received ->
        handle_ack c h;
        if h.T.flags.T.ack && seq_diff c.snd_una c.snd_nxt >= 0 then begin
          c.state <- Established;
          Sim.Condition.broadcast c.state_changed;
          (* Deliver to the accept queue now that the handshake is done. *)
          match Hashtbl.find_opt c.tcp.listeners c.key.local_port with
          | Some listener -> Sim.Mailbox.send listener.accept_q c
          | None -> ()
        end
    | Established | Conn_closed ->
        handle_ack c h;
        let seg_len = payload.len in
        if seg_len > 0 then begin
          if Int32.equal h.T.seq c.rcv_nxt then begin
            (* In-order: the borrowed view parks in the receive queue and
               releases when the app drains past it. *)
            let r = !release_pending in
            release_pending := None;
            append_data c ?release:r payload;
            c.rcv_nxt <- seq_add c.rcv_nxt seg_len;
            (* Drain any out-of-order segments that are now contiguous. *)
            let rec drain filled =
              match c.ooo_segments with
              | (seq, data) :: rest when Int32.equal seq c.rcv_nxt ->
                  c.ooo_segments <- rest;
                  append_data c data;
                  c.rcv_nxt <- seq_add c.rcv_nxt data.View.len;
                  drain true
              | (seq, _) :: rest when seq_lt seq c.rcv_nxt ->
                  (* Stale duplicate overtaken by the contiguous stream. *)
                  c.ooo_segments <- rest;
                  drain filled
              | _ -> filled
            in
            let filled = drain false in
            Sim.Condition.broadcast c.data_arrived;
            (* A segment that fills a gap is acknowledged at once
               (RFC 5681 §4.2): the sender is waiting on its RTO for
               exactly this, and the held data behind it is ours. *)
            if filled then send_pure_ack c
            else ack_received_data c ~pushed:h.T.flags.T.psh
          end
          else if seq_lt h.T.seq c.rcv_nxt then
            (* Duplicate: re-ACK so the peer can make progress. *)
            send_pure_ack c
          else begin
            (* Future data: held in reassembly memory until the gap fills —
               a borrowed view cannot stay pinned for that long, so the
               hold counts as the borrow degenerating into a copy. *)
            if not (List.exists (fun (s, _) -> Int32.equal s h.T.seq) c.ooo_segments)
            then begin
              end_borrow ~copied:true;
              c.ooo_segments <-
                List.sort
                  (fun (a, _) (b, _) -> if seq_lt a b then -1 else 1)
                  ((h.T.seq, payload) :: c.ooo_segments)
            end;
            send_pure_ack c
          end
        end;
        if h.T.flags.T.fin && Int32.equal h.T.seq c.rcv_nxt && not c.fin_received
        then begin
          c.fin_received <- true;
          c.rcv_nxt <- seq_add c.rcv_nxt 1;
          Sim.Condition.broadcast c.data_arrived;
          send_pure_ack c;
          maybe_reap c
        end
  end;
  (* Anything that did not park the payload (handshake states, stale
     duplicates, pure ACKs) ends the borrow untouched. *)
  end_borrow ~copied:false

let fresh_isn t =
  t.isn <- Int32.add t.isn 64021l;
  t.isn

let make_conn t ~key ~mss ~state ~isn =
  {
    tcp = t;
    key;
    conn_mss = mss;
    state;
    snd_nxt = isn;
    snd_una = isn;
    peer_window = default_recv_capacity;
    window_avail = Sim.Condition.create ();
    cork = Bytes.create (max 1 mss);
    cork_len = 0;
    nodelay = false;
    congested = false;
    rcv_nxt = 0l;
    recv_chunks = Queue.create ();
    head_offset = 0;
    recv_buffered = 0;
    recv_capacity = default_recv_capacity;
    fin_received = false;
    fin_sent = false;
    unacked_segments = 0;
    ooo_segments = [];
    retx_queue = Queue.create ();
    rto_armed = false;
    rto_backoff = 1;
    data_arrived = Sim.Condition.create ();
    state_changed = Sim.Condition.create ();
    sent_bytes = 0;
    received_bytes = 0;
  }

let handle_syn t (header : Netcore.Ipv4.header) (h : T.tcp) =
  match Hashtbl.find_opt t.listeners h.T.tcp_dst_port with
  | None ->
      send_rst t ~dst:header.Netcore.Ipv4.src ~dst_port:h.T.tcp_src_port
        ~src_port:h.T.tcp_dst_port ~seq:0l
  | Some _listener ->
      let key =
        {
          local_port = h.T.tcp_dst_port;
          peer_ip = header.Netcore.Ipv4.src;
          peer_port = h.T.tcp_src_port;
        }
      in
      let mss = Stack.tcp_mss t.stack header.Netcore.Ipv4.src in
      let isn = fresh_isn t in
      let c = make_conn t ~key ~mss ~state:Syn_received ~isn in
      c.rcv_nxt <- seq_add h.T.seq 1;
      c.peer_window <- h.T.window * window_scale;
      Hashtbl.replace t.conns key c;
      (* SYN-ACK consumes one sequence number. *)
      send_tracked c ~seq:c.snd_nxt
        ~flags:{ T.no_flags with T.syn = true; ack = true }
        ~payload:View.empty;
      c.snd_nxt <- seq_add c.snd_nxt 1

let handle_packet t (packet : P.t) =
  match packet.P.body with
  | P.Ipv4_body { header; content = P.Full { transport = T.Tcp h; payload } } -> (
      let key =
        {
          local_port = h.T.tcp_dst_port;
          peer_ip = header.Netcore.Ipv4.src;
          peer_port = h.T.tcp_src_port;
        }
      in
      let release = Stack.take_rx_release t.stack in
      match Hashtbl.find_opt t.conns key with
      | Some conn -> handle_segment_for_conn conn ~release h payload
      | None ->
          (match release with Some r -> r ~copied:false | None -> ());
          if h.T.flags.T.syn && not h.T.flags.T.ack then handle_syn t header h
          else if not h.T.flags.T.rst then
            send_rst t ~dst:header.Netcore.Ipv4.src ~dst_port:h.T.tcp_src_port
              ~src_port:h.T.tcp_dst_port ~seq:h.T.ack_seq)
  | _ -> ()

let attach stack =
  let t =
    {
      stack;
      conns = Hashtbl.create 16;
      listeners = Hashtbl.create 4;
      next_ephemeral = ephemeral_base;
      isn = 1013904223l;
    }
  in
  Stack.set_protocol_handler stack Netcore.Ipv4.Tcp (handle_packet t);
  (* QoS backpressure (DESIGN.md §14): a channel watermark edge on one
     of our flows toggles the cwnd clamp.  The clear edge may arrive in
     XenLoop's own send/drain context, so the catch-up cork flush is
     deferred to a fresh fiber rather than re-entering the netfilter
     hook from inside it; blocked senders are woken immediately. *)
  Stack.set_congestion_handler stack ~proto:6 (fun ~sport ~dst ~dport ~congested ->
      let apply c =
        if c.congested <> congested then begin
          c.congested <- congested;
          if not congested then begin
            Sim.Condition.broadcast c.window_avail;
            if c.cork_len > 0 && seq_diff c.snd_nxt c.snd_una = 0 then
              Sim.Engine.spawn (Stack.engine stack) (fun () -> cork_flush_avail c)
          end
        end
      in
      Hashtbl.iter
        (fun key c ->
          if
            Netcore.Ip.equal key.peer_ip dst
            && (sport = 0 || key.local_port = sport)
            && (dport = 0 || key.peer_port = dport)
          then apply c)
        t.conns);
  t

(* --- Blocking API --- *)

let listen t ~port =
  if Hashtbl.mem t.listeners port then Error Already_bound
  else begin
    let listener = { l_port = port; accept_q = Sim.Mailbox.create (); l_tcp = t } in
    Hashtbl.replace t.listeners port listener;
    Ok listener
  end

let accept listener =
  let t = listener.l_tcp in
  Sim.Resource.use (Stack.cpu t.stack) (Stack.params t.stack).Hypervisor.Params.syscall;
  Sim.Mailbox.recv listener.accept_q

let accept_opt listener = Sim.Mailbox.recv_opt listener.accept_q

let alloc_ephemeral t =
  (* Ports are plentiful in the simulation: scan forward from the cursor. *)
  let rec scan port =
    let in_use =
      Hashtbl.fold (fun k _ acc -> acc || k.local_port = port) t.conns false
    in
    if in_use then scan (port + 1) else port
  in
  let port = scan t.next_ephemeral in
  t.next_ephemeral <- port + 1;
  port

let connect t ?src_port ~dst ~dst_port () =
  let stack = t.stack in
  Sim.Resource.use (Stack.cpu stack) (Stack.params stack).Hypervisor.Params.syscall;
  let local_port =
    match src_port with Some p -> p | None -> alloc_ephemeral t
  in
  let key = { local_port; peer_ip = dst; peer_port = dst_port } in
  let mss = Stack.tcp_mss stack dst in
  let isn = fresh_isn t in
  let c = make_conn t ~key ~mss ~state:Syn_sent ~isn in
  Hashtbl.replace t.conns key c;
  send_tracked c ~seq:c.snd_nxt
    ~flags:{ T.no_flags with T.syn = true }
    ~payload:View.empty;
  c.snd_nxt <- seq_add c.snd_nxt 1;
  while c.state = Syn_sent do
    Sim.Condition.await c.state_changed
  done;
  if c.state = Established then Ok c else Error Refused

(* Segments are views of [data], kept for retransmission until
   acknowledged: the caller must leave [data] unchanged. *)
let send c data =
  let p = params c in
  Sim.Resource.use (cpu c) p.Hypervisor.Params.syscall;
  let whole = View.of_bytes data in
  let total = Bytes.length data in
  let off = ref 0 in
  (* Jumbo segmentation offload (DESIGN.md §15): when the stack's hint
     says this peer is reachable over a gso-capable xenloop channel, one
     segment may carry up to the negotiated ceiling instead of one MSS.
     The hint is 0 everywhere else, so the per-MSS sender below is
     bit-for-bit untouched.  The payload of one segment is additionally
     capped so the IPv4 total length (payload + 40 bytes of IP/TCP
     headers) still fits the datagram's 16-bit length field — a 64 KiB
     ceiling would otherwise wrap it. *)
  let seg_limit =
    max c.conn_mss
      (min
         (Stack.tx_jumbo_hint c.tcp.stack ~dst:c.key.peer_ip)
         (65535 - Netcore.Ipv4.header_length - 20))
  in
  if Bytes.length c.cork < seg_limit then begin
    let grown = Bytes.create seg_limit in
    Bytes.blit c.cork 0 grown 0 c.cork_len;
    c.cork <- grown
  end;
  while !off < total do
    if c.state <> Established then raise (Tcp_error Closed);
    if c.cork_len > 0 then begin
      (* Top up the cork first so bytes leave in order; a full cork
         flushes as one ceiling-sized segment.  [seg_limit] may have
         shrunk below the corked length (channel torn down mid-stream):
         top up nothing and flush — the standard-path resegmenter cuts
         the oversized flush back to wire MSS. *)
      let n = max 0 (min (seg_limit - c.cork_len) (total - !off)) in
      Bytes.blit data !off c.cork c.cork_len n;
      c.cork_len <- c.cork_len + n;
      off := !off + n;
      if c.cork_len >= seg_limit then flush_cork_blocking c
    end
    else begin
      let in_flight = seq_diff c.snd_nxt c.snd_una in
      let window_room = send_window c - in_flight in
      let remaining = total - !off in
      if (not c.nodelay) && total * 2 <= c.conn_mss && in_flight > 0 then begin
        (* Autocork (Nagle): a whole small write (at most half an MSS, so
           near-MSS streaming writes stay on the direct path) with data
           still unacked waits for more bytes or the flight to drain
           instead of becoming a tinygram segment — on a XenLoop loan
           channel every such segment would otherwise pin a whole pool
           slot.  Only whole small writes cork: the sub-MSS tail of a
           larger write still goes out directly with PSH, because its
           mid-write siblings carry no PSH and a delayed-ACK receiver
           would otherwise sit on the ACK the corked tail is waiting
           for. *)
        Bytes.blit data !off c.cork 0 remaining;
        c.cork_len <- remaining;
        off := total
      end
      else if
        (not c.nodelay) && seg_limit > c.conn_mss && remaining < c.conn_mss
        && in_flight > 0
      then begin
        (* Jumbo tail coalescing: the IPv4 length field caps one jumbo
           at 65495 B of payload, so a 64 KiB application write leaves a
           runt behind the jumbo it just emitted.  Corking the runt lets
           it ride the front of the next write's jumbo — a back-to-back
           stream emits exactly one descriptor per write — while the
           flight-drained autocork flush bounds its latency when the
           stream goes quiet.  Guarded on [seg_limit > conn_mss], so the
           per-MSS path never takes it. *)
        Bytes.blit data !off c.cork 0 remaining;
        c.cork_len <- remaining;
        off := total
      end
      else if window_room <= 0 then Sim.Condition.await c.window_avail
      else begin
        let len = min (min seg_limit remaining) window_room in
        let last = !off + len >= total in
        let payload = View.sub whole ~off:!off ~len in
        (* Same pre-update discipline as [cork_flush_avail]: an ACK
           arriving while [send_tracked] yields can flush the cork from
           the receive fiber, which must see this segment's sequence
           space as already consumed. *)
        let seq = c.snd_nxt in
        c.snd_nxt <- seq_add c.snd_nxt len;
        c.sent_bytes <- c.sent_bytes + len;
        off := !off + len;
        send_tracked c ~seq
          ~flags:{ T.no_flags with T.ack = true; psh = last }
          ~payload
      end
    end
  done

(* The receive syscall up to its copy: charge it and block until data or
   the end of the stream. *)
let await_data c =
  let p = params c in
  Sim.Resource.use (cpu c) p.Hypervisor.Params.syscall;
  let blocked = ref false in
  while c.recv_buffered = 0 && not c.fin_received && c.state <> Conn_closed do
    blocked := true;
    Sim.Condition.await c.data_arrived
  done;
  if !blocked then Sim.Resource.use (cpu c) p.Hypervisor.Params.app_wakeup

(* A window-update ACK follows a drain that reopened a nearly-closed
   window. *)
let ack_if_reopened c ~window_before =
  if window_before < c.conn_mss && current_window c >= c.conn_mss then
    send_pure_ack c

(* Copy the next [n] buffered bytes into [dst] at [off]. *)
let drain_into c dst ~off n =
  let window_before = current_window c in
  take_into c dst ~dst_off:off n;
  ack_if_reopened c ~window_before

(* A read that takes exactly the whole head chunk, when that chunk is the
   entire buffer a receive path parsed it into ([View.is_owned]), hands
   the buffer over instead of copying it, as [Udp.recvfrom] hands over
   its datagram: the same release, debit and window-update ACK as
   [drain_into].  Any other chunk is copied: a slice (of a reassembled
   blob) or a buffer that arrived by reference, which the sender may
   still hold for retransmission. *)
let recv c ~max =
  await_data c;
  if c.recv_buffered = 0 then Bytes.empty
  else begin
    let n = Int.max 0 (min max c.recv_buffered) in
    let head, head_release = Queue.peek c.recv_chunks in
    if c.head_offset = 0 && head.View.len = n && View.is_owned head then begin
      let window_before = current_window c in
      ignore (Queue.pop c.recv_chunks);
      (match head_release with Some r -> r ~copied:false | None -> ());
      c.recv_buffered <- c.recv_buffered - n;
      ack_if_reopened c ~window_before;
      head.View.buf
    end
    else begin
      let data = Bytes.create n in
      drain_into c data ~off:0 n;
      data
    end
  end

let recv_exact c n =
  let data = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    await_data c;
    if c.recv_buffered = 0 then raise (Tcp_error Closed);
    let k = min (n - !got) c.recv_buffered in
    drain_into c data ~off:!got k;
    got := !got + k
  done;
  data

let close c =
  if not c.fin_sent && c.state <> Conn_closed then begin
    c.fin_sent <- true;
    (* A corked tail goes out before the FIN so the stream ends complete
       and in order. *)
    flush_cork_blocking c;
    (* Wait for all data to be acknowledged before FIN, so the FIN carries
       the right sequence number and the peer sees an ordered stream end. *)
    while (c.state = Established && seq_diff c.snd_nxt c.snd_una > 0)
          || (c.state = Established && c.cork_len > 0)
    do
      flush_cork_blocking c;
      Sim.Condition.await c.window_avail
    done;
    if c.state <> Conn_closed then begin
      send_tracked c ~seq:c.snd_nxt
        ~flags:{ T.no_flags with T.fin = true; ack = true }
        ~payload:View.empty;
      c.snd_nxt <- seq_add c.snd_nxt 1;
      maybe_reap c
    end
  end
