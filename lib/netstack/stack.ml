module P = Netcore.Packet
module T = Netcore.Transport

exception Unreachable of Netcore.Ip.t
exception No_route of Netcore.Ip.t

type stats = {
  mutable tx_datagrams : int;
  mutable rx_datagrams : int;
  mutable stolen_by_hook : int;
  mutable dropped_not_mine : int;
  mutable echo_requests_served : int;
  mutable sw_segmented : int;
      (** jumbo TCP frames software-segmented back to wire MSS because a
          netfilter hook declined them (DESIGN.md §15 fallback) *)
}

type t = {
  s_engine : Sim.Engine.t;
  s_params : Hypervisor.Params.t;
  s_cpu : Sim.Resource.t;
  s_ip : Netcore.Ip.t;
  s_mac : Netcore.Mac.t;
  mutable eth : Netdevice.t option;
  lo : Netdevice.t;
  s_neighbor : Neighbor.t;
  s_post_routing : Netfilter.t;
  reassembler : Netcore.Fragment.reassembler;
  mutable next_ident : int;
  mutable next_icmp_ident : int;
  mutable udp_handler : (P.t -> unit) option;
  mutable tcp_handler : (P.t -> unit) option;
  mutable ctrl_handler : (P.t -> unit) option;
  (* Loaned-slot receive (DESIGN.md §11): set for the duration of one
     [inject_rx_borrowed] delivery; the transport layer that decides to
     keep the payload claims it with [take_rx_release]. *)
  mutable pending_release : (copied:bool -> unit) option;
  (* Segmentation offload (DESIGN.md §15): the xenloop module answers
     "how many TCP payload bytes may one segment to [dst] carry?"; 0
     means no jumbo path and the per-MSS sender is untouched. *)
  mutable jumbo_hint : (dst:Netcore.Ip.t -> int) option;
  (* Per-flow congestion signals from below (QoS backpressure,
     DESIGN.md §14): transport layers register by protocol number so a
     channel watermark edge can reach the owning socket. *)
  congestion_handlers :
    (int, sport:int -> dst:Netcore.Ip.t -> dport:int -> congested:bool -> unit)
    Hashtbl.t;
  ping_waiters : (int, unit -> unit) Hashtbl.t;
  s_stats : stats;
}

let engine t = t.s_engine
let params t = t.s_params
let cpu t = t.s_cpu
let ip_addr t = t.s_ip
let mac_addr t = t.s_mac
let device t = t.eth
let loopback_device t = t.lo
let neighbor t = t.s_neighbor
let post_routing t = t.s_post_routing
let stats t = t.s_stats

let fresh_ident t =
  let i = t.next_ident in
  t.next_ident <- (i + 1) land 0xFFFF;
  i

let use_cpu t span = Sim.Resource.use t.s_cpu span

let set_tx_jumbo_hint t f = t.jumbo_hint <- f

let tx_jumbo_hint t ~dst =
  match t.jumbo_hint with None -> 0 | Some f -> Int.max 0 (f ~dst)

(* ------------------------------------------------------------------ *)
(* Input path *)

let is_for_us t (packet : P.t) =
  Netcore.Mac.equal packet.P.dst_mac t.s_mac
  || Netcore.Mac.is_broadcast packet.P.dst_mac

let handle_arp t (msg : Netcore.Arp.t) =
  use_cpu t t.s_params.Hypervisor.Params.arp_proc;
  (* Every ARP message teaches us the sender's address. *)
  Neighbor.resolved t.s_neighbor msg.Netcore.Arp.sender_ip msg.Netcore.Arp.sender_mac;
  match msg.Netcore.Arp.op with
  | Netcore.Arp.Request when Netcore.Ip.equal msg.Netcore.Arp.target_ip t.s_ip -> (
      match t.eth with
      | None -> ()
      | Some dev ->
          let reply =
            Netcore.Arp.reply ~sender_mac:t.s_mac ~sender_ip:t.s_ip
              ~target_mac:msg.Netcore.Arp.sender_mac
              ~target_ip:msg.Netcore.Arp.sender_ip
          in
          Netdevice.transmit dev
            (P.arp ~src_mac:t.s_mac ~dst_mac:msg.Netcore.Arp.sender_mac reply))
  | Netcore.Arp.Request | Netcore.Arp.Reply -> ()

(* The largest TCP payload one frame may carry on this device's wire
   path (its TSO budget, or the plain MTU), i.e. the MSS the sender
   would have used without a jumbo hint. *)
let wire_seg_max dev =
  (match Netdevice.gso_size dev with
  | Some gso -> Int.max (Netdevice.mtu dev) gso
  | None -> Netdevice.mtu dev)
  - 40

(* Software GSO fallback (DESIGN.md §15): a jumbo TCP frame the xenloop
   hook declined — the channel died between the send decision and the
   hook or before a retransmission, or steering diverted the flow — must
   not reach netfront or the physical wire oversized.  Re-segment it
   into exactly the wire-MSS frames the sender would have emitted
   without the hint: sequence numbers advance per chunk, PSH/FIN ride
   only on the last chunk, each chunk gets its own IP ident, and its
   payload is a view of the jumbo's, not a copy.  Checksums need no special care here: elision exists only
   in the FIFO's serialized bytes, and every device-boundary
   serialization recomputes them from scratch. *)
let resegment_tcp t ~mss frame =
  match frame.P.body with
  | P.Ipv4_body { header; content = P.Full { transport = T.Tcp tcp; payload } }
    ->
      let total = payload.Netcore.View.len in
      let mss = Int.max 1 mss in
      t.s_stats.sw_segmented <- t.s_stats.sw_segmented + 1;
      let rec chunks off acc =
        if off >= total then List.rev acc
        else begin
          let len = Int.min mss (total - off) in
          let last = off + len >= total in
          let transport =
            T.Tcp
              {
                tcp with
                T.seq = Int32.add tcp.T.seq (Int32.of_int off);
                flags =
                  {
                    tcp.T.flags with
                    T.psh = tcp.T.flags.T.psh && last;
                    fin = tcp.T.flags.T.fin && last;
                  };
              }
          in
          let seg =
            {
              frame with
              P.body =
                P.Ipv4_body
                  {
                    header = { header with Netcore.Ipv4.ident = fresh_ident t };
                    content =
                      P.Full
                        { transport; payload = Netcore.View.sub payload ~off ~len };
                  };
            }
          in
          chunks (off + len) (seg :: acc)
        end
      in
      chunks 0 []
  | _ -> [ frame ]

let transmit_fragments t dev frags =
  let p = t.s_params in
  let hook_cost =
    Sim.Time.span_scale
      (Int.max 1 (Netfilter.hook_count t.s_post_routing))
      p.Hypervisor.Params.netfilter_hook
  in
  (* The whole burst (all fragments of one datagram, or one TSO frame)
     traverses the hooks together so batch-aware hooks — XenLoop's FIFO
     path — can coalesce their work and notifications; the per-fragment
     hook cost is unchanged. *)
  use_cpu t (Sim.Time.span_scale (List.length frags) hook_cost);
  let verdicts = Netfilter.run_batch t.s_post_routing frags in
  let wire_max = wire_seg_max dev in
  List.iter2
    (fun frag verdict ->
      match verdict with
      | Netfilter.Steal -> t.s_stats.stolen_by_hook <- t.s_stats.stolen_by_hook + 1
      | Netfilter.Accept -> (
          match frag.P.body with
          | P.Ipv4_body
              { content = P.Full { transport = T.Tcp _; payload }; _ }
            when payload.Netcore.View.len > wire_max ->
              (* Extra per-segment tx work the jumbo send skipped. *)
              let n = (payload.Netcore.View.len + wire_max - 1) / wire_max in
              use_cpu t
                (Sim.Time.span_scale (n - 1) p.Hypervisor.Params.tcp_tx);
              List.iter (Netdevice.transmit dev)
                (resegment_tcp t ~mss:wire_max frag)
          | _ -> Netdevice.transmit dev frag))
    frags verdicts

let send_ip_packet t ~dst ~dst_mac ~dev ~transport ~payload =
  let p = t.s_params in
  let tx_cost =
    match transport with
    | T.Icmp _ -> p.Hypervisor.Params.icmp_proc
    | T.Udp _ -> p.Hypervisor.Params.udp_tx
    | T.Tcp _ -> p.Hypervisor.Params.tcp_tx
  in
  use_cpu t
    (Sim.Time.span_add tx_cost (Hypervisor.Params.copy_cost p payload.Netcore.View.len));
  let header =
    Netcore.Ipv4.make ~src:t.s_ip ~dst ~protocol:(T.protocol transport)
      ~ident:(fresh_ident t) ()
  in
  let packet =
    {
      P.src_mac = Netdevice.mac dev;
      dst_mac;
      body = P.Ipv4_body { header; content = P.Full { transport; payload } };
    }
  in
  t.s_stats.tx_datagrams <- t.s_stats.tx_datagrams + 1;
  (* TSO: TCP super-frames bypass IP fragmentation — the device (or its
     backend) segments them where the real wire needs it.  A frame wider
     than the device's budget — a jumbo for a gso xenloop channel
     (DESIGN.md §15), or one resent after that channel is gone — reaches
     the hooks whole; if they decline it, [transmit_fragments]
     software-segments it back to wire MSS. *)
  let frags =
    match (transport, Netdevice.gso_size dev) with
    | T.Tcp _, Some _ -> [ packet ]
    | (T.Tcp _ | T.Udp _ | T.Icmp _), _ ->
        Netcore.Fragment.fragment ~mtu:(Netdevice.mtu dev) packet
  in
  transmit_fragments t dev frags

(* ------------------------------------------------------------------ *)
(* ARP resolution *)

let send_arp_request t dev ~dst =
  use_cpu t t.s_params.Hypervisor.Params.arp_proc;
  let req = Netcore.Arp.request ~sender_mac:t.s_mac ~sender_ip:t.s_ip ~target_ip:dst in
  Netdevice.transmit dev (P.arp ~src_mac:t.s_mac ~dst_mac:Netcore.Mac.broadcast req)

let resolve t dst =
  match Neighbor.lookup t.s_neighbor dst with
  | Some mac -> mac
  | None -> (
      let dev = match t.eth with Some d -> d | None -> raise (No_route dst) in
      let result = ref None in
      let attempts = ref 3 in
      while !result = None && !attempts > 0 do
        decr attempts;
        send_arp_request t dev ~dst;
        Sim.Engine.suspend ~register:(fun resume ->
            let fired = ref false in
            let fire () =
              if not !fired then begin
                fired := true;
                resume ()
              end
            in
            Neighbor.add_waiter t.s_neighbor dst (fun mac ->
                result := Some mac;
                fire ());
            Sim.Engine.after t.s_engine (Sim.Time.sec 1) fire)
      done;
      match !result with Some mac -> mac | None -> raise (Unreachable dst))

(* ------------------------------------------------------------------ *)
(* Output path *)

let egress_device t dst =
  if Netcore.Ip.equal dst t.s_ip || Netcore.Ip.equal dst Netcore.Ip.localhost then t.lo
  else match t.eth with Some dev -> dev | None -> raise (No_route dst)

let tcp_mss t dst =
  let dev = egress_device t dst in
  let limit =
    match Netdevice.gso_size dev with
    | Some gso -> Int.max (Netdevice.mtu dev) gso
    | None -> Netdevice.mtu dev
  in
  limit - 40

let ip_send t ~dst ~transport ~payload =
  if Netcore.Ip.equal dst t.s_ip || Netcore.Ip.equal dst Netcore.Ip.localhost then
    (* Loopback: destination is ourselves. *)
    send_ip_packet t ~dst:t.s_ip ~dst_mac:t.s_mac ~dev:t.lo ~transport ~payload
  else begin
    let dev = match t.eth with Some d -> d | None -> raise (No_route dst) in
    let dst_mac = resolve t dst in
    send_ip_packet t ~dst ~dst_mac ~dev ~transport ~payload
  end

let gratuitous_arp t =
  match t.eth with
  | None -> ()
  | Some dev ->
      use_cpu t t.s_params.Hypervisor.Params.arp_proc;
      let msg =
        Netcore.Arp.reply ~sender_mac:t.s_mac ~sender_ip:t.s_ip
          ~target_mac:Netcore.Mac.broadcast ~target_ip:t.s_ip
      in
      Netdevice.transmit dev (P.arp ~src_mac:t.s_mac ~dst_mac:Netcore.Mac.broadcast msg)

let send_ctrl t ~dst_mac data =
  match t.eth with
  | None -> ()
  | Some dev ->
      use_cpu t t.s_params.Hypervisor.Params.arp_proc;
      Netdevice.transmit dev (P.xenloop_ctrl ~src_mac:t.s_mac ~dst_mac data)

(* ------------------------------------------------------------------ *)
(* ICMP *)

let handle_icmp t (packet : P.t) header (icmp : T.icmp) payload =
  let p = t.s_params in
  use_cpu t p.Hypervisor.Params.icmp_proc;
  match icmp.T.echo_kind with
  | `Request ->
      t.s_stats.echo_requests_served <- t.s_stats.echo_requests_served + 1;
      let reply = T.Icmp { icmp with T.echo_kind = `Reply } in
      let dst = header.Netcore.Ipv4.src in
      if Netcore.Ip.equal dst t.s_ip then
        send_ip_packet t ~dst ~dst_mac:t.s_mac ~dev:t.lo ~transport:reply ~payload
      else begin
        (* Reply along the reverse path; the request's source MAC is the
           next hop we learned it from. *)
        match t.eth with
        | None -> ()
        | Some dev ->
            send_ip_packet t ~dst ~dst_mac:packet.P.src_mac ~dev ~transport:reply
              ~payload
      end
  | `Reply -> (
      match Hashtbl.find_opt t.ping_waiters icmp.T.icmp_ident with
      | None -> ()
      | Some wake -> wake ())

(* ------------------------------------------------------------------ *)
(* Frame input *)

let handle_full_ipv4 t (packet : P.t) =
  match packet.P.body with
  | P.Ipv4_body { header; content = P.Full { transport; payload } } -> (
      t.s_stats.rx_datagrams <- t.s_stats.rx_datagrams + 1;
      match transport with
      | T.Icmp icmp -> handle_icmp t packet header icmp payload
      | T.Udp _ -> (
          match t.udp_handler with Some h -> h packet | None -> ())
      | T.Tcp _ -> (
          match t.tcp_handler with Some h -> h packet | None -> ()))
  | _ -> ()

let take_rx_release t =
  match t.pending_release with
  | None -> None
  | some ->
      t.pending_release <- None;
      some

let inject_rx t (packet : P.t) =
  if not (is_for_us t packet) then
    t.s_stats.dropped_not_mine <- t.s_stats.dropped_not_mine + 1
  else
    match packet.P.body with
    | P.Arp_body msg -> handle_arp t msg
    | P.Xenloop_body _ -> (
        match t.ctrl_handler with Some h -> h packet | None -> ())
    | P.Ipv4_body { header; _ } -> (
        use_cpu t t.s_params.Hypervisor.Params.ip_rx;
        if not (Netcore.Ip.equal header.Netcore.Ipv4.dst t.s_ip) then
          t.s_stats.dropped_not_mine <- t.s_stats.dropped_not_mine + 1
        else
          match Netcore.Fragment.push t.reassembler packet with
          | Ok (Some whole) ->
              (* A merged datagram lives in reassembly memory, not in the
                 borrowed frame — the borrow ends here as a copy.  When the
                 frame passed through whole ([whole == packet]) the borrow
                 stays pending for the transport layer to claim. *)
              if whole != packet then begin
                match take_rx_release t with
                | Some r -> r ~copied:true
                | None -> ()
              end;
              handle_full_ipv4 t whole
          | Ok None -> (
              (* Fragment parked inside the reassembler: its bytes outlive
                 this delivery, so a borrowed frame counts as copied. *)
              match take_rx_release t with
              | Some r -> r ~copied:true
              | None -> ())
          | Error _ -> t.s_stats.dropped_not_mine <- t.s_stats.dropped_not_mine + 1)

let inject_rx_borrowed t (packet : P.t) ~release =
  t.pending_release <- Some release;
  inject_rx t packet;
  (* Nobody kept the payload (dropped, no handler, ARP/ctrl frame): the
     slot goes straight back, no copy was made. *)
  match take_rx_release t with Some r -> r ~copied:false | None -> ()

(* ------------------------------------------------------------------ *)

let set_protocol_handler t protocol handler =
  match protocol with
  | Netcore.Ipv4.Udp -> t.udp_handler <- Some handler
  | Netcore.Ipv4.Tcp -> t.tcp_handler <- Some handler
  | Netcore.Ipv4.Icmp ->
      invalid_arg "Stack.set_protocol_handler: ICMP is handled internally"

let set_ctrl_handler t handler = t.ctrl_handler <- Some handler

let set_congestion_handler t ~proto handler =
  Hashtbl.replace t.congestion_handlers proto handler

let notify_congestion t ~proto ~sport ~dst ~dport ~congested =
  match Hashtbl.find_opt t.congestion_handlers proto with
  | Some h -> h ~sport ~dst ~dport ~congested
  | None -> ()

let attach_device t dev =
  t.eth <- Some dev;
  Netdevice.set_receive_handler dev (fun packet -> inject_rx t packet)

let ping t ~dst ?(payload_len = 56) ?(timeout = Sim.Time.sec 1) () =
  let p = t.s_params in
  use_cpu t p.Hypervisor.Params.syscall;
  let ident = t.next_icmp_ident in
  t.next_icmp_ident <- (ident + 1) land 0xFFFF;
  let done_cond = Sim.Condition.create () in
  let replied = ref false in
  let timed_out = ref false in
  (* Register the waiter before sending: the reply can arrive while the
     send path is still being charged to the CPU. *)
  Hashtbl.replace t.ping_waiters ident (fun () ->
      replied := true;
      Sim.Condition.broadcast done_cond);
  let sent_at = Sim.Engine.now t.s_engine in
  let transport = T.Icmp { T.echo_kind = `Request; icmp_ident = ident; icmp_seq = 0 } in
  ip_send t ~dst ~transport ~payload:(Netcore.View.of_bytes (Bytes.make payload_len 'p'));
  Sim.Engine.after t.s_engine timeout (fun () ->
      timed_out := true;
      Sim.Condition.broadcast done_cond);
  while (not !replied) && not !timed_out do
    Sim.Condition.await done_cond
  done;
  Hashtbl.remove t.ping_waiters ident;
  if !replied then Some (Sim.Time.diff (Sim.Engine.now t.s_engine) sent_at) else None

let create ~engine ~params ~cpu ~ip ~mac () =
  let lo =
    Netdevice.create ~name:"lo" ~mtu:params.Hypervisor.Params.loopback_mtu ~mac ()
  in
  let t =
    {
      s_engine = engine;
      s_params = params;
      s_cpu = cpu;
      s_ip = ip;
      s_mac = mac;
      eth = None;
      lo;
      s_neighbor = Neighbor.create ();
      s_post_routing = Netfilter.create ();
      reassembler = Netcore.Fragment.create_reassembler ();
      next_ident = 1;
      next_icmp_ident = 1;
      udp_handler = None;
      tcp_handler = None;
      ctrl_handler = None;
      pending_release = None;
      jumbo_hint = None;
      congestion_handlers = Hashtbl.create 2;
      ping_waiters = Hashtbl.create 4;
      s_stats =
        {
          tx_datagrams = 0;
          rx_datagrams = 0;
          stolen_by_hook = 0;
          dropped_not_mine = 0;
          echo_requests_served = 0;
          sw_segmented = 0;
        };
    }
  in
  (* Loopback driver: deliver asynchronously (softirq-style) with the
     device's per-packet cost. *)
  Netdevice.set_transmit lo (fun packet ->
      Sim.Engine.spawn engine (fun () ->
          Sim.Resource.use t.s_cpu params.Hypervisor.Params.loopback_xmit;
          Netdevice.receive lo packet));
  Netdevice.set_receive_handler lo (fun packet -> inject_rx t packet);
  t
