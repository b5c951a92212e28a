(* Integration tests: the XenLoop module end-to-end in the scenario worlds —
   discovery, on-demand channel bootstrap, data-path switching, teardown,
   FIFO-size fallback, and transparent live migration. *)

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Mw = Scenarios.Migration_world
module Gm = Xenloop.Guest_module
module Domain = Hypervisor.Domain
module Stack = Netstack.Stack

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

let modules_of duo =
  match duo.Setup.modules with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Alcotest.fail "expected two xenloop modules"

(* ------------------------------------------------------------------ *)

let test_discovery_populates_mapping () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  Experiment.execute duo (fun () ->
      Alcotest.(check int) "guest1 sees one peer" 1 (Gm.mapping_size m1);
      Alcotest.(check int) "guest2 sees one peer" 1 (Gm.mapping_size m2))

let test_channel_bootstraps_on_traffic () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  Experiment.execute duo (fun () ->
      (* warmup already pinged: the channel must exist and be symmetric. *)
      Alcotest.(check (list int)) "guest1 connected to dom 2" [ 2 ]
        (Gm.connected_peer_ids m1);
      Alcotest.(check (list int)) "guest2 connected to dom 1" [ 1 ]
        (Gm.connected_peer_ids m2);
      (* The guest with the smaller domid is the listener: exactly one
         bootstrap each (one Request_channel, one Create). *)
      Alcotest.(check int) "one channel each" 1 (Gm.stats m1).Gm.channels_established;
      Alcotest.(check int) "one channel each" 1 (Gm.stats m2).Gm.channels_established)

let test_data_flows_through_channel () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let before = (Gm.stats m1).Gm.via_channel_tx in
      let result =
        Workloads.Netperf.udp_rr ~client ~server ~dst:duo.Setup.server_ip
          ~transactions:50 ()
      in
      Alcotest.(check int) "transactions completed" 50 result.Workloads.Netperf.transactions;
      Alcotest.(check bool) "requests rode the channel" true
        ((Gm.stats m1).Gm.via_channel_tx >= before + 50))

let test_udp_data_integrity_through_fifo () =
  let duo = Setup.build Setup.Xenloop_path in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock =
        match Netstack.Udp.bind server.Workloads.Host.udp ~port:901 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let client_sock =
        match Netstack.Udp.bind client.Workloads.Host.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      (* Large enough to fragment at the MTU: every fragment crosses the
         FIFO as real bytes and is reassembled on the far side. *)
      let data = Bytes.init 30_000 (fun i -> Char.chr ((i * 13) land 0xff)) in
      Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:901 data;
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check bool) "bytes identical through shared memory" true
        (Bytes.equal data got))

let test_tcp_stream_integrity_through_fifo () =
  let duo = Setup.build Setup.Xenloop_path in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let listener =
        match Netstack.Tcp.listen server.Workloads.Host.tcp ~port:902 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let n = 1_000_000 in
      let data = Bytes.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
      let got = ref Bytes.empty in
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          let conn = Netstack.Tcp.accept listener in
          got := Netstack.Tcp.recv_exact conn n);
      (match
         Netstack.Tcp.connect client.Workloads.Host.tcp ~dst:duo.Setup.server_ip
           ~dst_port:902 ()
       with
      | Ok conn -> Netstack.Tcp.send conn data
      | Error _ -> Alcotest.fail "connect");
      Sim.Engine.sleep (Sim.Time.ms 500);
      Alcotest.(check bool) "1 MB byte-identical" true (Bytes.equal data !got))

let test_xenloop_faster_than_netfront () =
  let measure kind =
    let duo = Setup.build kind in
    let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
    Experiment.execute duo (fun () ->
        let r =
          Workloads.Netperf.udp_rr ~client ~server ~dst:duo.Setup.server_ip
            ~transactions:300 ()
        in
        r.Workloads.Netperf.avg_latency_us)
  in
  let netfront = measure Setup.Netfront_netback in
  let xenloop = measure Setup.Xenloop_path in
  Alcotest.(check bool)
    (Printf.sprintf "xenloop (%.1fus) at least 2x faster than netfront (%.1fus)"
       xenloop netfront)
    true
    (xenloop *. 2.0 < netfront)

let test_unload_restores_standard_path () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client in
  Experiment.execute duo (fun () ->
      Gm.unload m1;
      Gm.unload m2;
      Alcotest.(check bool) "unloaded" false (Gm.is_loaded m1);
      (* Traffic still flows — via netfront. *)
      match
        Stack.ping client.Workloads.Host.stack ~dst:duo.Setup.server_ip ()
      with
      | Some rtt ->
          Alcotest.(check bool) "slow path again" true (Sim.Time.to_us_f rtt > 40.0)
      | None -> Alcotest.fail "ping failed after unload")

let test_channel_memory_balanced () =
  (* Channel FIFO pages come from the machine's frame pool and must all be
     returned when the channel is torn down. *)
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let machine = Option.get duo.Setup.machine in
  let frames = Hypervisor.Machine.frame_allocator machine in
  Experiment.execute duo (fun () ->
      (* Channel is up after warmup; the listener (smaller domid) paid. *)
      let holder = min 1 2 in
      Alcotest.(check bool) "listener charged for channel pages" true
        (Memory.Frame_allocator.owned_by frames holder > 0);
      Gm.unload m1;
      Gm.unload m2;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "all channel pages returned" 0
        (Memory.Frame_allocator.owned_by frames holder))

let test_teardown_notifies_peer () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  Experiment.execute duo (fun () ->
      Gm.unload m1;
      (* Give the peer's event handler a moment to see the inactive flag. *)
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check (list int)) "peer disengaged" [] (Gm.connected_peer_ids m2);
      Alcotest.(check bool) "peer counted teardown" true
        ((Gm.stats m2).Gm.channels_torn_down >= 1))

let test_large_packets_fall_back () =
  (* With a tiny FIFO (k=7: 1 KiB, max packet 1016 B), MTU-sized fragments
     exceed max_packet and must take the standard path (paper Sect. 3.1). *)
  let duo = Setup.build ~fifo_k:7 Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      Alcotest.(check int) "fifo is 1 KiB" 1024 (Gm.fifo_capacity_bytes m1);
      let server_sock =
        match Netstack.Udp.bind server.Workloads.Host.udp ~port:903 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let client_sock =
        match Netstack.Udp.bind client.Workloads.Host.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let big = Bytes.make 10_000 'B' in
      Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:903 big;
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check bool) "still delivered (standard path)" true (Bytes.equal big got);
      Alcotest.(check bool) "fallbacks counted" true
        ((Gm.stats m1).Gm.too_big_fallback > 0))

let test_waiting_list_engages_under_pressure () =
  (* A 2 KiB FIFO holds a single MTU-sized frame: a back-to-back burst must
     overflow onto the waiting list, and everything still arrives in
     order.  The channel stays below rung [Zerocopy] so the frames really
     are inline copies rather than two-slot descriptors into the payload
     pool. *)
  let params = { Hypervisor.Params.default with xenloop_rung = Notify } in
  let duo = Setup.build ~params ~fifo_k:8 Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock =
        match Netstack.Udp.bind server.Workloads.Host.udp ~port:904 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let client_sock =
        match Netstack.Udp.bind client.Workloads.Host.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let n = 60 in
      for i = 0 to n - 1 do
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:904
          (Bytes.make 1400 (Char.chr (i land 0xff)))
      done;
      let received = ref [] in
      for _ = 1 to n do
        let _, _, payload = Netstack.Udp.recvfrom server_sock in
        received := Bytes.get payload 0 :: !received
      done;
      let expected = List.init n (fun i -> Char.chr (i land 0xff)) in
      Alcotest.(check bool) "all arrived in order" true
        (List.rev !received = expected);
      Alcotest.(check bool) "waiting list was used" true
        ((Gm.stats m1).Gm.queued_to_waiting > 0))

let test_queued_frames_charged_once () =
  (* Every frame that crosses the channel costs its sender exactly one
     [xenloop_fifo_op] plus one copy, whether it lands at once or waits
     on the waiting list because the ring was full: a push the ring
     refuses is not charged.  At rung [Paper] every frame is its own
     inline push; every other sender-side cost is zeroed so the sender's
     vCPU busy time is the channel's charges alone; a 2 KiB ring holds
     one 1400-byte datagram, so a burst must queue. *)
  let zero = Sim.Time.span_zero in
  let params =
    {
      Hypervisor.Params.default with
      xenloop_rung = Paper;
      hypercall = zero;
      syscall = zero;
      udp_tx = zero;
      udp_rx = zero;
      netfilter_hook = zero;
      ip_rx = zero;
      arp_proc = zero;
      app_wakeup = zero;
      copy_ns_per_byte = 0.0;
    }
  in
  let duo = Setup.build ~params ~fifo_k:8 Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let bind ?port udp =
        match Netstack.Udp.bind udp ?port () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let server_sock = bind server.Workloads.Host.udp ~port:905 in
      let client_sock = bind client.Workloads.Host.udp in
      let cpu = Netstack.Stack.cpu client.Workloads.Host.stack in
      let stats = Gm.stats m1 in
      let busy0 = Sim.Resource.busy_time cpu in
      let tx0 = stats.Gm.via_channel_tx and queued0 = stats.Gm.queued_to_waiting in
      let n = 40 and payload = 1400 in
      for i = 0 to n - 1 do
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:905
          (Bytes.make payload (Char.chr (i land 0xff)))
      done;
      for _ = 1 to n do
        ignore (Netstack.Udp.recvfrom server_sock)
      done;
      Alcotest.(check int) "all crossed the channel" n (stats.Gm.via_channel_tx - tx0);
      Alcotest.(check bool) "the ring filled and frames queued" true
        (stats.Gm.queued_to_waiting - queued0 > 0);
      (* Ethernet + IPv4 + UDP headers on top of the payload. *)
      let frame = payload + 14 + 20 + 8 in
      let per_frame =
        Sim.Time.span_add params.Hypervisor.Params.xenloop_fifo_op
          (Hypervisor.Params.xenloop_copy_cost params frame)
      in
      Alcotest.(check int64) "sender busy time = one fifo_op + one copy per frame"
        (Sim.Time.to_ns (Sim.Time.span_scale n per_frame))
        (Sim.Time.to_ns (Sim.Time.span_sub (Sim.Resource.busy_time cpu) busy0)))

let prop_channel_random_bidirectional_traffic =
  QCheck.Test.make
    ~name:"xenloop channel delivers random bidirectional datagram mixes" ~count:8
    QCheck.(
      pair
        (list_of_size Gen.(5 -- 25) (int_range 1 8000))
        (list_of_size Gen.(5 -- 25) (int_range 1 8000)))
    (fun (sizes_ab, sizes_ba) ->
      let duo = Setup.build Setup.Xenloop_path in
      let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
      Experiment.execute duo (fun () ->
          let sock_a =
            match Netstack.Udp.bind client.Workloads.Host.udp ~port:950 () with
            | Ok s -> s
            | Error _ -> failwith "bind"
          in
          let sock_b =
            match Netstack.Udp.bind server.Workloads.Host.udp ~port:951 () with
            | Ok s -> s
            | Error _ -> failwith "bind"
          in
          let payload_for tag i len = Bytes.make len (Char.chr (tag + (i land 0x3f))) in
          Sim.Engine.spawn duo.Setup.engine (fun () ->
              List.iteri
                (fun i len ->
                  Netstack.Udp.sendto sock_a ~dst:duo.Setup.server_ip ~dst_port:951
                    (payload_for 0x40 i len))
                sizes_ab);
          Sim.Engine.spawn duo.Setup.engine (fun () ->
              List.iteri
                (fun i len ->
                  Netstack.Udp.sendto sock_b
                    ~dst:(Netstack.Stack.ip_addr client.Workloads.Host.stack)
                    ~dst_port:950 (payload_for 0x00 i len))
                sizes_ba);
          (* Collect both directions and check order + content. *)
          let ok = ref true in
          List.iteri
            (fun i len ->
              let _, _, got = Netstack.Udp.recvfrom sock_b in
              if not (Bytes.equal got (payload_for 0x40 i len)) then ok := false)
            sizes_ab;
          List.iteri
            (fun i len ->
              let _, _, got = Netstack.Udp.recvfrom sock_a in
              if not (Bytes.equal got (payload_for 0x00 i len)) then ok := false)
            sizes_ba;
          !ok))

let test_corrupt_peer_is_quarantined () =
  (* A malicious or buggy peer scribbles over the shared FIFO: this guest
     must tear the channel down and keep communicating via netfront — never
     crash (paper's isolation/security premise).  Single-queue channel so
     the descriptor page behind gref 0 below is the one the victim's next
     drain reads. *)
  let duo = Setup.build ~client_queues:1 ~server_queues:1 Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client in
  Experiment.execute duo (fun () ->
      (* Reach into the channel guest2 (listener, domid 1... the listener is
         the smaller domid: guest1) created, and corrupt the descriptor of
         the FIFO feeding guest2 by pushing garbage through a raw page
         write.  We simulate the scribble by asking the hook to push, then
         smashing the entry's magic via the machine's grant table pages is
         internal; instead, use the simplest reliable scribble: force the
         shared indices apart so pop sees a bogus entry. *)
      ignore m1;
      (* Locate the in-FIFO of guest2's channel via its module internals is
         not part of the API; instead corrupt through the public surface:
         send one datagram to populate, then use Fifo's own test hook on
         the page the listener granted.  The scenario keeps the pages
         private, so emulate the effect: deliver a crafted event after
         marking indices inconsistent using the descriptor exposed to the
         connector through the machine's grant table. *)
      (* Pragmatic approach: grab the listener's grant table and map the
         most recently granted descriptor page, exactly as a malicious
         connector would. *)
      let machine = Option.get duo.Setup.machine in
      let gt = Option.get (Hypervisor.Machine.grant_table machine 1) in
      let meter = Memory.Cost_meter.create () in
      (* The listener granted descriptor+data pages to domain 2 with grefs
         starting at 0; gref 0 is the first FIFO's descriptor page. *)
      (match Memory.Grant_table.map gt 0 ~by:2 ~meter with
      | Ok desc ->
          (* Make back > front by a bogus amount with garbage where entry
             metadata should be: the next pop on that FIFO sees a corrupt
             entry. *)
          Memory.Page.set_u32 desc 4 9999
      | Error e ->
          Alcotest.failf "could not map descriptor: %s"
            (Memory.Grant_table.error_to_string e));
      (* Trigger the victim's event handler: guest2 (connector) pushes
         nothing; the corrupted FIFO is the one guest1 reads from?  gref 0
         is the listener->connector direction, read by guest2.  Send
         traffic so guest2's handler runs. *)
      ignore
        (Netstack.Stack.ping client.Workloads.Host.stack ~dst:duo.Setup.server_ip
           ~timeout:(Sim.Time.ms 50) ());
      Sim.Engine.sleep (Sim.Time.ms 5);
      (* One of the two modules quarantined its side. *)
      let corrupted =
        (Gm.stats m1).Gm.corrupt_channels + (Gm.stats m2).Gm.corrupt_channels
      in
      Alcotest.(check bool) "channel quarantined" true (corrupted >= 1);
      (* Connectivity survives via the standard path. *)
      match Netstack.Stack.ping client.Workloads.Host.stack ~dst:duo.Setup.server_ip () with
      | Some _ -> ()
      | None -> Alcotest.fail "connectivity lost after quarantine")

let bind_udp (ep : Scenarios.Endpoint.t) ?port () =
  match Netstack.Udp.bind ep.Scenarios.Endpoint.udp ?port () with
  | Ok sock -> sock
  | Error _ -> Alcotest.fail "udp bind"

let rec recv_all sock acc =
  match Netstack.Udp.recv_opt sock with
  | None -> List.rev acc
  | Some (_, _, payload) -> recv_all sock (Bytes.to_string payload :: acc)

(* A sender parked in the push's CPU charge while its own module evicts
   the channel.  The eviction takes the backlog before the sender
   resumes, so the frame must leave through netfront, once, and the
   sender must leave the closed queue's shared descriptor alone. *)
let test_late_sender_after_close () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  Experiment.execute duo (fun () ->
      Sim.Engine.sleep (Sim.Time.ms 1);
      let fifos =
        List.init (Gm.queue_count m1 ~domid:2) (fun queue ->
            Option.get (Gm.tx_fifo m1 ~domid:2 ~queue))
      in
      let server = bind_udp duo.Setup.server ~port:7100 () in
      let client = bind_udp duo.Setup.client () in
      let armed = ref true in
      Gm.set_push_fault_injector m1
        (Some
           (fun () ->
             (* The push draws this just before its charge: evict one
                nanosecond into it. *)
             if !armed then begin
               armed := false;
               Sim.Engine.after duo.Setup.engine (Sim.Time.ns 1) (fun () ->
                   ignore (Gm.evict_lru m1))
             end;
             false));
      let sent = (Gm.stats m1).Gm.via_channel_tx in
      Netstack.Udp.sendto client ~dst:duo.Setup.server_ip ~dst_port:7100
        (Bytes.of_string "late sender");
      Sim.Engine.sleep (Sim.Time.ms 5);
      Alcotest.(check int) "evicted under the sender" 1
        (Gm.stats m1).Gm.channels_evicted;
      Alcotest.(check int) "not sent on the channel" sent
        (Gm.stats m1).Gm.via_channel_tx;
      Alcotest.(check (list string)) "delivered once, through netfront"
        [ "late sender" ] (recv_all server []);
      List.iter
        (fun fifo ->
          Alcotest.(check bool) "producer-waiting never published" false
            (Xenloop.Fifo.producer_waiting fifo);
          Alcotest.(check int) "nothing pushed" 0 (Xenloop.Fifo.used_slots fifo))
        fifos)

(* QoS on, one flow latched congested behind a stalled receiver, and
   then the receiver evicts the channel: the sender's side of the close
   must emit the clear edge, or the socket stays clamped on netfront. *)
let test_peer_teardown_clears_congestion () =
  let params =
    {
      Hypervisor.Params.default with
      qos_enabled = true;
      xenloop_waiting_list_max = 16;
    }
  in
  let duo = Setup.build ~params ~fifo_k:8 Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  Experiment.execute duo (fun () ->
      Sim.Engine.sleep (Sim.Time.ms 1);
      let server = bind_udp duo.Setup.server ~port:7200 () in
      let client = bind_udp duo.Setup.client () in
      (* The edges as the client's UDP layer would see them. *)
      let edges = ref [] in
      Stack.set_congestion_handler duo.Setup.client.Scenarios.Endpoint.stack
        ~proto:17 (fun ~sport:_ ~dst:_ ~dport ~congested ->
          if dport = 7200 then edges := congested :: !edges);
      (* Hog the receiver's vCPU so nothing is consumed while the burst
         fills the ring and then the flow's backlog. *)
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          Sim.Resource.use
            (Stack.cpu duo.Setup.server.Scenarios.Endpoint.stack)
            (Sim.Time.ms 5));
      let n = 40 in
      for seq = 0 to n - 1 do
        Netstack.Udp.sendto client ~dst:duo.Setup.server_ip ~dst_port:7200
          (Bytes.of_string (Printf.sprintf "%04d%s" seq (String.make 96 'q')))
      done;
      Alcotest.(check (list bool)) "the flow latched" [ true ] !edges;
      Alcotest.(check bool) "the receiver evicted" true (Gm.evict_lru m2);
      Sim.Engine.sleep (Sim.Time.ms 10);
      Alcotest.(check (list bool)) "the clear edge arrived" [ false; true ] !edges;
      Alcotest.(check bool) "no flow left congested" false
        (List.exists (fun f -> f.Gm.fs_congested) (Gm.flow_stats m1));
      Alcotest.(check (list int)) "every datagram once"
        (List.init n Fun.id)
        (List.sort compare
           (List.map (fun s -> int_of_string (String.sub s 0 4)) (recv_all server []))))

let test_module_reload_reforms_channels () =
  (* Unload the module (rmmod) and load a fresh instance (insmod): after
     the next discovery round and traffic, the fast path must re-form. *)
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client in
  Experiment.execute duo (fun () ->
      Gm.unload m1;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check (list int)) "peer disengaged" [] (Gm.connected_peer_ids m2);
      (* insmod: a new module instance on the same guest. *)
      let machine = Option.get duo.Setup.machine in
      let domain = Option.get (Hypervisor.Machine.domain machine 1) in
      let m1' =
        Gm.create ~domain ~stack:client.Workloads.Host.stack
          ~current_machine:(fun () -> machine)
          ()
      in
      (* Next discovery scan re-announces; traffic re-bootstraps. *)
      Sim.Engine.sleep (Sim.Time.sec 6);
      ignore (Stack.ping client.Workloads.Host.stack ~dst:duo.Setup.server_ip ());
      Sim.Engine.sleep (Sim.Time.ms 10);
      (match Stack.ping client.Workloads.Host.stack ~dst:duo.Setup.server_ip () with
      | Some rtt ->
          Alcotest.(check bool) "fast path re-formed" true (Sim.Time.to_us_f rtt < 40.0)
      | None -> Alcotest.fail "ping lost after reload");
      Alcotest.(check (list int)) "channel re-established" [ 2 ]
        (Gm.connected_peer_ids m1'))

let test_chaos_soak () =
  (* A randomized soak over a 3-guest cluster: bursts of UDP traffic
     between random pairs interleaved with module unload/reload.  The
     invariant throughout: every datagram that is sent while both
     endpoints' sockets exist is delivered intact (the substrate only
     drops on UDP buffer overflow, which these small bursts never hit),
     and nothing ever crashes or deadlocks. *)
  let c = Setup.build_cluster ~guests:3 () in
  let rng = Sim.Rng.create ~seed:2026 in
  Experiment.run_process c.Setup.c_engine (fun () ->
      c.Setup.c_warmup ();
      let machine = c.Setup.c_machine in
      let guests = Array.of_list c.Setup.guests in
      let modules = Array.map (fun (_, _, m) -> m) guests in
      let socks =
        Array.map
          (fun (_, ep, _) ->
            match Netstack.Udp.bind ep.Scenarios.Endpoint.udp ~port:4000 () with
            | Ok s -> s
            | Error _ -> Alcotest.fail "bind")
          guests
      in
      for _round = 1 to 40 do
        match Sim.Rng.int rng 10 with
        | 0 ->
            (* rmmod a random guest's module. *)
            let i = Sim.Rng.int rng 3 in
            Gm.unload modules.(i);
            Sim.Engine.sleep (Sim.Time.ms 1)
        | 1 ->
            (* insmod it again (if unloaded). *)
            let i = Sim.Rng.int rng 3 in
            if not (Gm.is_loaded modules.(i)) then begin
              let domain, ep, _ = guests.(i) in
              modules.(i) <-
                Gm.create ~domain ~stack:ep.Scenarios.Endpoint.stack
                  ~current_machine:(fun () -> machine)
                  ();
              Xenloop.Discovery.scan_now c.Setup.c_discovery;
              Sim.Engine.sleep (Sim.Time.ms 1)
            end
        | _ ->
            (* A small burst between a random ordered pair. *)
            let src = Sim.Rng.int rng 3 in
            let dst = (src + 1 + Sim.Rng.int rng 2) mod 3 in
            let _, src_ep, _ = guests.(src) in
            let dst_domain, _, _ = guests.(dst) in
            let n = 1 + Sim.Rng.int rng 5 in
            let sent =
              List.init n (fun k ->
                  let len = 1 + Sim.Rng.int rng 3000 in
                  Bytes.init len (fun i -> Char.chr ((i + k) land 0xff)))
            in
            let client_sock =
              match Netstack.Udp.bind src_ep.Scenarios.Endpoint.udp () with
              | Ok s -> s
              | Error _ -> Alcotest.fail "bind"
            in
            List.iter
              (fun payload ->
                Netstack.Udp.sendto client_sock
                  ~dst:(Hypervisor.Domain.ip dst_domain) ~dst_port:4000 payload)
              sent;
            List.iter
              (fun expected ->
                let _, _, got = Netstack.Udp.recvfrom socks.(dst) in
                if not (Bytes.equal got expected) then
                  Alcotest.fail "soak: payload corrupted or reordered")
              sent;
            Netstack.Udp.close client_sock
      done;
      (* Final sanity: the cluster still communicates end to end. *)
      let _, ep0, _ = guests.(0) in
      let d1, _, _ = guests.(1) in
      match
        Netstack.Stack.ping ep0.Scenarios.Endpoint.stack ~dst:(Hypervisor.Domain.ip d1) ()
      with
      | Some _ -> ()
      | None -> Alcotest.fail "cluster broken after soak")

(* ------------------------------------------------------------------ *)
(* Migration *)

let run_world (w : Mw.t) f = Experiment.run_process w.Mw.engine f

let guest_host (g : Mw.guest_env) =
  {
    Workloads.Host.stack = g.Mw.ep.Scenarios.Endpoint.stack;
    udp = g.Mw.ep.Scenarios.Endpoint.udp;
    tcp = g.Mw.ep.Scenarios.Endpoint.tcp;
  }

let test_migration_establishes_channel () =
  let w = Mw.create () in
  run_world w (fun () ->
      Alcotest.(check bool) "separate at start" false
        (Mw.co_resident w.Mw.guest1 w.Mw.guest2);
      (* Traffic across the wire first. *)
      (match
         Stack.ping (guest_host w.Mw.guest1).Workloads.Host.stack
           ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ()
       with
      | Some _ -> ()
      | None -> Alcotest.fail "inter-machine ping failed");
      Alcotest.(check (list int)) "no channel while apart" []
        (Gm.connected_peer_ids w.Mw.guest1.Mw.xl_module);
      (* Migrate guest1 to machine 2. *)
      Mw.migrate w w.Mw.guest1 ~dst:w.Mw.m2;
      Alcotest.(check bool) "co-resident now" true
        (Mw.co_resident w.Mw.guest1 w.Mw.guest2);
      (* Wait past a discovery period, then send traffic to trigger the
         channel. *)
      Sim.Engine.sleep (Sim.Time.sec 6);
      (match
         Stack.ping (guest_host w.Mw.guest1).Workloads.Host.stack
           ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ()
       with
      | Some _ -> ()
      | None -> Alcotest.fail "co-resident ping failed");
      Sim.Engine.sleep (Sim.Time.ms 10);
      (match
         Stack.ping (guest_host w.Mw.guest1).Workloads.Host.stack
           ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ()
       with
      | Some rtt ->
          Alcotest.(check bool) "fast path engaged" true (Sim.Time.to_us_f rtt < 40.0)
      | None -> Alcotest.fail "fast ping failed");
      Alcotest.(check int) "channel exists" 1
        (List.length (Gm.connected_peer_ids w.Mw.guest1.Mw.xl_module)))

let test_migration_away_tears_down () =
  let w = Mw.create () in
  run_world w (fun () ->
      Mw.migrate w w.Mw.guest1 ~dst:w.Mw.m2;
      Sim.Engine.sleep (Sim.Time.sec 6);
      ignore
        (Stack.ping (guest_host w.Mw.guest1).Workloads.Host.stack
           ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ());
      Sim.Engine.sleep (Sim.Time.ms 10);
      ignore
        (Stack.ping (guest_host w.Mw.guest1).Workloads.Host.stack
           ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ());
      Alcotest.(check int) "channel up" 1
        (List.length (Gm.connected_peer_ids w.Mw.guest1.Mw.xl_module));
      (* Migrate back: the channel must be torn down cleanly... *)
      Mw.migrate w w.Mw.guest1 ~dst:w.Mw.m1;
      Alcotest.(check (list int)) "guest1 channels gone" []
        (Gm.connected_peer_ids w.Mw.guest1.Mw.xl_module);
      Sim.Engine.sleep (Sim.Time.sec 6);
      Alcotest.(check (list int)) "guest2 disengaged too" []
        (Gm.connected_peer_ids w.Mw.guest2.Mw.xl_module);
      (* ...and the wire path works again. *)
      match
        Stack.ping (guest_host w.Mw.guest1).Workloads.Host.stack
          ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ()
      with
      | Some rtt ->
          Alcotest.(check bool) "slow path again" true (Sim.Time.to_us_f rtt > 40.0)
      | None -> Alcotest.fail "ping failed after migrating away")

let test_migration_no_stream_loss () =
  (* A TCP transfer running across a migration must deliver every byte:
     the paper's transparency claim (Sect. 3.4). *)
  let w = Mw.create () in
  run_world w (fun () ->
      let g1 = guest_host w.Mw.guest1 and g2 = guest_host w.Mw.guest2 in
      let listener =
        match Netstack.Tcp.listen g2.Workloads.Host.tcp ~port:905 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let n = 600_000 in
      let data = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let got = ref Bytes.empty in
      let finished = ref false in
      Sim.Engine.spawn w.Mw.engine (fun () ->
          let conn = Netstack.Tcp.accept listener in
          got := Netstack.Tcp.recv_exact conn n;
          finished := true);
      Sim.Engine.spawn w.Mw.engine (fun () ->
          match
            Netstack.Tcp.connect g1.Workloads.Host.tcp
              ~dst:(Domain.ip w.Mw.guest2.Mw.domain) ~dst_port:905 ()
          with
          | Ok conn -> Netstack.Tcp.send conn data
          | Error _ -> Alcotest.fail "connect");
      (* Let the stream start over the wire, then migrate mid-flight. *)
      Sim.Engine.sleep (Sim.Time.ms 100);
      Mw.migrate w w.Mw.guest1 ~dst:w.Mw.m2;
      (* Wait for completion (now over the fast or standard local path). *)
      let waited = ref 0 in
      while (not !finished) && !waited < 200 do
        incr waited;
        Sim.Engine.sleep (Sim.Time.ms 50)
      done;
      Alcotest.(check bool) "transfer completed" true !finished;
      Alcotest.(check bool) "no bytes lost or corrupted" true (Bytes.equal data !got))

(* A corked runt topped up from the next write leaves as one jumbo whose
   payload gathers views of both writes.  That jumbo is lost on the
   channel (a corrupted scatter vector, which the receiver drops) and the
   channel is torn down while it waits in the retransmission queue: the
   timeout resends the gathered view through netfront.  It exceeds the
   vif's 16 KiB segmentation budget, so the stack cuts it back into
   wire-MSS segments, not IP fragments, and every byte arrives in
   order. *)
let test_gathered_segment_survives_teardown () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let engine = duo.Setup.engine in
      let listener =
        match Netstack.Tcp.listen server.Workloads.Host.tcp ~port:906 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      (* One jumbo and a 700-byte runt, then a write that fills the cork
         up to the next jumbo. *)
      let a = Bytes.init (65_495 + 700) (fun i -> Char.chr ((i * 7) land 0xff)) in
      let b = Bytes.init 65_495 (fun i -> Char.chr ((i * 13 + 5) land 0xff)) in
      let total = Bytes.length a + Bytes.length b in
      let got = ref Bytes.empty in
      Sim.Engine.spawn engine (fun () ->
          let conn = Netstack.Tcp.accept listener in
          got := Netstack.Tcp.recv_exact conn total);
      let jumbos = ref 0 in
      let drop_second () =
        incr jumbos;
        !jumbos = 2
      in
      Gm.set_jumbo_fault_injector m1 (Some drop_second);
      (* The TCP payload bytes and the IP fragments the client hands
         netfront: the xenloop hook, registered first, steals whatever
         the channel carries. *)
      let netfront_bytes = ref 0 and fragments = ref 0 in
      let _hook =
        Netstack.Netfilter.register
          (Stack.post_routing client.Workloads.Host.stack)
          (fun packet ->
            (match packet.Netcore.Packet.body with
            | Netcore.Packet.Ipv4_body
                {
                  content =
                    Netcore.Packet.Full { transport = Netcore.Transport.Tcp _; payload };
                  _;
                } ->
                netfront_bytes := !netfront_bytes + payload.Netcore.View.len
            | Netcore.Packet.Ipv4_body { content = Netcore.Packet.Fragment _; _ } ->
                incr fragments
            | _ -> ());
            Netstack.Netfilter.Accept)
      in
      Sim.Engine.spawn engine (fun () ->
          match
            Netstack.Tcp.connect client.Workloads.Host.tcp ~dst:duo.Setup.server_ip
              ~dst_port:906 ()
          with
          | Ok conn ->
              Netstack.Tcp.send conn a;
              Netstack.Tcp.send conn b;
              Netstack.Tcp.close conn
          | Error _ -> Alcotest.fail "connect");
      Sim.Engine.sleep (Sim.Time.ms 5);
      Alcotest.(check int) "two jumbos pushed" 2 !jumbos;
      Alcotest.(check int) "the gathered jumbo dropped" 1 (Gm.stats m2).Gm.jumbo_drops;
      Alcotest.(check int) "nothing through netfront yet" 0 !netfront_bytes;
      let segmented = (Stack.stats client.Workloads.Host.stack).Stack.sw_segmented in
      Gm.unload m1;
      Gm.unload m2;
      Sim.Engine.sleep (Sim.Time.sec 2);
      Alcotest.(check bool) "the gathered segment resent through netfront" true
        (!netfront_bytes >= 65_495);
      Alcotest.(check int) "no IP fragments" 0 !fragments;
      Alcotest.(check bool) "resegmented to the wire MSS" true
        ((Stack.stats client.Workloads.Host.stack).Stack.sw_segmented > segmented);
      Alcotest.(check bool) "every byte, in order" true
        (Bytes.equal (Bytes.cat a b) !got))

let suites =
  [
    ( "xenloop.integration",
      [
        Alcotest.test_case "discovery populates mapping" `Quick
          test_discovery_populates_mapping;
        Alcotest.test_case "channel bootstraps on traffic" `Quick
          test_channel_bootstraps_on_traffic;
        Alcotest.test_case "data flows through channel" `Quick
          test_data_flows_through_channel;
        Alcotest.test_case "udp integrity through fifo" `Quick
          test_udp_data_integrity_through_fifo;
        Alcotest.test_case "tcp 1MB integrity through fifo" `Slow
          test_tcp_stream_integrity_through_fifo;
        Alcotest.test_case "xenloop faster than netfront" `Slow
          test_xenloop_faster_than_netfront;
        Alcotest.test_case "unload restores standard path" `Quick
          test_unload_restores_standard_path;
        Alcotest.test_case "channel memory balanced" `Quick test_channel_memory_balanced;
        Alcotest.test_case "teardown notifies peer" `Quick test_teardown_notifies_peer;
        Alcotest.test_case "a gathered segment survives teardown" `Quick
          test_gathered_segment_survives_teardown;
        Alcotest.test_case "oversize packets fall back" `Quick
          test_large_packets_fall_back;
        Alcotest.test_case "waiting list under pressure" `Quick
          test_waiting_list_engages_under_pressure;
        Alcotest.test_case "queued frames are charged once" `Quick
          test_queued_frames_charged_once;
        Alcotest.test_case "corrupt peer quarantined" `Quick
          test_corrupt_peer_is_quarantined;
        Alcotest.test_case "a late sender leaves through netfront" `Quick
          test_late_sender_after_close;
        Alcotest.test_case "peer teardown clears congestion" `Quick
          test_peer_teardown_clears_congestion;
        Alcotest.test_case "module reload re-forms channels" `Slow
          test_module_reload_reforms_channels;
        Alcotest.test_case "randomized chaos soak" `Slow test_chaos_soak;
      ]
      @ [ QCheck_alcotest.to_alcotest prop_channel_random_bidirectional_traffic ] );
    ( "xenloop.migration",
      [
        Alcotest.test_case "co-residence establishes channel" `Slow
          test_migration_establishes_channel;
        Alcotest.test_case "migration away tears down" `Slow
          test_migration_away_tears_down;
        Alcotest.test_case "no stream loss across migration" `Slow
          test_migration_no_stream_loss;
      ] );
  ]
