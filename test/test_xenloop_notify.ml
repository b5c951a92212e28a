(* Tests for the notification/batching layer: FIFO admission and batch
   primitives, the shared suppression flags, and the module-level doorbell
   behavior — suppression under load, poll-window expiry re-arming, and
   teardown draining while notifications are suppressed. *)

module Fifo = Xenloop.Fifo
module Page = Memory.Page
module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module

let make_fifo ?(k = 6) () =
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  (desc, data, Fifo.attach ~desc ~data)

let modules_of duo =
  match duo.Setup.modules with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Alcotest.fail "expected two xenloop modules"

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

let bind_or_fail udp ?port () =
  match Netstack.Udp.bind udp ?port () with
  | Ok s -> s
  | Error _ -> Alcotest.fail "bind"

(* ------------------------------------------------------------------ *)
(* FIFO admission: can_accept *)

let test_can_accept_exact_fit () =
  (* Regression: a payload whose entry exactly fills the remaining free
     slots must be admitted.  The old waiting-list drain re-derived the
     check as [free_slots * 8 > len + 8], which rejects exact fits. *)
  let _, _, f = make_fifo ~k:6 () in
  (* 24-byte payload = 4 slots; 60 of 64 remain. *)
  Alcotest.(check bool) "first push" true (Fifo.try_push f (Bytes.make 24 'a'));
  Alcotest.(check int) "60 slots free" 60 (Fifo.free_slots f);
  (* 472 bytes = 59 payload slots + 1 metadata slot = exactly 60. *)
  Alcotest.(check int) "472 B needs 60 slots" 60 (Fifo.slots_for_payload 472);
  Alcotest.(check bool) "one byte over rejected" false (Fifo.can_accept f 473);
  Alcotest.(check bool) "exact fit accepted" true (Fifo.can_accept f 472);
  Alcotest.(check bool) "exact fit pushes" true (Fifo.try_push f (Bytes.make 472 'b'));
  Alcotest.(check int) "completely full" 0 (Fifo.free_slots f);
  Alcotest.(check bool) "nothing fits when full" false (Fifo.can_accept f 1)

let test_can_accept_bounds () =
  let _, _, f = make_fifo ~k:6 () in
  Alcotest.(check bool) "empty payload rejected" false (Fifo.can_accept f 0);
  Alcotest.(check bool) "max packet fits empty fifo" true
    (Fifo.can_accept f (Fifo.max_packet f));
  Alcotest.(check bool) "over max rejected even when empty" false
    (Fifo.can_accept f (Fifo.max_packet f + 1))

(* ------------------------------------------------------------------ *)
(* Bursts of pushes *)

(* Push a burst in order, stopping at the first payload that does not
   fit, as a backlog drain does; the number that entered. *)
let push_burst f batch =
  let rec go n = function
    | [] -> n
    | payload :: rest ->
        if Fifo.push_entry f ~pool:None ~inline_max:max_int ~proto_hint:0 payload
           = Fifo.push_failed
        then n
        else go (n + 1) rest
  in
  go 0 batch

let test_push_burst_roundtrip_across_pages () =
  (* k = 10: 1024 slots over two 4 KiB data pages.  20 x 300-byte payloads
     occupy 780 slots = 6240 bytes, so the burst crosses the page
     boundary; every byte must come back out in order. *)
  let _, _, f = make_fifo ~k:10 () in
  let payload i = Bytes.init 300 (fun j -> Char.chr ((i + (j * 7)) land 0xff)) in
  let batch = List.init 20 payload in
  Alcotest.(check int) "all 20 pushed" 20 (push_burst f batch);
  List.iteri
    (fun i expected ->
      match Fifo.pop f with
      | Some got ->
          Alcotest.(check bytes) (Printf.sprintf "payload %d identical" i) expected got
      | None -> Alcotest.fail "pop came up empty mid-batch")
    batch;
  Alcotest.(check bool) "drained" true (Fifo.is_empty f)

let test_push_burst_stops_at_full () =
  let _, _, f = make_fifo ~k:6 () in
  (* Each 100-byte payload needs 14 slots; 64 slots admit 4 of them. *)
  let batch = List.init 10 (fun i -> Bytes.make 100 (Char.chr (0x30 + i))) in
  Alcotest.(check int) "prefix pushed" 4 (push_burst f batch);
  (* The prefix that made it is intact and in order. *)
  for i = 0 to 3 do
    match Fifo.pop f with
    | Some got ->
        Alcotest.(check char) (Printf.sprintf "payload %d" i) (Char.chr (0x30 + i))
          (Bytes.get got 0)
    | None -> Alcotest.fail "pop failed"
  done;
  Alcotest.(check bool) "rest never entered" true (Fifo.is_empty f)

(* ------------------------------------------------------------------ *)
(* Suppression flags in the shared descriptor *)

let test_notify_flags_shared_between_views () =
  let desc, data, f = make_fifo () in
  let peer = Fifo.attach ~desc ~data in
  Alcotest.(check bool) "consumer flag starts clear" false (Fifo.consumer_active f);
  Alcotest.(check bool) "producer flag starts clear" false (Fifo.producer_waiting f);
  Fifo.set_consumer_active f true;
  Alcotest.(check bool) "peer sees consumer active" true (Fifo.consumer_active peer);
  Fifo.set_producer_waiting peer true;
  Alcotest.(check bool) "we see producer waiting" true (Fifo.producer_waiting f);
  Fifo.set_consumer_active f false;
  Fifo.set_producer_waiting peer false;
  Alcotest.(check bool) "consumer flag cleared" false (Fifo.consumer_active peer);
  Alcotest.(check bool) "producer flag cleared" false (Fifo.producer_waiting f)

(* ------------------------------------------------------------------ *)
(* Module-level: doorbells under a back-to-back burst *)

let test_burst_suppresses_doorbells () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock = bind_or_fail server.Workloads.Host.udp ~port:910 () in
      let client_sock = bind_or_fail client.Workloads.Host.udp () in
      let sent_before = (Gm.stats m1).Gm.notifies_sent in
      let n = 50 in
      for i = 0 to n - 1 do
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:910
          (Bytes.make 1400 (Char.chr (i land 0xff)))
      done;
      let received = ref [] in
      for _ = 1 to n do
        let _, _, payload = Netstack.Udp.recvfrom server_sock in
        received := Bytes.get payload 0 :: !received
      done;
      let expected = List.init n (fun i -> Char.chr (i land 0xff)) in
      Alcotest.(check bool) "all delivered in order" true
        (List.rev !received = expected);
      (* The receiver stayed in its handler, so most of the burst rode on
         already-pending doorbells. *)
      Alcotest.(check bool) "doorbells suppressed" true
        ((Gm.stats m1).Gm.notifies_suppressed > 0);
      Alcotest.(check bool) "far fewer doorbells than packets" true
        ((Gm.stats m1).Gm.notifies_sent - sent_before < n / 2);
      (* The receiver actually polled between arrivals (NAPI window). *)
      Alcotest.(check bool) "receiver polled" true ((Gm.stats m2).Gm.poll_rounds > 0))

let test_fragment_burst_batched () =
  (* A datagram large enough to fragment hands the hook a whole burst of
     frames at once; they must cross the FIFO as a single batch. *)
  let duo = Setup.build Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock = bind_or_fail server.Workloads.Host.udp ~port:911 () in
      let client_sock = bind_or_fail client.Workloads.Host.udp () in
      let data = Bytes.init 30_000 (fun i -> Char.chr ((i * 11) land 0xff)) in
      Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:911 data;
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check bool) "reassembled intact" true (Bytes.equal data got);
      Alcotest.(check bool) "fragments went as a batch" true
        ((Gm.stats m1).Gm.batches > 0))

let test_poll_window_expiry_rearms () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock = bind_or_fail server.Workloads.Host.udp ~port:912 () in
      let client_sock = bind_or_fail client.Workloads.Host.udp () in
      let send_recv tag =
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:912
          (Bytes.make 200 tag);
        let _, _, got = Netstack.Udp.recvfrom server_sock in
        Alcotest.(check char) "payload intact" tag (Bytes.get got 0)
      in
      send_recv 'x';
      (* Sleep far past the receiver's poll window: it must have cleared
         its consumer-active flag and gone back to sleep. *)
      Sim.Engine.sleep (Sim.Time.ms 5);
      let sent_before = (Gm.stats m1).Gm.notifies_sent in
      send_recv 'y';
      Alcotest.(check bool) "fresh doorbell after window expiry" true
        ((Gm.stats m1).Gm.notifies_sent > sent_before))

let test_teardown_drains_under_suppression () =
  (* A 2 KiB FIFO under a back-to-back burst piles frames onto the waiting
     list while doorbells are suppressed; yanking the module mid-stream
     must still deliver every frame — channel contents via the peer's
     teardown drain, waiting-list contents via the standard path.  The two
     paths race, so we check the delivered multiset, not global order.
     Zero-copy stays off: the burst must overflow the {e inline} path's
     2 KiB capacity, not ride the descriptor pool. *)
  let params = { Hypervisor.Params.default with xenloop_zerocopy = false } in
  let duo = Setup.build ~params ~fifo_k:8 Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock = bind_or_fail server.Workloads.Host.udp ~port:913 () in
      let client_sock = bind_or_fail client.Workloads.Host.udp () in
      let n = 40 in
      for i = 0 to n - 1 do
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:913
          (Bytes.make 1400 (Char.chr i))
      done;
      Alcotest.(check bool) "waiting list engaged" true
        ((Gm.stats m1).Gm.queued_to_waiting > 0);
      Gm.unload m1;
      let received = ref [] in
      for _ = 1 to n do
        let _, _, payload = Netstack.Udp.recvfrom server_sock in
        received := Bytes.get payload 0 :: !received
      done;
      let expected = List.init n Char.chr in
      Alcotest.(check bool) "every frame delivered exactly once" true
        (List.sort compare !received = expected);
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check bool) "peer tore the channel down" true
        ((Gm.stats m2).Gm.channels_torn_down >= 1))

let test_suppression_off_is_seed_baseline () =
  (* With every knob off, the module must ring one doorbell per handled
     event exactly like the seed: no suppression, no polling. *)
  let params =
    {
      Hypervisor.Params.default with
      xenloop_notify_suppression = false;
      xenloop_batch_tx = false;
      xenloop_poll_window = Sim.Time.span_zero;
    }
  in
  let duo = Setup.build ~params Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock = bind_or_fail server.Workloads.Host.udp ~port:914 () in
      let client_sock = bind_or_fail client.Workloads.Host.udp () in
      let n = 20 in
      for i = 0 to n - 1 do
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:914
          (Bytes.make 800 (Char.chr i))
      done;
      for _ = 1 to n do
        ignore (Netstack.Udp.recvfrom server_sock)
      done;
      Alcotest.(check int) "nothing suppressed" 0
        ((Gm.stats m1).Gm.notifies_suppressed + (Gm.stats m2).Gm.notifies_suppressed);
      Alcotest.(check int) "no poll rounds" 0
        ((Gm.stats m1).Gm.poll_rounds + (Gm.stats m2).Gm.poll_rounds);
      Alcotest.(check int) "no batches" 0
        ((Gm.stats m1).Gm.batches + (Gm.stats m2).Gm.batches);
      Alcotest.(check bool) "at least one doorbell per datagram" true
        ((Gm.stats m1).Gm.notifies_sent >= n))

(* ------------------------------------------------------------------ *)
(* Parked lingers: what a window costs, and the wake contract *)

(* One queue per channel, so exactly one receive handler lingers. *)
let one_queue = { Hypervisor.Params.default with xenloop_queues = 1 }

(* A channel up and idle, the receiver just back from its first linger;
   [f] gets the modules and a one-datagram exchange. *)
let with_quiet_channel f =
  let duo = Setup.build ~params:one_queue Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let server_sock = bind_or_fail server.Workloads.Host.udp ~port:915 () in
      let client_sock = bind_or_fail client.Workloads.Host.udp () in
      let exchange () =
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:915
          (Bytes.make 200 'q');
        ignore (Netstack.Udp.recvfrom server_sock)
      in
      exchange ();
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check bool) "channel up" true
        (Gm.connected_peer_ids m1 <> []);
      f duo.Setup.engine m1 m2 exchange)

let test_idle_linger_executes_no_ticks () =
  (* After one datagram the receiver lingers a whole window: 100 µs of
     2 µs ticks, 50 of them.  Parked, that window executes at most two
     events per lingering queue (the expiry, plus a wake), not one per
     tick — yet poll_rounds still counts all 50. *)
  with_quiet_channel (fun engine m1 m2 exchange ->
      let rounds () = (Gm.stats m1).Gm.poll_rounds + (Gm.stats m2).Gm.poll_rounds in
      let r0 = rounds () in
      exchange ();
      let e0 = Sim.Engine.events_executed engine in
      Sim.Engine.sleep (Sim.Time.us 150);
      (* Our own wake-up from that sleep is one of the events counted. *)
      let events = Sim.Engine.events_executed engine - e0 - 1 in
      Alcotest.(check int) "every tick of the window counted" 50 (rounds () - r0);
      Alcotest.(check bool)
        (Printf.sprintf "window cost %d events (at most 2)" events)
        true (events <= 2);
      Alcotest.(check int) "no missed wake" 0
        ((Gm.stats m1).Gm.poll_missed_wakes + (Gm.stats m2).Gm.poll_missed_wakes))

let test_push_behind_module_is_a_missed_wake () =
  (* Parking is exact only if whatever gives a parked handler work wakes
     it.  A frame pushed straight into the lingering receiver's ring,
     behind the sending module's back, wakes nobody: the receiver finds it
     only at the window's expiry, and counts that as a missed wake. *)
  with_quiet_channel (fun _ m1 m2 exchange ->
      exchange ();
      Sim.Engine.sleep (Sim.Time.us 10);
      let peer =
        match Gm.connected_peer_ids m1 with [ d ] -> d | _ -> Alcotest.fail "one peer"
      in
      (match Gm.tx_fifo m1 ~domid:peer ~queue:0 with
      | Some ring ->
          Alcotest.(check int) "pushed" Fifo.pushed_inline
            (Fifo.push_entry ring ~pool:None ~inline_max:max_int ~proto_hint:0
               (Bytes.make 64 'x'))
      | None -> Alcotest.fail "no ring");
      Sim.Engine.sleep (Sim.Time.us 150);
      Alcotest.(check int) "receiver missed one wake" 1
        (Gm.stats m2).Gm.poll_missed_wakes;
      Alcotest.(check int) "sender missed none" 0 (Gm.stats m1).Gm.poll_missed_wakes)

let suites =
  [
    ( "xenloop.notify",
      [
        Alcotest.test_case "can_accept exact fit" `Quick test_can_accept_exact_fit;
        Alcotest.test_case "can_accept bounds" `Quick test_can_accept_bounds;
        Alcotest.test_case "push burst across page boundary" `Quick
          test_push_burst_roundtrip_across_pages;
        Alcotest.test_case "pushes stop at a full FIFO" `Quick test_push_burst_stops_at_full;
        Alcotest.test_case "flags shared between views" `Quick
          test_notify_flags_shared_between_views;
        Alcotest.test_case "burst suppresses doorbells" `Quick
          test_burst_suppresses_doorbells;
        Alcotest.test_case "fragment burst batched" `Quick test_fragment_burst_batched;
        Alcotest.test_case "poll window expiry re-arms" `Quick
          test_poll_window_expiry_rearms;
        Alcotest.test_case "teardown drains under suppression" `Quick
          test_teardown_drains_under_suppression;
        Alcotest.test_case "all knobs off matches seed" `Quick
          test_suppression_off_is_seed_baseline;
        Alcotest.test_case "idle linger executes no ticks" `Quick
          test_idle_linger_executes_no_ticks;
        Alcotest.test_case "push behind the module is a missed wake" `Quick
          test_push_behind_module_is_a_missed_wake;
      ] );
  ]
