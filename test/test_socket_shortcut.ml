(* Tests for the transport-level shortcut prototype (the paper's Sect. 6
   future-work direction). *)

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module
module Shortcut = Xenloop.Socket_shortcut
module Udp = Netstack.Udp

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

let with_shortcut_world f =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 =
    match duo.Setup.modules with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "two modules expected"
  in
  let sc1 =
    Shortcut.enable ~xl_module:m1 ~udp:duo.Setup.client.Scenarios.Endpoint.udp ()
  in
  let sc2 =
    Shortcut.enable ~xl_module:m2 ~udp:duo.Setup.server.Scenarios.Endpoint.udp ()
  in
  Experiment.execute duo (fun () ->
      f ~duo ~client:(host_of duo.Setup.client) ~server:(host_of duo.Setup.server)
        ~sc1 ~sc2)

let bind_exn udp ?port () =
  match Udp.bind udp ?port () with Ok s -> s | Error _ -> Alcotest.fail "bind"

let test_shortcut_roundtrip () =
  with_shortcut_world (fun ~duo ~client ~server ~sc1 ~sc2 ->
      let server_sock = bind_exn server.Workloads.Host.udp ~port:2000 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      let payload = Bytes.of_string "transport-level hello" in
      Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:2000 payload;
      let src, src_port, got = Udp.recvfrom server_sock in
      Alcotest.(check bytes) "payload intact" payload got;
      Alcotest.(check bool) "source ip preserved" true
        (Netcore.Ip.equal src (Netstack.Stack.ip_addr client.Workloads.Host.stack));
      Alcotest.(check int) "source port preserved" (Udp.port client_sock) src_port;
      Alcotest.(check int) "rode the shortcut" 1 (Shortcut.sent_via_shortcut sc1);
      Alcotest.(check int) "received via shortcut" 1 (Shortcut.received_via_shortcut sc2);
      (* The reply path works symmetrically. *)
      Udp.sendto server_sock ~dst:src ~dst_port:src_port (Bytes.of_string "ack");
      let _, _, reply = Udp.recvfrom client_sock in
      Alcotest.(check string) "reply" "ack" (Bytes.to_string reply);
      Alcotest.(check int) "reply rode the shortcut" 1 (Shortcut.sent_via_shortcut sc2))

(* Every size class a shortcut datagram can take rides one control frame
   on the ordinary transmit path: inline (1 B), a pool descriptor
   (1,400 B and 20,000 B) and, wider than a pool slot (61,440 B), a
   chunked inline copy: jumbo descriptors carry TCP super-frames only.
   A refused push parks the frame on the backlog like any other, and the
   next send drains it in order. *)
let test_shortcut_size_classes () =
  with_shortcut_world (fun ~duo ~client ~server ~sc1 ~sc2:_ ->
      let m1 = List.hd duo.Setup.modules in
      let payload len tag = Bytes.init len (fun j -> Char.chr ((tag + (j * 7)) land 0xff)) in
      let server_sock = bind_exn server.Workloads.Host.udp ~port:2005 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      let send p = Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:2005 p in
      let expect what sent =
        List.iteri
          (fun i p ->
            let _, _, got = Udp.recvfrom server_sock in
            Alcotest.(check bytes) (Printf.sprintf "%s %d intact, in order" what i) p got)
          sent;
        Alcotest.(check bool) (what ^ ": nothing more") true
          (Udp.recv_opt server_sock = None)
      in
      let classes = List.mapi (fun i len -> payload len i) [ 1; 1400; 20_000; 61_440 ] in
      let desc_before = (Gm.stats m1).Gm.desc_tx
      and jumbo_before = (Gm.stats m1).Gm.jumbo_tx in
      List.iter send classes;
      expect "size class" classes;
      Alcotest.(check int) "all four via shortcut" 4 (Shortcut.sent_via_shortcut sc1);
      Alcotest.(check int) "1,400 B and 20,000 B rode descriptors" 2
        ((Gm.stats m1).Gm.desc_tx - desc_before);
      Alcotest.(check int) "no jumbo for a control frame" 0
        ((Gm.stats m1).Gm.jumbo_tx - jumbo_before);
      (* Refused pushes: the frames wait on the backlog, none is lost. *)
      let waiting_before = (Gm.stats m1).Gm.queued_to_waiting in
      Gm.set_push_fault_injector m1 (Some (fun () -> true));
      let parked = List.init 3 (fun i -> payload 20_000 (10 + i)) in
      List.iter send parked;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "three parked on the backlog" 3
        ((Gm.stats m1).Gm.queued_to_waiting - waiting_before);
      Alcotest.(check bool) "nothing delivered while refused" true
        (Udp.recv_opt server_sock = None);
      Gm.set_push_fault_injector m1 None;
      let last = payload 1 20 in
      send last;
      expect "after the fault" (parked @ [ last ]);
      Alcotest.(check int) "every datagram via shortcut" 8
        (Shortcut.sent_via_shortcut sc1))

let test_shortcut_skips_protocol_processing () =
  with_shortcut_world (fun ~duo ~client ~server ~sc1 ~sc2 ->
      ignore sc2;
      let server_sock = bind_exn server.Workloads.Host.udp ~port:2001 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      let tx_before = (Netstack.Stack.stats client.Workloads.Host.stack).Netstack.Stack.tx_datagrams in
      for _ = 1 to 20 do
        Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:2001
          (Bytes.make 100 'x')
      done;
      for _ = 1 to 20 do
        ignore (Udp.recvfrom server_sock)
      done;
      let tx_after = (Netstack.Stack.stats client.Workloads.Host.stack).Netstack.Stack.tx_datagrams in
      (* No IP datagrams were built for the shortcut traffic. *)
      Alcotest.(check int) "no ip datagrams emitted" tx_before tx_after;
      Alcotest.(check int) "all 20 via shortcut" 20 (Shortcut.sent_via_shortcut sc1))

let test_shortcut_faster_than_packet_level () =
  let rr_with ~shortcut =
    let duo = Setup.build Setup.Xenloop_path in
    (if shortcut then
       match duo.Setup.modules with
       | [ a; b ] ->
           ignore (Shortcut.enable ~xl_module:a ~udp:duo.Setup.client.Scenarios.Endpoint.udp ());
           ignore (Shortcut.enable ~xl_module:b ~udp:duo.Setup.server.Scenarios.Endpoint.udp ())
       | _ -> Alcotest.fail "two modules expected");
    Experiment.execute duo (fun () ->
        let r =
          Workloads.Netperf.udp_rr
            ~client:(host_of duo.Setup.client)
            ~server:(host_of duo.Setup.server)
            ~dst:duo.Setup.server_ip ~transactions:500 ()
        in
        r.Workloads.Netperf.avg_latency_us)
  in
  let packet_level = rr_with ~shortcut:false in
  let transport_level = rr_with ~shortcut:true in
  Alcotest.(check bool)
    (Printf.sprintf "transport-level (%.1fus) < packet-level (%.1fus)" transport_level
       packet_level)
    true
    (transport_level < packet_level)

let test_shortcut_fallback_when_apart () =
  (* In the migration world the guests start on different machines: the
     shortcut must fall back to the standard path and still deliver. *)
  let w = Scenarios.Migration_world.create () in
  let open Scenarios.Migration_world in
  let sc1 =
    Shortcut.enable ~xl_module:w.guest1.xl_module
      ~udp:w.guest1.ep.Scenarios.Endpoint.udp ()
  in
  Experiment.run_process w.engine (fun () ->
      let server_sock = bind_exn w.guest2.ep.Scenarios.Endpoint.udp ~port:2002 () in
      let client_sock = bind_exn w.guest1.ep.Scenarios.Endpoint.udp () in
      Udp.sendto client_sock
        ~dst:(Hypervisor.Domain.ip w.guest2.domain)
        ~dst_port:2002 (Bytes.of_string "over the wire");
      let _, _, got = Udp.recvfrom server_sock in
      Alcotest.(check string) "delivered via standard path" "over the wire"
        (Bytes.to_string got);
      Alcotest.(check int) "nothing via shortcut" 0 (Shortcut.sent_via_shortcut sc1))

let test_shortcut_disable_restores () =
  with_shortcut_world (fun ~duo ~client ~server ~sc1 ~sc2 ->
      ignore sc2;
      Shortcut.disable sc1;
      let server_sock = bind_exn server.Workloads.Host.udp ~port:2003 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:2003
        (Bytes.of_string "packet level again");
      let _, _, got = Udp.recvfrom server_sock in
      Alcotest.(check string) "still delivered" "packet level again"
        (Bytes.to_string got);
      Alcotest.(check int) "not via shortcut" 0 (Shortcut.sent_via_shortcut sc1))

let test_shortcut_survives_migration_teardown () =
  (* Establish the shortcut while co-resident, migrate away: datagrams keep
     flowing over the wire, and the shortcut counters stop growing. *)
  let w = Scenarios.Migration_world.create () in
  let open Scenarios.Migration_world in
  let sc1 =
    Shortcut.enable ~xl_module:w.guest1.xl_module
      ~udp:w.guest1.ep.Scenarios.Endpoint.udp ()
  in
  let _sc2 =
    Shortcut.enable ~xl_module:w.guest2.xl_module
      ~udp:w.guest2.ep.Scenarios.Endpoint.udp ()
  in
  Experiment.run_process w.engine (fun () ->
      let dst = Hypervisor.Domain.ip w.guest2.domain in
      let server_sock = bind_exn w.guest2.ep.Scenarios.Endpoint.udp ~port:2004 () in
      let client_sock = bind_exn w.guest1.ep.Scenarios.Endpoint.udp () in
      (* Become co-resident and let the channel come up. *)
      migrate w w.guest1 ~dst:w.m2;
      Sim.Engine.sleep (Sim.Time.sec 6);
      Udp.sendto client_sock ~dst ~dst_port:2004 (Bytes.of_string "warm");
      ignore (Udp.recvfrom server_sock);
      Sim.Engine.sleep (Sim.Time.ms 10);
      Udp.sendto client_sock ~dst ~dst_port:2004 (Bytes.of_string "fast");
      ignore (Udp.recvfrom server_sock);
      let fast_sends = Shortcut.sent_via_shortcut sc1 in
      Alcotest.(check bool) "shortcut engaged while co-resident" true (fast_sends >= 1);
      (* Move away: the channel is torn down; traffic must still arrive. *)
      migrate w w.guest1 ~dst:w.m1;
      Udp.sendto client_sock ~dst ~dst_port:2004 (Bytes.of_string "slow again");
      let _, _, got = Udp.recvfrom server_sock in
      Alcotest.(check string) "delivered over the wire" "slow again"
        (Bytes.to_string got);
      Alcotest.(check int) "shortcut not used when apart" fast_sends
        (Shortcut.sent_via_shortcut sc1))

let suites =
  [
    ( "xenloop.socket_shortcut",
      [
        Alcotest.test_case "roundtrip with addressing" `Quick test_shortcut_roundtrip;
        Alcotest.test_case "size classes and refused pushes" `Quick
          test_shortcut_size_classes;
        Alcotest.test_case "skips protocol processing" `Quick
          test_shortcut_skips_protocol_processing;
        Alcotest.test_case "faster than packet-level xenloop" `Slow
          test_shortcut_faster_than_packet_level;
        Alcotest.test_case "falls back when apart" `Quick test_shortcut_fallback_when_apart;
        Alcotest.test_case "disable restores packet level" `Quick
          test_shortcut_disable_restores;
        Alcotest.test_case "migration teardown" `Slow
          test_shortcut_survives_migration_teardown;
      ] );
  ]
