(* The feature ladder's negotiation matrix: every (client rung, server
   rung) pair, plus one queue-count asymmetry, in a two-guest world.  A
   channel runs at the lower of its two ends' rungs: the capabilities it
   reports, the jumbo ceiling its TCP senders see, and the counters its
   traffic moves must all match that rung, and a UDP burst across the
   inline threshold and a 256 KiB TCP write must arrive complete and in
   order on every rung. *)

module Params = Hypervisor.Params
module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module
module Stack = Netstack.Stack

let rungs = Params.[ Paper; Notify; Zerocopy; Loans; Gso ]

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

(* Sizes around the 256 B inline threshold, and one datagram that
   fragments. *)
let udp_sizes = [ 1; 64; 255; 256; 257; 300; 1400; 200; 2000; 256; 6000; 40 ]

let datagram i size = Bytes.init size (fun j -> Char.chr ((i + (j * 13)) land 0xff))

let udp_burst ~duo ~client ~server =
  let bind ?port udp =
    match Netstack.Udp.bind udp ?port () with Ok s -> s | Error _ -> Alcotest.fail "bind"
  in
  let server_sock = bind server.Workloads.Host.udp ~port:930 in
  let client_sock = bind client.Workloads.Host.udp in
  List.iteri
    (fun i size ->
      Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:930
        (datagram i size))
    udp_sizes;
  List.iteri
    (fun i size ->
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check bytes) (Printf.sprintf "datagram %d (%d B)" i size) (datagram i size)
        got)
    udp_sizes

let tcp_write ~duo ~client ~server =
  let listener =
    match Netstack.Tcp.listen server.Workloads.Host.tcp ~port:7030 with
    | Ok l -> l
    | Error _ -> Alcotest.fail "listen"
  in
  let data = Bytes.init (256 * 1024) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let got = ref None in
  Sim.Engine.spawn duo.Setup.engine (fun () ->
      let sconn = Netstack.Tcp.accept listener in
      got := Some (Netstack.Tcp.recv_exact sconn (Bytes.length data)));
  let conn =
    match
      Netstack.Tcp.connect client.Workloads.Host.tcp ~dst:duo.Setup.server_ip
        ~dst_port:7030 ()
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "connect"
  in
  Netstack.Tcp.send conn data;
  let rec wait n =
    if !got = None && n > 0 then begin
      Sim.Engine.sleep (Sim.Time.ms 1);
      wait (n - 1)
    end
  in
  wait 100;
  Alcotest.(check bool) "256 KiB TCP write arrives intact" true
    (match !got with Some b -> Bytes.equal data b | None -> false)

let check_cell ?client_queues ?server_queues ~client_rung ~server_rung () =
  let duo =
    Setup.build ?client_queues ?server_queues ~client_rung ~server_rung
      Setup.Xenloop_path
  in
  let m1, m2 =
    match duo.Setup.modules with
    | [ m1; m2 ] -> (m1, m2)
    | _ -> Alcotest.fail "expected two xenloop modules"
  in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  let rung = min client_rung server_rung in
  let advertised q = Option.value q ~default:duo.Setup.params.Params.xenloop_queues in
  Experiment.execute duo (fun () ->
      Alcotest.(check bool) "channel up" true
        (Gm.has_channel_with m1 ~domid:2 && Gm.has_channel_with m2 ~domid:1);
      Alcotest.(check int) "queue pairs"
        (min (advertised client_queues) (advertised server_queues))
        (Gm.queue_count m1 ~domid:2);
      List.iter
        (fun (side, m, peer) ->
          Alcotest.(check bool) (side ^ " zero-copy")
            (rung >= Params.Zerocopy)
            (Gm.zerocopy_active m ~domid:peer);
          Alcotest.(check bool) (side ^ " loans") (rung >= Params.Loans)
            (Gm.loans_active m ~domid:peer))
        [ ("client", m1, 2); ("server", m2, 1) ];
      let ceiling = if rung >= Params.Gso then 65536 else 0 in
      Alcotest.(check int) "client jumbo ceiling" ceiling
        (Stack.tx_jumbo_hint client.Workloads.Host.stack ~dst:duo.Setup.server_ip);
      Alcotest.(check int) "server jumbo ceiling" ceiling
        (Stack.tx_jumbo_hint server.Workloads.Host.stack
           ~dst:(Stack.ip_addr client.Workloads.Host.stack));
      let rx0 = (Gm.stats m2).Gm.via_channel_rx in
      udp_burst ~duo ~client ~server;
      tcp_write ~duo ~client ~server;
      let s1 = Gm.stats m1 and s2 = Gm.stats m2 in
      Alcotest.(check bool) "traffic used the channel" true (s2.Gm.via_channel_rx > rx0);
      (* Batching is the sender's own business; suppression also needs
         the receiver to publish its consumer-active flag. *)
      if rung < Params.Notify then
        Alcotest.(check int) "no doorbell suppressed" 0
          (s1.Gm.notifies_suppressed + s2.Gm.notifies_suppressed);
      if client_rung < Params.Notify then
        Alcotest.(check int) "no client batches" 0 s1.Gm.batches;
      if server_rung < Params.Notify then
        Alcotest.(check int) "no server batches" 0 s2.Gm.batches;
      if rung < Params.Zerocopy then begin
        Alcotest.(check int) "no descriptors ever sent" 0 (s1.Gm.desc_tx + s2.Gm.desc_tx);
        Alcotest.(check int) "every queue inline" 0
          (Array.fold_left (fun acc q -> acc + q.Gm.qs_desc_tx) 0
             (Gm.queue_stats m1 ~domid:2))
      end
      else
        Alcotest.(check bool) "large frames rode descriptors" true (s1.Gm.desc_tx > 0);
      if rung < Params.Loans then begin
        Alcotest.(check int) "no loans" 0 (s1.Gm.loan_rx + s2.Gm.loan_rx);
        Alcotest.(check int) "no stalls either (credit is zero, not dry)" 0
          (s1.Gm.loan_credit_stalls + s2.Gm.loan_credit_stalls)
      end
      else Alcotest.(check bool) "descriptors received as loans" true (s2.Gm.loan_rx > 0);
      if rung < Params.Gso then
        Alcotest.(check int) "no jumbo descriptors" 0 (s1.Gm.jumbo_tx + s2.Gm.jumbo_tx)
      else Alcotest.(check bool) "the TCP write rode jumbos" true (s1.Gm.jumbo_tx > 0))

let test_queue_asymmetry () =
  (* One queue against four, on different rungs: the channel takes the
     lower of each. *)
  check_cell ~client_queues:1 ~server_queues:4 ~client_rung:Params.Gso
    ~server_rung:Params.Loans ()

let suites =
  [
    ( "xenloop.ladder",
      List.concat_map
        (fun client_rung ->
          List.map
            (fun server_rung ->
              Alcotest.test_case
                (Printf.sprintf "client %s, server %s" (Params.rung_name client_rung)
                   (Params.rung_name server_rung))
                `Quick
                (check_cell ~client_rung ~server_rung))
            rungs)
        rungs
      @ [ Alcotest.test_case "1 queue against 4" `Quick test_queue_asymmetry ] );
  ]
