(* Tests for the IP stack, UDP, and TCP over a zero-substrate "cable". *)

module Stack = Netstack.Stack
module Udp = Netstack.Udp
module Tcp = Netstack.Tcp
module Netdevice = Netstack.Netdevice
module Netfilter = Netstack.Netfilter
module Ip = Netcore.Ip
module Mac = Netcore.Mac

type host = { stack : Stack.t; udp : Udp.t; tcp : Tcp.t; dev : Netdevice.t }

(* Two hosts joined by a constant-latency cable.  The cable transfers the
   serialized bytes, so everything below the socket API is exercised
   end-to-end through the codec. *)
let make_pair ?(cable_latency = Sim.Time.us 2) ?(mtu = 1500) ?gso_size ?(on_deliver = ignore)
    engine =
  let params = Hypervisor.Params.default in
  let make i =
    let mac = Mac.of_domid ~machine:9 ~domid:i in
    let ip = Ip.make ~subnet:9 ~host:i in
    let cpu = Sim.Resource.create ~name:(Printf.sprintf "host%d.cpu" i) in
    let stack = Stack.create ~engine ~params ~cpu ~ip ~mac () in
    let dev = Netdevice.create ~name:(Printf.sprintf "eth%d" i) ~mtu ?gso_size ~mac () in
    Stack.attach_device stack dev;
    let udp = Udp.attach stack in
    let tcp = Tcp.attach stack in
    { stack; udp; tcp; dev }
  in
  let a = make 1 and b = make 2 in
  let connect_cable src dst =
    Netdevice.set_transmit src.dev (fun packet ->
        let raw = Netcore.Codec.serialize packet in
        Sim.Engine.after engine cable_latency (fun () ->
            match Netcore.Codec.parse raw with
            | Ok p ->
                on_deliver p;
                Netdevice.receive dst.dev p
            | Error e -> Alcotest.failf "cable corruption: %a" Netcore.Codec.pp_error e))
  in
  connect_cable a b;
  connect_cable b a;
  (a, b)

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.sec 60)) engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation deadlocked (process never finished)"

(* ------------------------------------------------------------------ *)
(* ICMP / ARP *)

let test_ping_rtt () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      match Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) () with
      | None -> Alcotest.fail "ping timed out"
      | Some rtt ->
          Alcotest.(check bool) "rtt positive" true (Sim.Time.span_is_positive rtt);
          (* Second ping should be faster or equal: ARP already resolved. *)
          let rtt2 =
            match Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) () with
            | Some r -> r
            | None -> Alcotest.fail "second ping timed out"
          in
          Alcotest.(check bool) "warm path is not slower" true
            (Sim.Time.span_compare rtt2 rtt <= 0))

let test_ping_self_via_loopback () =
  run_sim (fun engine ->
      let a, _ = make_pair engine in
      match Stack.ping a.stack ~dst:(Stack.ip_addr a.stack) () with
      | None -> Alcotest.fail "self ping timed out"
      | Some _ ->
          (* Request and reply both ride the loopback device. *)
          Alcotest.(check int) "two frames on lo" 2
            (Netdevice.tx_packets (Stack.loopback_device a.stack));
          Alcotest.(check int) "nothing on the wire" 0 (Netdevice.tx_packets a.dev))

let test_ping_unreachable_times_out () =
  run_sim (fun engine ->
      let a, _ = make_pair engine in
      let ghost = Ip.make ~subnet:9 ~host:99 in
      match
        try Some (Stack.ping a.stack ~dst:ghost ()) with Stack.Unreachable _ -> None
      with
      | None -> ()
      | Some (Some _) -> Alcotest.fail "ping to ghost succeeded"
      | Some None -> Alcotest.fail "expected ARP failure, got ICMP timeout")

let test_arp_cache_populated () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      ignore (Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) ());
      match Netstack.Neighbor.lookup (Stack.neighbor a.stack) (Stack.ip_addr b.stack) with
      | Some mac ->
          Alcotest.(check bool) "learned b's mac" true
            (Mac.equal mac (Stack.mac_addr b.stack))
      | None -> Alcotest.fail "no neighbour entry")

(* ------------------------------------------------------------------ *)
(* UDP *)

let test_udp_roundtrip () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let server =
        match Udp.bind b.udp ~port:5353 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind failed"
      in
      let client =
        match Udp.bind a.udp () with Ok s -> s | Error _ -> Alcotest.fail "bind failed"
      in
      Sim.Engine.spawn engine (fun () ->
          let src, sport, query = Udp.recvfrom server in
          Alcotest.(check string) "query" "hello?" (Bytes.to_string query);
          Udp.sendto server ~dst:src ~dst_port:sport (Bytes.of_string "world!"));
      Udp.sendto client ~dst:(Stack.ip_addr b.stack) ~dst_port:5353
        (Bytes.of_string "hello?");
      let _, _, answer = Udp.recvfrom client in
      Alcotest.(check string) "answer" "world!" (Bytes.to_string answer))

let test_udp_large_datagram_fragments () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let server =
        match Udp.bind b.udp ~port:7 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind failed"
      in
      let client =
        match Udp.bind a.udp () with Ok s -> s | Error _ -> Alcotest.fail "bind failed"
      in
      let big = Bytes.init 40_000 (fun i -> Char.chr (i land 0xff)) in
      Udp.sendto client ~dst:(Stack.ip_addr b.stack) ~dst_port:7 big;
      let _, _, got = Udp.recvfrom server in
      Alcotest.(check bool) "payload intact" true (Bytes.equal big got);
      Alcotest.(check bool) "was fragmented on the wire" true
        (Netdevice.tx_packets a.dev > 10))

let test_udp_max_datagram_enforced () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let client =
        match Udp.bind a.udp () with Ok s -> s | Error _ -> Alcotest.fail "bind failed"
      in
      Alcotest.(check bool) "oversized rejected" true
        (try
           Udp.sendto client ~dst:(Stack.ip_addr b.stack) ~dst_port:1
             (Bytes.make (Udp.max_datagram + 1) 'x');
           false
         with Invalid_argument _ -> true))

let test_udp_port_conflict () =
  run_sim (fun engine ->
      let a, _ = make_pair engine in
      (match Udp.bind a.udp ~port:123 () with Ok _ -> () | Error _ -> Alcotest.fail "bind");
      match Udp.bind a.udp ~port:123 () with
      | Error Udp.Port_in_use -> ()
      | _ -> Alcotest.fail "double bind accepted")

let test_udp_unknown_port_dropped () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let client =
        match Udp.bind a.udp () with Ok s -> s | Error _ -> Alcotest.fail "bind failed"
      in
      Udp.sendto client ~dst:(Stack.ip_addr b.stack) ~dst_port:9999
        (Bytes.of_string "void");
      Sim.Engine.sleep (Sim.Time.ms 10);
      (* Nothing crashes; the datagram simply vanishes. *)
      Alcotest.(check int) "no receiver" 0 0)

(* ------------------------------------------------------------------ *)
(* TCP *)

let with_tcp_pair ?on_deliver engine f =
  let a, b = make_pair ?on_deliver engine in
  let listener =
    match Tcp.listen b.tcp ~port:80 with
    | Ok l -> l
    | Error e -> Alcotest.failf "listen failed: %a" Tcp.pp_error e
  in
  let server_conn = ref None in
  Sim.Engine.spawn engine (fun () -> server_conn := Some (Tcp.accept listener));
  let client_conn =
    match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect failed: %a" Tcp.pp_error e
  in
  (* Accept completes strictly before connect returns (final ACK), but give
     the accept process a chance to run. *)
  Sim.Engine.sleep (Sim.Time.ms 1);
  match !server_conn with
  | None -> Alcotest.fail "accept never completed"
  | Some sc -> f ~client:client_conn ~server:sc ~a ~b

let test_tcp_connect_and_echo () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          Sim.Engine.spawn engine (fun () ->
              let request = Tcp.recv_exact server 5 in
              Alcotest.(check string) "request" "marco" (Bytes.to_string request);
              Tcp.send server (Bytes.of_string "polo!"));
          Tcp.send client (Bytes.of_string "marco");
          let reply = Tcp.recv_exact client 5 in
          Alcotest.(check string) "reply" "polo!" (Bytes.to_string reply)))

let test_tcp_bulk_transfer_integrity () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          let n = 500_000 in
          let data = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
          Sim.Engine.spawn engine (fun () -> Tcp.send client data);
          let got = Tcp.recv_exact server n in
          Alcotest.(check bool) "byte-identical" true (Bytes.equal data got);
          Alcotest.(check int) "counters" n (Tcp.bytes_received server)))

let test_tcp_bidirectional () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          (* Each direction fits in the peer's receive buffer, so two
             blocking sends cannot deadlock (as they would in real TCP). *)
          let n = 30_000 in
          let to_server = Bytes.make n 'A' and to_client = Bytes.make n 'B' in
          Sim.Engine.spawn engine (fun () ->
              Tcp.send server to_client;
              let got = Tcp.recv_exact server n in
              Alcotest.(check bool) "server got A's" true (Bytes.equal got to_server));
          Tcp.send client to_server;
          let got = Tcp.recv_exact client n in
          Alcotest.(check bool) "client got B's" true (Bytes.equal got to_client)))

let test_tcp_connect_refused () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      ignore b;
      match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:9 () with
      | Error Tcp.Refused -> ()
      | Ok _ -> Alcotest.fail "connected to a closed port"
      | Error e -> Alcotest.failf "unexpected error: %a" Tcp.pp_error e)

let test_tcp_close_eof () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          Sim.Engine.spawn engine (fun () ->
              Tcp.send client (Bytes.of_string "bye");
              Tcp.close client);
          let got = Tcp.recv_exact server 3 in
          Alcotest.(check string) "data before fin" "bye" (Bytes.to_string got);
          let eof = Tcp.recv server ~max:10 in
          Alcotest.(check int) "eof" 0 (Bytes.length eof)))

let test_tcp_flow_control_blocks_sender () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          (* Server never reads: sender must stall at the 256 KiB window. *)
          ignore server;
          let sent = ref 0 in
          let chunks = 24 in
          Sim.Engine.spawn engine (fun () ->
              let chunk = Bytes.make 16_384 'x' in
              for _ = 1 to chunks do
                Tcp.send client chunk;
                sent := !sent + Bytes.length chunk
              done);
          Sim.Engine.sleep (Sim.Time.sec 5);
          Alcotest.(check bool) "sender stalled near the window" true
            (!sent <= 262_140 + 16_384);
          (* Now drain; the sender must finish. *)
          let rec drain n =
            if n < chunks * 16_384 then begin
              let got = Tcp.recv server ~max:65536 in
              drain (n + Bytes.length got)
            end
          in
          drain 0;
          Sim.Engine.sleep (Sim.Time.sec 1);
          Alcotest.(check int) "all sent after drain" (chunks * 16_384) !sent))

(* Every data payload the cable delivered, as parsed: the buffers a
   whole-chunk [Tcp.recv] may hand over. *)
let delivered_payloads () =
  let seen = ref [] in
  let on_deliver p =
    match Netcore.Packet.payload p with
    | Some b when Bytes.length b > 0 -> seen := b :: !seen
    | _ -> ()
  in
  (seen, on_deliver)

let test_tcp_recv_hands_over_whole_chunk () =
  run_sim (fun engine ->
      let seen, on_deliver = delivered_payloads () in
      with_tcp_pair ~on_deliver engine (fun ~client ~server ~a:_ ~b:_ ->
          Tcp.set_nodelay client true;
          let chunk i = Bytes.make 1_000 (Char.chr (0x41 + i)) in
          let delivered got = List.exists (fun b -> b == got) !seen in
          (* One queued chunk, read whole: the queued buffer itself. *)
          Tcp.send client (chunk 0);
          Sim.Engine.sleep (Sim.Time.ms 1);
          let got = Tcp.recv server ~max:65_536 in
          Alcotest.(check bytes) "whole chunk" (chunk 0) got;
          Alcotest.(check bool) "the queued buffer itself" true (delivered got);
          (* Partial reads copy, the rest of the chunk too. *)
          Tcp.send client (chunk 1);
          Sim.Engine.sleep (Sim.Time.ms 1);
          let head = Tcp.recv server ~max:400 in
          let tail = Tcp.recv server ~max:65_536 in
          Alcotest.(check bytes) "partial read" (Bytes.sub (chunk 1) 0 400) head;
          Alcotest.(check bytes) "rest of the chunk" (Bytes.sub (chunk 1) 400 600) tail;
          Alcotest.(check bool) "partial reads copy" false (delivered head || delivered tail);
          (* Two chunks read at once are gathered into a copy. *)
          Tcp.send client (chunk 2);
          Sim.Engine.sleep (Sim.Time.ms 1);
          Tcp.send client (chunk 3);
          Sim.Engine.sleep (Sim.Time.ms 1);
          let both = Tcp.recv server ~max:65_536 in
          Alcotest.(check bytes) "two chunks" (Bytes.cat (chunk 2) (chunk 3)) both;
          Alcotest.(check bool) "multi-chunk read copies" false (delivered both)))

let test_tcp_whole_chunk_recv_reopens_window () =
  run_sim (fun engine ->
      let seen, on_deliver = delivered_payloads () in
      with_tcp_pair ~on_deliver engine (fun ~client ~server ~a:_ ~b:_ ->
          Tcp.set_nodelay client true;
          let mss = Tcp.mss server in
          let writes = 200 in
          let sent = ref 0 in
          Sim.Engine.spawn engine (fun () ->
              let write = Bytes.make mss 'w' in
              for _ = 1 to writes do
                Tcp.send client write;
                incr sent
              done);
          Sim.Engine.sleep (Sim.Time.sec 1);
          let stalled = !sent in
          Alcotest.(check bool) "sender stalled on the closed window" true
            (stalled < writes);
          (* One whole-chunk read reopens the window; its window-update
             ACK alone must restart the sender. *)
          let got = Tcp.recv server ~max:mss in
          Alcotest.(check bool) "handed over" true (List.exists (fun b -> b == got) !seen);
          Sim.Engine.sleep (Sim.Time.sec 1);
          Alcotest.(check bool) "sender resumed" true (!sent > stalled);
          let rec drain n =
            if n < writes * mss then drain (n + Bytes.length (Tcp.recv server ~max:mss))
            else n
          in
          Alcotest.(check int) "every byte read" (writes * mss)
            (drain (Bytes.length got));
          Sim.Engine.sleep (Sim.Time.ms 10);
          Alcotest.(check int) "all sent" writes !sent))

let test_tcp_mss_respects_path_mtu () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          ignore server;
          Alcotest.(check int) "mss = mtu - 40" 1460 (Tcp.mss client)))

let test_tcp_seq_wraparound () =
  (* Serial arithmetic must survive crossing 2^31 and 2^32. *)
  let near_wrap = Int32.of_int (-5) in
  let after = Tcp.seq_add near_wrap 10 in
  Alcotest.(check int) "diff across wrap" 10 (Tcp.seq_diff after near_wrap);
  Alcotest.(check bool) "lt across wrap" true (Tcp.seq_lt near_wrap after);
  Alcotest.(check bool) "not gt" false (Tcp.seq_lt after near_wrap)

let prop_tcp_stream_integrity =
  QCheck.Test.make ~name:"tcp stream delivers arbitrary write patterns intact"
    ~count:20
    QCheck.(list_of_size Gen.(1 -- 10) (string_of_size Gen.(1 -- 5000)))
    (fun chunks ->
      run_sim (fun engine ->
          let a, b = make_pair engine in
          let listener =
            match Tcp.listen b.tcp ~port:81 with
            | Ok l -> l
            | Error _ -> failwith "listen"
          in
          let expected = String.concat "" chunks in
          let received = ref "" in
          Sim.Engine.spawn engine (fun () ->
              let conn = Tcp.accept listener in
              received :=
                Bytes.to_string (Tcp.recv_exact conn (String.length expected)));
          (match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:81 () with
          | Ok conn ->
              List.iter (fun chunk -> Tcp.send conn (Bytes.of_string chunk)) chunks
          | Error _ -> failwith "connect");
          Sim.Engine.sleep (Sim.Time.sec 20);
          !received = expected))

let test_tcp_double_listen_rejected () =
  run_sim (fun engine ->
      let _a, b = make_pair engine in
      (match Tcp.listen b.tcp ~port:80 with Ok _ -> () | Error _ -> Alcotest.fail "listen");
      match Tcp.listen b.tcp ~port:80 with
      | Error Tcp.Already_bound -> ()
      | _ -> Alcotest.fail "double listen accepted")

let test_tcp_accept_opt_nonblocking () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let listener =
        match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
      in
      Alcotest.(check bool) "empty accept queue" true (Tcp.accept_opt listener = None);
      (match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "connect: %a" Tcp.pp_error e);
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check bool) "connection queued" true (Tcp.accept_opt listener <> None))

let test_tcp_conn_metadata () =
  run_sim (fun engine ->
      with_tcp_pair engine (fun ~client ~server ~a:_ ~b ->
          Alcotest.(check int) "server port" 80 (Tcp.local_port server);
          let peer_ip, peer_port = Tcp.peer client in
          Alcotest.(check bool) "peer ip" true
            (Ip.equal peer_ip (Stack.ip_addr b.stack));
          Alcotest.(check int) "peer port" 80 peer_port;
          Tcp.send client (Bytes.make 100 'm');
          ignore (Tcp.recv_exact server 100);
          Alcotest.(check int) "bytes sent" 100 (Tcp.bytes_sent client);
          Alcotest.(check int) "bytes received" 100 (Tcp.bytes_received server)))

let test_netfilter_hooks_run_in_order () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let order = ref [] in
      let nf = Stack.post_routing a.stack in
      let _h1 =
        Netfilter.register nf (fun _ ->
            order := 1 :: !order;
            Netfilter.Accept)
      in
      let _h2 =
        Netfilter.register nf (fun _ ->
            order := 2 :: !order;
            Netfilter.Accept)
      in
      Alcotest.(check int) "two hooks" 2 (Netfilter.hook_count nf);
      ignore (Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) ());
      (* Request passed both hooks in registration order. *)
      (match List.rev !order with
      | 1 :: 2 :: _ -> ()
      | _ -> Alcotest.fail "hooks out of order");
      (* A stealing first hook short-circuits the second. *)
      order := [];
      let _h0 = Netfilter.register nf (fun _ -> Netfilter.Steal) in
      ignore
        (Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) ~timeout:(Sim.Time.ms 20) ());
      Alcotest.(check (list int)) "short-circuited after steal" [ 2; 1 ] !order)

(* ------------------------------------------------------------------ *)
(* Loss recovery *)

(* Two hosts joined by a cable that hands each frame over by reference,
   as netfront does, unless [keep] refuses it. *)
let make_ref_pair engine ~keep =
  let params = Hypervisor.Params.default in
  let make i =
    let mac = Mac.of_domid ~machine:8 ~domid:i in
    let ip = Ip.make ~subnet:8 ~host:i in
    let cpu = Sim.Resource.create ~name:(Printf.sprintf "lossy%d.cpu" i) in
    let stack = Stack.create ~engine ~params ~cpu ~ip ~mac () in
    let dev = Netdevice.create ~name:(Printf.sprintf "eth%d" i) ~mtu:1500 ~mac () in
    Stack.attach_device stack dev;
    let udp = Udp.attach stack in
    let tcp = Tcp.attach stack in
    { stack; udp; tcp; dev }
  in
  let a = make 1 and b = make 2 in
  let connect_cable src dst =
    Netdevice.set_transmit src.dev (fun packet ->
        if keep packet then
          Sim.Engine.after engine (Sim.Time.us 2) (fun () ->
              Netdevice.receive dst.dev packet))
  in
  connect_cable a b;
  connect_cable b a;
  (a, b)

(* A pair whose cable can drop frames (every [period]-th IPv4 frame when
   [period > 0]) or be cut entirely via the returned switch.  TCP must
   recover through retransmission — this is the migration-blackout
   situation. *)
let make_lossy_pair engine ~period =
  let counter = ref 0 in
  let cut = ref false in
  let keep packet =
    let periodic_drop =
      period > 0 && Netcore.Packet.is_ipv4 packet
      &&
      (incr counter;
       !counter mod period = 0)
    in
    (not !cut) && not periodic_drop
  in
  let a, b = make_ref_pair engine ~keep in
  (a, b, cut)

let test_tcp_retransmits_through_loss () =
  run_sim (fun engine ->
      let a, b, _ = make_lossy_pair engine ~period:7 in
      let listener =
        match Tcp.listen b.tcp ~port:80 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let n = 100_000 in
      let data = Bytes.init n (fun i -> Char.chr (i * 11 land 0xff)) in
      let got = ref Bytes.empty in
      Sim.Engine.spawn engine (fun () ->
          let conn = Tcp.accept listener in
          got := Tcp.recv_exact conn n);
      (match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
      | Ok conn -> Tcp.send conn data
      | Error e -> Alcotest.failf "connect through loss failed: %a" Tcp.pp_error e);
      Sim.Engine.sleep (Sim.Time.sec 30);
      Alcotest.(check bool) "every byte recovered" true (Bytes.equal data !got))

(* The sequence number and payload view of a TCP segment that carries
   data. *)
let data_segment (packet : Netcore.Packet.t) =
  match packet.Netcore.Packet.body with
  | Netcore.Packet.Ipv4_body
      {
        content =
          Netcore.Packet.Full { transport = Netcore.Transport.Tcp h; payload };
        _;
      }
    when payload.Netcore.View.len > 0 ->
      Some (h.Netcore.Transport.seq, payload)
  | _ -> None

(* One write of [data] over a by-reference cable that drops the [nth]
   data segment once.  Checks that the server read every byte, and
   returns every data segment the client sent, in order. *)
(* The data segments the sender emitted, in order, each with the
   simulated time it left at. *)
let stream_dropping_once engine ~nth data =
  let sent = ref [] and seen = ref 0 in
  let keep packet =
    match data_segment packet with
    | Some (seq, v) ->
        sent := (Sim.Engine.now engine, seq, v) :: !sent;
        incr seen;
        !seen <> nth
    | None -> true
  in
  let a, b = make_ref_pair engine ~keep in
  let listener =
    match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
  in
  let got = ref Bytes.empty in
  Sim.Engine.spawn engine (fun () ->
      let conn = Tcp.accept listener in
      got := Tcp.recv_exact conn (Bytes.length data));
  (match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
  | Ok conn -> Tcp.send conn data
  | Error _ -> Alcotest.fail "connect");
  Sim.Engine.sleep (Sim.Time.sec 2);
  Alcotest.(check bool) "every byte arrived" true (Bytes.equal data !got);
  List.rev !sent

let is_view_of data ~off (v : Netcore.View.t) =
  v.Netcore.View.buf == data && v.Netcore.View.off = off

let test_tcp_rto_resends_from_view () =
  run_sim (fun engine ->
      let data = Bytes.init 3_000 (fun i -> Char.chr (i * 7 land 0xff)) in
      match stream_dropping_once engine ~nth:1 data with
      | (t0, seq, first) :: rest ->
          Alcotest.(check bool) "the segment is a view of the write" true
            (is_view_of data ~off:0 first);
          (* The timeout resends the very bytes of the caller's buffer,
             once: the resend fills the receiver's gap, which it
             acknowledges at once, so the doubled timeout never fires. *)
          let resent =
            List.filter_map
              (fun (t, s, v) ->
                if Int32.equal s seq then
                  Some (Float.to_int (Float.round (Sim.Time.to_ms_f (Sim.Time.diff t t0))), v)
                else None)
              rest
          in
          Alcotest.(check (list int)) "resent once, at 200 ms" [ 200 ] (List.map fst resent);
          List.iter
            (fun (_, v) ->
              Alcotest.(check bool) "resent from the same view" true
                (is_view_of data ~off:0 v && v.Netcore.View.len = first.Netcore.View.len))
            resent
      | [] -> Alcotest.fail "no data segment sent")

let test_tcp_partial_ack_prunes_by_sequence () =
  run_sim (fun engine ->
      let data = Bytes.init 3_000 (fun i -> Char.chr (i * 3 land 0xff)) in
      match
        List.map (fun (_, s, v) -> (s, v)) (stream_dropping_once engine ~nth:2 data)
      with
      | (seq1, _) :: (seq2, second) :: _ :: retransmitted ->
          (* The segment after the gap draws a duplicate ACK that covers
             the first segment: its view leaves the queue, so the timeout
             resends the second segment first and never the first. *)
          Alcotest.(check bool) "no acknowledged segment resent" false
            (List.exists (fun (s, _) -> Int32.equal s seq1) retransmitted);
          (match retransmitted with
          | (s, v) :: _ ->
              Alcotest.(check bool) "the oldest unacknowledged view resent" true
                (Int32.equal s seq2 && is_view_of data ~off:second.Netcore.View.off v
                && second.Netcore.View.off > 0)
          | [] -> Alcotest.fail "nothing retransmitted")
      | _ -> Alcotest.fail "expected three data segments")

(* A jumbo hint with no xenloop hook to take the jumbos: every segment
   the sender cuts at the 65495-byte ceiling is cut back to the device's
   wire MSS, as when a channel dies under a stream.  The runt of the
   first write is corked and topped up from the second, so the second
   jumbo's payload gathers views of both writes; its resegmented pieces,
   one of them across the two runs, serialize to the right bytes. *)
let test_tcp_gathered_jumbo_resegmented () =
  run_sim (fun engine ->
      let a, b = make_pair ~gso_size:16384 engine in
      Stack.set_tx_jumbo_hint a.stack (Some (fun ~dst:_ -> 65535));
      let gathered = ref 0 in
      let _hook =
        Netfilter.register (Stack.post_routing a.stack) (fun packet ->
            (match data_segment packet with
            | Some (_, { Netcore.View.kind = Netcore.View.Gather _; len; _ }) ->
                gathered := len
            | _ -> ());
            Netfilter.Accept)
      in
      let listener =
        match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
      in
      let first = Bytes.init (65_495 + 700) (fun i -> Char.chr (i * 7 land 0xff)) in
      let second = Bytes.init 65_495 (fun i -> Char.chr (((i * 13) + 1) land 0xff)) in
      let total = Bytes.length first + Bytes.length second in
      let got = ref Bytes.empty in
      Sim.Engine.spawn engine (fun () ->
          let conn = Tcp.accept listener in
          got := Tcp.recv_exact conn total);
      let segmented = (Stack.stats a.stack).Stack.sw_segmented in
      (match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
      | Ok conn ->
          Tcp.send conn first;
          Tcp.send conn second;
          Tcp.close conn
      | Error _ -> Alcotest.fail "connect");
      Sim.Engine.sleep (Sim.Time.sec 1);
      Alcotest.(check int) "a jumbo gathers the runt and the top-up" 65_495 !gathered;
      Alcotest.(check bool) "jumbos cut to the wire MSS" true
        ((Stack.stats a.stack).Stack.sw_segmented > segmented);
      Alcotest.(check bool) "every byte, in order" true
        (Bytes.equal (Bytes.cat first second) !got))

(* A jumbo connection whose cork takes many writes between flushes:
   after a runt, hundreds of writes of 1-300 B, so the cork runs out of
   runs again and again and each time collapses into one copied run.
   The reader starts late, so the first write fills the window and
   corked bytes leave in window-sized parts.  Whatever the cork holds,
   the stream arrives intact. *)
let test_tcp_cork_of_many_writes_intact () =
  run_sim (fun engine ->
      let a, b = make_pair ~gso_size:16384 engine in
      Stack.set_tx_jumbo_hint a.stack (Some (fun ~dst:_ -> 65535));
      let listener =
        match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
      in
      let writes =
        Bytes.init ((3 * 65_495) + 500) (fun i -> Char.chr (i * 5 land 0xff))
        :: List.init 400 (fun w ->
               let len = if w mod 7 = 3 then 1 + (w mod 200) else 300 in
               Bytes.init len (fun i -> Char.chr (((w * 31) + i) land 0xff)))
      in
      let total = List.fold_left (fun n w -> n + Bytes.length w) 0 writes in
      let got = ref Bytes.empty in
      Sim.Engine.spawn engine (fun () ->
          let conn = Tcp.accept listener in
          Sim.Engine.sleep (Sim.Time.ms 20);
          got := Tcp.recv_exact conn total);
      (match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
      | Ok conn ->
          List.iter (Tcp.send conn) writes;
          Tcp.close conn
      | Error _ -> Alcotest.fail "connect");
      Sim.Engine.sleep (Sim.Time.sec 1);
      Alcotest.(check bool) "every byte, in order" true
        (Bytes.equal (Bytes.concat Bytes.empty writes) !got))

let test_tcp_recv_copies_slices () =
  run_sim (fun engine ->
      let a, b = make_ref_pair engine ~keep:(fun _ -> true) in
      let listener =
        match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
      in
      let server = ref None in
      Sim.Engine.spawn engine (fun () -> server := Some (Tcp.accept listener));
      let client =
        match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
        | Ok c -> c
        | Error _ -> Alcotest.fail "connect"
      in
      Sim.Engine.sleep (Sim.Time.ms 1);
      let server = Option.get !server in
      Tcp.set_nodelay client true;
      let mss = Tcp.mss client in
      (* A write cut into segments: each queued chunk is a slice of the
         write, so a read of exactly one chunk still copies. *)
      let data = Bytes.init (2 * mss) (fun i -> Char.chr (i land 0xff)) in
      Tcp.send client data;
      Sim.Engine.sleep (Sim.Time.ms 1);
      let got = Tcp.recv server ~max:mss in
      Alcotest.(check bytes) "first segment" (Bytes.sub data 0 mss) got;
      Alcotest.(check bool) "a slice is copied" true (got != data);
      ignore (Tcp.recv_exact server mss);
      (* A one-segment write is a view of its whole buffer, which over a
         cable that copies nothing arrives as the sender's own: the read
         copies it, so the reader owns what it gets and a write into it
         cannot reach the sender's buffer. *)
      let small = Bytes.make 100 's' in
      Tcp.send client small;
      Sim.Engine.sleep (Sim.Time.ms 1);
      let got = Tcp.recv server ~max:100 in
      Alcotest.(check bool) "a by-reference buffer is copied" true (got != small);
      Bytes.fill got 0 100 'r';
      Alcotest.(check bytes) "the sender's buffer is untouched" (Bytes.make 100 's') small)

let test_tcp_recv_hands_over_xenloop_chunk () =
  (* On XenLoop the receive buffer is the one a frame's payload was
     parsed into out of the pool; a read of that whole chunk returns it
     without a second copy, so the read allocates far less than the
     chunk.  The chunk is small enough that a copy of it would be
     allocated on the minor heap. *)
  let module Setup = Scenarios.Setup in
  let duo = Setup.build Setup.Xenloop_path in
  Scenarios.Experiment.execute duo (fun () ->
      let listener =
        match Tcp.listen duo.Setup.server.Scenarios.Endpoint.tcp ~port:7200 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let server = ref None in
      Sim.Engine.spawn duo.Setup.engine (fun () -> server := Some (Tcp.accept listener));
      let client =
        match
          Tcp.connect duo.Setup.client.Scenarios.Endpoint.tcp ~dst:duo.Setup.server_ip
            ~dst_port:7200 ()
        with
        | Ok c -> c
        | Error _ -> Alcotest.fail "connect"
      in
      let len = 1_600 in
      let data = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
      Tcp.send client data;
      Sim.Engine.sleep (Sim.Time.ms 5);
      let server = Option.get !server in
      let before = Gc.minor_words () in
      let got = Tcp.recv server ~max:len in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bytes) "the write" data got;
      Alcotest.(check bool) "not the sender's buffer" true (got != data);
      Alcotest.(check bool)
        (Printf.sprintf "handed over: %.0f minor words for a %d-byte read" words len)
        true
        (words < float_of_int (len / 16)))

let test_tcp_survives_total_blackout () =
  run_sim (fun engine ->
      let a, b, cut = make_lossy_pair engine ~period:0 in
      let listener =
        match Tcp.listen b.tcp ~port:80 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let n = 200_000 in
      let data = Bytes.init n (fun i -> Char.chr (i * 5 land 0xff)) in
      let got = ref Bytes.empty in
      Sim.Engine.spawn engine (fun () ->
          let conn = Tcp.accept listener in
          got := Tcp.recv_exact conn n);
      Sim.Engine.spawn engine (fun () ->
          match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
          | Ok conn -> Tcp.send conn data
          | Error _ -> Alcotest.fail "connect");
      (* Cut the cable for 300 ms in the middle of the stream. *)
      Sim.Engine.after engine (Sim.Time.ms 5) (fun () -> cut := true);
      Sim.Engine.after engine (Sim.Time.ms 305) (fun () -> cut := false);
      Sim.Engine.sleep (Sim.Time.sec 30);
      Alcotest.(check bool) "stream completed after blackout" true
        (Bytes.equal data !got))

(* A stream over a by-reference cable that drops the data segments
   [drop] (counted from 1) and records when each data segment left and
   whether its sequence space had been sent before.  Returns the
   simulated time the server had read all of [writes], counted from the
   first write, and the sequence numbers resent. *)
let stream_with_drops engine ~drop writes =
  let seen = ref 0 and sent_end = ref None and resent = ref [] in
  let keep packet =
    match data_segment packet with
    | Some (seq, v) ->
        incr seen;
        (match !sent_end with
        | Some e when Tcp.seq_lt seq e -> resent := seq :: !resent
        | _ -> ());
        let e = Tcp.seq_add seq v.Netcore.View.len in
        (match !sent_end with
        | Some prev when not (Tcp.seq_lt prev e) -> ()
        | _ -> sent_end := Some e);
        not (drop !seen)
    | None -> true
  in
  let a, b = make_ref_pair engine ~keep in
  let listener =
    match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
  in
  let total = List.fold_left (fun n w -> n + Bytes.length w) 0 writes in
  let done_at = ref None in
  Sim.Engine.spawn engine (fun () ->
      let conn = Tcp.accept listener in
      let got = ref 0 in
      while !got < total do
        let chunk = Tcp.recv conn ~max:65536 in
        if Bytes.length chunk = 0 then Alcotest.fail "stream ended early";
        got := !got + Bytes.length chunk
      done;
      done_at := Some (Sim.Engine.now engine));
  let conn =
    match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
    | Ok c -> c
    | Error _ -> Alcotest.fail "connect"
  in
  let t0 = Sim.Engine.now engine in
  List.iter (Tcp.send conn) writes;
  while !done_at = None do
    Sim.Engine.sleep (Sim.Time.ms 1)
  done;
  (Sim.Time.to_ms_f (Sim.Time.diff (Option.get !done_at) t0), List.rev !resent)

(* The retransmission timer restarts on every ACK of new data (RFC 6298
   §5.3), so a stream that never loses a frame never times out, however
   long it runs.  Armed once at the first segment, it fired 200 ms into
   the stream and resent data that was merely in flight. *)
let test_tcp_lossless_stream_no_timeout () =
  run_sim (fun engine ->
      let write = Bytes.init 65_536 (fun i -> Char.chr (i land 0xff)) in
      let ms, resent =
        stream_with_drops engine ~drop:(fun _ -> false) (List.init 2000 (fun _ -> write))
      in
      Alcotest.(check bool) (Printf.sprintf "the stream outlasts the RTO (%.0f ms)" ms) true
        (ms > 250.);
      Alcotest.(check int) "no segment resent" 0 (List.length resent))

(* A blackout that drops K consecutive segments: the timeout resends the
   first, and each partial ACK that follows resends the next hole at
   once (RFC 6582), so the stream completes one timeout and about K
   round trips after the loss, not K doubled timeouts later. *)
let test_tcp_blackout_recovers_per_round_trip () =
  run_sim (fun engine ->
      let k = 8 in
      let write = Bytes.init (30 * 1460) (fun i -> Char.chr (i * 3 land 0xff)) in
      let ms, resent =
        stream_with_drops engine ~drop:(fun n -> n >= 3 && n < 3 + k) [ write ]
      in
      Alcotest.(check int) "each lost segment resent once" k (List.length resent);
      Alcotest.(check bool)
        (Printf.sprintf "done within one RTO and a few ms (%.1f ms)" ms)
        true (ms < 210.))

let prop_tcp_random_loss =
  QCheck.Test.make ~name:"tcp stream survives random frame loss" ~count:12
    QCheck.(pair (int_range 0 10_000) (int_range 5 25))
    (fun (seed, loss_percent) ->
      run_sim (fun engine ->
          let params = Hypervisor.Params.default in
          let rng = Sim.Rng.create ~seed in
          let make i =
            let mac = Mac.of_domid ~machine:7 ~domid:i in
            let ip = Ip.make ~subnet:7 ~host:i in
            let cpu = Sim.Resource.create ~name:(Printf.sprintf "r%d.cpu" i) in
            let stack = Stack.create ~engine ~params ~cpu ~ip ~mac () in
            let dev =
              Netdevice.create ~name:(Printf.sprintf "eth%d" i) ~mtu:1500 ~mac ()
            in
            Stack.attach_device stack dev;
            let udp = Udp.attach stack in
            let tcp = Tcp.attach stack in
            { stack; udp; tcp; dev }
          in
          let a = make 1 and b = make 2 in
          let connect_cable src dst =
            Netdevice.set_transmit src.dev (fun packet ->
                let drop =
                  Netcore.Packet.is_ipv4 packet
                  && Sim.Rng.int rng 100 < loss_percent
                in
                if not drop then
                  Sim.Engine.after engine (Sim.Time.us 2) (fun () ->
                      Netdevice.receive dst.dev packet))
          in
          connect_cable a b;
          connect_cable b a;
          let listener =
            match Tcp.listen b.tcp ~port:80 with Ok l -> l | Error _ -> failwith "listen"
          in
          let n = 30_000 in
          let data = Bytes.init n (fun i -> Char.chr (i * 13 land 0xff)) in
          let got = ref Bytes.empty in
          Sim.Engine.spawn engine (fun () ->
              let conn = Tcp.accept listener in
              got := Tcp.recv_exact conn n);
          Sim.Engine.spawn engine (fun () ->
              match Tcp.connect a.tcp ~dst:(Stack.ip_addr b.stack) ~dst_port:80 () with
              | Ok conn -> Tcp.send conn data
              | Error _ -> () (* repeated SYN loss can exhaust the handshake *));
          Sim.Engine.sleep (Sim.Time.sec 50);
          (* Either the whole stream arrived intact, or the handshake itself
             never completed (possible at high loss); corruption or partial
             delivery is never acceptable. *)
          Bytes.length !got = 0 || Bytes.equal data !got))

(* ------------------------------------------------------------------ *)
(* Netfilter interaction *)

let test_netfilter_steals_packets () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let stolen = ref 0 in
      let _handle =
        Netfilter.register (Stack.post_routing a.stack) (fun packet ->
            if Netcore.Packet.is_ipv4 packet then begin
              incr stolen;
              Netfilter.Steal
            end
            else Netfilter.Accept)
      in
      (match Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) ~timeout:(Sim.Time.ms 50) ()
       with
      | None -> ()
      | Some _ -> Alcotest.fail "stolen ping still completed");
      Alcotest.(check int) "request stolen" 1 !stolen;
      Alcotest.(check int) "stack counted theft" 1 (Stack.stats a.stack).Stack.stolen_by_hook)

let test_netfilter_unregister_restores () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let handle =
        Netfilter.register (Stack.post_routing a.stack) (fun _ -> Netfilter.Steal)
      in
      Netfilter.unregister (Stack.post_routing a.stack) handle;
      match Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) () with
      | Some _ -> ()
      | None -> Alcotest.fail "ping failed after unregister")

(* ------------------------------------------------------------------ *)
(* Capture *)

let test_capture_records_both_directions () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let cap = Netstack.Capture.attach ~engine a.dev in
      ignore (Stack.ping a.stack ~dst:(Stack.ip_addr b.stack) ());
      (* ARP request+reply and ICMP request+reply all cross a's device. *)
      Alcotest.(check bool) "several frames" true (Netstack.Capture.count cap >= 4);
      let tx =
        Netstack.Capture.filter cap (fun r -> r.Netstack.Capture.dir = Netstack.Capture.Tx)
      in
      let rx =
        Netstack.Capture.filter cap (fun r -> r.Netstack.Capture.dir = Netstack.Capture.Rx)
      in
      Alcotest.(check bool) "tx and rx captured" true
        (List.length tx >= 2 && List.length rx >= 2);
      (* Timestamps are monotone. *)
      let times =
        List.map (fun r -> r.Netstack.Capture.at) (Netstack.Capture.records cap)
      in
      let rec monotone = function
        | t1 :: (t2 :: _ as rest) -> Sim.Time.compare t1 t2 <= 0 && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone timestamps" true (monotone times))

let test_capture_filters_and_stop () =
  run_sim (fun engine ->
      let a, b = make_pair engine in
      let cap = Netstack.Capture.attach ~engine a.dev in
      let client =
        match Udp.bind a.udp () with Ok s -> s | Error _ -> Alcotest.fail "bind"
      in
      let server =
        match Udp.bind b.udp ~port:9 () with Ok s -> s | Error _ -> Alcotest.fail "bind"
      in
      Udp.sendto client ~dst:(Stack.ip_addr b.stack) ~dst_port:9 (Bytes.make 10 'c');
      ignore (Udp.recvfrom server);
      let udp_frames = Netstack.Capture.filter cap Netstack.Capture.udp_only in
      Alcotest.(check bool) "udp captured" true (List.length udp_frames >= 1);
      Alcotest.(check int) "no tcp" 0
        (List.length (Netstack.Capture.filter cap Netstack.Capture.tcp_only));
      let before = Netstack.Capture.count cap in
      Netstack.Capture.stop cap;
      Udp.sendto client ~dst:(Stack.ip_addr b.stack) ~dst_port:9 (Bytes.make 10 'd');
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "stopped" before (Netstack.Capture.count cap);
      (* Rendering does not raise. *)
      let rendered = Format.asprintf "%a" Netstack.Capture.pp cap in
      Alcotest.(check bool) "rendered" true (String.length rendered > 0))

(* ------------------------------------------------------------------ *)
(* Egress: the one hand-off of an IP frame to a device *)

type egress_case = {
  e_mtu : int;
  e_gso : int option;
  e_tcp : bool;
  e_len : int;
  e_psh : bool;
  e_fin : bool;
}

let egress_case_gen =
  QCheck.Gen.(
    let* e_mtu = oneofl [ 1500; 9000; 16436 ] in
    let* e_gso = oneofl [ None; Some 16384; Some 65536 ] in
    let* e_tcp = bool in
    let* e_len = frequency [ (1, return 0); (1, 0 -- 2000); (3, 0 -- 65_495) ] in
    let* e_psh = bool in
    let+ e_fin = bool in
    { e_mtu; e_gso; e_tcp; e_len; e_psh; e_fin })

let print_egress_case c =
  Printf.sprintf "mtu %d gso %s %s %d B psh %b fin %b" c.e_mtu
    (match c.e_gso with Some g -> string_of_int g | None -> "none")
    (if c.e_tcp then "tcp" else "udp")
    c.e_len c.e_psh c.e_fin

(* Whatever {!Stack.egress} hands the device: no TCP payload wider than
   the device's budget and no TCP fragment; the payloads put back
   together in sequence order are the input, PSH and FIN only on the
   last piece, every piece a frame that parses with its checksum
   verified; anything not TCP goes through as it is. *)
let prop_egress_fits_device =
  QCheck.Test.make ~name:"egress fits every frame to its device" ~count:150
    (QCheck.make ~print:print_egress_case egress_case_gen) (fun c ->
      run_sim (fun engine ->
          let mac = Mac.of_domid ~machine:9 ~domid:1 in
          let stack =
            Stack.create ~engine ~params:Hypervisor.Params.default
              ~cpu:(Sim.Resource.create ~name:"cpu") ~ip:(Ip.make ~subnet:9 ~host:1)
              ~mac ()
          in
          let dev = Netdevice.create ~name:"eth0" ~mtu:c.e_mtu ?gso_size:c.e_gso ~mac () in
          let sent = ref [] in
          Netdevice.set_transmit dev (fun p -> sent := p :: !sent);
          let budget =
            (match c.e_gso with Some g -> max c.e_mtu g | None -> c.e_mtu) - 40
          in
          let payload = Bytes.init c.e_len (fun i -> Char.chr ((i * 7) land 0xff)) in
          let seq = 0xFFFF_F000l in
          let frame =
            let src_ip = Ip.make ~subnet:9 ~host:1 and dst_ip = Ip.make ~subnet:9 ~host:2 in
            let dst_mac = Mac.of_domid ~machine:9 ~domid:2 in
            if c.e_tcp then
              Netcore.Packet.tcp ~src_mac:mac ~dst_mac ~src_ip ~dst_ip
                ~header:
                  {
                    Netcore.Transport.tcp_src_port = 1000;
                    tcp_dst_port = 80;
                    seq;
                    ack_seq = 7l;
                    flags =
                      {
                        Netcore.Transport.no_flags with
                        ack = true;
                        psh = c.e_psh;
                        fin = c.e_fin;
                      };
                    window = 4096;
                  }
                payload
            else
              Netcore.Packet.udp ~src_mac:mac ~dst_mac ~src_ip ~dst_ip ~src_port:1000
                ~dst_port:80 payload
          in
          Stack.egress stack dev frame;
          let sent = List.rev !sent in
          let parses p =
            Result.is_ok
              (Netcore.Codec.parse ~verify_transport:true (Netcore.Codec.serialize p))
          in
          if not c.e_tcp then sent = [ frame ]
          else
            let pieces =
              List.filter_map
                (fun p ->
                  match p.Netcore.Packet.body with
                  | Netcore.Packet.Ipv4_body
                      {
                        content =
                          Netcore.Packet.Full
                            { transport = Netcore.Transport.Tcp h; payload };
                        _;
                      } ->
                      Some (h, payload)
                  | _ -> None)
                sent
            in
            let n = List.length pieces in
            let next = ref seq in
            List.length sent = n
            && n = max 1 ((c.e_len + budget - 1) / budget)
            && List.for_all parses sent
            && List.for_all2
                 (fun i (h, v) ->
                   let last = i = n - 1 in
                   let ok =
                     v.Netcore.View.len <= budget
                     && Int32.equal h.Netcore.Transport.seq !next
                     && h.Netcore.Transport.flags.psh = (c.e_psh && last)
                     && h.Netcore.Transport.flags.fin = (c.e_fin && last)
                   in
                   next := Int32.add !next (Int32.of_int v.Netcore.View.len);
                   ok)
                 (List.init n Fun.id) pieces
            && Bytes.equal payload
                 (Bytes.concat Bytes.empty
                    (List.map (fun (_, v) -> Netcore.View.to_bytes v) pieces))))

let suites =
  [
    ( "netstack.icmp",
      [
        Alcotest.test_case "ping rtt over cable" `Quick test_ping_rtt;
        Alcotest.test_case "self ping via loopback" `Quick test_ping_self_via_loopback;
        Alcotest.test_case "unreachable host" `Quick test_ping_unreachable_times_out;
        Alcotest.test_case "arp cache populated" `Quick test_arp_cache_populated;
      ] );
    ( "netstack.udp",
      [
        Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
        Alcotest.test_case "large datagram fragments" `Quick
          test_udp_large_datagram_fragments;
        Alcotest.test_case "max datagram enforced" `Quick test_udp_max_datagram_enforced;
        Alcotest.test_case "port conflict" `Quick test_udp_port_conflict;
        Alcotest.test_case "unknown port dropped" `Quick test_udp_unknown_port_dropped;
      ] );
    ( "netstack.tcp",
      [
        Alcotest.test_case "connect and echo" `Quick test_tcp_connect_and_echo;
        Alcotest.test_case "bulk transfer integrity" `Quick
          test_tcp_bulk_transfer_integrity;
        Alcotest.test_case "bidirectional" `Quick test_tcp_bidirectional;
        Alcotest.test_case "connect refused" `Quick test_tcp_connect_refused;
        Alcotest.test_case "close delivers EOF" `Quick test_tcp_close_eof;
        Alcotest.test_case "flow control blocks sender" `Quick
          test_tcp_flow_control_blocks_sender;
        Alcotest.test_case "whole-chunk recv hands the buffer over" `Quick
          test_tcp_recv_hands_over_whole_chunk;
        Alcotest.test_case "whole-chunk recv reopens the window" `Quick
          test_tcp_whole_chunk_recv_reopens_window;
        Alcotest.test_case "mss from path mtu" `Quick test_tcp_mss_respects_path_mtu;
        Alcotest.test_case "sequence wraparound" `Quick test_tcp_seq_wraparound;
        Alcotest.test_case "double listen rejected" `Quick test_tcp_double_listen_rejected;
        Alcotest.test_case "accept_opt non-blocking" `Quick test_tcp_accept_opt_nonblocking;
        Alcotest.test_case "connection metadata" `Quick test_tcp_conn_metadata;
        Alcotest.test_case "retransmits through loss" `Quick
          test_tcp_retransmits_through_loss;
        Alcotest.test_case "rto resends the original view" `Quick
          test_tcp_rto_resends_from_view;
        Alcotest.test_case "partial ack prunes views by sequence" `Quick
          test_tcp_partial_ack_prunes_by_sequence;
        Alcotest.test_case "a gathered jumbo is resegmented intact" `Quick
          test_tcp_gathered_jumbo_resegmented;
        Alcotest.test_case "a cork of many writes stays intact" `Quick
          test_tcp_cork_of_many_writes_intact;
        Alcotest.test_case "recv copies a slice and a by-reference buffer" `Quick
          test_tcp_recv_copies_slices;
        Alcotest.test_case "recv hands a xenloop chunk over" `Quick
          test_tcp_recv_hands_over_xenloop_chunk;
        Alcotest.test_case "survives total blackout" `Quick
          test_tcp_survives_total_blackout;
        Alcotest.test_case "a lossless stream never times out" `Quick
          test_tcp_lossless_stream_no_timeout;
        Alcotest.test_case "a blackout recovers one hole per round trip" `Quick
          test_tcp_blackout_recovers_per_round_trip;
      ]
      @ [ QCheck_alcotest.to_alcotest prop_tcp_random_loss ]
      @ [ QCheck_alcotest.to_alcotest prop_tcp_stream_integrity ] );
    ( "netstack.capture",
      [
        Alcotest.test_case "records both directions" `Quick
          test_capture_records_both_directions;
        Alcotest.test_case "filters and stop" `Quick test_capture_filters_and_stop;
      ] );
    ( "netstack.netfilter",
      [
        Alcotest.test_case "hook steals packets" `Quick test_netfilter_steals_packets;
        Alcotest.test_case "unregister restores path" `Quick
          test_netfilter_unregister_restores;
        Alcotest.test_case "hooks run in order, steal short-circuits" `Quick
          test_netfilter_hooks_run_in_order;
      ] );
    ("netstack.egress", [ QCheck_alcotest.to_alcotest prop_egress_fits_device ]);
  ]
