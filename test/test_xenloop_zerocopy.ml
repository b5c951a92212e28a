(* Zero-copy descriptor channel tests: the payload pool's lock-free free
   ring, descriptor entries through the FIFO, capability negotiation and
   its fallback to the inline path, pool-exhaustion degradation, and
   stranded descriptor reclaim at teardown. *)

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module
module Fifo = Xenloop.Fifo
module Pool = Xenloop.Payload_pool
module Page = Memory.Page
module Stack = Netstack.Stack

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

let modules_of duo =
  match duo.Setup.modules with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Alcotest.fail "expected two xenloop modules"

let make_pool ?(slots = 4) ?(slot_pages = 1) ?(inline_max = 256) () =
  let ctrl = Page.create () in
  let data = Array.init (slots * slot_pages) (fun _ -> Page.create ()) in
  (ctrl, data, Pool.init ~ctrl ~data ~slots ~slot_pages ~inline_max ())

let make_fifo ?(k = 6) () =
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  Fifo.attach ~desc ~data

(* ------------------------------------------------------------------ *)
(* Payload pool *)

let test_pool_geometry () =
  Alcotest.(check int) "pages" (1 + (64 * 5)) (Pool.pages_for ~slots:64 ~slot_pages:5);
  Alcotest.(check bool) "default geometry valid" true
    (Pool.geometry_valid ~slots:64 ~slot_pages:5);
  Alcotest.(check bool) "non-power-of-two slots invalid" false
    (Pool.geometry_valid ~slots:48 ~slot_pages:5);
  Alcotest.(check bool) "zero slot pages invalid" false
    (Pool.geometry_valid ~slots:64 ~slot_pages:0);
  (* 512 slots x 2 pages: ring (2 KiB) + gref table (4 KiB) overflow the
     4 KiB control page. *)
  Alcotest.(check bool) "oversized table invalid" false
    (Pool.geometry_valid ~slots:512 ~slot_pages:2);
  Alcotest.check_raises "init rejects bad geometry"
    (Invalid_argument "Payload_pool.init: slots must be a power of two")
    (fun () ->
      let ctrl = Page.create () in
      let data = Array.init 3 (fun _ -> Page.create ()) in
      ignore (Pool.init ~ctrl ~data ~slots:3 ~slot_pages:1 ~inline_max:256 ()))

let test_pool_alloc_free_cycle () =
  let _, _, p = make_pool ~slots:4 () in
  Alcotest.(check int) "starts full" 4 (Pool.free_slots p);
  let s0 = Option.get (Pool.alloc p) in
  let s1 = Option.get (Pool.alloc p) in
  let s2 = Option.get (Pool.alloc p) in
  let s3 = Option.get (Pool.alloc p) in
  Alcotest.(check bool) "all slots distinct" true
    (List.length (List.sort_uniq compare [ s0; s1; s2; s3 ]) = 4);
  Alcotest.(check int) "exhausted" 0 (Pool.free_slots p);
  Alcotest.(check (option int)) "alloc on empty" None (Pool.alloc p);
  (* Receiver returns slots out of order; the ring recycles them. *)
  Pool.free p s2;
  Pool.free p s0;
  Alcotest.(check int) "two back" 2 (Pool.free_slots p);
  Alcotest.(check (option int)) "recycled oldest first" (Some s2) (Pool.alloc p);
  (* Sender-local revert: an alloc the FIFO refused goes straight back. *)
  let s = Option.get (Pool.alloc p) in
  Alcotest.(check int) "drained again" 0 (Pool.free_slots p);
  Pool.unalloc p s;
  Alcotest.(check int) "revert restores" 1 (Pool.free_slots p);
  Alcotest.(check (option int)) "same slot comes back" (Some s) (Pool.alloc p)

let test_pool_write_read_spans_pages () =
  let _, _, p = make_pool ~slots:2 ~slot_pages:2 () in
  Alcotest.(check int) "slot bytes" (2 * Page.size) (Pool.slot_bytes p);
  let len = Page.size + 100 in
  let payload = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  Pool.write p ~slot:1 ~src:payload ~len;
  Alcotest.(check bytes) "roundtrip across the page boundary" payload
    (Pool.read p ~slot:1 ~off:0 ~len);
  Alcotest.(check bytes) "offset read" (Bytes.sub payload 3996 200)
    (Pool.read p ~slot:1 ~off:3996 ~len:200);
  Alcotest.check_raises "out of bounds rejected"
    (Invalid_argument "Payload_pool.read: out of slot bounds") (fun () ->
      ignore (Pool.read p ~slot:1 ~off:0 ~len:(Pool.slot_bytes p + 1)))

let test_pool_shared_views () =
  let ctrl, data, p = make_pool ~slots:4 ~inline_max:512 () in
  (* The connector learns the data grefs from the control page alone. *)
  let grefs = Array.init (Array.length data) (fun i -> 1000 + i) in
  Pool.write_grefs p grefs;
  Alcotest.(check (array int)) "gref table roundtrip" grefs (Pool.read_grefs ~ctrl);
  let peer = Pool.attach ~ctrl ~data in
  Alcotest.(check int) "slots visible" 4 (Pool.slots peer);
  Alcotest.(check int) "inline threshold stamped" 512 (Pool.inline_threshold peer);
  (* Free-ring state is shared: a sender-side alloc is visible to the
     receiver-side view, and a receiver-side free replenishes the sender. *)
  let s = Option.get (Pool.alloc p) in
  Alcotest.(check int) "peer sees the alloc" 3 (Pool.free_slots peer);
  let payload = Bytes.make 700 'z' in
  Pool.write p ~slot:s ~src:payload ~len:700;
  Alcotest.(check bytes) "payload visible in place" payload
    (Pool.read peer ~slot:s ~off:0 ~len:700);
  Pool.free peer s;
  Alcotest.(check int) "sender sees the return" 4 (Pool.free_slots p)

(* ------------------------------------------------------------------ *)
(* Descriptor entries through the FIFO *)

let test_fifo_descriptor_roundtrip () =
  let f = make_fifo () in
  Alcotest.(check bool) "descriptor pushed" true
    (Fifo.try_push_desc f ~slot:3 ~offset:16 ~len:9000 ~proto_hint:17 ());
  Alcotest.(check bool) "inline alongside" true
    (Fifo.try_push f (Bytes.of_string "inline packet"));
  (match Fifo.pop_entry f with
  | Some (Fifo.Desc { d_slot; d_off; d_len; d_proto; d_flags = _ }) ->
      Alcotest.(check int) "slot" 3 d_slot;
      Alcotest.(check int) "offset" 16 d_off;
      Alcotest.(check int) "len" 9000 d_len;
      Alcotest.(check int) "proto hint" 17 d_proto
  | Some (Fifo.Inline _ | Fifo.Jumbo _) ->
      Alcotest.fail "expected a descriptor entry"
  | None -> Alcotest.fail "pop_entry came up empty");
  (match Fifo.pop_entry f with
  | Some (Fifo.Inline b) ->
      Alcotest.(check string) "inline preserved" "inline packet" (Bytes.to_string b)
  | Some (Fifo.Desc _ | Fifo.Jumbo _) -> Alcotest.fail "expected an inline entry"
  | None -> Alcotest.fail "pop_entry came up empty");
  Alcotest.(check bool) "drained" true (Fifo.is_empty f)

let test_fifo_pop_refuses_descriptors () =
  (* The inline-only consumer (legacy pop) must never silently misread a
     descriptor as payload bytes. *)
  let f = make_fifo () in
  ignore (Fifo.try_push_desc f ~slot:0 ~offset:0 ~len:400 ~proto_hint:0 ());
  Alcotest.check_raises "legacy pop rejects"
    (Invalid_argument "Fifo.pop: descriptor entry on an inline-only consumer")
    (fun () -> ignore (Fifo.pop f))

let test_fifo_push_selects_path () =
  let _, _, pool = make_pool ~slots:2 ~slot_pages:1 () in
  let f = make_fifo ~k:8 () in
  let small = Bytes.make 200 's' and big = Bytes.make 1000 'b' in
  let push ?(proto_hint = 0) payload =
    Fifo.push_entry f ~pool:(Some pool) ~inline_max:256 ~proto_hint payload
  in
  Alcotest.(check int) "small payload must stay inline" Fifo.pushed_inline
    (push small);
  Alcotest.(check int) "no slot consumed" 2 (Pool.free_slots pool);
  Alcotest.(check int) "large payload must take a descriptor" Fifo.pushed_desc
    (push ~proto_hint:6 big);
  Alcotest.(check int) "one slot consumed" 1 (Pool.free_slots pool);
  ignore (push big);
  (* Pool exhausted: the next large payload degrades to inline, flagged. *)
  Alcotest.(check int) "exhaustion must degrade to inline"
    Fifo.pushed_inline_fallback (push big);
  (* Drain and verify content on both paths. *)
  (match Fifo.pop_entry f with
  | Some (Fifo.Inline b) -> Alcotest.(check bytes) "inline bytes" small b
  | _ -> Alcotest.fail "expected inline");
  (match Fifo.pop_entry f with
  | Some (Fifo.Desc { d_slot; d_len; d_off; d_proto; d_flags = _ }) ->
      Alcotest.(check int) "descriptor length" 1000 d_len;
      Alcotest.(check int) "proto hint carried" 6 d_proto;
      Alcotest.(check bytes) "payload in place" big
        (Pool.read pool ~slot:d_slot ~off:d_off ~len:d_len);
      Pool.free pool d_slot
  | _ -> Alcotest.fail "expected descriptor");
  (match (Fifo.pop_entry f, Fifo.pop_entry f) with
  | Some (Fifo.Desc { d_slot; _ }), Some (Fifo.Inline b) ->
      Pool.free pool d_slot;
      Alcotest.(check bytes) "degraded payload intact" big b
  | _ -> Alcotest.fail "expected desc then degraded inline");
  Alcotest.(check int) "all slots home" 2 (Pool.free_slots pool)

let test_fifo_refusal_never_burns_slots () =
  (* k = 6: 64 slots.  Fill the FIFO, then push a descriptor-eligible
     payload: the FIFO refuses, and the pool must be untouched. *)
  let _, _, pool = make_pool ~slots:4 ~slot_pages:1 () in
  let f = make_fifo ~k:6 () in
  while Fifo.can_accept f 24 do
    ignore (Fifo.try_push f (Bytes.make 24 'x'))
  done;
  Alcotest.(check int) "full FIFO must refuse" Fifo.push_failed
    (Fifo.push_entry f ~pool:(Some pool) ~inline_max:256 ~proto_hint:0
       (Bytes.make 1000 'y'));
  Alcotest.(check int) "no pool slot leaked" 4 (Pool.free_slots pool);
  Alcotest.(check bool) "admission check agrees" false
    (Fifo.can_accept_entry f ~pool ~inline_max:256 1000)

let test_push_burst_reports_paths () =
  let _, _, pool = make_pool ~slots:2 ~slot_pages:1 () in
  let f = make_fifo ~k:10 () in
  let batch =
    [
      Bytes.make 100 'a';  (* inline: under the threshold *)
      Bytes.make 1000 'b';  (* descriptor *)
      Bytes.make 1000 'c';  (* descriptor: drains the pool *)
      Bytes.make 1000 'd';  (* pool exhausted: inline fallback *)
      Bytes.make 50 'e';  (* inline *)
    ]
  in
  let outcomes =
    List.map
      (fun payload ->
        Fifo.push_entry f ~pool:(Some pool) ~inline_max:256 ~proto_hint:0 payload)
      batch
  in
  let count o = List.length (List.filter (( = ) o) outcomes) in
  Alcotest.(check int) "none refused" 0 (count Fifo.push_failed);
  Alcotest.(check int) "descriptor-backed" 2 (count Fifo.pushed_desc);
  Alcotest.(check int) "inline" 2 (count Fifo.pushed_inline);
  Alcotest.(check int) "fallbacks" 1 (count Fifo.pushed_inline_fallback)

(* ------------------------------------------------------------------ *)
(* End to end *)

let udp_burst ~client ~server ~dst ~port ~count ~size =
  let server_sock =
    match Netstack.Udp.bind server.Workloads.Host.udp ~port () with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind"
  in
  let client_sock =
    match Netstack.Udp.bind client.Workloads.Host.udp () with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind"
  in
  for i = 0 to count - 1 do
    Netstack.Udp.sendto client_sock ~dst ~dst_port:port
      (Bytes.make size (Char.chr (i land 0xff)))
  done;
  List.init count (fun _ ->
      let _, _, payload = Netstack.Udp.recvfrom server_sock in
      Bytes.get payload 0)

let test_negotiation_enables_pools () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      Alcotest.(check bool) "client side active" true (Gm.zerocopy_active m1 ~domid:2);
      Alcotest.(check bool) "server side active" true (Gm.zerocopy_active m2 ~domid:1);
      let got =
        udp_burst ~client ~server ~dst:duo.Setup.server_ip ~port:921 ~count:20
          ~size:2000
      in
      Alcotest.(check (list char)) "delivered in order"
        (List.init 20 (fun i -> Char.chr i))
        got;
      Alcotest.(check bool) "large frames rode descriptors" true
        ((Gm.stats m1).Gm.desc_tx > 0);
      Alcotest.(check int) "nothing degraded" 0 (Gm.stats m1).Gm.pool_fallbacks)

let test_negotiation_falls_back_without_peer_support () =
  (* The server module predates zero-copy (does not advertise "zc"): the
     handshake must produce a pool-less PR-2-style channel, and traffic —
     including frames far above the inline threshold — still flows on the
     copy path. *)
  let duo = Setup.build ~server_zerocopy:false Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      Alcotest.(check bool) "channel up" true (Gm.has_channel_with m1 ~domid:2);
      Alcotest.(check bool) "no pools on the client" false
        (Gm.zerocopy_active m1 ~domid:2);
      Alcotest.(check bool) "no pools on the server" false
        (Gm.zerocopy_active m2 ~domid:1);
      let before_rx = (Gm.stats m2).Gm.via_channel_rx in
      let got =
        udp_burst ~client ~server ~dst:duo.Setup.server_ip ~port:922 ~count:20
          ~size:2000
      in
      Alcotest.(check (list char)) "delivered in order"
        (List.init 20 (fun i -> Char.chr i))
        got;
      Alcotest.(check bool) "traffic used the channel" true
        ((Gm.stats m2).Gm.via_channel_rx > before_rx);
      Alcotest.(check int) "no descriptors ever sent" 0 (Gm.stats m1).Gm.desc_tx;
      Alcotest.(check int) "everything inline" 0
        (Array.fold_left
           (fun acc q -> acc + q.Gm.qs_desc_tx)
           0
           (Gm.queue_stats m1 ~domid:2)))

let test_slot_starvation_degrades_to_inline () =
  (* Two pool slots per queue and a receiver pinned off-CPU: a burst of
     large datagrams must exhaust the pool, degrade the overflow to the
     inline path, and still deliver every frame in order. *)
  let params =
    {
      Hypervisor.Params.default with
      Hypervisor.Params.xenloop_pool_slots = 2;
      xenloop_pool_slot_pages = 1;
    }
  in
  let duo = Setup.build ~params Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      Alcotest.(check bool) "pools negotiated" true (Gm.zerocopy_active m1 ~domid:2);
      (* Pin the server's vCPU so consumed slots are not returned during
         the burst: allocation pressure is real, not a timing accident. *)
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          Sim.Resource.use
            (Stack.cpu duo.Setup.server.Scenarios.Endpoint.stack)
            (Sim.Time.ms 5));
      let n = 30 in
      let got =
        udp_burst ~client ~server ~dst:duo.Setup.server_ip ~port:923 ~count:n
          ~size:1400
      in
      Alcotest.(check (list char)) "every frame, in order"
        (List.init n (fun i -> Char.chr i))
        got;
      let s = Gm.stats m1 in
      Alcotest.(check bool) "descriptors used until exhaustion" true (s.Gm.desc_tx > 0);
      Alcotest.(check bool) "exhaustion degraded some to inline" true
        (s.Gm.pool_fallbacks > 0);
      Alcotest.(check int) "per-queue counters agree" s.Gm.pool_fallbacks
        (Array.fold_left
           (fun acc q -> acc + q.Gm.qs_pool_fallbacks)
           0
           (Gm.queue_stats m1 ~domid:2)))

let test_stranded_descriptor_teardown_reclaim () =
  (* Large app payloads ride descriptors; pin the receiver and unload the
     sender while descriptor entries still sit in the out-FIFOs.  Teardown
     must resolve each stranded descriptor from the sender's own tx pool,
     flush the bytes via the standard path, and release every channel page
     — pools included. *)
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let machine = Option.get duo.Setup.machine in
  let frames = Hypervisor.Machine.frame_allocator machine in
  Experiment.execute duo (fun () ->
      let received = ref [] in
      Gm.set_app_payload_handler m2 (fun ~src_ip:_ ~src_port:_ ~dst_port:_ payload ->
          received := int_of_string (String.sub (Bytes.to_string payload) 0 4) :: !received);
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          Sim.Resource.use
            (Stack.cpu duo.Setup.server.Scenarios.Endpoint.stack)
            (Sim.Time.ms 5));
      let n = 40 in
      for seq = 0 to n - 1 do
        let payload =
          Bytes.of_string (Printf.sprintf "%04d%s" seq (String.make 996 'p'))
        in
        Alcotest.(check bool) "payload accepted" true
          (Gm.send_app_payload m1 ~dst_ip:duo.Setup.server_ip ~src_port:5001
             ~dst_port:6001 payload)
      done;
      Alcotest.(check bool) "descriptors in flight" true
        ((Gm.stats m1).Gm.desc_tx > 0);
      Alcotest.(check int) "receiver has consumed nothing yet" 0
        (List.length !received);
      Gm.unload m1;
      Sim.Engine.sleep (Sim.Time.ms 10);
      Alcotest.(check (list int)) "every payload delivered exactly once, in order"
        (List.init n Fun.id) (List.rev !received);
      Alcotest.(check (list int)) "peer disengaged" [] (Gm.connected_peer_ids m2);
      (* Page balance: FIFO pages, pool control pages, and pool data pages
         all go home — on both sides. *)
      Alcotest.(check int) "no pages left owned by the client" 0
        (Memory.Frame_allocator.owned_by frames 1);
      Alcotest.(check int) "no pages left owned by the server" 0
        (Memory.Frame_allocator.owned_by frames 2))

let test_migration_with_descriptors_in_flight () =
  (* Live-migrate the sender while descriptor entries still sit in the
     out-FIFOs: the pre-migrate wind-down must resolve every stranded
     slot from the tx pool and flush the bytes via the standard path,
     page balance must return to zero on both machines, the stream must
     keep flowing over the wire while the guests are apart, and the
     channel must come back when they are reunited. *)
  let w = Scenarios.Migration_world.create () in
  let open Scenarios.Migration_world in
  Experiment.run_process ~limit:(Sim.Time.sec 120) w.engine (fun () ->
      let g1 = w.guest1.xl_module and g2 = w.guest2.xl_module in
      let dst_ip = Hypervisor.Domain.ip w.guest2.domain in
      let received = ref [] in
      Gm.set_app_payload_handler g2 (fun ~src_ip:_ ~src_port:_ ~dst_port:_ payload ->
          received :=
            int_of_string (String.sub (Bytes.to_string payload) 0 4) :: !received);
      let server_sock =
        match Netstack.Udp.bind w.guest2.ep.Scenarios.Endpoint.udp ~port:924 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let client_sock =
        match Netstack.Udp.bind w.guest1.ep.Scenarios.Endpoint.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      (* Become co-resident; the first datagram kicks off the bootstrap. *)
      migrate w w.guest1 ~dst:w.m2;
      Sim.Engine.sleep (Sim.Time.sec 6);
      Netstack.Udp.sendto client_sock ~dst:dst_ip ~dst_port:924
        (Bytes.of_string "warm");
      ignore (Netstack.Udp.recvfrom server_sock);
      Sim.Engine.sleep (Sim.Time.ms 10);
      let warm = Bytes.of_string "0000warm" in
      Alcotest.(check bool) "channel engaged" true
        (Gm.send_app_payload g1 ~dst_ip ~src_port:5002 ~dst_port:6002 warm);
      Sim.Engine.sleep (Sim.Time.ms 10);
      received := [];
      Alcotest.(check bool) "pools negotiated" true
        (Gm.zerocopy_active g1 ~domid:(Hypervisor.Domain.domid w.guest2.domain));
      (* Pin the receiver so the burst's descriptors stay in flight. *)
      Sim.Engine.spawn w.engine (fun () ->
          Sim.Resource.use
            (Stack.cpu w.guest2.ep.Scenarios.Endpoint.stack)
            (Sim.Time.ms 5));
      let n = 40 in
      for seq = 0 to n - 1 do
        let payload =
          Bytes.of_string (Printf.sprintf "%04d%s" seq (String.make 996 'm'))
        in
        Alcotest.(check bool) "payload accepted" true
          (Gm.send_app_payload g1 ~dst_ip ~src_port:5002 ~dst_port:6002 payload)
      done;
      Alcotest.(check bool) "descriptors in flight" true ((Gm.stats g1).Gm.desc_tx > 0);
      Alcotest.(check int) "receiver has consumed nothing yet" 0
        (List.length !received);
      (* Migrate away mid-stream: wind-down resolves the stranded
         descriptors and flushes them before the vif detaches. *)
      migrate w w.guest1 ~dst:w.m1;
      Sim.Engine.sleep (Sim.Time.ms 50);
      Alcotest.(check (list int)) "every payload delivered exactly once, in order"
        (List.init n Fun.id) (List.rev !received);
      (* Channel memory all went home — on both machines. *)
      List.iter
        (fun (name, env) ->
          let frames = Hypervisor.Machine.frame_allocator env.machine in
          Alcotest.(check int)
            (name ^ ": no frames left owned")
            0
            (List.fold_left
               (fun acc (_, count) -> acc + count)
               0
               (Memory.Frame_allocator.owners frames)))
        [ ("m1", w.m1); ("m2", w.m2) ];
      (* Apart: the stream continues over the wire via netfront. *)
      Netstack.Udp.sendto client_sock ~dst:dst_ip ~dst_port:924
        (Bytes.of_string "over the wire");
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check string) "netfront carried it" "over the wire"
        (Bytes.to_string got);
      (* Reunite: the fast path re-establishes. *)
      migrate w w.guest1 ~dst:w.m2;
      Sim.Engine.sleep (Sim.Time.sec 6);
      Netstack.Udp.sendto client_sock ~dst:dst_ip ~dst_port:924
        (Bytes.of_string "warm again");
      ignore (Netstack.Udp.recvfrom server_sock);
      Sim.Engine.sleep (Sim.Time.ms 10);
      received := [];
      Alcotest.(check bool) "channel re-engaged" true
        (Gm.send_app_payload g1 ~dst_ip ~src_port:5002 ~dst_port:6002 warm);
      Sim.Engine.sleep (Sim.Time.ms 10);
      Alcotest.(check int) "payload arrived over the new channel" 1
        (List.length !received))

let test_corrupt_pool_payload_is_dropped () =
  (* A plain descriptor carries no [flag_csum_ok], so the receiver verifies
     its transport checksum while parsing straight out of the slot: the
     header's sum plus the payload's.  One payload byte flipped in the
     slot after the descriptor is published must cost that frame, and only
     that frame. *)
  let params = { Hypervisor.Params.default with Hypervisor.Params.xenloop_queues = 1 } in
  let duo = Setup.build ~params Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let bind host ?port () =
        match Netstack.Udp.bind host.Workloads.Host.udp ?port () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let server_sock = bind server ~port:925 () and client_sock = bind client () in
      let send fill =
        Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:925
          (Bytes.make 200 fill)
      in
      let payload_of () =
        let _, _, data = Netstack.Udp.recvfrom server_sock in
        Bytes.get data 0
      in
      send 'w';
      Alcotest.(check char) "channel warm-up delivered" 'w' (payload_of ());
      Sim.Engine.sleep (Sim.Time.ms 1);
      let ring, pool =
        match (Gm.tx_fifo m1 ~domid:2 ~queue:0, Gm.tx_pool m1 ~domid:2 ~queue:0) with
        | Some ring, Some pool -> (ring, pool)
        | _ -> Alcotest.fail "no descriptor channel"
      in
      let frame fill =
        let cstack = client.Workloads.Host.stack in
        Netcore.Codec.serialize
          (Netcore.Packet.udp ~src_mac:(Stack.mac_addr cstack)
             ~dst_mac:(Stack.mac_addr server.Workloads.Host.stack)
             ~src_ip:(Stack.ip_addr cstack) ~dst_ip:duo.Setup.server_ip
             ~src_port:(Netstack.Udp.port client_sock) ~dst_port:925
             (Bytes.make 1000 fill))
      in
      let push raw =
        let len = Bytes.length raw in
        let slot = Pool.alloc_slot pool in
        Pool.write pool ~slot ~src:raw ~len;
        Alcotest.(check bool) "descriptor published" true
          (Fifo.try_push_desc ring ~slot ~offset:0 ~len ~proto_hint:0x0800 ());
        slot
      in
      let free_before = Pool.free_slots pool in
      let rx_before = (Gm.stats m2).Gm.via_channel_rx in
      let bad = frame 'b' in
      let slot = push bad in
      let in_slot = Pool.read pool ~slot ~off:0 ~len:(Bytes.length bad) in
      let last = Bytes.length bad - 1 in
      Bytes.set_uint8 in_slot last (Bytes.get_uint8 in_slot last lxor 0x01);
      Pool.write pool ~slot ~src:in_slot ~len:(Bytes.length in_slot);
      ignore (push (frame 'g'));
      (* Nothing woke the receiver for those two; a datagram through the
         stack rings the doorbell, and the drain takes all three. *)
      send 'n';
      Alcotest.(check char) "intact descriptor delivered" 'g' (payload_of ());
      Alcotest.(check char) "stack datagram delivered" 'n' (payload_of ());
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check bool) "corrupted frame never delivered" true
        (Netstack.Udp.recv_opt server_sock = None);
      Alcotest.(check int) "two frames accepted off the channel" 2
        ((Gm.stats m2).Gm.via_channel_rx - rx_before);
      Alcotest.(check int) "every slot back on the free ring" free_before
        (Pool.free_slots pool))

(* A jumbo the pool cannot give slots degrades to an inline entry, which
   carries no [flag_csum_ok], so it must get its transport checksum: a
   frame still held as a packet is serialized with it, and one that waited
   (its first push refused) is held as bytes with the checksum elided,
   which is put back in place.  Without it the receiver drops the frame
   and the data waits for a TCP retransmission timeout.  Only the push
   that lands is charged: on a copy channel ([loans = false]) the sender
   copies the degraded frame once, not once for the refused jumbo and
   again for the inline entry. *)
let degraded_jumbo_delivered ?(loans = true) ~wait_first () =
  let params =
    {
      Hypervisor.Params.default with
      Hypervisor.Params.xenloop_queues = 1;
      xenloop_pool_slot_pages = 1;
      xenloop_loans = loans;
    }
  in
  let duo = Setup.build ~params Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let listener =
        match Netstack.Tcp.listen server.Workloads.Host.tcp ~port:7001 with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let server_conn = ref None in
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          server_conn := Some (Netstack.Tcp.accept listener));
      let conn =
        match
          Netstack.Tcp.connect client.Workloads.Host.tcp ~dst:duo.Setup.server_ip
            ~dst_port:7001 ()
        with
        | Ok c -> c
        | Error _ -> Alcotest.fail "connect"
      in
      Netstack.Tcp.send conn (Bytes.make 100 'w');
      Sim.Engine.sleep (Sim.Time.ms 5);
      let sconn = match !server_conn with Some c -> c | None -> Alcotest.fail "accept" in
      ignore (Netstack.Tcp.recv_exact sconn 100);
      Sim.Engine.sleep (Sim.Time.ms 5);
      let kick =
        match Netstack.Udp.bind client.Workloads.Host.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let s = Gm.stats m1 in
      let waited = s.Gm.queued_to_waiting and jumbos = s.Gm.jumbo_tx in
      let fallbacks = s.Gm.pool_fallbacks in
      (* Starve the pool and, to make the jumbo wait, refuse its push
         once. *)
      let refusals = ref (if wait_first then 1 else 0) in
      Gm.set_push_fault_injector m1
        (Some
           (fun () ->
             decr refusals;
             !refusals = 0));
      Gm.set_pool_fault_injector m1 (Some (fun () -> true));
      let data = Bytes.init 10_000 (fun i -> Char.chr (i land 0xff)) in
      let meter =
        Hypervisor.Domain.meter
          (Option.get (Hypervisor.Machine.domain (Option.get duo.Setup.machine) 1))
      in
      let copied = Memory.Cost_meter.bytes_copied meter in
      Netstack.Tcp.send conn data;
      (* Ethernet, IPv4 and TCP headers ride in front of the payload. *)
      Alcotest.(check int) "the sender copies what lands, once"
        (if wait_first then 0 else Bytes.length data + 54)
        (Memory.Cost_meter.bytes_copied meter - copied);
      Alcotest.(check int) "the jumbo waits"
        (if wait_first then waited + 1 else waited)
        s.Gm.queued_to_waiting;
      (* A datagram on the same queue services the waiting list first. *)
      let start = Sim.Engine.now duo.Setup.engine in
      Netstack.Udp.sendto kick ~dst:duo.Setup.server_ip ~dst_port:7002
        (Bytes.of_string "kick");
      let got = Netstack.Tcp.recv_exact sconn (Bytes.length data) in
      let took = Sim.Time.diff (Sim.Engine.now duo.Setup.engine) start in
      Alcotest.(check bool) "data intact" true (Bytes.equal got data);
      Alcotest.(check bool)
        (Printf.sprintf "delivered without a retransmission (%Ld ns)"
           (Sim.Time.to_ns took))
        true
        (Int64.compare (Sim.Time.to_ns took) (Sim.Time.to_ns (Sim.Time.ms 50)) < 0);
      Alcotest.(check int) "never published as a jumbo" jumbos s.Gm.jumbo_tx;
      Alcotest.(check bool) "degraded for want of slots" true
        (s.Gm.pool_fallbacks > fallbacks))

let suites =
  [
    ( "xenloop.zerocopy",
      [
        Alcotest.test_case "pool geometry" `Quick test_pool_geometry;
        Alcotest.test_case "pool alloc/free/unalloc cycle" `Quick
          test_pool_alloc_free_cycle;
        Alcotest.test_case "pool write/read spans pages" `Quick
          test_pool_write_read_spans_pages;
        Alcotest.test_case "pool views share the free ring" `Quick
          test_pool_shared_views;
        Alcotest.test_case "fifo descriptor roundtrip" `Quick
          test_fifo_descriptor_roundtrip;
        Alcotest.test_case "legacy pop refuses descriptors" `Quick
          test_fifo_pop_refuses_descriptors;
        Alcotest.test_case "push selects inline vs descriptor" `Quick
          test_fifo_push_selects_path;
        Alcotest.test_case "refused push never burns a slot" `Quick
          test_fifo_refusal_never_burns_slots;
        Alcotest.test_case "push burst reports both paths" `Quick
          test_push_burst_reports_paths;
        Alcotest.test_case "negotiation enables pools" `Quick
          test_negotiation_enables_pools;
        Alcotest.test_case "fallback without peer support" `Quick
          test_negotiation_falls_back_without_peer_support;
        Alcotest.test_case "starved jumbo degrades with its checksum" `Quick
          (degraded_jumbo_delivered ~wait_first:false);
        Alcotest.test_case "starved jumbo on a copy channel is copied once"
          `Quick
          (degraded_jumbo_delivered ~loans:false ~wait_first:false);
        Alcotest.test_case "waiting jumbo degrades with its checksum" `Quick
          (degraded_jumbo_delivered ~wait_first:true);
        Alcotest.test_case "slot starvation degrades to inline" `Quick
          test_slot_starvation_degrades_to_inline;
        Alcotest.test_case "stranded descriptor teardown reclaim" `Quick
          test_stranded_descriptor_teardown_reclaim;
        Alcotest.test_case "corrupted pool payload is dropped" `Quick
          test_corrupt_pool_payload_is_dropped;
        Alcotest.test_case "migration with descriptors in flight" `Slow
          test_migration_with_descriptors_in_flight;
      ] );
  ]
