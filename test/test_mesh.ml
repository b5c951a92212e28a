(* Tests for the cluster-scale control plane (DESIGN.md §12): versioned
   delta announcements with per-guest acks and suppression, convergence
   despite stale reads of the ack node, the bounded channel state (per-guest cap, idle LRU,
   grant-balanced eviction, netfront fallback, re-establishment), and the
   parameterized mesh topology generator itself. *)

module Mesh = Scenarios.Mesh
module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Endpoint = Scenarios.Endpoint
module Gm = Xenloop.Guest_module
module Discovery = Xenloop.Discovery
module Params = Hypervisor.Params
module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain
module Udp = Netstack.Udp

(* Control-plane timings compressed ~100x against the paper's 5 s scan so
   whole soft-state lifetimes fit in a quick test. *)
let ctl_params =
  {
    Params.default with
    Params.discovery_period = Sim.Time.ms 50;
    xenloop_softstate_ttl = Sim.Time.ms 400;
    xenloop_announce_refresh = Sim.Time.ms 100;
  }

let with_mesh ?(params = ctl_params) ~guests ~hosts f =
  let t = Mesh.build ~params ~guests ~hosts () in
  Experiment.run_process t.Mesh.engine (fun () ->
      Mesh.warmup t;
      f t)

let guest t i = t.Mesh.guests.(i)
let module_of t i = (guest t i).Mesh.g_module
let domid t i = Domain.domid (guest t i).Mesh.g_domain

(* --- Delta announcements --- *)

let test_delta_epoch_acked () =
  with_mesh ~guests:4 ~hosts:1 (fun t ->
      let d = t.Mesh.hosts.(0).Mesh.h_discovery in
      let epoch = Discovery.current_epoch d in
      Alcotest.(check bool) "joins advanced the epoch" true (epoch >= 1);
      Array.iter
        (fun g ->
          let m = g.Mesh.g_module in
          Alcotest.(check int) "guest acked the current epoch" epoch
            (Gm.announce_epoch m);
          Alcotest.(check bool) "guest heard delta announcements" true
            ((Gm.stats m).Gm.delta_announces >= 1);
          Alcotest.(check int) "mapping holds all co-residents" 3
            (Gm.mapping_size m))
        t.Mesh.guests)

let test_delta_suppression_steady_state () =
  with_mesh ~guests:4 ~hosts:1 (fun t ->
      let d = t.Mesh.hosts.(0).Mesh.h_discovery in
      let bytes0 = Discovery.announce_bytes d in
      let supp0 = Discovery.announcements_suppressed d in
      for _ = 1 to 3 do
        Discovery.scan_now d;
        Sim.Engine.sleep (Sim.Time.ms 1)
      done;
      Alcotest.(check int) "no churn, no announce bytes" bytes0
        (Discovery.announce_bytes d);
      Alcotest.(check bool) "every up-to-date recipient was suppressed" true
        (Discovery.announcements_suppressed d - supp0 >= 3 * 4))

let test_delta_heartbeat_keeps_softstate () =
  with_mesh ~guests:3 ~hosts:1 (fun t ->
      let d = t.Mesh.hosts.(0).Mesh.h_discovery in
      (* Several whole soft-state lifetimes with zero churn: suppression
         must not starve the TTL — the refresh heartbeat keeps every
         mapping alive. *)
      Sim.Engine.sleep (Sim.Time.sec 2);
      Array.iter
        (fun g ->
          Alcotest.(check int) "mapping survived the silence" 2
            (Gm.mapping_size g.Mesh.g_module);
          Alcotest.(check int) "no soft-state evictions" 0
            (Gm.stats g.Mesh.g_module).Gm.softstate_evictions)
        t.Mesh.guests;
      Alcotest.(check bool) "steady state suppressed most rounds" true
        (Discovery.announcements_suppressed d > 0))

let test_delta_leave_propagates () =
  with_mesh ~guests:4 ~hosts:1 (fun t ->
      let h = t.Mesh.hosts.(0) in
      let d = h.Mesh.h_discovery in
      let e0 = Discovery.current_epoch d in
      Machine.shutdown_domain h.Mesh.h_machine (guest t 3).Mesh.g_domain;
      Discovery.scan_now d;
      Sim.Engine.sleep (Sim.Time.ms 2);
      let e1 = Discovery.current_epoch d in
      Alcotest.(check bool) "the leave bumped the epoch" true (e1 > e0);
      for i = 0 to 2 do
        Alcotest.(check int) "survivors applied the leave delta" 2
          (Gm.mapping_size (module_of t i));
        Alcotest.(check int) "survivors acked the new epoch" e1
          (Gm.announce_epoch (module_of t i))
      done)

(* A stale XenStore read returns a node's previous value.  A guest whose
   table expired acks epoch 0 over its old epoch, so a stale read of its
   ack node tells Dom0 it is current: Dom0 heartbeats a base the guest
   lacks and the guest drops it.  Dropping it must rewrite the guest's
   real epoch — then the node's previous value is the real one too, and
   Dom0's next scan resends from the right base even while every read of
   the node stays stale.  Without that rewrite the guest hears nothing it
   can apply until its ack node is read fresh. *)
let test_stale_ack_reads_converge () =
  with_mesh ~guests:3 ~hosts:1 (fun t ->
      let h = t.Mesh.hosts.(0) in
      let d = h.Mesh.h_discovery in
      let victim = module_of t 0 and vid = domid t 0 in
      let period = ctl_params.Params.discovery_period in
      (* Starve the victim past its TTL: it drops its table and acks 0. *)
      Discovery.set_announce_fault d (Some (fun ~domid -> domid = vid));
      Sim.Engine.sleep (Sim.Time.ms 500);
      Alcotest.(check int) "table expired" 0 (Gm.mapping_size victim);
      Alcotest.(check int) "acked epoch 0" 0 (Gm.announce_epoch victim);
      let xs = Machine.xenstore h.Mesh.h_machine in
      let ack = Discovery.ack_path ~domid:vid in
      Xenstore.set_fault_injector xs
        (Some
           (fun ~op ~path ->
             if op = `Read && path = ack then Xenstore.Stale_read else Xenstore.Pass));
      Discovery.set_announce_fault d None;
      (* The first delta the victim hears is a heartbeat against the old
         epoch, which it cannot apply. *)
      let heard = (Gm.stats victim).Gm.delta_announces in
      let deadline = Sim.Time.add (Sim.Engine.now t.Mesh.engine) (Sim.Time.sec 1) in
      while
        (Gm.stats victim).Gm.delta_announces = heard
        && Sim.Time.(Sim.Engine.now t.Mesh.engine < deadline)
      do
        Sim.Engine.sleep (Sim.Time.us 100)
      done;
      Alcotest.(check bool) "heard a delta" true
        ((Gm.stats victim).Gm.delta_announces > heard);
      Alcotest.(check int) "out-of-base delta dropped" 0 (Gm.mapping_size victim);
      Sim.Engine.sleep (Sim.Time.span_add period (Sim.Time.ms 1));
      Alcotest.(check int) "converged within one period, reads still stale" 2
        (Gm.mapping_size victim);
      Xenstore.set_fault_injector xs None;
      Sim.Engine.sleep (Sim.Time.span_scale 3 period);
      Alcotest.(check int) "still converged once reads are fresh" 2
        (Gm.mapping_size victim);
      Alcotest.(check int) "acked the current epoch" (Discovery.current_epoch d)
        (Gm.announce_epoch victim))

(* --- Bounded channel state: cap, LRU, grant balance, re-establishment --- *)

let evict_params =
  {
    ctl_params with
    Params.xenloop_channel_cap = 2;
    xenloop_evict_cooldown = Sim.Time.ms 5;
  }

let test_cap_evicts_lru () =
  with_mesh ~params:evict_params ~guests:4 ~hosts:1 (fun t ->
      Mesh.establish_all_pairs t;
      Sim.Engine.sleep (Sim.Time.ms 5);
      Array.iter
        (fun g ->
          Alcotest.(check bool) "per-guest cap holds after all-pairs churn"
            true
            (Gm.active_channel_count g.Mesh.g_module <= 2))
        t.Mesh.guests;
      Alcotest.(check bool) "the cap forced evictions" true
        (Mesh.channels_evicted t >= 1);
      (* Evicted pairs still talk — transparently, over netfront. *)
      Mesh.ping t ~src:0 ~dst:3)

let test_eviction_grant_balanced () =
  with_mesh ~params:evict_params ~guests:4 ~hosts:1 (fun t ->
      Mesh.establish_all_pairs t;
      Sim.Engine.sleep (Sim.Time.ms 5);
      Alcotest.(check bool) "channels granted pages" true
        (Mesh.grant_entries t > 0 && Mesh.channel_pool_bytes t > 0);
      (* Drain every module's channel set through the LRU evictor. *)
      Array.iter
        (fun g ->
          while Gm.evict_lru g.Mesh.g_module do
            ()
          done)
        t.Mesh.guests;
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check int) "no live channels remain" 0 (Mesh.live_channels t);
      Alcotest.(check int) "grant tables balanced back to zero" 0
        (Mesh.grant_entries t);
      Alcotest.(check int) "channel memory pool fully released" 0
        (Mesh.channel_pool_bytes t))

let test_exactly_once_across_eviction () =
  with_mesh ~params:evict_params ~guests:2 ~hosts:1 (fun t ->
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check bool) "channel up before the stream" true
        (Gm.has_channel_with (module_of t 0) ~domid:(domid t 1));
      let server =
        match Udp.bind (guest t 1).Mesh.g_endpoint.Endpoint.udp ~port:7000 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind server"
      in
      let client =
        match Udp.bind (guest t 0).Mesh.g_endpoint.Endpoint.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind client"
      in
      let dst = Endpoint.ip (guest t 1).Mesh.g_endpoint in
      let send seq =
        Udp.sendto client ~dst ~dst_port:7000
          (Bytes.of_string (Printf.sprintf "%04d" seq))
      in
      for seq = 0 to 49 do
        send seq
      done;
      (* Shed the channel mid-stream: whatever is still in the FIFO must be
         flushed over netfront, once. *)
      Alcotest.(check bool) "evictor found the live channel" true
        (Gm.evict_lru (module_of t 0));
      for seq = 50 to 99 do
        send seq
      done;
      Sim.Engine.sleep (Sim.Time.ms 10);
      let seen = Hashtbl.create 128 in
      let rec drain n =
        match Udp.recv_opt server with
        | None -> n
        | Some (_, _, payload) ->
            let seq = int_of_string (Bytes.to_string payload) in
            Alcotest.(check bool)
              (Printf.sprintf "seq %d delivered once" seq)
              false (Hashtbl.mem seen seq);
            Hashtbl.replace seen seq ();
            drain (n + 1)
      in
      let n = drain 0 in
      Alcotest.(check int) "no datagram lost across the eviction" 100 n;
      Alcotest.(check int) "receive buffer never overflowed" 0
        (Udp.drops server))

let test_reestablish_after_cooldown () =
  with_mesh ~params:evict_params ~guests:2 ~hosts:1 (fun t ->
      let m0 = module_of t 0 in
      let peer = domid t 1 in
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check bool) "channel up" true (Gm.has_channel_with m0 ~domid:peer);
      Alcotest.(check bool) "evicted" true (Gm.evict_lru m0);
      Sim.Engine.sleep (Sim.Time.ms 1);
      (* Inside the cooldown traffic flows but must not re-bootstrap. *)
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check bool) "cooldown blocks re-establishment" false
        (Gm.has_channel_with m0 ~domid:peer);
      (* Past the cooldown the first packet re-bootstraps on demand. *)
      Sim.Engine.sleep (Sim.Time.ms 10);
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 5);
      Alcotest.(check bool) "channel re-established after cooldown" true
        (Gm.has_channel_with m0 ~domid:peer);
      Alcotest.(check bool) "second establishment counted" true
        ((Gm.stats m0).Gm.channels_established >= 2))

let test_idle_ttl_evicts () =
  let params =
    { ctl_params with Params.xenloop_channel_idle_ttl = Sim.Time.ms 10 }
  in
  with_mesh ~params ~guests:2 ~hosts:1 (fun t ->
      let m0 = module_of t 0 in
      let peer = domid t 1 in
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check bool) "channel up" true (Gm.has_channel_with m0 ~domid:peer);
      (* Long silence: the idle LRU reaps the channel, but the soft state —
         kept warm by announce heartbeats — survives. *)
      Sim.Engine.sleep (Sim.Time.ms 200);
      Alcotest.(check bool) "idle channel evicted" false
        (Gm.has_channel_with m0 ~domid:peer);
      Alcotest.(check bool) "eviction counted" true
        ((Gm.stats m0).Gm.channels_evicted >= 1
        || (Gm.stats (module_of t 1)).Gm.channels_evicted >= 1);
      Alcotest.(check int) "soft state intact" 1 (Gm.mapping_size m0))

(* --- The topology generator --- *)

let test_mesh_topology_shape () =
  with_mesh ~params:Params.default ~guests:12 ~hosts:3 (fun t ->
      Alcotest.(check int) "three hosts" 3 (Array.length t.Mesh.hosts);
      Alcotest.(check int) "twelve guests" 12 (Array.length t.Mesh.guests);
      Array.iter
        (fun g ->
          Alcotest.(check int)
            (Printf.sprintf "guest %d in its block" g.Mesh.g_index)
            (g.Mesh.g_index * 3 / 12)
            g.Mesh.g_host)
        t.Mesh.guests;
      Alcotest.(check bool) "block mates co-resident" true
        (Mesh.co_resident t 0 3);
      Alcotest.(check bool) "block boundary splits" false (Mesh.co_resident t 3 4);
      (* Warmed up: every guest maps exactly its three block mates. *)
      Array.iter
        (fun g ->
          Alcotest.(check int) "mapping = co-residents only" 3
            (Gm.mapping_size g.Mesh.g_module))
        t.Mesh.guests;
      (* Co-resident traffic raises a channel; cross-host traffic takes the
         wire and raises none. *)
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check bool) "co-resident pair on the fast path" true
        (Gm.has_channel_with (module_of t 0) ~domid:(domid t 1));
      Mesh.ping t ~src:3 ~dst:4;
      Alcotest.(check int) "cross-host pair stays on the wire" 0
        (Gm.live_channels (module_of t 4)))

let test_mesh_guest_ips_unique () =
  let seen = Hashtbl.create 1024 in
  for i = 0 to 599 do
    let ip = Mesh.guest_ip i in
    Alcotest.(check bool)
      (Printf.sprintf "guest %d ip fresh" i)
      false (Hashtbl.mem seen ip);
    Hashtbl.replace seen ip ()
  done

let suites =
  [
    ( "xenloop.delta",
      [
        Alcotest.test_case "epoch advances and guests ack" `Quick
          test_delta_epoch_acked;
        Alcotest.test_case "steady state is suppressed" `Quick
          test_delta_suppression_steady_state;
        Alcotest.test_case "heartbeat keeps soft state" `Quick
          test_delta_heartbeat_keeps_softstate;
        Alcotest.test_case "leave propagates as a delta" `Quick
          test_delta_leave_propagates;
        Alcotest.test_case "stale ack reads still converge" `Quick
          test_stale_ack_reads_converge;
      ] );
    ( "xenloop.evict",
      [
        Alcotest.test_case "cap holds under all-pairs churn" `Quick
          test_cap_evicts_lru;
        Alcotest.test_case "eviction is grant-balanced" `Quick
          test_eviction_grant_balanced;
        Alcotest.test_case "exactly-once delivery across eviction" `Quick
          test_exactly_once_across_eviction;
        Alcotest.test_case "re-establishment after cooldown" `Quick
          test_reestablish_after_cooldown;
        Alcotest.test_case "idle TTL evicts, soft state survives" `Quick
          test_idle_ttl_evicts;
      ] );
    ( "xenloop.mesh",
      [
        Alcotest.test_case "topology shape and placement" `Quick
          test_mesh_topology_shape;
        Alcotest.test_case "guest addresses unique at scale" `Quick
          test_mesh_guest_ips_unique;
      ] );
  ]
