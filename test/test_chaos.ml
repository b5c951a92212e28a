(* Chaos-harness tests: determinism of a seeded run, a quick soak subset,
   the sabotage self-test (a deliberately broken invariant must be
   caught), and direct exercises of the soft-state recovery paths the
   harness leans on — TTL eviction, bootstrap-retry exhaustion with
   cooldown, and the reactive discovery watch. *)

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module
module Discovery = Xenloop.Discovery
module Fault = Chaos.Fault
module Harness = Chaos.Harness
module Soak = Chaos.Soak
module Invariant = Chaos.Invariant

let storm scenario =
  List.filter_map
    (fun k ->
      if Harness.applicable scenario k then Some (Fault.default_spec k)
      else None)
    Fault.all

let modules_of duo =
  match duo.Setup.modules with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Alcotest.fail "expected two xenloop modules"

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_same_seed_same_digest () =
  let config =
    Harness.default_config ~seed:9 ~faults:(storm Harness.Xenloop_duo)
      Harness.Xenloop_duo
  in
  let v1, _ = Harness.run config in
  let v2, _ = Harness.run config in
  Alcotest.(check string) "digest" v1.Harness.v_log_digest v2.Harness.v_log_digest;
  Alcotest.(check int) "log length" v1.Harness.v_log_length v2.Harness.v_log_length;
  Alcotest.(check int) "injections" v1.Harness.v_total_injected
    v2.Harness.v_total_injected;
  Alcotest.(check (list (pair string int)))
    "per-kind counts" v1.Harness.v_faults v2.Harness.v_faults;
  Alcotest.(check int) "delivered" v1.Harness.v_delivered v2.Harness.v_delivered;
  Alcotest.(check bool) "clean" true (Harness.ok v1)

let test_different_seed_different_plan () =
  let run seed =
    let config =
      Harness.default_config ~seed ~faults:(storm Harness.Xenloop_duo)
        Harness.Xenloop_duo
    in
    fst (Harness.run config)
  in
  let v1 = run 1 and v2 = run 2 in
  Alcotest.(check bool) "digests differ" true
    (v1.Harness.v_log_digest <> v2.Harness.v_log_digest);
  Alcotest.(check bool) "both clean" true (Harness.ok v1 && Harness.ok v2)

(* Golden digests: the DESIGN.md §10 safety matrix.  A change meant to be
   host-side only (engine, pages, codec) must leave every simulated event
   where it was; these MD5s of the event log are the witness.  The storm
   arms the loan and jumbo kinds too, so the loaned and multi-slot
   receive paths are covered.  Re-pin only for a deliberate behaviour
   change, and say so in CHANGES.md. *)
let golden_digests =
  [
    (Harness.Xenloop_duo, 42, "e452ec16c220ff3decb9e2e3d73a52ef");
    (Harness.Xenloop_duo, 43, "602eb902e1af74e8c49f7f970262e50f");
    (Harness.Xenloop_duo, 99, "b6dc2e2ed48e8b899d28d5821563d0b2");
    (Harness.Netfront_duo, 42, "1d3053ce15a2a2eecb56e7fde0bd45c5");
    (Harness.Netfront_duo, 43, "1d3053ce15a2a2eecb56e7fde0bd45c5");
    (Harness.Netfront_duo, 99, "1d3053ce15a2a2eecb56e7fde0bd45c5");
    (Harness.Cluster3, 42, "1ad10a2a691f91f7413f3ea4b3f0cece");
    (Harness.Cluster3, 43, "d48b465584cc669ac6cddc58fdc3dfdc");
    (Harness.Cluster3, 99, "e8fa0e0ec8aa44496577ff6e7802d341");
    (Harness.Migration_world, 42, "cb0a044a1dc7d55a66783db628392b1f");
    (Harness.Migration_world, 43, "b9a920cee77680d25a409907b179f3b8");
    (Harness.Migration_world, 99, "cee9a67ca40022541c642acb8da08575");
  ]

let test_golden_digest_matrix () =
  List.iter
    (fun (scenario, seed, expected) ->
      let v, _ =
        Harness.run (Harness.default_config ~seed ~faults:(storm scenario) scenario)
      in
      let name = Printf.sprintf "%s seed %d" (Harness.scenario_label scenario) seed in
      Alcotest.(check string) name expected v.Harness.v_log_digest;
      Alcotest.(check bool) (name ^ " clean") true (Harness.ok v))
    golden_digests

(* The soak runs what ships: the chaos world is the default
   configuration with the soft-state timescales compressed, and nothing
   else pinned.  A feature that needs its own world gets an explicit
   case family ([evictions], [qos]), never a pin here. *)
let test_chaos_params_are_defaults () =
  let d = Hypervisor.Params.default and c = Harness.chaos_params in
  let module P = Hypervisor.Params in
  Alcotest.(check bool) "only the four timescales differ" true
    ({
       c with
       P.discovery_period = d.P.discovery_period;
       xenloop_softstate_ttl = d.P.xenloop_softstate_ttl;
       xenloop_bootstrap_cooldown = d.P.xenloop_bootstrap_cooldown;
       migration_downtime = d.P.migration_downtime;
     }
    = d);
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) (name ^ " compressed") true (Sim.Time.span_compare a b < 0))
    [
      ("discovery_period", c.P.discovery_period, d.P.discovery_period);
      ("xenloop_softstate_ttl", c.P.xenloop_softstate_ttl, d.P.xenloop_softstate_ttl);
      ( "xenloop_bootstrap_cooldown",
        c.P.xenloop_bootstrap_cooldown,
        d.P.xenloop_bootstrap_cooldown );
      ("migration_downtime", c.P.migration_downtime, d.P.migration_downtime);
    ]

(* ------------------------------------------------------------------ *)
(* Soak subset *)

let test_soak_subset_clean () =
  let cases =
    [
      {
        Soak.c_name = "xenloop-duo/baseline";
        c_scenario = Harness.Xenloop_duo;
        c_faults = [];
        c_evictions = false;
        c_qos = false;
      };
      {
        Soak.c_name = "xenloop-duo/storm";
        c_scenario = Harness.Xenloop_duo;
        c_faults = storm Harness.Xenloop_duo;
        c_evictions = false;
        c_qos = false;
      };
      {
        Soak.c_name = "cluster3/peer-crash";
        c_scenario = Harness.Cluster3;
        c_faults = [ Fault.default_spec Fault.Peer_crash ];
        c_evictions = false;
        c_qos = false;
      };
      {
        Soak.c_name = "migration-world/migrate-midstream";
        c_scenario = Harness.Migration_world;
        c_faults = [ Fault.default_spec Fault.Migrate_midstream ];
        c_evictions = false;
        c_qos = false;
      };
    ]
  in
  let s = Soak.run ~cases ~seed:42 ~iters:1 () in
  Alcotest.(check int) "runs" 4 s.Soak.s_runs;
  Alcotest.(check int) "lost" 0 s.Soak.s_lost;
  Alcotest.(check int) "duplicates" 0 s.Soak.s_duplicates;
  Alcotest.(check int) "violation runs" 0 s.Soak.s_violation_runs;
  Alcotest.(check int) "all delivered" s.Soak.s_sent s.Soak.s_delivered;
  Alcotest.(check bool) "faults actually fired" true (s.Soak.s_total_injected > 0);
  Alcotest.(check bool) "summary ok" true (Soak.ok s)

(* A red soak prints one replay line.  Run as printed, it must rebuild the
   failing case's exact configuration — scenario, fault set and world
   (evictions, qos) — for every case of the matrix, the
   multi-fault and opt-in-world cases included. *)
let test_replay_line_rebuilds_every_case () =
  let cases = Soak.matrix () in
  let names = List.map (fun c -> c.Soak.c_name) cases in
  Alcotest.(check int) "case names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let seed = 57 in
  List.iter
    (fun c ->
      let summary =
        {
          Soak.s_base_seed = seed;
          s_iters = 1;
          s_runs = 1;
          s_scenarios = [];
          s_kinds = [];
          s_total_injected = 0;
          s_sent = 0;
          s_delivered = 0;
          s_lost = 0;
          s_duplicates = 0;
          s_violation_runs = 1;
          s_first_failure =
            Some
              {
                Soak.fail_seed = seed;
                fail_case = c.Soak.c_name;
                fail_violations = [ "violated" ];
              };
          s_recovery_p50_us = 0.0;
          s_recovery_p99_us = 0.0;
          s_recovery_max_us = 0.0;
        }
      in
      let printed = Format.asprintf "%a" Soak.pp summary in
      let prefix = "replay: xenloopsim chaos " in
      let line =
        match
          List.find_opt
            (fun l -> String.starts_with ~prefix l)
            (List.map String.trim (String.split_on_char '\n' printed))
        with
        | Some l ->
            String.sub l (String.length prefix)
              (String.length l - String.length prefix)
        | None -> Alcotest.failf "%s: no replay line in %S" c.Soak.c_name printed
      in
      let rec parse case seed = function
        | [] -> (case, seed)
        | "--case" :: name :: rest -> parse (Some name) seed rest
        | "--seed" :: n :: rest -> parse case (int_of_string_opt n) rest
        | arg :: _ ->
            Alcotest.failf "%s: replay argument %S is not a case lookup"
              c.Soak.c_name arg
      in
      match parse None None (String.split_on_char ' ' line) with
      | Some name, Some replay_seed -> (
          match Soak.find_case name with
          | Some replayed ->
              Alcotest.(check bool)
                (c.Soak.c_name ^ " config rebuilt")
                true
                (Soak.case_config replayed ~seed:replay_seed
                = Soak.case_config c ~seed)
          | None -> Alcotest.failf "%s: no case named %S" c.Soak.c_name name)
      | _ -> Alcotest.failf "%s: replay line %S names no case" c.Soak.c_name line)
    cases

(* ------------------------------------------------------------------ *)
(* Loan chaos: leaked and slow-released borrows must not break
   exactly-once delivery, and a mid-window teardown must force-return
   every outstanding loan (zero outstanding at quiescence). *)

let test_loans_chaos_clean () =
  let faults =
    [
      Fault.default_spec Fault.Loan_leak;
      Fault.default_spec Fault.Slow_consumer;
      Fault.default_spec Fault.Suspend_resume;
    ]
  in
  let config =
    Harness.default_config ~seed:7 ~faults Harness.Xenloop_duo
  in
  let v, _ = Harness.run config in
  if not (Harness.ok v) then
    Alcotest.failf "loans-on chaos run violated: %s"
      (String.concat "; " v.Harness.v_violations);
  Alcotest.(check bool) "loan faults fired" true
    (List.mem_assoc "loan-leak" v.Harness.v_faults
    || List.mem_assoc "slow-consumer" v.Harness.v_faults);
  (* Determinism holds for loan faults too. *)
  let v2, _ = Harness.run config in
  Alcotest.(check string) "digest stable" v.Harness.v_log_digest
    v2.Harness.v_log_digest

(* The loan and jumbo kinds are ordinary kinds of the xenloop-duo
   matrix: alone, in the storm, and across a mid-window teardown. *)
let test_receive_kinds_soak_clean () =
  let receive_kind s =
    List.mem s.Fault.f_kind [ Fault.Loan_leak; Fault.Slow_consumer; Fault.Jumbo_truncate ]
  in
  let cases =
    List.filter
      (fun c ->
        c.Soak.c_scenario = Harness.Xenloop_duo
        && (not c.Soak.c_evictions) && (not c.Soak.c_qos)
        && List.exists receive_kind c.Soak.c_faults)
      (Soak.matrix ())
  in
  Alcotest.(check (list string))
    "duo cases arming a receive kind"
    [
      "xenloop-duo/loan-leak"; "xenloop-duo/slow-consumer";
      "xenloop-duo/jumbo-truncate"; "xenloop-duo/storm";
      "xenloop-duo/leak-teardown"; "xenloop-duo/truncate-teardown";
    ]
    (List.map (fun c -> c.Soak.c_name) cases);
  let s = Soak.run ~cases ~seed:42 ~iters:1 () in
  Alcotest.(check int) "violation runs" 0 s.Soak.s_violation_runs;
  Alcotest.(check int) "lost" 0 s.Soak.s_lost;
  Alcotest.(check int) "duplicates" 0 s.Soak.s_duplicates;
  Alcotest.(check bool) "summary ok" true (Soak.ok s)

(* ------------------------------------------------------------------ *)
(* QoS chaos: a misbehaving tenant flooding flat-out must not cost any
   victim flow a datagram (exactly-once holds) nor force a victim to
   spill to netfront (the harness checks per-flow overflow counters),
   and arming the new kind must not perturb any pre-QoS digest. *)

let test_qos_flood_clean () =
  let faults = [ Fault.default_spec Fault.Tenant_flood ] in
  let config =
    Harness.default_config ~seed:11 ~faults ~qos:true Harness.Xenloop_duo
  in
  let v, _ = Harness.run config in
  if not (Harness.ok v) then
    Alcotest.failf "qos flood run violated: %s"
      (String.concat "; " v.Harness.v_violations);
  Alcotest.(check bool) "flood actually fired" true
    (List.mem_assoc "tenant-flood" v.Harness.v_faults);
  Alcotest.(check int) "victims exactly-once: lost" 0 v.Harness.v_lost;
  Alcotest.(check int) "victims exactly-once: dups" 0 v.Harness.v_duplicates;
  (* Determinism holds for QoS worlds too. *)
  let v2, _ = Harness.run config in
  Alcotest.(check string) "digest stable" v.Harness.v_log_digest
    v2.Harness.v_log_digest

let test_qos_off_digest_unperturbed () =
  (* With QoS off, Tenant_flood is inert: arming it must reproduce the
     exact same run — the RNG split discipline means a new kind never
     reseeds the streams existing kinds consume. *)
  let base =
    Harness.default_config ~seed:23 ~faults:(storm Harness.Xenloop_duo)
      Harness.Xenloop_duo
  in
  let armed =
    {
      base with
      Harness.faults =
        base.Harness.faults @ [ Fault.default_spec Fault.Tenant_flood ];
    }
  in
  let v1, _ = Harness.run base in
  let v2, _ = Harness.run armed in
  Alcotest.(check string) "digest bit-for-bit" v1.Harness.v_log_digest
    v2.Harness.v_log_digest;
  Alcotest.(check int) "log length" v1.Harness.v_log_length
    v2.Harness.v_log_length;
  Alcotest.(check (list (pair string int)))
    "per-kind counts" v1.Harness.v_faults v2.Harness.v_faults

let test_qos_soak_subset_clean () =
  let cases =
    List.filter
      (fun c -> c.Soak.c_scenario = Harness.Xenloop_duo)
      (Soak.qos_cases ())
  in
  Alcotest.(check bool) "duo qos cases exist" true (List.length cases >= 4);
  let s = Soak.run ~cases ~seed:42 ~iters:1 () in
  Alcotest.(check int) "violation runs" 0 s.Soak.s_violation_runs;
  Alcotest.(check int) "lost" 0 s.Soak.s_lost;
  Alcotest.(check int) "duplicates" 0 s.Soak.s_duplicates;
  Alcotest.(check bool) "summary ok" true (Soak.ok s)

(* Golden digests for the QoS worlds: every xenloop-duo QoS soak case at
   the matrix seeds.  A QoS world's log ends with one line per flow
   (bytes, frames, descriptors, overflows, congestion raises and
   clears), so these pin per-flow scheduling as well as the simulated
   time of each milestone.  Only flood-full logs seed-dependent events,
   so the other cases repeat one digest across seeds.  Same re-pin rule
   as the matrices above. *)
let golden_qos_digests =
  [
    ("xenloop-duo/qos-baseline", 42, "8b95953fe7b1cf74bfb324e68f9cd70a");
    ("xenloop-duo/qos-baseline", 43, "8b95953fe7b1cf74bfb324e68f9cd70a");
    ("xenloop-duo/qos-baseline", 99, "8b95953fe7b1cf74bfb324e68f9cd70a");
    ("xenloop-duo/qos-flood", 42, "6d99667a0debc0ab37b15678aaaa60bb");
    ("xenloop-duo/qos-flood", 43, "6d99667a0debc0ab37b15678aaaa60bb");
    ("xenloop-duo/qos-flood", 99, "6d99667a0debc0ab37b15678aaaa60bb");
    ("xenloop-duo/qos-flood-full", 42, "7ab790a5ba2b4b764b5b3b2e27e16b54");
    ("xenloop-duo/qos-flood-full", 43, "2fe12231fc6bb469fc965578ec0928b3");
    ("xenloop-duo/qos-flood-full", 99, "844979f43610f705dd69c25793bdbd32");
    ("xenloop-duo/qos-flood-teardown", 42, "8c3aebe191ea74d50e1e2d3aa4f62971");
    ("xenloop-duo/qos-flood-teardown", 43, "8c3aebe191ea74d50e1e2d3aa4f62971");
    ("xenloop-duo/qos-flood-teardown", 99, "8c3aebe191ea74d50e1e2d3aa4f62971");
  ]

let test_golden_qos_digests () =
  List.iter
    (fun (name, seed, expected) ->
      let case =
        match Soak.find_case name with
        | Some c -> c
        | None -> Alcotest.failf "no soak case %s" name
      in
      let v, _ = Harness.run (Soak.case_config case ~seed) in
      let label = Printf.sprintf "%s seed %d" name seed in
      Alcotest.(check string) label expected v.Harness.v_log_digest;
      Alcotest.(check bool) (label ^ " clean") true (Harness.ok v))
    golden_qos_digests

(* ------------------------------------------------------------------ *)
(* GSO chaos: corrupting a jumbo descriptor's scatter length vector must
   cost nothing — the receiver drops the frame loudly (accounted, never
   mis-delivered) and TCP retransmission repairs the bulk stream, which
   still lands byte-identical. *)

let test_gso_truncate_clean () =
  let faults = [ Fault.default_spec Fault.Jumbo_truncate ] in
  let config =
    Harness.default_config ~seed:13 ~faults Harness.Xenloop_duo
  in
  let v, _ = Harness.run config in
  if not (Harness.ok v) then
    Alcotest.failf "gso truncate run violated: %s"
      (String.concat "; " v.Harness.v_violations);
  Alcotest.(check bool) "truncations actually fired" true
    (List.mem_assoc "jumbo-truncate" v.Harness.v_faults);
  Alcotest.(check int) "exactly-once: lost" 0 v.Harness.v_lost;
  Alcotest.(check int) "exactly-once: dups" 0 v.Harness.v_duplicates;
  (* Determinism holds for jumbo faults too. *)
  let v2, _ = Harness.run config in
  Alcotest.(check string) "digest stable" v.Harness.v_log_digest
    v2.Harness.v_log_digest

(* ------------------------------------------------------------------ *)
(* Replays: every soak case and seed that ever lost or duplicated a
   datagram.  Seed 117 lost one when a sender that had yielded inside the
   push resumed after its own module evicted the channel and queued the
   frame on a backlog the eviction had already taken. *)

let replay name seed () =
  match Soak.find_case name with
  | None -> Alcotest.failf "unknown soak case %s" name
  | Some case ->
      let v, _ = Harness.run (Soak.case_config case ~seed) in
      Alcotest.(check int) "lost" 0 v.Harness.v_lost;
      Alcotest.(check int) "duplicated" 0 v.Harness.v_duplicates;
      Alcotest.(check int) "every datagram delivered" v.Harness.v_sent
        v.Harness.v_delivered;
      Alcotest.(check (list string)) "no violation" [] v.Harness.v_violations

let replays =
  [
    ("cluster3/evict-storm", 117);
    ("cluster3/evict-storm", 47);
    ("cluster3/evict-teardown", 3);
    ("cluster3/evict-teardown", 25);
    ("cluster3/evict-teardown", 129);
  ]

(* ------------------------------------------------------------------ *)
(* Sabotage: the checker must catch a deliberately broken invariant *)

let test_sabotage_detected () =
  let sabotage ctx =
    match ctx.Invariant.iv_machines with
    | (_, machine) :: _ ->
        (* Leak one frame to a guest: accounting stays conserved, but the
           final sweep requires every guest to have returned its memory. *)
        let frames = Hypervisor.Machine.frame_allocator machine in
        ignore (Memory.Frame_allocator.allocate frames ~owner:1)
    | [] -> Alcotest.fail "sabotage hook saw no machines"
  in
  let config = Harness.default_config ~seed:4242 Harness.Xenloop_duo in
  let v, _ = Harness.run ~sabotage config in
  Alcotest.(check bool) "verdict not ok" false (Harness.ok v);
  Alcotest.(check int) "failing seed reported" 4242 v.Harness.v_seed;
  Alcotest.(check bool) "frame leak named" true
    (List.exists
       (fun m ->
         let contains s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s
             && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         contains m "frame")
       v.Harness.v_violations);
  (* The very same config without the sabotage is clean. *)
  let clean, _ = Harness.run config in
  Alcotest.(check bool) "clean without sabotage" true (Harness.ok clean)

(* ------------------------------------------------------------------ *)
(* Soft-state recovery paths *)

let fast_params =
  {
    Hypervisor.Params.default with
    discovery_period = Sim.Time.ms 5;
    xenloop_softstate_ttl = Sim.Time.ms 40;
    xenloop_bootstrap_cooldown = Sim.Time.ms 800;
  }

let test_softstate_ttl_eviction () =
  let duo = Setup.build ~params:fast_params Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let discovery = Option.get duo.Setup.discovery in
  Experiment.execute duo (fun () ->
      Alcotest.(check bool) "channel up after warmup" true
        (Gm.has_channel_with m1 ~domid:2);
      (* Starve both guests of announcements: every mapping entry must
         age out within the TTL and take its channel down with it. *)
      Discovery.set_announce_fault discovery (Some (fun ~domid:_ -> true));
      Sim.Engine.sleep (Sim.Time.ms 100);
      Alcotest.(check bool) "client evicted peer" true
        ((Gm.stats m1).Gm.softstate_evictions > 0);
      Alcotest.(check bool) "server evicted peer" true
        ((Gm.stats m2).Gm.softstate_evictions > 0);
      Alcotest.(check bool) "channel torn down" false
        (Gm.has_channel_with m1 ~domid:2);
      Alcotest.(check int) "mapping empty" 0 (Gm.mapping_size m1);
      (* Announcements resume: the mapping refills and traffic pulls the
         channel back up. *)
      Discovery.set_announce_fault discovery None;
      Sim.Engine.sleep (Sim.Time.ms 15);
      Alcotest.(check bool) "mapping repopulated" true (Gm.mapping_size m1 > 0);
      let server_sock =
        match Netstack.Udp.bind duo.Setup.server.Scenarios.Endpoint.udp ~port:921 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let client_sock =
        match Netstack.Udp.bind duo.Setup.client.Scenarios.Endpoint.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:921
        (Bytes.make 64 'r');
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check int) "datagram survived the outage" 64 (Bytes.length got);
      Sim.Engine.sleep (Sim.Time.ms 20);
      Alcotest.(check bool) "channel re-established" true
        (Gm.has_channel_with m1 ~domid:2))

let test_bootstrap_exhaustion_and_cooldown () =
  let duo = Setup.build ~params:fast_params Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let discovery = Option.get duo.Setup.discovery in
  Experiment.execute ~limit:(Sim.Time.sec 60) duo (fun () ->
      (* Tear the warmed-up channel down via soft-state expiry, then make
         every re-bootstrap control message vanish. *)
      Discovery.set_announce_fault discovery (Some (fun ~domid:_ -> true));
      Sim.Engine.sleep (Sim.Time.ms 100);
      Alcotest.(check bool) "channel torn down" false
        (Gm.has_channel_with m1 ~domid:2);
      Gm.set_ctrl_fault_injector m1 (Some (fun _ -> Gm.Ctrl_drop));
      Gm.set_ctrl_fault_injector m2 (Some (fun _ -> Gm.Ctrl_drop));
      Discovery.set_announce_fault discovery None;
      Sim.Engine.sleep (Sim.Time.ms 15);
      let server_sock =
        match Netstack.Udp.bind duo.Setup.server.Scenarios.Endpoint.udp ~port:922 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let client_sock =
        match Netstack.Udp.bind duo.Setup.client.Scenarios.Endpoint.udp () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      (* The first datagram kicks off the doomed bootstrap — and must
         still arrive via netfront while the handshake flounders. *)
      Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:922
        (Bytes.make 64 'x');
      let _, _, got = Netstack.Udp.recvfrom server_sock in
      Alcotest.(check int) "netfront carried the datagram" 64 (Bytes.length got);
      (* Let the Create retries exhaust (3 retries x 500 ms ack timeout). *)
      Sim.Engine.sleep (Sim.Time.sec 3);
      Alcotest.(check bool) "bootstrap failure counted" true
        ((Gm.stats m1).Gm.bootstrap_failures >= 1);
      Alcotest.(check (list int)) "peer in cooldown" [ 2 ] (Gm.failed_peer_ids m1);
      Alcotest.(check bool) "still no channel" false
        (Gm.has_channel_with m1 ~domid:2);
      (* Heal the control plane; after the cooldown the next packet may
         bootstrap again and the fast path returns. *)
      Gm.set_ctrl_fault_injector m1 None;
      Gm.set_ctrl_fault_injector m2 None;
      Sim.Engine.sleep fast_params.Hypervisor.Params.xenloop_bootstrap_cooldown;
      let deadline = Sim.Time.add (Sim.Engine.now duo.Setup.engine) (Sim.Time.sec 10) in
      let rec stir () =
        if Gm.has_channel_with m1 ~domid:2 then ()
        else if Sim.Time.(Sim.Engine.now duo.Setup.engine >= deadline) then
          Alcotest.fail "channel never recovered after cooldown"
        else begin
          Netstack.Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:922
            (Bytes.make 32 's');
          Sim.Engine.sleep (Sim.Time.ms 50);
          stir ()
        end
      in
      stir ();
      Alcotest.(check bool) "cooldown cleared" true (Gm.failed_peer_ids m1 = []))

let test_reactive_discovery_watch () =
  (* With the paper's 5 s discovery period, only the XenStore watch can
     explain Dom0 noticing a withdrawn advertisement within a
     millisecond. *)
  let duo = Setup.build Setup.Xenloop_path in
  let _, m2 = modules_of duo in
  let discovery = Option.get duo.Setup.discovery in
  Experiment.execute duo (fun () ->
      Alcotest.(check int) "both guests willing" 2
        (List.length (Discovery.willing_guests discovery));
      Gm.unload m2;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "withdrawal noticed without a period" 1
        (List.length (Discovery.willing_guests discovery)))

let suites =
  [
    ( "chaos.harness",
      [
        Alcotest.test_case "same seed, same digest" `Quick test_same_seed_same_digest;
        Alcotest.test_case "different seed, different plan" `Quick
          test_different_seed_different_plan;
        Alcotest.test_case "storm digest matrix matches golden MD5s" `Quick
          test_golden_digest_matrix;
        Alcotest.test_case "chaos world is the default configuration" `Quick
          test_chaos_params_are_defaults;
        Alcotest.test_case "soak subset is clean" `Quick test_soak_subset_clean;
        Alcotest.test_case "replay line rebuilds every soak case" `Quick
          test_replay_line_rebuilds_every_case;
        Alcotest.test_case "loans-on chaos run is clean" `Quick
          test_loans_chaos_clean;
        Alcotest.test_case "loan and jumbo soak cases are clean" `Quick
          test_receive_kinds_soak_clean;
        Alcotest.test_case "qos tenant-flood run is clean" `Quick
          test_qos_flood_clean;
        Alcotest.test_case "qos-off digest unperturbed by new kind" `Quick
          test_qos_off_digest_unperturbed;
        Alcotest.test_case "qos soak subset is clean" `Quick
          test_qos_soak_subset_clean;
        Alcotest.test_case "qos soak digests match golden MD5s" `Quick
          test_golden_qos_digests;
        Alcotest.test_case "gso truncate run is clean" `Quick
          test_gso_truncate_clean;
        Alcotest.test_case "sabotage is detected" `Quick test_sabotage_detected;
      ] );
    ( "chaos.replay",
      List.map
        (fun (name, seed) ->
          Alcotest.test_case (Printf.sprintf "%s seed %d" name seed) `Quick
            (replay name seed))
        replays );
    ( "chaos.softstate",
      [
        Alcotest.test_case "ttl eviction and recovery" `Quick
          test_softstate_ttl_eviction;
        Alcotest.test_case "bootstrap exhaustion and cooldown" `Quick
          test_bootstrap_exhaustion_and_cooldown;
        Alcotest.test_case "reactive discovery watch" `Quick
          test_reactive_discovery_watch;
      ] );
  ]
