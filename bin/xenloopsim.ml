(* xenloopsim — command-line driver for the XenLoop simulation.

   Subcommands:
     ping      one scenario, flood ping
     rr        request-response transactions (tcp|udp)
     stream    bulk throughput (tcp|udp)
     sweep     NetPIPE-style message-size sweep
     migrate   live-migration timeline (Fig. 11 style)
     compare   all four scenarios side by side
*)

open Cmdliner

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Netperf = Workloads.Netperf

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

(* --- common arguments --- *)

let scenario_conv =
  let parse = function
    | "inter-machine" | "inter" -> Ok Setup.Inter_machine
    | "netfront" | "netfront-netback" -> Ok Setup.Netfront_netback
    | "xenloop" -> Ok Setup.Xenloop_path
    | "loopback" | "native" -> Ok Setup.Native_loopback
    | s -> Error (`Msg (Printf.sprintf "unknown scenario %S" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Setup.kind_label k))

let scenario =
  let doc =
    "Communication scenario: inter-machine, netfront, xenloop, or loopback."
  in
  Arg.(value & opt scenario_conv Setup.Xenloop_path & info [ "s"; "scenario" ] ~doc)

let fifo_k =
  let doc = "XenLoop FIFO size as log2(slots); 13 = 64 KiB per direction." in
  Arg.(value & opt (some int) None & info [ "fifo-k" ] ~doc)

let proto_conv =
  Arg.conv
    ( (function
      | "tcp" -> Ok `Tcp
      | "udp" -> Ok `Udp
      | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))),
      fun fmt p ->
        Format.pp_print_string fmt (match p with `Tcp -> "tcp" | `Udp -> "udp") )

let proto =
  let doc = "Transport: tcp or udp." in
  Arg.(value & opt proto_conv `Udp & info [ "p"; "proto" ] ~doc)

let with_duo ?fifo_k kind f =
  let duo = Setup.build ?fifo_k kind in
  Experiment.execute duo (fun () ->
      f ~duo ~client:(host_of duo.Setup.client) ~server:(host_of duo.Setup.server)
        ~dst:duo.Setup.server_ip)

(* --- ping --- *)

let ping_cmd =
  let count =
    Arg.(value & opt int 500 & info [ "c"; "count" ] ~doc:"Number of pings.")
  in
  let run kind fifo_k count =
    with_duo ?fifo_k kind (fun ~duo ~client ~server:_ ~dst ->
        let r = Workloads.Pingflood.run client ~dst ~count () in
        Printf.printf "%s: %d/%d replies, rtt avg %.1f us (min %.1f, max %.1f)\n"
          duo.Setup.label r.Workloads.Pingflood.received r.Workloads.Pingflood.sent
          r.Workloads.Pingflood.avg_rtt_us r.Workloads.Pingflood.min_rtt_us
          r.Workloads.Pingflood.max_rtt_us)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Flood ping between the scenario's two endpoints.")
    Term.(const run $ scenario $ fifo_k $ count)

(* --- rr --- *)

let rr_cmd =
  let transactions =
    Arg.(value & opt int 2000 & info [ "n" ] ~doc:"Number of transactions.")
  in
  let run kind fifo_k proto transactions =
    with_duo ?fifo_k kind (fun ~duo ~client ~server ~dst ->
        let r =
          match proto with
          | `Tcp -> Netperf.tcp_rr ~client ~server ~dst ~transactions ()
          | `Udp -> Netperf.udp_rr ~client ~server ~dst ~transactions ()
        in
        Printf.printf
          "%s: %.0f transactions/s (avg %.1f us; cpu client %.0f%%, server %.0f%%)\n"
          duo.Setup.label r.Netperf.transactions_per_sec r.Netperf.avg_latency_us
          r.Netperf.rr_client_cpu r.Netperf.rr_server_cpu)
  in
  Cmd.v
    (Cmd.info "rr" ~doc:"netperf-style 1-byte request-response test.")
    Term.(const run $ scenario $ fifo_k $ proto $ transactions)

(* --- stream --- *)

let stream_cmd =
  let total =
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "bytes" ] ~doc:"Total bytes.")
  in
  let msg =
    Arg.(value & opt (some int) None & info [ "m"; "message-size" ] ~doc:"Message size.")
  in
  let run kind fifo_k proto total msg =
    with_duo ?fifo_k kind (fun ~duo ~client ~server ~dst ->
        let r =
          match proto with
          | `Tcp -> Netperf.tcp_stream ~client ~server ~dst ?message_size:msg
                      ~total_bytes:total ()
          | `Udp -> Netperf.udp_stream ~client ~server ~dst ?message_size:msg
                      ~total_bytes:total ()
        in
        Printf.printf
          "%s: %.0f Mbps (%d bytes received, %d drops; cpu client %.0f%%, server %.0f%%)\n"
          duo.Setup.label r.Netperf.mbps r.Netperf.bytes_received
          r.Netperf.datagrams_dropped r.Netperf.st_client_cpu r.Netperf.st_server_cpu)
  in
  Cmd.v
    (Cmd.info "stream" ~doc:"netperf-style bulk throughput test.")
    Term.(const run $ scenario $ fifo_k $ proto $ total $ msg)

(* --- sweep --- *)

let sweep_cmd =
  let run kind fifo_k =
    with_duo ?fifo_k kind (fun ~duo ~client ~server ~dst ->
        Printf.printf "# %s (NetPIPE over MPI layer)\n" duo.Setup.label;
        Printf.printf "%12s %14s %12s\n" "bytes" "latency(us)" "Mbps";
        List.iter
          (fun (p : Workloads.Netpipe.point) ->
            Printf.printf "%12d %14.1f %12.0f\n" p.Workloads.Netpipe.size
              p.Workloads.Netpipe.latency_us p.Workloads.Netpipe.mbps)
          (Workloads.Netpipe.sweep ~client ~server ~dst ()))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Message-size sweep (latency and bandwidth).")
    Term.(const run $ scenario $ fifo_k)

(* --- migrate --- *)

let migrate_cmd =
  let run () =
    let w = Scenarios.Migration_world.create () in
    Experiment.run_process ~limit:(Sim.Time.sec 120) w.Scenarios.Migration_world.engine
      (fun () ->
        let open Scenarios.Migration_world in
        let s1 = w.guest1.ep.Scenarios.Endpoint.stack in
        let dst = Hypervisor.Domain.ip w.guest2.domain in
        let show label =
          match Netstack.Stack.ping s1 ~dst () with
          | Some rtt ->
              Printf.printf "%-28s rtt = %6.1f us\n" label (Sim.Time.to_us_f rtt)
          | None -> Printf.printf "%-28s lost\n" label
        in
        show "apart (wire):";
        migrate w w.guest1 ~dst:w.m2;
        Sim.Engine.sleep (Sim.Time.sec 6);
        show "co-resident (bootstrap):";
        Sim.Engine.sleep (Sim.Time.ms 10);
        show "co-resident (xenloop):";
        migrate w w.guest1 ~dst:w.m1;
        show "apart again:")
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Live-migration demo with data-path switching.")
    Term.(const run $ const ())

(* --- cluster --- *)

let cluster_cmd =
  let guests =
    Arg.(value & opt int 4 & info [ "n"; "guests" ] ~doc:"Number of guests.")
  in
  let run n =
    let c = Setup.build_cluster ~guests:n () in
    Experiment.run_process c.Setup.c_engine (fun () ->
        c.Setup.c_warmup ();
        Printf.printf "%d co-resident guests, all-pairs XenLoop channels:\n" n;
        List.iter
          (fun (domain, ep, xl) ->
            let rtts =
              List.filter_map
                (fun (peer, peer_ep, _) ->
                  if peer == domain then None
                  else
                    match
                      Netstack.Stack.ping ep.Scenarios.Endpoint.stack
                        ~dst:(Netstack.Stack.ip_addr peer_ep.Scenarios.Endpoint.stack)
                        ()
                    with
                    | Some rtt ->
                        Some
                          (Printf.sprintf "dom%d:%.1fus"
                             (Hypervisor.Domain.domid peer)
                             (Sim.Time.to_us_f rtt))
                    | None -> Some "lost")
                c.Setup.guests
            in
            Printf.printf "  dom%d (%d channels): %s\n"
              (Hypervisor.Domain.domid domain)
              (List.length (Xenloop.Guest_module.connected_peer_ids xl))
              (String.concat "  " rtts))
          c.Setup.guests)
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"N co-resident guests with all-pairs channels.")
    Term.(const run $ guests)

(* --- capture --- *)

let capture_cmd =
  let run () =
    (* Capture the client vif during XenLoop bootstrap: the control
       handshake is visible on the standard path; the data path then goes
       dark (it moved into shared memory). *)
    let duo = Setup.build Setup.Xenloop_path in
    Experiment.run_process duo.Setup.engine (fun () ->
        let dev =
          match Netstack.Stack.device duo.Setup.client.Scenarios.Endpoint.stack with
          | Some dev -> dev
          | None -> failwith "no device"
        in
        let cap = Netstack.Capture.attach ~engine:duo.Setup.engine dev in
        duo.Setup.warmup ();
        Netstack.Capture.stop cap;
        print_endline "frames on the client vif during discovery + bootstrap:";
        Format.printf "%a@." Netstack.Capture.pp cap;
        (* Now send data: the vif stays quiet. *)
        let before = Netstack.Capture.count cap in
        ignore
          (Netstack.Stack.ping duo.Setup.client.Scenarios.Endpoint.stack
             ~dst:duo.Setup.server_ip ());
        Printf.printf
          "a further ping crossed via shared memory: %d new frame(s) on the vif\n"
          (Netstack.Capture.count cap - before))
  in
  Cmd.v
    (Cmd.info "capture" ~doc:"Packet-capture the vif through channel bootstrap.")
    Term.(const run $ const ())

(* --- chaos --- *)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed for the fault plans.")
  in
  let iters =
    let doc =
      "Iterations over the fault matrix (each with seed base+i).  Defaults \
       to \\$(b,SOAK_ITERS) from the environment, else 1."
    in
    Arg.(value & opt (some int) None & info [ "iters" ] ~doc)
  in
  let scenario =
    let sc_conv =
      Arg.conv
        ( (fun s ->
            match Chaos.Harness.scenario_of_label s with
            | Some sc -> Ok sc
            | None -> Error (`Msg (Printf.sprintf "unknown chaos scenario %S" s))),
          fun fmt sc ->
            Format.pp_print_string fmt (Chaos.Harness.scenario_label sc) )
    in
    let doc =
      "Run a single scenario instead of the matrix: xenloop-duo, \
       netfront-duo, cluster3, or migration-world."
    in
    Arg.(value & opt (some sc_conv) None & info [ "scenario" ] ~doc)
  in
  let fault =
    let fault_conv =
      Arg.conv
        ( (fun s ->
            match Chaos.Fault.of_label s with
            | Some k -> Ok k
            | None -> Error (`Msg (Printf.sprintf "unknown fault kind %S" s))),
          fun fmt k -> Format.pp_print_string fmt (Chaos.Fault.label k) )
    in
    let doc =
      "Arm one fault kind (repeatable) for the single-scenario form; \
       without it the scenario runs its full applicable set (storm)."
    in
    Arg.(value & opt_all fault_conv [] & info [ "fault" ] ~doc)
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as JSON.")
  in
  let print_log =
    Arg.(
      value & flag
      & info [ "print-log" ]
          ~doc:"Print the deterministic event log (single-scenario form).")
  in
  let case =
    let doc =
      "Run one case of the soak matrix by name (as a red soak's replay \
       line prints it, e.g. xenloop-duo/stale-read): its scenario, fault \
       set and world — the shipped configuration, or the eviction or QoS \
       world its case asks for.  Not combined with $(b,--scenario) or \
       $(b,--fault)."
    in
    Arg.(value & opt (some string) None & info [ "case" ] ~doc)
  in
  let run seed iters scenario faults json print_log case =
    let iters =
      match iters with
      | Some n -> n
      | None -> (
          match Sys.getenv_opt "SOAK_ITERS" with
          | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
          | None -> 1)
    in
    let single =
      match (case, scenario, faults) with
      | Some name, None, [] -> (
          match Chaos.Soak.find_case name with
          | Some c -> Some (fun seed -> Chaos.Soak.case_config c ~seed)
          | None ->
              Printf.eprintf "unknown soak case %S\n" name;
              exit 2)
      | Some _, _, _ ->
          prerr_endline "--case is not combined with --scenario or --fault";
          exit 2
      | None, Some sc, _ ->
          let kinds =
            match faults with
            | [] -> List.filter (Chaos.Harness.applicable sc) Chaos.Fault.all
            | ks -> ks
          in
          let faults = List.map Chaos.Fault.default_spec kinds in
          Some (fun seed -> Chaos.Harness.default_config ~seed ~faults sc)
      | None, None, _ -> None
    in
    match single with
    | Some config_for ->
        (* Single case: one run per seed, exact configuration — this is
           the replay path for a failing soak seed. *)
        let code = ref 0 in
        for i = 0 to iters - 1 do
          let v, log = Chaos.Harness.run (config_for (seed + i)) in
          if print_log then
            List.iter print_endline (Chaos.Event_log.render log);
          Format.printf "%a@." Chaos.Harness.pp_verdict v;
          Printf.printf "event log: %d entries, digest %s\n"
            v.Chaos.Harness.v_log_length v.Chaos.Harness.v_log_digest;
          if not (Chaos.Harness.ok v) then code := 1
        done;
        exit !code
    | None ->
        let summary =
          Chaos.Soak.run ~seed ~iters ~progress:(fun line ->
              if not json then Printf.printf "  %s\n%!" line)
            ()
        in
        if json then
          print_endline
            (Bench_gates.Json.to_string (Bench_gates.Chaos_doc.of_summary summary))
        else Format.printf "%a@." Chaos.Soak.pp summary;
        exit (if Chaos.Soak.ok summary then 0 else 1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault-injection soak: inject faults across the \
          control and data planes, check invariants, verify exactly-once \
          delivery.")
    Term.(const run $ seed $ iters $ scenario $ fault $ json $ print_log $ case)

(* --- compare --- *)

let compare_cmd =
  let run () =
    List.iter
      (fun kind ->
        with_duo kind (fun ~duo ~client ~server ~dst ->
            let ping = Workloads.Pingflood.run client ~dst ~count:200 () in
            let rr = Netperf.udp_rr ~client ~server ~dst ~transactions:500 () in
            let st = Netperf.udp_stream ~client ~server ~dst () in
            Printf.printf "%-18s ping %6.1f us   udp_rr %8.0f t/s   udp_stream %6.0f Mbps\n"
              duo.Setup.label ping.Workloads.Pingflood.avg_rtt_us
              rr.Netperf.transactions_per_sec st.Netperf.mbps))
      Setup.all_kinds
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"All four scenarios side by side.")
    Term.(const run $ const ())

let () =
  let doc = "XenLoop reproduction: drive the simulated Xen scenarios." in
  let info = Cmd.info "xenloopsim" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ ping_cmd; rr_cmd; stream_cmd; sweep_cmd; migrate_cmd; compare_cmd;
          cluster_cmd; capture_cmd; chaos_cmd ]))
