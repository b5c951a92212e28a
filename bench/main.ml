(* Benchmark harness: regenerates every table and figure of the XenLoop
   paper's evaluation (Sect. 4), plus the ablations, the related-work
   baselines and the bench document behind the gate table
   (bench/gates.ml).  Per-layer host costs (codec, checksum, FIFO,
   steering, DRR, timer wheel) are measured by the traced run of the
   repository benchmark (benchmark/run.ml), not here.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --only table1,fig4
     dune exec bench/main.exe -- --json-smoke OUT BENCH_results.json
         # smoke plan: write the document to OUT, check every gate row
     dune exec bench/main.exe -- --json [OUT]
         # full plan, the same rows; recorded values are read from
         # ./BENCH_results.json (OUT defaults to it)
     dune exec bench/main.exe -- --engine-bench   # engine events/sec
     dune exec bench/main.exe -- --engine-bench-check BENCH_results.json
         # host-time gate: callback_churn >= 75% of the recorded rate
*)

module Json = Bench_gates.Json
module Gates = Bench_gates.Gates
module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Mw = Scenarios.Migration_world
module Gm = Xenloop.Guest_module
module Steering = Xenloop.Steering
module Host = Workloads.Host
module Netperf = Workloads.Netperf

let fmt = Format.std_formatter

let host_of (ep : Scenarios.Endpoint.t) =
  { Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

type ctx = { duo : Setup.duo; client : Host.t; server : Host.t; dst : Netcore.Ip.t }

let make_ctx ?params ?fifo_k kind =
  let duo = Setup.build ?params ?fifo_k kind in
  {
    duo;
    client = host_of duo.Setup.client;
    server = host_of duo.Setup.server;
    dst = duo.Setup.server_ip;
  }

let in_ctx ctx f = Experiment.execute ctx.duo (fun () -> f ctx)

let r1 v = Printf.sprintf "%.1f" v
let r0 v = Printf.sprintf "%.0f" v

(* ------------------------------------------------------------------ *)
(* Tables 1-3 *)

type snapshot = {
  ping_rtt_us : float;
  tcp_rr : float;
  udp_rr : float;
  tcp_stream : float;
  udp_stream : float;
  lmbench_bw : float;
  lmbench_lat : float;
  netpipe_bw : float;
  netpipe_lat : float;
}

let snapshot_of kind =
  let ctx = make_ctx kind in
  in_ctx ctx (fun { client; server; dst; _ } ->
      let ping = Workloads.Pingflood.run client ~dst ~count:400 () in
      let tcp_rr = Netperf.tcp_rr ~client ~server ~dst ~transactions:1500 () in
      let udp_rr = Netperf.udp_rr ~client ~server ~dst ~transactions:1500 () in
      let tcp_stream = Netperf.tcp_stream ~client ~server ~dst () in
      let udp_stream = Netperf.udp_stream ~client ~server ~dst () in
      let lm_bw = Workloads.Lmbench.bw_tcp ~client ~server ~dst () in
      let lm_lat = Workloads.Lmbench.lat_tcp ~client ~server ~dst ~round_trips:1500 () in
      let np = Workloads.Netpipe.single ~client ~server ~dst ~size:16384 ~reps:60 () in
      let np_lat = Workloads.Netpipe.single ~client ~server ~dst ~size:1 ~reps:400 () in
      {
        ping_rtt_us = ping.Workloads.Pingflood.avg_rtt_us;
        tcp_rr = tcp_rr.Netperf.transactions_per_sec;
        udp_rr = udp_rr.Netperf.transactions_per_sec;
        tcp_stream = tcp_stream.Netperf.mbps;
        udp_stream = udp_stream.Netperf.mbps;
        lmbench_bw = lm_bw;
        lmbench_lat = lm_lat;
        netpipe_bw = np.Workloads.Netpipe.mbps;
        netpipe_lat = np_lat.Workloads.Netpipe.latency_us;
      })

let snapshots = lazy (List.map (fun k -> (k, snapshot_of k)) Setup.all_kinds)

let get k = List.assoc k (Lazy.force snapshots)

let table1 () =
  (* Paper Table 1: inter-machine vs netfront/netback vs XenLoop. *)
  let t =
    Sim.Table.create ~title:"Table 1: Latency and bandwidth comparison"
      ~columns:
        [ "Benchmark"; "Inter Machine"; "Netfront/Netback"; "XenLoop"; "paper I/N/X" ]
  in
  let im = get Setup.Inter_machine
  and nf = get Setup.Netfront_netback
  and xl = get Setup.Xenloop_path in
  let row name f paper =
    Sim.Table.add_row t [ name; r0 (f im); r0 (f nf); r0 (f xl); paper ]
  in
  row "Flood Ping RTT (us)" (fun s -> s.ping_rtt_us) "101/140/28";
  row "netperf TCP_RR (trans/s)" (fun s -> s.tcp_rr) "9387/10236/28529";
  row "netperf UDP_RR (trans/s)" (fun s -> s.udp_rr) "9784/12600/32803";
  row "netperf TCP_STREAM (Mbps)" (fun s -> s.tcp_stream) "941/2656/4143";
  row "netperf UDP_STREAM (Mbps)" (fun s -> s.udp_stream) "710/707/4380";
  row "lmbench TCP bw (Mbps)" (fun s -> s.lmbench_bw) "848/1488/4920";
  Sim.Table.pp fmt t;
  Format.fprintf fmt "@."

let table2 () =
  let t =
    Sim.Table.create ~title:"Table 2: Average bandwidth comparison (Mbps)"
      ~columns:
        [
          "Benchmark";
          "Inter Machine";
          "Netfront/Netback";
          "XenLoop";
          "Native Loopback";
          "paper I/N/X/L";
        ]
  in
  let im = get Setup.Inter_machine
  and nf = get Setup.Netfront_netback
  and xl = get Setup.Xenloop_path
  and lo = get Setup.Native_loopback in
  let row name f paper =
    Sim.Table.add_row t [ name; r0 (f im); r0 (f nf); r0 (f xl); r0 (f lo); paper ]
  in
  row "lmbench (tcp)" (fun s -> s.lmbench_bw) "848/1488/4920/5336";
  row "netperf (tcp)" (fun s -> s.tcp_stream) "941/2656/4143/4666";
  row "netperf (udp)" (fun s -> s.udp_stream) "710/707/4380/4928";
  row "netpipe-mpich" (fun s -> s.netpipe_bw) "645/697/2048/4836";
  Sim.Table.pp fmt t;
  Format.fprintf fmt "@."

let table3 () =
  let t =
    Sim.Table.create ~title:"Table 3: Average latency comparison"
      ~columns:
        [
          "Benchmark";
          "Inter Machine";
          "Netfront/Netback";
          "XenLoop";
          "Native Loopback";
          "paper I/N/X/L";
        ]
  in
  let im = get Setup.Inter_machine
  and nf = get Setup.Netfront_netback
  and xl = get Setup.Xenloop_path
  and lo = get Setup.Native_loopback in
  let row name f paper =
    Sim.Table.add_row t [ name; r1 (f im); r1 (f nf); r1 (f xl); r1 (f lo); paper ]
  in
  row "Flood Ping RTT (us)" (fun s -> s.ping_rtt_us) "101/140/28/6";
  row "lmbench lat (us RTT)" (fun s -> s.lmbench_lat) "107/98/33/25";
  row "netperf TCP_RR (trans/s)" (fun s -> s.tcp_rr) "9387/10236/28529/31969";
  row "netperf UDP_RR (trans/s)" (fun s -> s.udp_rr) "9784/12600/32803/39623";
  row "netpipe-mpich (us one-way)" (fun s -> s.netpipe_lat) "77.2/61.0/24.9/23.8";
  Sim.Table.pp fmt t;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Figures: per-scenario sweeps *)

let fig_series ~title ~xlabel ~ylabel per_kind =
  Format.fprintf fmt "=== %s ===@." title;
  Format.fprintf fmt "# x: %s, y: %s@." xlabel ylabel;
  List.iter
    (fun kind ->
      let points = per_kind kind in
      Format.fprintf fmt "# series: %s@." (Setup.kind_label kind);
      List.iter (fun (x, y) -> Format.fprintf fmt "%10.0f %12.2f@." x y) points;
      Format.fprintf fmt "@.")
    Setup.all_kinds

let fig4 () =
  (* UDP throughput vs message size (netperf UDP_STREAM, paper Fig. 4). *)
  let sizes = [ 64; 256; 1024; 4096; 16384; 32768; 61440 ] in
  fig_series ~title:"Figure 4: UDP throughput vs message size (netperf)"
    ~xlabel:"message bytes" ~ylabel:"Mbps" (fun kind ->
      let ctx = make_ctx kind in
      in_ctx ctx (fun { client; server; dst; _ } ->
          List.map
            (fun size ->
              let r =
                Netperf.udp_stream ~client ~server ~dst ~message_size:size
                  ~total_bytes:(max (512 * 1024) (size * 64))
                  ()
              in
              (float_of_int size, r.Netperf.mbps))
            sizes))

let fig5 () =
  (* Throughput vs FIFO size (XenLoop scenario only, paper Fig. 5). *)
  Format.fprintf fmt "=== Figure 5: UDP throughput vs FIFO size (XenLoop) ===@.";
  Format.fprintf fmt "# x: FIFO KiB (per direction), y: Mbps@.";
  List.iter
    (fun k ->
      let ctx = make_ctx ~fifo_k:k Setup.Xenloop_path in
      let mbps =
        in_ctx ctx (fun { client; server; dst; _ } ->
            let r = Netperf.udp_stream ~client ~server ~dst () in
            r.Netperf.mbps)
      in
      Format.fprintf fmt "%10d %12.2f@." (1 lsl k * 8 / 1024) mbps)
    [ 9; 10; 11; 12; 13; 14; 15 ];
  Format.fprintf fmt "@."

let netpipe_sizes = [ 1; 16; 256; 2048; 16384; 65536; 262144 ]

let fig6_7 () =
  let results =
    List.map
      (fun kind ->
        let ctx = make_ctx kind in
        let points =
          in_ctx ctx (fun { client; server; dst; _ } ->
              Workloads.Netpipe.sweep ~client ~server ~dst ~sizes:netpipe_sizes ())
        in
        (kind, points))
      Setup.all_kinds
  in
  Format.fprintf fmt "=== Figure 6: netpipe-mpich throughput vs message size ===@.";
  Format.fprintf fmt "# x: message bytes, y: Mbps@.";
  List.iter
    (fun (kind, points) ->
      Format.fprintf fmt "# series: %s@." (Setup.kind_label kind);
      List.iter
        (fun p ->
          Format.fprintf fmt "%10d %12.2f@." p.Workloads.Netpipe.size
            p.Workloads.Netpipe.mbps)
        points;
      Format.fprintf fmt "@.")
    results;
  Format.fprintf fmt "=== Figure 7: netpipe-mpich latency vs message size ===@.";
  Format.fprintf fmt "# x: message bytes, y: one-way latency (us)@.";
  List.iter
    (fun (kind, points) ->
      Format.fprintf fmt "# series: %s@." (Setup.kind_label kind);
      List.iter
        (fun p ->
          Format.fprintf fmt "%10d %12.2f@." p.Workloads.Netpipe.size
            p.Workloads.Netpipe.latency_us)
        points;
      Format.fprintf fmt "@.")
    results

let osu_sizes = [ 1; 16; 256; 4096; 32768; 262144 ]

let fig8 () =
  fig_series ~title:"Figure 8: OSU MPI uni-directional bandwidth"
    ~xlabel:"message bytes" ~ylabel:"Mbps" (fun kind ->
      let ctx = make_ctx kind in
      in_ctx ctx (fun { client; server; dst; _ } ->
          Workloads.Osu.uni_bandwidth ~client ~server ~dst ~sizes:osu_sizes ()
          |> List.map (fun (p : Workloads.Osu.bw_point) ->
                 (float_of_int p.Workloads.Osu.size, p.Workloads.Osu.mbps))))

let fig9 () =
  fig_series ~title:"Figure 9: OSU MPI bi-directional bandwidth"
    ~xlabel:"message bytes" ~ylabel:"aggregate Mbps" (fun kind ->
      let ctx = make_ctx kind in
      in_ctx ctx (fun { client; server; dst; _ } ->
          Workloads.Osu.bi_bandwidth ~client ~server ~dst ~sizes:osu_sizes ()
          |> List.map (fun (p : Workloads.Osu.bw_point) ->
                 (float_of_int p.Workloads.Osu.size, p.Workloads.Osu.mbps))))

let fig10 () =
  fig_series ~title:"Figure 10: OSU MPI latency" ~xlabel:"message bytes"
    ~ylabel:"one-way latency (us)" (fun kind ->
      let ctx = make_ctx kind in
      in_ctx ctx (fun { client; server; dst; _ } ->
          Workloads.Osu.latency ~client ~server ~dst ~sizes:osu_sizes ()
          |> List.map (fun (p : Workloads.Osu.lat_point) ->
                 (float_of_int p.Workloads.Osu.size, p.Workloads.Osu.latency_us))))

(* ------------------------------------------------------------------ *)
(* Figure 11: transactions/sec during migration *)

let fig11 () =
  Format.fprintf fmt "=== Figure 11: TCP_RR transactions/sec during migration ===@.";
  Format.fprintf fmt
    "# guest1 starts remote, migrates in at t=10s, migrates away at t=30s@.";
  Format.fprintf fmt "# x: time (s), y: transactions/sec@.";
  let w = Mw.create () in
  let series = Sim.Series.create ~name:"tcp_rr" in
  Experiment.run_process ~limit:(Sim.Time.sec 60) w.Mw.engine (fun () ->
      let g1 = w.Mw.guest1 and g2 = w.Mw.guest2 in
      let client_tcp = g1.Mw.ep.Scenarios.Endpoint.tcp in
      let dst = Hypervisor.Domain.ip g2.Mw.domain in
      let listener =
        match Netstack.Tcp.listen g2.Mw.ep.Scenarios.Endpoint.tcp ~port:5999 with
        | Ok l -> l
        | Error _ -> failwith "listen"
      in
      Sim.Engine.spawn w.Mw.engine (fun () ->
          let conn = Netstack.Tcp.accept listener in
          try
            while true do
              let (_ : Bytes.t) = Netstack.Tcp.recv_exact conn 1 in
              Netstack.Tcp.send conn (Bytes.make 1 'r')
            done
          with Netstack.Tcp.Tcp_error _ -> ());
      Sim.Engine.at w.Mw.engine
        (Sim.Time.add Sim.Time.zero (Sim.Time.sec 10))
        (fun () -> Mw.migrate w g1 ~dst:w.Mw.m2);
      Sim.Engine.at w.Mw.engine
        (Sim.Time.add Sim.Time.zero (Sim.Time.sec 30))
        (fun () -> Mw.migrate w g1 ~dst:w.Mw.m1);
      let conn =
        match Netstack.Tcp.connect client_tcp ~dst ~dst_port:5999 () with
        | Ok c -> c
        | Error _ -> failwith "connect"
      in
      let request = Bytes.make 1 'q' in
      let stop_at = Sim.Time.add Sim.Time.zero (Sim.Time.sec 40) in
      while Sim.Time.(Sim.Engine.now w.Mw.engine < stop_at) do
        Netstack.Tcp.send conn request;
        let (_ : Bytes.t) = Netstack.Tcp.recv_exact conn 1 in
        Sim.Series.record series
          ~x:(Sim.Time.instant_to_sec_f (Sim.Engine.now w.Mw.engine))
          ~y:1.0
      done);
  let buckets = Sim.Series.bucketize ~width:1.0 (Sim.Series.points series) in
  List.iter (fun (x, y) -> Format.fprintf fmt "%10.1f %12.0f@." x y) buckets;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_copy () =
  (* Paper Sect. 3.3 argues for two copies over page sharing or transfer.
     Replayed through the cost model: the per-packet FIFO operation cost is
     replaced by what grant-share or grant-transfer would cost per packet,
     with the data copies removed. *)
  Format.fprintf fmt
    "=== Ablation: receiver data-transfer strategy (paper Sect. 3.3) ===@.";
  Format.fprintf fmt "# UDP_STREAM through XenLoop, Mbps (higher is better)@.";
  let p = Hypervisor.Params.default in
  let variants =
    [
      ("two-copy (XenLoop's choice)", p);
      ( "page sharing (map+unmap per packet)",
        {
          p with
          Hypervisor.Params.xenloop_copy_ns_per_byte = 0.0;
          xenloop_fifo_op =
            Sim.Time.span_add
              (Sim.Time.span_scale 2 p.Hypervisor.Params.page_map)
              (Sim.Time.span_scale 2 p.Hypervisor.Params.hypercall);
        } );
      ( "page transfer (transfer+zero per packet)",
        {
          p with
          Hypervisor.Params.xenloop_copy_ns_per_byte = 0.0;
          xenloop_fifo_op =
            Sim.Time.span_add p.Hypervisor.Params.page_map
              (Sim.Time.span_add p.Hypervisor.Params.page_zero
                 (Sim.Time.span_scale 2 p.Hypervisor.Params.hypercall));
        } );
    ]
  in
  List.iter
    (fun (name, params) ->
      let ctx = make_ctx ~params Setup.Xenloop_path in
      let mbps =
        in_ctx ctx (fun { client; server; dst; _ } ->
            (Netperf.udp_stream ~client ~server ~dst ()).Netperf.mbps)
      in
      Format.fprintf fmt "%-42s %10.0f Mbps@." name mbps)
    variants;
  Format.fprintf fmt "@."

let ablation_discovery () =
  (* Sensitivity of fast-path engagement to the discovery scan period. *)
  Format.fprintf fmt "=== Ablation: discovery period vs fast-path delay ===@.";
  Format.fprintf fmt
    "# time from co-residence (migration completes) to XenLoop channel active@.";
  List.iter
    (fun period_s ->
      let p =
        { Hypervisor.Params.default with discovery_period = Sim.Time.sec period_s }
      in
      let w = Mw.create ~params:p () in
      let delay =
        Experiment.run_process ~limit:(Sim.Time.sec 120) w.Mw.engine (fun () ->
            let s1 = w.Mw.guest1.Mw.ep.Scenarios.Endpoint.stack in
            let dst = Hypervisor.Domain.ip w.Mw.guest2.Mw.domain in
            ignore (Netstack.Stack.ping s1 ~dst ());
            Mw.migrate w w.Mw.guest1 ~dst:w.Mw.m2;
            let t0 = Sim.Engine.now w.Mw.engine in
            let connected () = Gm.connected_peer_ids w.Mw.guest1.Mw.xl_module <> [] in
            while not (connected ()) do
              ignore (Netstack.Stack.ping s1 ~dst ~timeout:(Sim.Time.ms 50) ());
              Sim.Engine.sleep (Sim.Time.ms 10)
            done;
            Sim.Time.to_sec_f (Sim.Time.diff (Sim.Engine.now w.Mw.engine) t0))
      in
      Format.fprintf fmt "period %2ds -> channel active after %6.2fs@." period_s delay)
    [ 1; 2; 5; 10 ];
  Format.fprintf fmt "@."

let ablation_transport () =
  (* The paper's future-work question (Sect. 6): does intercepting between
     the socket and transport layers — eliminating IP/UDP processing from
     the inter-VM path — pay off?  Compare packet-level XenLoop with the
     Socket_shortcut prototype on the same workloads. *)
  Format.fprintf fmt
    "=== Ablation: packet-level XenLoop vs transport-level shortcut ===@.";
  let run ~shortcut =
    let ctx = make_ctx Setup.Xenloop_path in
    if shortcut then
      (match ctx.duo.Setup.modules with
      | [ a; b ] ->
          ignore
            (Xenloop.Socket_shortcut.enable ~xl_module:a
               ~udp:ctx.duo.Setup.client.Scenarios.Endpoint.udp ());
          ignore
            (Xenloop.Socket_shortcut.enable ~xl_module:b
               ~udp:ctx.duo.Setup.server.Scenarios.Endpoint.udp ())
      | _ -> failwith "two modules expected");
    in_ctx ctx (fun { client; server; dst; _ } ->
        let rr = Netperf.udp_rr ~client ~server ~dst ~transactions:1500 () in
        let st = Netperf.udp_stream ~client ~server ~dst () in
        (rr.Netperf.avg_latency_us, st.Netperf.mbps))
  in
  let base_lat, base_bw = run ~shortcut:false in
  let sc_lat, sc_bw = run ~shortcut:true in
  Format.fprintf fmt "%-38s %10.1f us/transaction %10.0f Mbps@."
    "packet-level (published XenLoop)" base_lat base_bw;
  Format.fprintf fmt "%-38s %10.1f us/transaction %10.0f Mbps@."
    "transport-level shortcut (Sect. 6)" sc_lat sc_bw;
  Format.fprintf fmt "latency saved: %.1f us/transaction (%.0f%%)@.@."
    (base_lat -. sc_lat)
    ((base_lat -. sc_lat) /. base_lat *. 100.0)

let ablation_scheduler () =
  (* Paper Sect. 2: "excessive switching of a CPU between domains can
     negatively impact performance".  The Xen credit scheduler's BOOST
     priority is what keeps an I/O domain's wake-up latency in the
     microsecond range even next to CPU hogs; without it, every packet
     through Dom0 could wait out a 30 ms timeslice. *)
  Format.fprintf fmt
    "=== Ablation: credit-scheduler BOOST and I/O wake-up latency ===@.";
  Format.fprintf fmt
    "# one pCPU, two CPU-hog domains, one I/O domain waking every 3 ms@.";
  let measure ~boost =
    let engine = Sim.Engine.create () in
    let stats = Sim.Stats.create () in
    Experiment.run_process ~limit:(Sim.Time.sec 10) engine (fun () ->
        let s =
          Hypervisor.Credit_scheduler.create ~engine ~physical_cpus:1
            ~timeslice:(Sim.Time.ms 30) ~boost ()
        in
        let hog1 = Hypervisor.Credit_scheduler.add_vcpu s ~name:"hog1" ~weight:256 () in
        let hog2 = Hypervisor.Credit_scheduler.add_vcpu s ~name:"hog2" ~weight:256 () in
        let io = Hypervisor.Credit_scheduler.add_vcpu s ~name:"io" ~weight:256 () in
        Sim.Engine.spawn engine (fun () ->
            Hypervisor.Credit_scheduler.run hog1 (Sim.Time.sec 5));
        Sim.Engine.spawn engine (fun () ->
            Hypervisor.Credit_scheduler.run hog2 (Sim.Time.sec 5));
        Sim.Engine.sleep (Sim.Time.ms 50);
        for _ = 1 to 100 do
          Sim.Engine.sleep (Sim.Time.ms 3);
          let t0 = Sim.Engine.now engine in
          Hypervisor.Credit_scheduler.run io (Sim.Time.us 50);
          Sim.Stats.add stats
            (Sim.Time.to_ms_f (Sim.Time.diff (Sim.Engine.now engine) t0))
        done);
    stats
  in
  let with_boost = measure ~boost:true in
  let without = measure ~boost:false in
  Format.fprintf fmt "%-18s wake-to-done: mean %7.2f ms   p99 %7.2f ms@."
    "with BOOST" (Sim.Stats.mean with_boost)
    (Sim.Stats.percentile with_boost 99.0);
  Format.fprintf fmt "%-18s wake-to-done: mean %7.2f ms   p99 %7.2f ms@."
    "without BOOST" (Sim.Stats.mean without)
    (Sim.Stats.percentile without 99.0);
  Format.fprintf fmt "@."

let ablation_contention () =
  (* The calibrated default gives every domain its own serial vCPU; the
     credit-scheduled mode shares real cores.  Does a CPU-hog neighbour
     perturb the XenLoop fast path?  (Paper testbed: a dual-core
     Pentium D.) *)
  Format.fprintf fmt
    "=== Ablation: CPU model — dedicated vCPUs vs credit scheduler ===@.";
  Format.fprintf fmt
    "# XenLoop UDP_RR between guest1/guest2; guests 3-4 can burn CPU@.";
  let measure ~cpu_model ~hogs label =
    (* Four guests: 1 and 2 run the benchmark, 3 and 4 can hog. *)
    let c = Scenarios.Setup.build_cluster ?cpu_model ~guests:4 () in
    let rate =
      Experiment.run_process c.Setup.c_engine (fun () ->
          c.Setup.c_warmup ();
          let host_of_guest i =
            let _, ep, _ = List.nth c.Setup.guests i in
            host_of ep
          in
          if hogs then
            List.iter
              (fun i ->
                let hog_domain, _, _ = List.nth c.Setup.guests i in
                Sim.Engine.spawn c.Setup.c_engine (fun () ->
                    for _ = 1 to 2000 do
                      Sim.Resource.use
                        (Hypervisor.Domain.cpu hog_domain)
                        (Sim.Time.ms 5)
                    done))
              [ 2; 3 ];
          let _, server_ep, _ = List.nth c.Setup.guests 1 in
          let r =
            Netperf.udp_rr ~client:(host_of_guest 0) ~server:(host_of_guest 1)
              ~dst:(Scenarios.Endpoint.ip server_ep) ~transactions:1000 ()
          in
          r.Netperf.avg_latency_us)
    in
    Format.fprintf fmt "%-52s %10.1f us/transaction@." label rate
  in
  let credit boost =
    Some (Hypervisor.Machine.Credit_scheduled { physical_cpus = 2; boost })
  in
  measure ~cpu_model:None ~hogs:true "dedicated vCPUs (calibrated default), 2 hogs";
  measure ~cpu_model:(credit true) ~hogs:false "credit (2 cores, BOOST), idle neighbours";
  measure ~cpu_model:(credit true) ~hogs:true "credit (2 cores, BOOST), 2 hogging neighbours";
  measure ~cpu_model:(credit false) ~hogs:true
    "credit (2 cores, no BOOST), 2 hogging neighbours";
  Format.fprintf fmt "@."

let related_baselines () =
  (* Quantifying the paper's related-work table (Sect. 5): XenSockets
     trades every kind of transparency for throughput; XenLoop keeps
     transparency and gets close. *)
  Format.fprintf fmt "=== Related work: XenSockets-style pipe vs XenLoop ===@.";
  let total = 16 * 1024 * 1024 in
  (* XenLoop paths (socket API, fully transparent). *)
  let ctx = make_ctx Setup.Xenloop_path in
  let xl_tcp, xl_udp =
    in_ctx ctx (fun { client; server; dst; _ } ->
        let tcp = Netperf.tcp_stream ~client ~server ~dst ~total_bytes:total () in
        let udp = Netperf.udp_stream ~client ~server ~dst ~total_bytes:total () in
        (tcp.Netperf.mbps, udp.Netperf.mbps))
  in
  (* XenSockets-style pipe (explicit API, no discovery, no migration). *)
  let machine = Option.get ctx.duo.Setup.machine in
  let d1, d2 =
    match Hypervisor.Machine.guests machine with
    | [ a; b ] -> (a, b)
    | _ -> failwith "two guests expected"
  in
  let pipe_mbps =
    Experiment.run_process ctx.duo.Setup.engine (fun () ->
        let reader, handle =
          Related.Xensocket.create_pipe ~machine ~owner:d2
            ~writer_domid:(Hypervisor.Domain.domid d1)
            ()
        in
        let writer =
          match
            Related.Xensocket.connect ~machine ~domain:d1
              ~reader_domid:(Hypervisor.Domain.domid d2)
              handle
          with
          | Ok w -> w
          | Error e -> failwith e
        in
        (* 16 KiB chunks on a 64 KiB pipe: the writer streams while the
           reader drains (chunk = pipe size would lockstep instead). *)
        let chunk = Bytes.make 16384 'p' in
        Sim.Engine.spawn ctx.duo.Setup.engine (fun () ->
            for _ = 1 to total / 16384 do
              Related.Xensocket.send writer chunk
            done);
        let t0 = Sim.Engine.now ctx.duo.Setup.engine in
        let received = ref 0 in
        while !received < total do
          received :=
            !received + Bytes.length (Related.Xensocket.recv reader ~max:65536)
        done;
        let dt =
          Sim.Time.to_sec_f (Sim.Time.diff (Sim.Engine.now ctx.duo.Setup.engine) t0)
        in
        float_of_int total *. 8.0 /. dt /. 1e6)
  in
  (* XWay-style: transparent for TCP apps, but manually peered. *)
  let xway_mbps =
    let engine = Sim.Engine.create () in
    Experiment.run_process engine (fun () ->
        let machine =
          Hypervisor.Machine.create ~engine ~params:Hypervisor.Params.default ~id:0 ()
        in
        let mk i =
          let domain =
            Hypervisor.Machine.create_domain machine ~name:(Printf.sprintf "g%d" i)
              ~ip:(Netcore.Ip.make ~subnet:6 ~host:i)
          in
          let stack =
            Netstack.Stack.create ~engine ~params:Hypervisor.Params.default
              ~cpu:(Hypervisor.Domain.cpu domain)
              ~ip:(Hypervisor.Domain.ip domain)
              ~mac:(Hypervisor.Domain.mac domain) ()
          in
          (domain, Related.Xway.attach ~machine ~domain ~tcp:(Netstack.Tcp.attach stack))
        in
        let d1, x1 = mk 1 and d2, x2 = mk 2 in
        Related.Xway.register_peer x1 ~peer_ip:(Hypervisor.Domain.ip d2) x2;
        Related.Xway.register_peer x2 ~peer_ip:(Hypervisor.Domain.ip d1) x1;
        let listener =
          match Related.Xway.listen x2 ~port:80 with
          | Ok l -> l
          | Error _ -> failwith "listen"
        in
        let received = ref 0 in
        let finished_at = ref Sim.Time.zero in
        Sim.Engine.spawn engine (fun () ->
            let conn = Related.Xway.accept listener in
            while !received < total do
              received := !received + Bytes.length (Related.Xway.recv conn ~max:65536)
            done;
            finished_at := Sim.Engine.now engine);
        let conn =
          match Related.Xway.connect x1 ~dst:(Hypervisor.Domain.ip d2) ~dst_port:80 with
          | Ok c -> c
          | Error _ -> failwith "connect"
        in
        let t0 = Sim.Engine.now engine in
        let chunk = Bytes.make 16384 'w' in
        for _ = 1 to total / 16384 do
          Related.Xway.send conn chunk
        done;
        while !received < total do
          Sim.Engine.sleep (Sim.Time.ms 1)
        done;
        float_of_int total *. 8.0
        /. Sim.Time.to_sec_f (Sim.Time.diff !finished_at t0)
        /. 1e6)
  in
  let nf = make_ctx Setup.Netfront_netback in
  let nf_tcp =
    in_ctx nf (fun { client; server; dst; _ } ->
        (Netperf.tcp_stream ~client ~server ~dst ~total_bytes:total ()).Netperf.mbps)
  in
  Format.fprintf fmt
    "%-28s %10s %14s %10s %10s %10s@." "mechanism" "Mbps" "app-transparent"
    "discovery" "migration" "direction";
  let row name mbps transparent discovery migration direction =
    Format.fprintf fmt "%-28s %10.0f %14s %10s %10s %10s@." name mbps transparent
      discovery migration direction
  in
  row "netfront/netback" nf_tcp "yes" "n/a" "yes" "duplex";
  row "XenLoop (TCP sockets)" xl_tcp "yes" "yes" "yes" "duplex";
  row "XenLoop (UDP sockets)" xl_udp "yes" "yes" "yes" "duplex";
  row "XWay-style (TCP apps)" xway_mbps "TCP only" "no (manual)" "no" "duplex";
  row "XenSockets-style pipe" pipe_mbps "no (new API)" "no" "no" "one-way";
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)
(* The bench document: the notification fast path before vs after, and
   the sweeps behind the gate table (bench/gates.ml), as one JSON value.

   Baseline = per-packet notifications exactly as the paper describes
   (suppression, batching, and polling all disabled); optimized = the
   calibrated defaults.  Counters are snapshotted around the measured run
   so warmup traffic is excluded.  Floats keep the precision the document
   has always printed them with. *)

let int n = Json.Num (float_of_int n)
let fixed digits v = Json.Num (float_of_string (Printf.sprintf "%.*f" digits v))
let fixed_opt digits = function None -> Json.Null | Some v -> fixed digits v
let field k j = Json.to_num (Json.member k j)

let baseline_params =
  {
    Hypervisor.Params.default with
    Hypervisor.Params.xenloop_notify_suppression = false;
    xenloop_batch_tx = false;
    xenloop_poll_window = Sim.Time.span_zero;
    xenloop_queues = 1;
    xenloop_zerocopy = false;
  }

(* Module counters, summed over both guests, under their document keys. *)
let counter_keys : (string * (Gm.stats -> int)) list =
  [
    ("packets_delivered", fun s -> s.Gm.via_channel_rx);
    ("notifies_sent", fun s -> s.Gm.notifies_sent);
    ("notifies_suppressed", fun s -> s.Gm.notifies_suppressed);
    ("batches", fun s -> s.Gm.batches);
    ("poll_rounds", fun s -> s.Gm.poll_rounds);
    ("steered_packets", fun s -> s.Gm.steered_packets);
    ("waiting_overflows", fun s -> s.Gm.waiting_overflows);
    ("desc_tx", fun s -> s.Gm.desc_tx);
    ("inline_tx", fun s -> s.Gm.inline_tx);
    ("pool_fallbacks", fun s -> s.Gm.pool_fallbacks);
    ("loan_tx", fun s -> s.Gm.loan_tx);
    ("loan_rx", fun s -> s.Gm.loan_rx);
    ("loan_returns", fun s -> s.Gm.loan_returns);
    ("loan_credit_stalls", fun s -> s.Gm.loan_credit_stalls);
    ("jumbo_tx", fun s -> s.Gm.jumbo_tx);
    ("jumbo_rx", fun s -> s.Gm.jumbo_rx);
    ("jumbo_chunks_tx", fun s -> s.Gm.jumbo_chunks_tx);
    ("jumbo_drops", fun s -> s.Gm.jumbo_drops);
  ]

let counters modules =
  let stats = List.map Gm.stats modules in
  List.map
    (fun (k, f) -> (k, List.fold_left (fun acc s -> acc + f s) 0 stats))
    counter_keys

(* What the measured run moved: the counters now, minus [before]. *)
let moved before modules =
  List.map2 (fun (k, now) (_, was) -> (k, now - was)) (counters modules) before

let nominal_hz = 1e9

let host_busy_meter hosts =
  let cpus = List.map (fun h -> Netstack.Stack.cpu h.Host.stack) hosts in
  fun () ->
    List.fold_left
      (fun acc cpu -> acc +. Sim.Time.to_sec_f (Sim.Resource.busy_time cpu))
      0.0 cpus

let cycles_per_byte ~busy_s ~bytes =
  if bytes <= 0 then 0.0 else busy_s *. nominal_hz /. float_of_int bytes

let notifies_per_packet side =
  let packets = field "packets_delivered" side in
  if packets = 0.0 then 0.0 else field "notifies_sent" side /. packets

(* One side of a workload: [delivered_app] is application-level delivery
   (bytes received for streams, completed transactions for
   request/response), which must be invariant across parameter settings —
   the fast path may change timing, never delivery.  [cycles_per_byte] is
   vCPU busy time across both guests at the nominal 1 GHz clock per
   application byte moved; for rr workloads the byte basis is the 1 B
   request + 1 B response per transaction, so per-packet fixed costs
   dominate it — which is the point of reporting it. *)
let run_json_workload ~params ~smoke name =
  let ctx = make_ctx ~params Setup.Xenloop_path in
  in_ctx ctx (fun { duo; client; server; dst } ->
      let busy = host_busy_meter [ client; server ] in
      let busy0 = busy () in
      let before = counters duo.Setup.modules in
      let mbps, latency_us, delivered =
        match name with
        | "udp_stream" ->
            let total = if smoke then 512 * 1024 else 8 * 1024 * 1024 in
            let r = Netperf.udp_stream ~client ~server ~dst ~total_bytes:total () in
            (Some r.Netperf.mbps, None, r.Netperf.bytes_received)
        | "tcp_stream" ->
            let total = if smoke then 512 * 1024 else 8 * 1024 * 1024 in
            let r = Netperf.tcp_stream ~client ~server ~dst ~total_bytes:total () in
            (Some r.Netperf.mbps, None, r.Netperf.bytes_received)
        | "udp_rr" ->
            let n = if smoke then 100 else 1500 in
            let r = Netperf.udp_rr ~client ~server ~dst ~transactions:n () in
            (None, Some r.Netperf.avg_latency_us, r.Netperf.transactions)
        | "tcp_rr" ->
            let n = if smoke then 100 else 1500 in
            let r = Netperf.tcp_rr ~client ~server ~dst ~transactions:n () in
            (None, Some r.Netperf.avg_latency_us, r.Netperf.transactions)
        | _ -> invalid_arg "run_json_workload"
      in
      let c = moved before duo.Setup.modules in
      let app_bytes =
        match name with "udp_rr" | "tcp_rr" -> delivered * 2 | _ -> delivered
      in
      let side =
        [
          ("mbps", fixed_opt 3 mbps);
          ("latency_us", fixed_opt 3 latency_us);
          ("delivered_app", int delivered);
        ]
        @ List.map (fun (k, v) -> (k, int v)) c
        @ [
            ( "cycles_per_byte",
              fixed 4 (cycles_per_byte ~busy_s:(busy () -. busy0) ~bytes:app_bytes) );
          ]
      in
      Json.Obj
        (side @ [ ("notifies_per_packet", fixed 4 (notifies_per_packet (Json.Obj side))) ]))

let workload_entry ~smoke name =
  let base = run_json_workload ~params:baseline_params ~smoke name in
  let opt = run_json_workload ~params:Hypervisor.Params.default ~smoke name in
  let reduction =
    let o = notifies_per_packet opt in
    if o > 0.0 then fixed 2 (notifies_per_packet base /. o) else Json.Null
  in
  Json.Obj
    [
      ("name", Json.Str name);
      ("baseline", base);
      ("optimized", opt);
      ("notify_reduction_factor", reduction);
    ]

(* ------------------------------------------------------------------ *)
(* Zero-copy message-size sweep (NetPIPE-style, 64 B to 64 KiB): the
   descriptor channel against the inline two-copy path on the same
   workloads, with honest copy accounting — bytes actually memcpy'd per
   application byte delivered.  The grant map hypercalls that set up the
   payload pools are one-time per-connect costs (Cost_meter tracks them
   separately from Page_copy), reported in their own field rather than
   amortized into the per-byte number. *)

let machine_meters duo =
  match duo.Setup.machine with
  | None -> []
  | Some m ->
      List.map Hypervisor.Domain.meter
        (Hypervisor.Machine.dom0 m :: Hypervisor.Machine.guests m)

let run_zc_point ~params ~smoke ~udp size =
  let ctx = make_ctx ~params Setup.Xenloop_path in
  in_ctx ctx (fun { duo; client; server; dst } ->
      let meters = machine_meters duo in
      let sum f = List.fold_left (fun acc m -> acc + f m) 0 meters in
      (* Snapshots around the measured run: warmup (ARP, handshake, pool
         grant/map) happened before this point, so the copy delta is the
         data path's alone. *)
      let before = counters duo.Setup.modules in
      let copied0 = sum Memory.Cost_meter.bytes_copied in
      let total =
        if smoke then max (128 * 1024) (size * 4)
        else max (512 * 1024) (size * 64)
      in
      let r =
        if udp then
          Netperf.udp_stream ~client ~server ~dst ~message_size:size ~total_bytes:total ()
        else
          Netperf.tcp_stream ~client ~server ~dst ~message_size:size ~total_bytes:total ()
      in
      let c = moved before duo.Setup.modules in
      let copied = sum Memory.Cost_meter.bytes_copied - copied0 in
      let delivered = r.Netperf.bytes_received in
      Json.Obj
        [
          ("mbps", fixed 3 r.Netperf.mbps);
          ("delivered_app", int delivered);
          ("copied_bytes", int copied);
          ( "copies_per_byte",
            fixed 4
              (if delivered = 0 then 0.0
               else float_of_int copied /. float_of_int delivered) );
          ("desc_tx", int (List.assoc "desc_tx" c));
          ("inline_tx", int (List.assoc "inline_tx" c));
          ("pool_fallbacks", int (List.assoc "pool_fallbacks" c));
          ("grant_maps_connect", int (sum Memory.Cost_meter.grant_maps));
        ])

let zerocopy_sweep ~smoke =
  let zc_off =
    { Hypervisor.Params.default with Hypervisor.Params.xenloop_zerocopy = false }
  in
  Json.Arr
    (List.map
       (fun (name, sizes) ->
         let udp = name = "udp_stream" in
         let point size =
           let on = run_zc_point ~params:Hypervisor.Params.default ~smoke ~udp size in
           let off = run_zc_point ~params:zc_off ~smoke ~udp size in
           Json.Obj [ ("size", int size); ("zerocopy", on); ("inline", off) ]
         in
         Json.Obj [ ("name", Json.Str name); ("points", Json.Arr (List.map point sizes)) ])
       (Gates.zerocopy_sizes ~smoke))

(* ------------------------------------------------------------------ *)
(* Mixed workload: a bulk UDP stream and a latency-sensitive TCP_RR
   running concurrently between the same guest pair.  With one queue the
   rr packets sit behind the stream's batches (head-of-line blocking);
   with several queues the steering hash keeps the two flows on separate
   queue pairs and rr tail latency collapses back toward the idle case. *)

let run_mixed ~smoke nq =
  (* Hold notification behavior constant across queue counts: with the
     default 100us poll window, only the single-queue run gets its poller
     kept warm through the burst gaps (by the rr flow sharing the queue),
     so queue-count comparisons would conflate flow separation with
     doorbell wake-ups at burst boundaries.  A window covering the pacing
     gap keeps every configuration in polling mode throughout. *)
  let params =
    {
      Hypervisor.Params.default with
      Hypervisor.Params.xenloop_queues = nq;
      xenloop_poll_window = Sim.Time.us 2000;
    }
  in
  let ctx = make_ctx ~params Setup.Xenloop_path in
  in_ctx ctx (fun { duo; client; server; dst } ->
      let engine = duo.Setup.engine in
      let before = counters duo.Setup.modules in
      let src = Netstack.Stack.ip_addr client.Host.stack in
      (* UDP steers on the 3-tuple, so the stream's queue is fixed by the
         IP pair; pick a TCP_RR client port whose 5-tuple hashes to a
         different queue so the flows are actually separated. *)
      let stream_q =
        Steering.queue_index
          (Steering.ip_flow ~proto:17 ~src ~dst ~sport:0 ~dport:0)
          ~queues:nq
      in
      let rr_port = 9200 in
      let rec pick p =
        if nq <= 1 then p
        else
          let q =
            Steering.queue_index
              (Steering.ip_flow ~proto:6 ~src ~dst ~sport:p ~dport:rr_port)
              ~queues:nq
          in
          if q <> stream_q then p else pick (p + 1)
      in
      let rr_client_port = pick 40001 in
      let total = if smoke then 2 * 1024 * 1024 else 8 * 1024 * 1024 in
      let n = if smoke then 6 else 23 in
      let stream_res = ref None in
      let done_cond = Sim.Condition.create () in
      Sim.Engine.spawn engine (fun () ->
          (* Paced bulk load (netperf -b/-w): each burst refills the FIFO,
             each gap lets the receiver drain it, so the channel stays
             under steady pressure for the whole rr run instead of
             overrunning the waiting list in one blast. *)
          let r =
            Netperf.udp_stream ~client ~server ~dst ~port:9100
              ~message_size:16384 ~burst:64 ~interval:(Sim.Time.us 1200)
              ~total_bytes:total ()
          in
          stream_res := Some r;
          Sim.Condition.broadcast done_cond);
      (* Let the bulk stream queue up before the first transaction. *)
      Sim.Engine.sleep (Sim.Time.us 200);
      let rr =
        (* Think time (netperf -w) keeps the rr offered load fixed across
           queue counts; without it a faster data path completes more
           transactions during the stream and the extra CPU shows up as a
           phantom stream regression. *)
        Netperf.tcp_rr ~client ~server ~dst ~port:rr_port
          ~client_port:rr_client_port ~interval:(Sim.Time.us 1000)
          ~transactions:n ()
      in
      while !stream_res = None do
        Sim.Condition.await done_cond
      done;
      let stream = Option.get !stream_res in
      let c = moved before duo.Setup.modules in
      let client_module = List.hd duo.Setup.modules in
      let per_queue =
        match Gm.connected_peer_ids client_module with
        | peer :: _ -> Gm.queue_stats client_module ~domid:peer
        | [] -> [||]
      in
      Json.Obj
        ([
           ("queues", int nq);
           ("stream_mbps", fixed 3 stream.Netperf.mbps);
           ("stream_bytes", int stream.Netperf.bytes_received);
           ("rr_transactions", int rr.Netperf.transactions);
           ("rr_avg_latency_us", fixed 3 rr.Netperf.avg_latency_us);
           ("rr_p99_latency_us", fixed 3 rr.Netperf.p99_latency_us);
         ]
        @ List.map
            (fun k -> (k, int (List.assoc k c)))
            [
              "steered_packets"; "waiting_overflows"; "notifies_sent"; "notifies_suppressed";
            ]
        @ [
            ( "per_queue",
              Json.Arr
                (Array.to_list
                   (Array.mapi
                      (fun i (q : Gm.queue_stat) ->
                        Json.Obj
                          [
                            ("queue", int i);
                            ("notifies_sent", int q.Gm.qs_notifies_sent);
                            ("notifies_suppressed", int q.Gm.qs_notifies_suppressed);
                            ("steered", int q.Gm.qs_steered);
                          ])
                      per_queue)) );
          ]))

(* Fig. 5 sensitivity under the optimized path. *)
let fifo_sweep ~smoke =
  let ks = if smoke then [ 9; 13 ] else [ 9; 10; 11; 12; 13; 14; 15 ] in
  Json.Arr
    (List.map
       (fun k ->
         let ctx = make_ctx ~fifo_k:k Setup.Xenloop_path in
         let total = if smoke then 512 * 1024 else 8 * 1024 * 1024 in
         let mbps =
           in_ctx ctx (fun { client; server; dst; _ } ->
               (Netperf.udp_stream ~client ~server ~dst ~total_bytes:total ())
                 .Netperf.mbps)
         in
         Json.Obj
           [
             ("fifo_k", int k);
             ("fifo_kib", int (1 lsl k * 8 / 1024));
             ("mbps", fixed 2 mbps);
           ])
       ks)

(* ------------------------------------------------------------------ *)
(* Engine microbenchmark: sim_events_per_sec as a first-class metric.

   Three scenarios with different hot-path mixes:
   - callback_churn: periodic callbacks only — pops, dispatch, rearm,
     insert, with nothing else on top.  This is the purest measure of the
     scheduler itself and the headline [sim_events_per_sec] number.
   - sleep_wake: N processes each sleeping a short period in a loop, so
     every event also pays an effect perform/resume (OCaml fiber switch).
   - timer_churn: [Engine.every] timers plus cancel/re-create churn and a
     block of far-future events parked beyond any near-future horizon,
     exercising rearm/cancel and the overflow path.

   Full mode reports the best of three runs per scenario (the host is
   shared; the best run is the least-perturbed one). *)

let pre_pr_events_per_sec = 1_596_132.0
(* Measured on the binary-heap engine before the hot-path overhaul, on the
   callback_churn scenario (full size, best of three); the denominator of
   improvement_factor. *)

type engine_bench_point = { ebp_name : string; ebp_events : int; ebp_wall : float }

let ebp_rate p =
  if p.ebp_wall > 0.0 then float_of_int p.ebp_events /. p.ebp_wall else 0.0

let eb_callback_churn ~smoke () =
  (* Thousands of concurrent periodic callbacks — the pending-set size the
     cluster-scale roadmap actually implies (hundreds of guests times
     dozens of poll/pacing/TTL timers each), where a comparison-based
     queue pays its O(log n) on every single event. *)
  let n = 4096 in
  let sim_sec = if smoke then 0.1 else 1.0 in
  let engine = Sim.Engine.create () in
  let limit = Sim.Time.(add zero (of_sec_f sim_sec)) in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.every engine (Sim.Time.us (50 + (i * 7 mod 1999))) (fun () ->
           incr hits))
  done;
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run ~until:limit engine;
  let wall = Unix.gettimeofday () -. t0 in
  ignore !hits;
  {
    ebp_name = "callback_churn";
    ebp_events = Sim.Engine.events_executed engine;
    ebp_wall = wall;
  }

let eb_sleep_wake ~smoke () =
  let n = 64 in
  let iters = if smoke then 5_000 else 40_000 in
  let engine = Sim.Engine.create () in
  for i = 0 to n - 1 do
    let period = Sim.Time.us (3 + (i * 7 mod 97)) in
    Sim.Engine.spawn engine (fun () ->
        for _ = 1 to iters do
          Sim.Engine.sleep period
        done)
  done;
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run engine;
  let wall = Unix.gettimeofday () -. t0 in
  {
    ebp_name = "sleep_wake";
    ebp_events = Sim.Engine.events_executed engine;
    ebp_wall = wall;
  }

let eb_timer_churn ~smoke () =
  let engine = Sim.Engine.create () in
  let sim_sec = if smoke then 0.25 else 1.0 in
  let limit = Sim.Time.(add zero (of_sec_f sim_sec)) in
  let fires = ref 0 in
  let mk i =
    Sim.Engine.every engine (Sim.Time.us (4 + (i mod 96))) (fun () -> incr fires)
  in
  let timers = Array.init 128 mk in
  (* Far-future events sit in the queue the whole run without ever firing:
     the scheduler must stay fast with a populated long-range tail. *)
  for i = 0 to 511 do
    Sim.Engine.at engine Sim.Time.(add zero (sec (3600 + i))) (fun () -> ())
  done;
  let k = ref 0 in
  let _churn =
    Sim.Engine.every engine (Sim.Time.us 100) (fun () ->
        let i = !k mod Array.length timers in
        incr k;
        Sim.Engine.cancel timers.(i);
        timers.(i) <- mk i)
  in
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run ~until:limit engine;
  let wall = Unix.gettimeofday () -. t0 in
  {
    ebp_name = "timer_churn";
    ebp_events = Sim.Engine.events_executed engine;
    ebp_wall = wall;
  }

let best_of reps f =
  let rec go best n =
    if n = 0 then best
    else
      let p = f () in
      go (if ebp_rate p > ebp_rate best then p else best) (n - 1)
  in
  let first = f () in
  go first (reps - 1)

let engine_bench_run ~smoke () =
  let reps = if smoke then 1 else 3 in
  [
    best_of reps (eb_callback_churn ~smoke);
    best_of reps (eb_sleep_wake ~smoke);
    best_of reps (eb_timer_churn ~smoke);
  ]

let engine_bench_report pts =
  List.iter
    (fun p ->
      Printf.printf "engine_bench %-12s %10d events  %8.3f s  %12.0f events/sec\n"
        p.ebp_name p.ebp_events p.ebp_wall (ebp_rate p))
    pts;
  let rate = ebp_rate (List.hd pts) in
  Printf.printf "sim_events_per_sec %.0f  (pre-PR baseline %.0f, x%.2f)\n" rate
    pre_pr_events_per_sec (rate /. pre_pr_events_per_sec)

let engine_bench_json pts =
  let rate = ebp_rate (List.hd pts) in
  Json.Obj
    [
      ("pre_pr_events_per_sec", fixed 0 pre_pr_events_per_sec);
      ("sim_events_per_sec", fixed 0 rate);
      ("improvement_factor", fixed 2 (rate /. pre_pr_events_per_sec));
      ( "scenarios",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str p.ebp_name);
                   ("events", int p.ebp_events);
                   ("wall_seconds", fixed 4 p.ebp_wall);
                   ("sim_events_per_sec", fixed 0 (ebp_rate p));
                 ])
             pts) );
    ]

(* The host-time regression gate: re-measure the headline scenario (smoke
   size — the rate, not the event count, is what matters) and hold it to
   75% of the rate recorded in BENCH_results.json.  It is not a row of
   the gate table because host time is not deterministic. *)
let engine_bench_check path =
  let recorded =
    Json.(parse (read_file path) |> member "engine_bench" |> member "sim_events_per_sec")
    |> Json.to_num
  in
  let rate = ebp_rate (best_of 3 (eb_callback_churn ~smoke:true)) in
  Printf.printf "engine-check: sim_events_per_sec %.0f vs recorded %.0f (%.0f%%)\n"
    rate recorded (100.0 *. rate /. recorded);
  if rate < 0.75 *. recorded then begin
    Printf.eprintf
      "ENGINE PERF REGRESSION: sim_events_per_sec %.0f is more than 25%% below \
       the recorded %.0f\n"
      rate recorded;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Segmentation-offload sweep (DESIGN.md §15): TCP streams at large
   message sizes with the jumbo-descriptor path negotiated on vs forced
   off.  The headline numbers are throughput and channel descriptors per
   MiB delivered — one jumbo covers up to ~45 per-MSS frames, so the
   descriptor rate collapses — plus cycles/byte, since what the offload
   actually buys is fewer per-descriptor fixed costs. *)

let run_gso_point ?(wire = false) ~smoke ~gso size =
  (* [wire]: strip the vif's TSO budget too, so the sender emits
     wire-exact-MSS (~1460 B) frames — the per-MSS fallback baseline of
     DESIGN.md §15 that the descriptor-collapse row of the gate table is
     defined against.  The plain gso-off point keeps netfront TSO
     (16 KiB super-frames), which is the fair throughput baseline but
     already amortizes descriptors ~11x over the wire path. *)
  let params =
    {
      Hypervisor.Params.default with
      Hypervisor.Params.xenloop_gso = gso;
      vif_gso_size =
        (if wire then None else Hypervisor.Params.default.vif_gso_size);
    }
  in
  let ctx = make_ctx ~params Setup.Xenloop_path in
  in_ctx ctx (fun { duo; client; server; dst } ->
      let busy = host_busy_meter [ client; server ] in
      let busy0 = busy () in
      let before = counters duo.Setup.modules in
      let total = if smoke then 2 * 1024 * 1024 else 8 * 1024 * 1024 in
      let r =
        Netperf.tcp_stream ~client ~server ~dst ~message_size:size
          ~total_bytes:total ()
      in
      let c = moved before duo.Setup.modules in
      let busy_s = busy () -. busy0 in
      let count k = List.assoc k c in
      let descs = count "desc_tx" + count "inline_tx" in
      let mib = float_of_int r.Netperf.bytes_received /. (1024.0 *. 1024.0) in
      Json.Obj
        [
          ("mbps", fixed 3 r.Netperf.mbps);
          ("delivered_app", int r.Netperf.bytes_received);
          ("descriptors", int descs);
          ( "descriptors_per_mib",
            fixed 1 (if mib > 0.0 then float_of_int descs /. mib else 0.0) );
          ("jumbo_tx", int (count "jumbo_tx"));
          ("jumbo_rx", int (count "jumbo_rx"));
          ("jumbo_chunks_tx", int (count "jumbo_chunks_tx"));
          ( "cycles_per_byte",
            fixed 4 (cycles_per_byte ~busy_s ~bytes:r.Netperf.bytes_received) );
        ])

let gso_sweep ~smoke =
  Json.Arr
    (List.map
       (fun size ->
         let on = run_gso_point ~smoke ~gso:true size in
         let off = run_gso_point ~smoke ~gso:false size in
         let wire =
           if size = Gates.gso_wire_size then
             [ ("gso_off_wire", run_gso_point ~wire:true ~smoke ~gso:false size) ]
           else []
         in
         Json.Obj ([ ("size", int size); ("gso", on); ("gso_off", off) ] @ wire))
       (Gates.gso_sizes ~smoke))

(* Offload-off must be invisible: the chaos digest of a gso-off world is
   bit-for-bit identical whether or not the Jumbo_truncate fault is armed
   — the gso machinery contributes nothing, not even an RNG draw, to a
   world that did not negotiate it.

   One caveat bounds which fault sets can be compared this way: the
   harness logs a generic "fault windows cleared" event at
   [Fault.clearance] (the max [f_stop] over every armed spec, whatever
   its kind), so appending ANY spec to a set whose window envelope it
   extends moves that bookkeeping timestamp.  That is harness
   scheduling, not gso machinery.  The matrix therefore compares exactly
   the sets whose envelope already covers the jumbo window: each
   applicable single whose default window ends no earlier, plus the full
   storm, each at seeds 42 and 43. *)
let gso_off_digest_matrix () =
  let digest_of ~seed ~faults =
    let v, _ =
      Chaos.Harness.run
        (Chaos.Harness.default_config ~seed ~faults Chaos.Harness.Xenloop_duo)
    in
    (v.Chaos.Harness.v_log_digest, v.Chaos.Harness.v_log_length)
  in
  let applicable =
    List.filter_map
      (fun k ->
        if Chaos.Harness.applicable Chaos.Harness.Xenloop_duo k then
          Some (Chaos.Fault.default_spec k)
        else None)
      Chaos.Fault.all
  in
  let jumbo = Chaos.Fault.default_spec Chaos.Fault.Jumbo_truncate in
  let sets =
    List.filter_map
      (fun s ->
        if s.Chaos.Fault.f_stop >= jumbo.Chaos.Fault.f_stop then
          Some (Chaos.Fault.label s.Chaos.Fault.f_kind, [ s ])
        else None)
      applicable
    @ [ ("storm", applicable) ]
  in
  let cases = List.concat_map (fun set -> [ (set, 42); (set, 43) ]) sets in
  let perturbed =
    List.filter
      (fun ((name, faults), seed) ->
        let d0 = digest_of ~seed ~faults in
        let d1 = digest_of ~seed ~faults:(faults @ [ jumbo ]) in
        if d0 <> d1 then
          Printf.eprintf
            "gso-off digest %s seed=%d: %s (len %d) became %s (len %d) with \
             Jumbo_truncate armed\n"
            name seed (fst d0) (snd d0) (fst d1) (snd d1);
        d0 <> d1)
      cases
  in
  Json.Obj
    [ ("compared", int (List.length cases)); ("perturbed", int (List.length perturbed)) ]

(* ------------------------------------------------------------------ *)
(* Mesh sweep: the cluster-scale control plane (DESIGN.md §12).

   One point builds an N-guest mesh on compressed control-plane
   timescales, establishes ring-neighbour traffic, then sits through a
   churn-free steady-state window.  Reported per point: channel bring-up
   rate, steady-state announcement bytes per guest — the O(churn) claim:
   flat as N grows with delta announcements on, linear in N under the
   legacy full-list rebroadcast ablation — and the live memory footprint
   (channel pool bytes, grant-table entries) the per-guest channel cap
   keeps bounded regardless of mesh size. *)

module Mesh = Scenarios.Mesh

let mesh_ring_degree = 4

(* The control-plane cadence must scale with per-host population: a scan
   costs Dom0 real (simulated) CPU per guest — XenStore reads plus a
   netback crossing per announcement — so a fixed compressed period
   saturates Dom0 outright once per-guest scan work exceeds the period,
   starving the very data path being measured.  One scan period per
   per-host guest count (floor 10 ms) keeps Dom0 load roughly constant
   across mesh sizes; the steady-state window is a fixed 20 scan periods
   so announce bytes per guest stays comparable across N. *)
let mesh_period ~guests ~hosts = Sim.Time.ms (max 10 (guests / hosts))

let run_mesh_point (guests, hosts, delta) =
  let period = mesh_period ~guests ~hosts in
  let params =
    {
      Hypervisor.Params.default with
      Hypervisor.Params.discovery_period = period;
      xenloop_softstate_ttl = Sim.Time.span_scale 8 period;
      xenloop_delta_announce = delta;
      xenloop_channel_cap = Gates.mesh_channel_cap;
    }
  in
  (* Smallest channel geometry: the sweep measures the control plane, not
     the data path, and 512 guests at the default ~10 MB per channel
     would measure the allocator instead. *)
  let m =
    Mesh.build ~params ~fifo_k:9 ~queues:1 ~zerocopy:false ~guests ~hosts ()
  in
  Experiment.run_process ~limit:(Sim.Time.sec 300) m.Mesh.engine (fun () ->
      Mesh.warmup m;
      let t0 = Sim.Engine.now m.Mesh.engine in
      Mesh.establish_ring m ~degree:mesh_ring_degree;
      Sim.Engine.sleep (Sim.Time.ms 20);
      let secs =
        Sim.Time.to_sec_f (Sim.Time.diff (Sim.Engine.now m.Mesh.engine) t0)
      in
      let established = Mesh.channels_established m in
      (* Steady state: no churn, so every announced byte from here on is
         protocol overhead — heartbeats under delta, the full list under
         legacy. *)
      let b0 = Mesh.announce_bytes m in
      let a0 = Mesh.announcements_sent m in
      let s0 = Mesh.announcements_suppressed m in
      Sim.Engine.sleep (Sim.Time.span_scale 20 period);
      Json.Obj
        [
          ("guests", int guests);
          ("delta", Json.Bool delta);
          ("hosts", int hosts);
          ( "channels_per_sec",
            fixed 1 (if secs > 0.0 then float_of_int established /. secs else 0.0) );
          ("channels_established", int established);
          ("channels_evicted", int (Mesh.channels_evicted m));
          ("live_channels", int (Mesh.live_channels m));
          ("channel_pool_bytes", int (Mesh.channel_pool_bytes m));
          ("grant_entries", int (Mesh.grant_entries m));
          ( "steady_announce_bytes_per_guest",
            fixed 1 (float_of_int (Mesh.announce_bytes m - b0) /. float_of_int guests) );
          ("announcements_sent", int (Mesh.announcements_sent m - a0));
          ("announcements_suppressed", int (Mesh.announcements_suppressed m - s0));
        ])

(* ------------------------------------------------------------------ *)
(* Fairness sweep (DESIGN.md §14): incast fan-in and elephant-vs-mice,
   QoS off vs on.  Every UDP sender blasts a shared single-queue channel
   with a deliberately small FIFO; the flooder/elephant is a misbehaving
   tenant (non-blocking sends, ignores EWOULDBLOCK) while the victims
   use the blocking socket path and feel the backpressure.  Jain's index
   is computed over per-flow bytes delivered inside a fixed window; the
   mice are a concurrent TCP_RR whose p99 is the victim latency the gate
   table tracks. *)

let jain = function
  | [] -> 1.0
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0.0 xs in
      let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)

let fairness_params ~qos =
  let p = Hypervisor.Params.default in
  {
    p with
    Hypervisor.Params.qos_enabled = qos;
    (* One queue: every flow contends for the same channel, the regime
       the per-flow scheduler exists for. *)
    xenloop_queues = 1;
    (* Small sub-queues so the heavy flow trips its watermark (and the
       misbehaving sender's EWOULDBLOCK clamp) within the bench window.
       QoS on only: the QoS-off baseline keeps the default bound. *)
    xenloop_waiting_list_max = (if qos then 32 else p.xenloop_waiting_list_max);
  }

(* Senders are (udp port, payload bytes, datagrams per 10 us tick,
   misbehaving).  The sender guest is one serial vCPU, so per-process
   charge rotation equalizes packet rates across flows no matter the
   burst count — offered-load skew comes from the heavy hitter using
   jumbo datagrams (more bytes per CPU grant).  The receiver guest runs
   CPU burners so the rx dispatcher lags, the small FIFO fills, and the
   tx side actually has a standing backlog for the scheduler to
   arbitrate; without them everything offered drains instantly and
   qos on/off are indistinguishable. *)
let fairness_burners = 3

(* One side as its document entry, with the victim's unrounded rr p99. *)
let run_fairness_side ~smoke ~qos ~with_jain ~senders () =
  let ctx =
    make_ctx ~params:(fairness_params ~qos) ~fifo_k:9 Setup.Xenloop_path
  in
  in_ctx ctx (fun { duo; client; server; dst } ->
      let engine = duo.Setup.engine in
      let window = Sim.Time.ms (if smoke then 15 else 40) in
      let deadline = Sim.Time.add (Sim.Engine.now engine) window in
      let nflows = List.length senders in
      let received = Array.make nflows 0 in
      let stop = ref false in
      let rr_done = ref false in
      (* Burn the receiver's vCPU: identical load on both sides of the
         comparison, it exists only to make the channel the bottleneck. *)
      let server_cpu = Netstack.Stack.cpu server.Host.stack in
      for _ = 1 to fairness_burners do
        Sim.Engine.spawn engine (fun () ->
            while not !stop do
              Sim.Resource.use server_cpu (Sim.Time.us 2)
            done)
      done;
      List.iteri
        (fun i (port, _, _, _) ->
          let sock =
            match Netstack.Udp.bind server.Host.udp ~port () with
            | Ok s -> s
            | Error _ -> failwith "fairness: server bind"
          in
          Sim.Engine.spawn engine (fun () ->
              (* Poll rather than block, so the receiver can stop
                 counting at the window deadline and exit cleanly. *)
              while not !stop do
                match Netstack.Udp.recv_opt sock with
                | Some (_, _, b) ->
                    if Sim.Time.(Sim.Engine.now engine < deadline) then
                      received.(i) <- received.(i) + Bytes.length b
                | None -> Sim.Engine.sleep (Sim.Time.us 20)
              done))
        senders;
      List.iter
        (fun (port, bytes, burst, misbehaving) ->
          let sock =
            match Netstack.Udp.bind client.Host.udp () with
            | Ok s -> s
            | Error _ -> failwith "fairness: client bind"
          in
          let payload = Bytes.make bytes 'f' in
          Sim.Engine.spawn engine (fun () ->
              (* Blast until the window has closed AND the rr victim is
                 done, so every rr sample sees full contention. *)
              while
                (not !rr_done) || Sim.Time.(Sim.Engine.now engine < deadline)
              do
                for _ = 1 to burst do
                  if misbehaving then
                    ignore
                      (Netstack.Udp.sendto_nb sock ~dst ~dst_port:port payload)
                  else Netstack.Udp.sendto sock ~dst ~dst_port:port payload
                done;
                Sim.Engine.sleep (Sim.Time.us 10)
              done))
        senders;
      (* Let the blast establish a standing backlog first. *)
      Sim.Engine.sleep (Sim.Time.us 300);
      let trans = if smoke then 25 else 80 in
      let rr =
        Netperf.tcp_rr ~client ~server ~dst ~port:9300 ~client_port:40001
          ~interval:(Sim.Time.us 300) ~transactions:trans ()
      in
      rr_done := true;
      while Sim.Time.(Sim.Engine.now engine < deadline) do
        Sim.Engine.sleep (Sim.Time.us 200)
      done;
      let flow_bytes =
        List.mapi (fun i (port, _, _, mis) -> (port, received.(i), mis)) senders
      in
      let flow_stats = Gm.flow_stats (List.hd duo.Setup.modules) in
      stop := true;
      Sim.Engine.sleep (Sim.Time.ms 2);
      let total = Array.fold_left ( + ) 0 received in
      ( Json.Obj
          [
            ("qos", Json.Bool qos);
            ( "jain",
              fixed_opt 4
                (if with_jain then
                   Some (jain (List.map (fun (_, b, _) -> float_of_int b) flow_bytes))
                 else None) );
            ("udp_mbps", fixed 1 (float_of_int (total * 8) /. Sim.Time.to_us_f window));
            ( "victim_rr",
              Json.Obj
                [
                  ("transactions", int rr.Netperf.transactions);
                  ("p50_us", fixed 1 rr.Netperf.p50_latency_us);
                  ("p99_us", fixed 1 rr.Netperf.p99_latency_us);
                ] );
            ( "flows",
              Json.Arr
                (List.map
                   (fun (port, bytes, mis) ->
                     Json.Obj
                       [
                         ("port", int port);
                         ("bytes", int bytes);
                         ("misbehaving", Json.Bool mis);
                       ])
                   flow_bytes) );
            ( "flow_stats",
              Json.Arr
                (List.map
                   (fun fs ->
                     Json.Obj
                       [
                         ("flow", Json.Str fs.Gm.fs_label);
                         ("bytes", int fs.Gm.fs_bytes);
                         ("frames", int fs.Gm.fs_frames);
                         ("descs", int fs.Gm.fs_descs);
                         ("waiting_overflows", int fs.Gm.fs_overflows);
                         ("congestion_raises", int fs.Gm.fs_congestion_raises);
                         ("congestion_clears", int fs.Gm.fs_congestion_clears);
                       ])
                   flow_stats) );
          ],
        rr.Netperf.p99_latency_us ))

(* Incast fan-in: 8 sockets on one guest into one receiver, one of them
   a jumbo-datagram flood (fragmented, so it keys one heavy flow while
   each victim keeps its own unfragmented per-port flow).  Fair share is
   equal, so Jain over raw window bytes is the figure of merit. *)
let incast_senders =
  (8100, 4096, 4, true) :: List.init 7 (fun i -> (8101 + i, 1024, 1, false))

(* Elephant-vs-mice: one heavy-hitter blasting jumbo datagrams; the
   mice are the TCP_RR victim sharing the queue.  The victim's p99 is
   the figure of merit (Jain over one UDP flow says nothing). *)
let elephant_senders = [ (8100, 4096, 6, true) ]

let fairness_sweep ~smoke =
  let incast ~qos =
    run_fairness_side ~smoke ~qos ~with_jain:true ~senders:incast_senders ()
  in
  let elephant ~qos =
    run_fairness_side ~smoke ~qos ~with_jain:false ~senders:elephant_senders ()
  in
  let incast_off, _ = incast ~qos:false in
  let incast_on, _ = incast ~qos:true in
  let elephant_off, p99_off = elephant ~qos:false in
  let elephant_on, p99_on = elephant ~qos:true in
  Json.Obj
    [
      ("incast", Json.Obj [ ("qos_off", incast_off); ("qos_on", incast_on) ]);
      ("elephant_mice", Json.Obj [ ("qos_off", elephant_off); ("qos_on", elephant_on) ]);
      ( "victim_p99_improvement",
        if p99_on > 0.0 then fixed 2 (p99_off /. p99_on) else Json.Null );
    ]

(* The chaos soak rides along: the numbers above are only worth
   publishing if the same data path survives fault injection without
   losing, duplicating, or leaking anything.  The smoke plan soaks the
   xenloop duo fault-free and under the storm of every applicable kind. *)
let chaos_soak ~smoke =
  let summary =
    if smoke then
      let case name faults =
        {
          Chaos.Soak.c_name = name;
          c_scenario = Chaos.Harness.Xenloop_duo;
          c_faults = faults;
          c_loans = false;
          c_evictions = false;
          c_qos = false;
          c_gso = false;
        }
      in
      let storm =
        List.filter_map
          (fun k ->
            if Chaos.Harness.applicable Chaos.Harness.Xenloop_duo k then
              Some (Chaos.Fault.default_spec k)
            else None)
          Chaos.Fault.all
      in
      Chaos.Soak.run
        ~cases:[ case "xenloop-duo/baseline" []; case "xenloop-duo/storm" storm ]
        ~seed:42 ()
    else Chaos.Soak.run ~seed:42 ()
  in
  Bench_gates.Chaos_doc.of_summary summary

(* Measure the plan once, write the document, and evaluate every row of
   the gate table against it; [recorded] is the committed
   BENCH_results.json the recorded-value rows read. *)
let json_mode ~smoke ~recorded path =
  let workloads = List.map (workload_entry ~smoke) Gates.workloads in
  let mixed = List.map (run_mixed ~smoke) (Gates.queue_counts ~smoke) in
  let fifo = fifo_sweep ~smoke in
  let zerocopy = zerocopy_sweep ~smoke in
  let gso = gso_sweep ~smoke in
  let digests = gso_off_digest_matrix () in
  let mesh = List.map run_mesh_point (Gates.mesh_points ~smoke) in
  let fairness = fairness_sweep ~smoke in
  let engine = engine_bench_json (engine_bench_run ~smoke ()) in
  let chaos = chaos_soak ~smoke in
  let doc =
    Json.Obj
      [
        ("smoke", Json.Bool smoke);
        ("scenario", Json.Str "xenloop_path");
        ("workloads", Json.Arr workloads);
        ("mixed_queue_sweep", Json.Arr mixed);
        ("fifo_sweep_udp_stream", fifo);
        ("zerocopy_sweep", zerocopy);
        ("gso_sweep", gso);
        ("gso_off_digest_matrix", digests);
        ("mesh_sweep", Json.Arr mesh);
        ("fairness_sweep", fairness);
        ("engine_bench", engine);
        ("chaos", chaos);
      ]
  in
  let oc = open_out path in
  output_string oc (Gates.layout doc);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let recorded = match recorded with Some r -> r | None -> doc in
  let verdicts = List.map (Gates.check ~recorded doc) (Gates.rows ~smoke) in
  List.iter
    (function
      | Ok line -> Printf.printf "ok    %s\n" line
      | Error line -> Printf.printf "FAIL  %s\n" line)
    verdicts;
  let failed = List.filter Result.is_error verdicts in
  if failed <> [] then begin
    Printf.eprintf "%d of %d gate rows failed:\n" (List.length failed)
      (List.length verdicts);
    List.iter (function Error l -> Printf.eprintf "  %s\n" l | Ok _ -> ()) failed;
    exit 1
  end

let ablation_notify () =
  (* Factor analysis of the notification fast path: suppression, batching,
     and receiver polling, alone and together, on UDP_STREAM. *)
  Format.fprintf fmt
    "=== Ablation: notification suppression / batching / polling ===@.";
  Format.fprintf fmt "# netperf UDP_STREAM through XenLoop, 8 MiB@.";
  let d = Hypervisor.Params.default in
  let combos =
    [
      ("per-packet notify (baseline)", baseline_params);
      ( "suppression only",
        { baseline_params with Hypervisor.Params.xenloop_notify_suppression = true } );
      ( "suppression + polling",
        {
          baseline_params with
          Hypervisor.Params.xenloop_notify_suppression = true;
          xenloop_poll_window = d.Hypervisor.Params.xenloop_poll_window;
        } );
      ( "batching only",
        { baseline_params with Hypervisor.Params.xenloop_batch_tx = true } );
      ( "suppression + batching",
        {
          baseline_params with
          Hypervisor.Params.xenloop_notify_suppression = true;
          xenloop_batch_tx = true;
        } );
      ("all three (default)", d);
    ]
  in
  List.iter
    (fun (name, params) ->
      let r = run_json_workload ~params ~smoke:false "udp_stream" in
      Format.fprintf fmt "%-32s %8.1f Mbps  notifies %5.0f  polls %6.0f@." name
        (field "mbps" r) (field "notifies_sent" r) (field "poll_rounds" r))
    combos;
  Format.fprintf fmt "@."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", "Table 1: motivation snapshot (3 scenarios)", table1);
    ("table2", "Table 2: average bandwidth (4 scenarios)", table2);
    ("table3", "Table 3: average latency (4 scenarios)", table3);
    ("fig4", "Figure 4: UDP throughput vs message size", fig4);
    ("fig5", "Figure 5: throughput vs FIFO size", fig5);
    ("fig6", "Figures 6+7: netpipe-mpich sweep", fig6_7);
    ("fig8", "Figure 8: OSU uni-directional bandwidth", fig8);
    ("fig9", "Figure 9: OSU bi-directional bandwidth", fig9);
    ("fig10", "Figure 10: OSU latency", fig10);
    ("fig11", "Figure 11: transactions/sec during migration", fig11);
    ("ablation-copy", "Ablation: copy vs share vs transfer", ablation_copy);
    ("ablation-discovery", "Ablation: discovery period", ablation_discovery);
    ( "ablation-transport",
      "Ablation: packet-level vs transport-level interception",
      ablation_transport );
    ( "related-baselines",
      "Related work: XenSockets-style pipe vs XenLoop",
      related_baselines );
    ( "ablation-scheduler",
      "Ablation: credit-scheduler BOOST vs I/O wake-up latency",
      ablation_scheduler );
    ( "ablation-contention",
      "Ablation: dedicated vCPUs vs credit-scheduled cores",
      ablation_contention );
    ( "ablation-notify",
      "Ablation: notification suppression / batching / polling",
      ablation_notify );
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args = List.filter (fun a -> a <> "--") args in
  let read path = Json.parse (Json.read_file path) in
  match args with
  | "--json" :: ([] | [ _ ] as out) ->
      let default = "BENCH_results.json" in
      let recorded = if Sys.file_exists default then Some (read default) else None in
      json_mode ~smoke:false ~recorded (match out with [ path ] -> path | _ -> default)
  | [ "--json-smoke"; path; recorded ] ->
      json_mode ~smoke:true ~recorded:(Some (read recorded)) path
  | [ "--list" ] ->
      List.iter (fun (name, doc, _) -> Printf.printf "%-20s %s\n" name doc) experiments
  | [ "--only"; names ] ->
      let wanted = String.split_on_char ',' names in
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some (_, _, f) -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" name;
              exit 1)
        wanted
  | [ "--engine-bench" ] -> engine_bench_report (engine_bench_run ~smoke:false ())
  | [ "--engine-bench-check"; path ] -> engine_bench_check path
  | [] ->
      Format.fprintf fmt
        "XenLoop reproduction benchmark suite (simulated Xen substrate)@.@.";
      List.iter (fun (_, _, f) -> f ()) experiments
  | _ ->
      prerr_endline
        "usage: main.exe [--list | --only name1,name2,... | --json [path] | \
         --json-smoke path recorded.json | --engine-bench | \
         --engine-bench-check recorded.json]";
      exit 1
