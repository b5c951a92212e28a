(* The repository benchmark: five seeded workloads on the default
   parameter profile, end-to-end metrics on the simulated and the host
   clock, per-layer counters, and a traced run.  See README.md.

     run.exe --workload rpc --seed 1 [--seconds 24] [--trace 0|1]
     run.exe --seed 1                    # every workload, one process each
     run.exe --smoke ...                 # ~1/50 size, for dune runtest
     run.exe --compare PARENT CHILD      # judge two sets of runs

   Every metric is printed as "<workload> <metric> <value> <unit>"; the
   last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  The exit code is nonzero
   when any output check failed. *)

module Setup = Scenarios.Setup

let process_start = Unix.gettimeofday ()

type workload = {
  name : string;
  min_setups : int;  (** setup_s is a median over at least this many builds *)
  setup : Spans.t option -> World.t;
  inputs : int -> Inputs.rpc * Inputs.bulk;  (** seed -> inputs *)
  capacity : bool;  (** probe the rpc capacity in the traced run *)
}

let kib = 1024
let mib = 1024 * kib
let duo_pair = [| (0, 1) |]
let mesh_degree = 1

(* Sizes: the full run, and about 1/50 of it for the smoke test. *)
let workloads ~smoke =
  let size full small = if smoke then small else full in
  let duo kind tr = World.duo ?tr kind in
  let secs s = int_of_float (s *. 1e9) in
  let mesh_guests = size 32 8 in
  [
    {
      name = "bulk";
      min_setups = size 50 3;
      setup = duo Setup.Xenloop_path;
      inputs =
        (fun seed ->
          ( Inputs.no_rpc,
            Inputs.bulk_closed ~seed ~lo:kib ~hi:(256 * kib)
              ~total:(size (1024 * mib) (20 * mib)) ));
      capacity = false;
    };
    {
      name = "rpc";
      min_setups = size 50 3;
      setup = duo Setup.Xenloop_path;
      inputs =
        (fun seed ->
          ( Inputs.rpc ~seed ~rate:40e3 ~count:(size 200_000 4_000) ~pairs:duo_pair,
            Inputs.no_bulk ));
      capacity = true;
    };
    {
      name = "mixed";
      min_setups = size 50 3;
      setup = duo Setup.Xenloop_path;
      inputs =
        (fun seed ->
          let span = size 1.0 0.02 in
          ( Inputs.rpc ~seed ~rate:20e3 ~count:(int_of_float (20e3 *. span)) ~pairs:duo_pair,
            Inputs.bulk_paced ~seed ~lo:kib ~hi:(256 * kib) ~bits_per_s:5e9
              ~span_ns:(secs span) ));
      capacity = false;
    };
    {
      name = "netfront";
      min_setups = size 1000 3;
      setup = duo Setup.Netfront_netback;
      inputs =
        (fun seed ->
          let span = size 8.0 0.16 in
          ( Inputs.rpc ~seed ~rate:5e3 ~count:(int_of_float (5e3 *. span)) ~pairs:duo_pair,
            Inputs.bulk_paced ~seed ~lo:kib ~hi:(256 * kib) ~bits_per_s:1e9
              ~span_ns:(secs span) ));
      capacity = false;
    };
    {
      name = "mesh";
      min_setups = size 3 1;
      setup = (fun tr -> World.mesh ?tr ~guests:mesh_guests ~degree:mesh_degree ());
      inputs =
        (fun seed ->
          let span = size 1.0 0.05 in
          ( Inputs.rpc ~seed ~rate:20e3 ~count:(int_of_float (20e3 *. span))
              ~pairs:(World.ring_pairs ~guests:mesh_guests ~degree:mesh_degree),
            Inputs.no_bulk ));
      capacity = false;
    };
  ]

(* --- One measured pass --- *)

type pass = {
  wall_s : float;
  attempted : int;
  failed : int;
  sim : (string * float) list;  (** end-to-end simulated metrics *)
  layer : (string * string * float) list;  (** per-layer counters: name, unit, value *)
  events : int;
  drain_us : float;  (** last completion after the last rpc fell due *)
  ops : Spans.ops list;  (** traced runs only *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let run_pass ?tr (w : World.t) (rpc_plan, bulk_plan) ~corrupt =
  let traced = tr <> None in
  let engine = w.World.engine in
  let setup_totals = World.snapshot w in
  let h0 = World.host_now () in
  let r = Traffic.start_rpc w rpc_plan ~traced ~corrupt in
  let b = Traffic.start_bulk w bulk_plan ~traced ~corrupt in
  let deadline_ns =
    max
      (Traffic.last_due r + Traffic.timeout_ns + 2_000_000)
      (if Traffic.bulk_count b > 0 then Traffic.bulk_deadline b else 0)
  in
  let stuck =
    try
      World.drive ?tr engine ~deadline_ns (fun () ->
          Traffic.rpc_finished r (World.now_ns engine) && Traffic.bulk_finished b);
      false
    with World.Stuck _ -> true
  in
  let wall_s = World.host_now () -. h0 in
  let d = World.diff (World.snapshot w) setup_totals in
  let g = World.get d and s = World.get setup_totals in
  let attempted = Traffic.rpc_count r + Traffic.bulk_count b in
  let failed = Traffic.rpc_failed r + Traffic.bulk_failed b + if stuck then 1 else 0 in
  let ops = float_of_int attempted in
  let app_bytes = float_of_int (Traffic.rpc_bytes r + Traffic.bulk_bytes b) in
  let last_done = Array.fold_left max r.Traffic.t0 (Array.append r.Traffic.answer b.Traffic.wdone) in
  let sim_dur_s = float_of_int (last_done - r.Traffic.t0) /. 1e9 in
  let lat =
    Quantile.sorted
      (if Traffic.rpc_count r > 0 then Traffic.rpc_latency_us r else Traffic.bulk_latency_us b)
  in
  let pct = Quantile.percentile lat in
  let sim =
    [
      ("sim_goodput_mbps", ratio (app_bytes *. 8.0) sim_dur_s /. 1e6);
      ("sim_cpu_cycles_per_byte", ratio (g "busy_all_s" *. 1e9) app_bytes);
      ("sim_op_p50_us", pct 50.0);
      ("sim_op_p99_us", pct 99.0);
      ("sim_op_p999_us", pct 99.9);
    ]
  in
  let phase_s = g "now_s" in
  let guests = float_of_int (Array.length w.World.guests) in
  let duo = Array.length w.World.guests = 2 in
  let channels = s "gm.channels_established" /. 2.0 in
  let lag =
    Quantile.sorted
      (if Traffic.rpc_count r > 0 then Traffic.rpc_lag_us r
       else Array.map (fun ns -> float_of_int ns /. 1e3) b.Traffic.wlag)
  in
  let layer =
    [
      ("sim.events_per_op", "count", ratio (g "events") ops);
      ("sim.host_ns_per_event", "ns", ratio (wall_s *. 1e9) (g "events"));
      ("runtime.minor_words_per_op", "words", ratio (g "minor_words") ops);
      ("runtime.major_collections", "count", g "major_collections");
      ("netstack.frames_per_op", "count", ratio (g "ip_tx") ops);
      ("netstack.sw_segmented", "count", g "sw_segmented");
      ("netstack.udp_drops", "count", float_of_int (Traffic.rpc_drops r));
      ("xenloop.fastpath_share", "share", ratio (g "gm.via_channel_tx") (g "ip_tx"));
      ("xenloop.waiting_frames_per_op", "count", ratio (g "gm.queued_to_waiting") ops);
      ("xenloop.waiting_overflows", "count", g "gm.waiting_overflows");
      ("xenloop.notifies_per_frame", "count", ratio (g "gm.notifies_sent") (g "gm.via_channel_tx"));
      ("xenloop.poll_rounds_per_op", "count", ratio (g "gm.poll_rounds") ops);
      ("xenloop.desc_share", "share", ratio (g "gm.desc_tx") (g "gm.desc_tx" +. g "gm.inline_tx"));
      ("xenloop.pool_fallbacks", "count", g "gm.pool_fallbacks");
      ("xenloop.loan_credit_stalls", "count", g "gm.loan_credit_stalls");
      ("xenloop.jumbo_per_mib", "count", ratio (g "gm.jumbo_tx") (app_bytes /. float_of_int mib));
      ("xenloop.csum_elided_share", "share", ratio (g "gm.csum_elided") (g "gm.via_channel_tx"));
      ( "xenloop.flow_cache_hit_share", "share",
        ratio (g "gm.flow_cache_hits") (g "gm.flow_cache_hits" +. g "gm.flow_cache_misses") );
      ("xenloop.bootstraps_per_channel", "count", ratio (s "gm.bootstraps_started") channels);
      ("xenloop.bootstrap_failures", "count", s "gm.bootstrap_failures");
      ("xenloop.announce_bytes_per_guest", "B", float_of_int (World.announce_bytes w) /. guests);
      ("xenloop.channel_pool_mb", "MiB", float_of_int (World.channel_pool_bytes w) /. float_of_int mib);
      ("xenloop.grant_entries", "count", float_of_int (World.grant_entries w));
      ("memory.copied_bytes_per_byte", "count", ratio (g "meter.copied_bytes") app_bytes);
      ("memory.hypercalls_per_op", "count", ratio (g "meter.hypercalls") ops);
      ("memory.grant_maps_per_channel", "count", ratio (s "meter.grant_maps") channels);
      ("evtchn.notifies_per_op", "count", ratio (g "meter.event_notifies") ops);
      ( "hypervisor.client_util", "share",
        ratio (if duo then g "busy_client_s" else g "busy_guests_s" /. guests) phase_s );
      ( "hypervisor.server_util", "share",
        ratio (if duo then g "busy_server_s" else g "busy_guests_s" /. guests) phase_s );
      ( "hypervisor.dom0_util", "share",
        ratio (g "busy_dom0_s") (phase_s *. float_of_int (List.length w.World.dom0s)) );
      ("xennet.netback_frames_per_op", "count", ratio (g "vif_tx") ops);
      ("xennet.rx_batches_per_op", "count", ratio (g "dom0_notifies") ops);
      ("scenarios.build_ms", "ms", w.World.build_s *. 1e3);
      ("scenarios.warmup_ms", "ms", w.World.warmup_s *. 1e3);
      ("scenarios.warmup_sim_ms", "ms", w.World.warmup_sim_s *. 1e3);
      ("gen.lag_p99_us", "us", Quantile.percentile lag 99.0);
      ("gen.backlog_at_end", "count", float_of_int (Traffic.rpc_backlog r));
      ("e2e.channels_per_s", "1/s", w.World.ring_channels_per_s);
    ]
  in
  {
    wall_s;
    attempted;
    failed;
    sim;
    layer;
    events = int_of_float (g "events");
    drain_us = float_of_int (last_done - Traffic.last_due r) /. 1e3;
    ops =
      (if traced then
         (if Traffic.rpc_count r > 0 then [ Traffic.rpc_ops r ] else [])
         @ if Traffic.bulk_count b > 0 then [ Traffic.bulk_ops b ] else []
       else []);
  }

(* Two passes on the same inputs must agree on every simulated number. *)
let same_sim a b = a.sim = b.sim && a.events = b.events && a.failed = b.failed

(* Every world starts from a compacted heap, so a pass does not pay for
   the garbage of the one before it. *)
let fresh_setup wl tr =
  Gc.compact ();
  wl.setup tr

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          else find ()
        in
        find ())
  with _ -> 0.0

(* --- Capacity: the highest rate meeting the latency limit --- *)

let capacity_probes = 7
let capacity_lo = 5e3
let capacity_hi = 320e3
let capacity_p99_us = 100.0

(* Log-space bisection over [capacity_lo, capacity_hi].  A rate passes
   when p99 <= 100 us, nothing failed, and the last response came within
   1 ms of the last due time (no growing backlog). *)
let capacity ?tr wl ~seed ~count =
  let lo = ref capacity_lo and hi = ref capacity_hi in
  for _ = 1 to capacity_probes do
    let rate = sqrt (!lo *. !hi) in
    let w = fresh_setup wl None in
    let plan = Inputs.rpc ~seed ~rate ~count ~pairs:duo_pair in
    let p =
      Spans.host_span tr "capacity.probe" (fun () ->
          run_pass w (plan, Inputs.no_bulk) ~corrupt:false)
    in
    if p.failed = 0 && List.assoc "sim_op_p99_us" p.sim <= capacity_p99_us && p.drain_us <= 1e3
    then lo := rate
    else hi := rate
  done;
  !lo

(* --- Metric tables (names and units as in BENCHMARK.json) --- *)

let e2e_units =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("peak_rss_mb", "MiB");
    ("sim_goodput_mbps", "Mbit/s");
    ("sim_cpu_cycles_per_byte", "cycles/B");
    ("sim_op_p50_us", "us");
    ("sim_op_p99_us", "us");
    ("sim_op_p999_us", "us");
  ]

(* --- Output --- *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  shown : (string * string * float) list;  (** printed, but not in the JSON line *)
  notes : string list;
}

let print_result ~json_path ~seed ~trace r =
  List.iter (fun n -> Printf.printf "# %s %s\n" r.workload n) r.notes;
  List.iter
    (fun (k, u, v) -> Printf.printf "%s %s %s %s\n" r.workload k (Json.number v) u)
    (r.metrics @ r.shown);
  let line =
    Json.Obj
      [
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Num (float_of_int r.attempted));
        ("failed", Json.Num (float_of_int r.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, u, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
               r.metrics) );
      ]
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
      let record =
        Json.Obj
          [
            ("workload", Json.Str r.workload);
            ("seed", Json.Num (float_of_int seed));
            ("trace", Json.Num (float_of_int trace));
            ("nproc", Json.Num (float_of_int (Stdlib.Domain.recommended_domain_count ())));
            ("host_s", Json.Num (Unix.gettimeofday () -. process_start));
            ("result", line);
          ]
      in
      output_string oc (Json.to_string record);
      output_char oc '\n';
      close_out oc);
  print_string (Json.to_string line);
  print_newline ()

(* --- Untraced run: end-to-end metrics --- *)

(* Passes repeat on the same inputs until [seconds] have gone by.  The
   extra set-up-only builds that bring setup_s to [min_setups] samples
   are spread over the run in proportion to elapsed time, so set-up and
   passes see the same host conditions. *)
let measure wl ~seed ~seconds ~corrupt =
  let inputs = wl.inputs seed in
  let start = World.host_now () in
  let setups = ref [] and walls = ref [] and raw = ref [] and passes = ref [] in
  let rss = ref 0.0 in
  let setup w =
    setups := (w.World.build_s +. w.World.warmup_s) :: !setups;
    w
  in
  let rec rep () =
    let w = setup (fresh_setup wl None) in
    let before = if !passes = [] then None else Some (Probe.load_s ()) in
    let p = run_pass w inputs ~corrupt in
    (* Peak memory of one set-up plus one pass, taken before the probe's
       array exists and before later passes can leave the heap at a size
       that depends on their count. *)
    if !passes = [] then rss := peak_rss_mb ();
    let after = Probe.load_s () in
    let load = match before with Some b -> (b +. after) /. 2.0 | None -> after in
    walls := (p.wall_s *. Probe.reference_load_s /. load) :: !walls;
    raw := p.wall_s :: !raw;
    passes := p :: !passes;
    let elapsed = World.host_now () -. start in
    let due = float_of_int wl.min_setups *. Float.min 1.0 (elapsed /. Float.max seconds 1e-9) in
    while float_of_int (List.length !setups) < due do
      ignore (setup (wl.setup None))
    done;
    if elapsed < seconds then rep ()
  in
  rep ();
  let passes = List.rev !passes in
  let first = List.hd passes in
  let deterministic = List.for_all (same_sim first) passes in
  let attempted = List.fold_left (fun acc (p : pass) -> acc + p.attempted) 0 passes in
  let failed = List.fold_left (fun acc (p : pass) -> acc + p.failed) 0 passes in
  let host =
    [
      ("setup_s", Quantile.median (Array.of_list !setups));
      (* Pass times scaled by the memory probe, then their lower
         quartile: what interference the probe misses only ever adds
         time. *)
      ("wall_s", Quantile.percentile (Quantile.sorted (Array.of_list !walls)) 25.0);
      ("peak_rss_mb", !rss);
    ]
  in
  {
    workload = wl.name;
    correct = deterministic && failed = 0;
    attempted;
    failed;
    metrics = List.map (fun (k, v) -> (k, List.assoc k e2e_units, v)) (host @ first.sim);
    shown = [];
    notes =
      [
        Printf.sprintf "inputs %s" (Inputs.digest (fst inputs) (snd inputs));
        Printf.sprintf "passes %d setups %d unscaled pass seconds %s" (List.length passes)
          (List.length !setups)
          (String.concat "," (List.rev_map (Printf.sprintf "%.3f") !raw));
      ]
      @ if deterministic then [] else [ "error: passes on the same inputs disagree" ];
  }

(* --- Traced run: per-layer metrics --- *)

let percentile_of a p = Quantile.percentile (Quantile.sorted a) p

(* Schedule times for the wheel replay: the rpc or write due times, or
   for a closed loop the instants a 10 Gbit/s link would finish each
   write. *)
let replay_times (rpc, bulk) =
  let take a = Array.sub a 0 (min 4096 (Array.length a)) in
  if Array.length rpc.Inputs.due > 0 then take rpc.Inputs.due
  else
    match bulk.Inputs.wdue with
    | Some d -> take d
    | None ->
        let t = ref 0 in
        take (Array.map (fun len -> t := !t + (len * 8 / 10); !t) bulk.Inputs.wlen)

let hop_metrics passes =
  let names =
    [
      ("rpc", [| "span.client_send_us"; "span.to_server_us"; "span.server_turn_us"; "span.to_client_us" |]);
      ("write", [| "span.write_send_us"; "span.write_deliver_us" |]);
    ]
  in
  List.concat_map
    (fun (op, hops) ->
      let found = List.find_opt (fun o -> o.Spans.op = op) passes in
      List.concat
        (List.mapi
           (fun k name ->
             let d = match found with Some o -> Spans.hop_us o k | None -> [||] in
             [ (name ^ "_p50", "us", percentile_of d 50.0); (name ^ "_p99", "us", percentile_of d 99.0) ])
           (Array.to_list hops)))
    names

let traced wl ~seed ~smoke ~trace_out ~corrupt =
  let inputs = wl.inputs seed in
  let plain = run_pass (fresh_setup wl None) inputs ~corrupt in
  let tr = Spans.create () in
  let w = fresh_setup wl (Some tr) in
  let traced_pass = run_pass ~tr w inputs ~corrupt in
  let reproduced = same_sim plain traced_pass in
  let replay, replay_ok =
    try
      let frames = Replay.frames w (fst inputs) (snd inputs) in
      let reps = if smoke then 1 else 20 in
      let ser, par, csum = Replay.netcore ~tr ~reps frames in
      let push_pop, pool_copy = Replay.fifo ~tr ~reps frames in
      ( [
          ("sim.wheel_ns", "ns", Replay.wheel ~tr ~reps (replay_times inputs));
          ("netcore.serialize_ns", "ns", ser);
          ("netcore.parse_ns", "ns", par);
          ("netcore.checksum_ns_per_kib", "ns/KiB", csum);
          ("xenloop.fifo_push_pop_ns", "ns", push_pop);
          ("xenloop.steer_ns", "ns", Replay.steering ~tr ~reps frames);
          ("xenloop.pool_copy_ns_per_kib", "ns/KiB", pool_copy);
          ("qos.drr_ns_per_frame_1flow", "ns", Replay.drr ~tr ~reps frames ~flows:1);
          ("qos.drr_ns_per_frame_8flows", "ns", Replay.drr ~tr ~reps frames ~flows:8);
        ],
        None )
    with Replay.Check_failed what -> ([], Some what)
  in
  let cap =
    if wl.capacity then capacity ~tr wl ~seed ~count:(if smoke then 1_000 else 20_000) else 0.0
  in
  List.iter (Spans.add_ops tr) traced_pass.ops;
  (match trace_out with
  | Some path -> Spans.write tr path
  | None -> ());
  let layer =
    plain.layer @ replay @ hop_metrics traced_pass.ops
    @ [
        ("trace.overhead_share", "share", ratio traced_pass.wall_s plain.wall_s -. 1.0);
        ("e2e.rpc_capacity_rps", "req/s", cap);
      ]
  in
  {
    workload = wl.name;
    correct = reproduced && replay_ok = None && plain.failed = 0;
    attempted = plain.attempted;
    failed = plain.failed;
    metrics = layer;
    (* The untraced pass's simulated results, which the traced pass
       reproduced. *)
    shown = List.map (fun (k, v) -> (k, List.assoc k e2e_units, v)) plain.sim;
    notes =
      [ Printf.sprintf "inputs %s" (Inputs.digest (fst inputs) (snd inputs)) ]
      @ (if reproduced then [] else [ "error: the traced pass changed a simulated value" ])
      @ match replay_ok with None -> [] | Some what -> [ "error: replay check failed: " ^ what ];
  }

(* --- Command line --- *)

let usage =
  "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n\
  \        [--smoke] [--json PATH] [--self-test-corrupt]\n\
  \       run.exe --compare PARENT CHILD [--spec BENCHMARK.json]\n\
  \       run.exe --summarize RUNS"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 24.0 and trace = ref 0 in
  let trace_out = ref "" and smoke = ref false and json = ref "" and corrupt = ref false in
  let compare_a = ref "" and compare_b = ref "" and spec = ref "BENCHMARK.json" in
  let summarize = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload (default: all, one process each)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for S host seconds (default 24)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run, printing the per-layer metrics");
      ("--trace-out", Arg.Set_string trace_out, "PATH Chrome trace of the traced run");
      ("--smoke", Arg.Set smoke, " about 1/50 of the full sizes");
      ("--json", Arg.Set_string json, "PATH append each result as one JSON line");
      ("--self-test-corrupt", Arg.Set corrupt, " corrupt one receive-side check record");
      ("--compare", Arg.Tuple [ Arg.Set_string compare_a; Arg.Set_string compare_b ], "PARENT CHILD compare two sets of runs");
      ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json with the bounds (for --compare)");
      ("--summarize", Arg.Set_string summarize, "RUNS median and quartiles of a --json file");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let opt s = if s = "" then None else Some s in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "run.exe: --trace takes 0 or 1";
    exit 2
  end;
  if !compare_a <> "" then exit (Compare.compare ~spec:!spec !compare_a !compare_b)
  else if !summarize <> "" then exit (Compare.summarize !summarize)
  else
    let all = workloads ~smoke:!smoke in
    match List.find_opt (fun wl -> wl.name = !workload) all with
    | Some wl ->
        let r =
          if !trace = 1 then
            let out =
              match opt !trace_out with
              | Some p -> p
              | None ->
                  (try Sys.mkdir "_build" 0o755 with Sys_error _ -> ());
                  (try Sys.mkdir "_build/benchmark-trace" 0o755 with Sys_error _ -> ());
                  Printf.sprintf "_build/benchmark-trace/%s-seed%d.json" wl.name !seed
            in
            traced wl ~seed:!seed ~smoke:!smoke ~trace_out:(Some out) ~corrupt:!corrupt
          else measure wl ~seed:!seed ~seconds:!seconds ~corrupt:!corrupt
        in
        print_result ~json_path:(opt !json) ~seed:!seed ~trace:!trace r;
        exit (if r.correct then 0 else 1)
    | None when !workload <> "" ->
        Printf.eprintf "run.exe: unknown workload %s\n" !workload;
        exit 2
    | None ->
        (* Every workload in turn, each in a fresh process so that
           peak_rss_mb is its own. *)
        let failures =
          List.fold_left
            (fun acc wl ->
              let args =
                Array.of_list
                  ([ Sys.executable_name; "--workload"; wl.name; "--seed"; string_of_int !seed;
                     "--seconds"; Json.number !seconds; "--trace"; string_of_int !trace ]
                  @ (if !smoke then [ "--smoke" ] else [])
                  @ (if !corrupt then [ "--self-test-corrupt" ] else [])
                  @ (match opt !json with Some p -> [ "--json"; p ] | None -> [])
                  @ match opt !trace_out with
                    | Some p -> [ "--trace-out"; Printf.sprintf "%s.%s.json" p wl.name ]
                    | None -> [])
              in
              flush_all ();
              let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> acc
              | _ -> acc + 1)
            0 all
        in
        exit (if failures = 0 then 0 else 1)
