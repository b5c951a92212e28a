type case = {
  c_name : string;
  c_scenario : Harness.scenario;
  c_faults : Fault.spec list;
  c_loans : bool;  (** loans-on world: loaned-slot receive negotiated *)
  c_evictions : bool;
      (** eviction world: delta announcements on, tight channel cap *)
  c_qos : bool;  (** QoS world: per-flow DRR scheduler, small sub-queues *)
  c_gso : bool;  (** gso world: jumbo offload negotiated, TCP bulk aux flow *)
}

(* In the migration world the guests start apart: there is no XenLoop
   state to fault until the migration lands them together, so every
   probabilistic kind rides with the migration and its window opens just
   after the blackout. *)
let migration_shifted kind =
  let spec = Fault.default_spec kind in
  let stop =
    Sim.Time.span_max (Sim.Time.ms 20)
      (match kind with
      | Fault.Lost_watch | Fault.Stale_read | Fault.Drop_announce -> spec.Fault.f_stop
      | _ -> Sim.Time.ms 20)
  in
  { spec with Fault.f_start = Sim.Time.ms 8; f_stop = stop }

let case scenario kinds suffix =
  let label =
    match kinds with
    | [] -> "baseline"
    | [ k ] -> Fault.label k
    | _ -> suffix
  in
  let specs =
    List.map
      (fun k ->
        if scenario = Harness.Migration_world && not (Fault.is_oneshot k) then
          migration_shifted k
        else Fault.default_spec k)
      kinds
  in
  {
    c_name = Printf.sprintf "%s/%s" (Harness.scenario_label scenario) label;
    c_scenario = scenario;
    c_faults = specs;
    c_loans = false;
    c_evictions = false;
    c_qos = false;
    c_gso = false;
  }

(* Loaned-slot receive soaks its own corner of the matrix: worlds with
   loans negotiated on, against the loan faults alone, mixed with the
   data-plane kinds, and across a mid-window teardown (suspend/resume
   forces a force-return of every outstanding loan, then re-bootstrap). *)
let loan_cases () =
  let mk scenario kinds label =
    {
      (case scenario kinds label) with
      c_name =
        Printf.sprintf "%s/loans-%s" (Harness.scenario_label scenario) label;
      c_loans = true;
    }
  in
  [
    mk Harness.Xenloop_duo [] "baseline";
    mk Harness.Xenloop_duo [ Fault.Loan_leak ] "leak";
    mk Harness.Xenloop_duo [ Fault.Slow_consumer ] "slow-consumer";
    mk Harness.Xenloop_duo
      [ Fault.Loan_leak; Fault.Suspend_resume ]
      "leak-teardown";
    mk Harness.Xenloop_duo
      [
        Fault.Loan_leak; Fault.Slow_consumer; Fault.Drop_notify;
        Fault.Push_refusal; Fault.Pool_exhaustion;
      ]
      "storm";
    mk Harness.Migration_world
      [ Fault.Migrate_midstream; Fault.Loan_leak; Fault.Slow_consumer ]
      "migrate";
  ]

(* The cluster-scale control plane (DESIGN.md §12) soaks the same way:
   eviction worlds run with delta announcements on and a tight channel
   cap, first fault-free, then under the forced eviction storm, then the
   storm mixed with the control-plane kinds it races against. *)
let evict_cases () =
  let mk scenario kinds label =
    {
      (case scenario kinds label) with
      c_name =
        Printf.sprintf "%s/evict-%s" (Harness.scenario_label scenario) label;
      c_evictions = true;
    }
  in
  [
    mk Harness.Xenloop_duo [] "baseline";
    mk Harness.Cluster3 [] "baseline";
    mk Harness.Cluster3 [ Fault.Evict_storm ] "storm";
    mk Harness.Cluster3
      [ Fault.Evict_storm; Fault.Drop_announce; Fault.Ctrl_drop ]
      "storm-ctrl";
    mk Harness.Cluster3 [ Fault.Evict_storm; Fault.Suspend_resume ] "teardown";
  ]

(* The QoS subsystem (DESIGN.md §14) soaks its own worlds: per-flow DRR
   scheduling on with deliberately small sub-queues, first fault-free,
   then under the misbehaving-tenant flood alone, then the flood mixed
   with FIFO push refusal (so the flooder actually backlogs), across a
   mid-window teardown, and at cluster scale.  The invariants ride in the
   harness: victims stay exactly-once and never overflow to netfront. *)
let qos_cases () =
  let mk scenario kinds label =
    {
      (case scenario kinds label) with
      c_name =
        Printf.sprintf "%s/qos-%s" (Harness.scenario_label scenario) label;
      c_qos = true;
    }
  in
  [
    mk Harness.Xenloop_duo [] "baseline";
    mk Harness.Xenloop_duo [ Fault.Tenant_flood ] "flood";
    mk Harness.Xenloop_duo
      [ Fault.Tenant_flood; Fault.Push_refusal ]
      "flood-full";
    mk Harness.Cluster3 [ Fault.Tenant_flood ] "flood";
    mk Harness.Xenloop_duo
      [ Fault.Tenant_flood; Fault.Suspend_resume ]
      "flood-teardown";
  ]

(* Segmentation offload (DESIGN.md §15) soaks its own worlds: jumbo
   descriptors negotiated on and an auxiliary TCP bulk stream in flight,
   first fault-free, then under scatter-vector truncation alone (plain
   and loaned receive), mixed with the data-plane kinds that starve the
   jumbo allocator, and across a mid-window teardown (which must reclaim
   or drop stranded multi-slot frames, never leak or mis-deliver). *)
let gso_cases () =
  let mk ?(loans = false) scenario kinds label =
    {
      (case scenario kinds label) with
      c_name =
        Printf.sprintf "%s/gso-%s" (Harness.scenario_label scenario) label;
      c_gso = true;
      c_loans = loans;
    }
  in
  [
    mk Harness.Xenloop_duo [] "baseline";
    mk Harness.Xenloop_duo [ Fault.Jumbo_truncate ] "truncate";
    mk ~loans:true Harness.Xenloop_duo [ Fault.Jumbo_truncate ] "truncate-loans";
    mk Harness.Xenloop_duo
      [ Fault.Jumbo_truncate; Fault.Push_refusal; Fault.Pool_exhaustion ]
      "storm";
    mk ~loans:true Harness.Xenloop_duo
      [ Fault.Jumbo_truncate; Fault.Suspend_resume ]
      "truncate-teardown";
  ]

let matrix () =
  let scenario_cases scenario =
    let kinds = List.filter (Harness.applicable scenario) Fault.all in
    match scenario with
    | Harness.Netfront_duo -> [ case scenario [] "baseline" ]
    | Harness.Migration_world ->
        (* Each kind needs the migration to have anything to bite on. *)
        case scenario [] "baseline"
        :: case scenario [ Fault.Migrate_midstream ] ""
        :: List.filter_map
             (fun k ->
               if k = Fault.Migrate_midstream then None
               else
                 Some
                   {
                     (case scenario [ Fault.Migrate_midstream; k ] "") with
                     c_name =
                       Printf.sprintf "%s/migrate+%s"
                         (Harness.scenario_label scenario) (Fault.label k);
                   })
             kinds
        @ [ { (case scenario kinds "storm") with c_name = "migration-world/storm" } ]
    | Harness.Xenloop_duo | Harness.Cluster3 ->
        (case scenario [] "baseline"
        :: List.map (fun k -> case scenario [ k ] "") kinds)
        @ [ case scenario kinds "storm" ]
  in
  List.concat_map scenario_cases Harness.all_scenarios
  @ loan_cases () @ evict_cases () @ qos_cases () @ gso_cases ()

let find_case name = List.find_opt (fun c -> c.c_name = name) (matrix ())

let case_config c ~seed =
  Harness.default_config ~seed ~faults:c.c_faults ~loans:c.c_loans
    ~evictions:c.c_evictions ~qos:c.c_qos ~gso:c.c_gso c.c_scenario

type failure = {
  fail_seed : int;
  fail_case : string;
  fail_violations : string list;
}

type summary = {
  s_base_seed : int;
  s_iters : int;
  s_runs : int;
  s_scenarios : string list;
  s_kinds : string list;
  s_total_injected : int;
  s_sent : int;
  s_delivered : int;
  s_lost : int;
  s_duplicates : int;
  s_violation_runs : int;
  s_first_failure : failure option;
  s_recovery_p50_us : float;
  s_recovery_p99_us : float;
  s_recovery_max_us : float;
}

let ok s = s.s_violation_runs = 0 && s.s_lost = 0 && s.s_duplicates = 0

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) idx))

let run ?cases ?(seed = 42) ?(iters = 1) ?(progress = fun _ -> ()) () =
  let cases = match cases with Some c -> c | None -> matrix () in
  let runs = ref 0 in
  let injected = ref 0 in
  let sent = ref 0 in
  let delivered = ref 0 in
  let lost = ref 0 in
  let dups = ref 0 in
  let violation_runs = ref 0 in
  let first_failure = ref None in
  let recoveries = ref [] in
  for i = 0 to iters - 1 do
    List.iter
      (fun c ->
        let run_seed = seed + i in
        let v, _log = Harness.run (case_config c ~seed:run_seed) in
        incr runs;
        injected := !injected + v.Harness.v_total_injected;
        sent := !sent + v.Harness.v_sent;
        delivered := !delivered + v.Harness.v_delivered;
        lost := !lost + v.Harness.v_lost;
        dups := !dups + v.Harness.v_duplicates;
        (match v.Harness.v_recovery with
        | Some d -> recoveries := Sim.Time.to_us_f d :: !recoveries
        | None -> ());
        if v.Harness.v_violations <> [] then begin
          incr violation_runs;
          if !first_failure = None then
            first_failure :=
              Some
                {
                  fail_seed = run_seed;
                  fail_case = c.c_name;
                  fail_violations = v.Harness.v_violations;
                }
        end;
        progress
          (Printf.sprintf "%s seed=%d: %s (injected %d)" c.c_name run_seed
             (if Harness.ok v then "ok" else "VIOLATED")
             v.Harness.v_total_injected))
      cases
  done;
  let sorted = Array.of_list !recoveries in
  Array.sort compare sorted;
  let kinds =
    List.concat_map (fun c -> List.map (fun s -> Fault.label s.Fault.f_kind) c.c_faults) cases
    |> List.sort_uniq compare
  in
  let scenarios =
    List.map (fun c -> Harness.scenario_label c.c_scenario) cases
    |> List.sort_uniq compare
  in
  {
    s_base_seed = seed;
    s_iters = iters;
    s_runs = !runs;
    s_scenarios = scenarios;
    s_kinds = kinds;
    s_total_injected = !injected;
    s_sent = !sent;
    s_delivered = !delivered;
    s_lost = !lost;
    s_duplicates = !dups;
    s_violation_runs = !violation_runs;
    s_first_failure = !first_failure;
    s_recovery_p50_us = percentile sorted 50.0;
    s_recovery_p99_us = percentile sorted 99.0;
    s_recovery_max_us = percentile sorted 100.0;
  }

let pp fmt s =
  Format.fprintf fmt "@[<v>chaos soak: %d run(s), %d scenario(s), %d fault kind(s)@,"
    s.s_runs (List.length s.s_scenarios) (List.length s.s_kinds);
  Format.fprintf fmt "  faults injected: %d@," s.s_total_injected;
  Format.fprintf fmt "  datagrams: %d sent, %d delivered, %d lost, %d duplicated@,"
    s.s_sent s.s_delivered s.s_lost s.s_duplicates;
  Format.fprintf fmt "  recovery latency: p50 %.0f us, p99 %.0f us, max %.0f us@,"
    s.s_recovery_p50_us s.s_recovery_p99_us s.s_recovery_max_us;
  (match s.s_first_failure with
  | None -> Format.fprintf fmt "  violations: none@,"
  | Some f ->
      Format.fprintf fmt "  violations: %d run(s); first failing seed %d (%s)@,"
        s.s_violation_runs f.fail_seed f.fail_case;
      List.iter (fun v -> Format.fprintf fmt "    %s@," v) f.fail_violations;
      Format.fprintf fmt "  replay: xenloopsim chaos --case %s --seed %d@,"
        f.fail_case f.fail_seed);
  Format.fprintf fmt "@]"
