(* The [chaos] section of the bench document, built from a soak summary.
   [xenloopsim chaos --json] prints the same value. *)

module Soak = Chaos.Soak

(* Recovery latencies are recorded to one decimal. *)
let micros x = Json.Num (float_of_string (Printf.sprintf "%.1f" x))

let of_summary (s : Soak.summary) =
  let int n = Json.Num (float_of_int n) in
  let strings l = Json.Arr (List.map (fun x -> Json.Str x) l) in
  Json.Obj
    [
      ("base_seed", int s.Soak.s_base_seed);
      ("iterations", int s.s_iters);
      ("runs", int s.s_runs);
      ("scenarios", strings s.s_scenarios);
      ("fault_kinds", strings s.s_kinds);
      ("faults_injected", int s.s_total_injected);
      ("datagrams_sent", int s.s_sent);
      ("datagrams_delivered", int s.s_delivered);
      ("datagrams_lost", int s.s_lost);
      ("datagrams_duplicated", int s.s_duplicates);
      ("violation_runs", int s.s_violation_runs);
      ("recovery_p50_us", micros s.s_recovery_p50_us);
      ("recovery_p99_us", micros s.s_recovery_p99_us);
      ("recovery_max_us", micros s.s_recovery_max_us);
      ( "first_failure",
        match s.s_first_failure with
        | None -> Json.Null
        | Some f ->
            Json.Obj
              [
                ("seed", int f.Soak.fail_seed);
                ("case", Json.Str f.fail_case);
                ("violations", strings f.fail_violations);
              ] );
    ]
