(** The chaos soak: the default fault matrix, iterated over seeds.

    A {e case} is one (scenario, fault set); the {e matrix} pairs every
    scenario with its applicable fault kinds — each kind alone, plus a
    "storm" arming all of them at once — and every iteration replays the
    whole matrix under a fresh seed ([base seed + i]).  The summary
    aggregates verdicts, recovery-latency percentiles, and the first
    failing seed with its replay command, which is exactly what you need
    to reproduce a red run: [xenloopsim chaos --case C --seed N] reruns
    case [C] — scenario, fault set and world — under seed [N]. *)

type case = {
  c_name : string;
  c_scenario : Harness.scenario;
  c_faults : Fault.spec list;
  c_evictions : bool;  (** eviction world: tight channel cap, idle TTL *)
  c_qos : bool;  (** QoS world: per-flow DRR scheduler, small sub-queues *)
}

val qos_cases : unit -> case list
(** Multi-tenant QoS cases (DESIGN.md §14): QoS worlds (per-flow DRR on,
    deliberately small sub-queues) soaked fault-free, under the
    misbehaving-tenant [Tenant_flood] alone, mixed with [Push_refusal]
    (so the flooder actually backlogs), across a mid-window teardown,
    and at cluster scale.  Victims must stay exactly-once and must never
    be forced to overflow to netfront. *)

val matrix : unit -> case list
(** The stock matrix: every scenario × {baseline, each applicable kind,
    storm}, plus the loan and jumbo kinds across a mid-window teardown,
    the eviction cases and {!qos_cases}.  [Migration_world]
    pairs each probabilistic kind with the migration itself (windows
    shifted past the migration instant, since guests apart have no
    XenLoop state to fault); [Netfront_duo] runs baseline only, as the
    fault-free control. *)

val find_case : string -> case option
(** The {!matrix} case with this [c_name]. *)

val case_config : case -> seed:int -> Harness.config
(** The harness configuration one run of this case uses under [seed]. *)

type failure = {
  fail_seed : int;
  fail_case : string;  (** [c_name] of the failing case *)
  fail_violations : string list;
}

type summary = {
  s_base_seed : int;
  s_iters : int;
  s_runs : int;
  s_scenarios : string list;
  s_kinds : string list;  (** distinct fault kinds armed across the matrix *)
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

val ok : summary -> bool

val run :
  ?cases:case list ->
  ?seed:int ->
  ?iters:int ->
  ?progress:(string -> unit) ->
  unit ->
  summary
(** Run [iters] passes over [cases] (default: the full {!matrix}) with
    seeds [seed], [seed+1], ….  [progress] is called once per completed
    run with a one-line status. *)

val pp : Format.formatter -> summary -> unit
