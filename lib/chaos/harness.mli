(** One chaos run: a scenario world + an armed fault plan + stamped
    traffic + the invariant checker, driven to a verdict.

    The harness builds a fresh world, warms it up to steady state, arms
    the {!Fault.plan}, wires injectors into every layer (event channels,
    frame allocator, grant tables, XenStore, Dom0 discovery, the XenLoop
    modules), then runs sequence-stamped UDP flows through the fault
    windows.  Throughout, a timer evaluates {!Invariant.check_runtime};
    after the last window clears it measures how long the fast path takes
    to re-establish, drains every outstanding datagram, unloads the
    modules, and runs {!Invariant.check_final} plus exactly-once delivery
    accounting.

    Determinism contract: a run is a pure function of its {!config} —
    same (seed, scenario, faults) ⇒ same event log ⇒ same digest
    ([v_log_digest]).  Nothing reads wall-clock time or unseeded
    randomness. *)

type scenario =
  | Xenloop_duo  (** two co-resident guests, XenLoop loaded (paper Sect. 4) *)
  | Netfront_duo  (** same guests on the standard path — fault-free control *)
  | Cluster3  (** three co-resident guests; guest3 is the crash victim *)
  | Migration_world  (** two machines; guest1 migrates to join guest2 *)

val scenario_label : scenario -> string
val scenario_of_label : string -> scenario option
val all_scenarios : scenario list

val applicable : scenario -> Fault.kind -> bool
(** Whether the soak matrix arms this kind in this scenario:
    [Peer_crash] needs a flow-free third guest ([Cluster3]),
    [Migrate_midstream] needs two machines ([Migration_world]),
    [Suspend_resume] needs a co-resident pair from the start,
    [Netfront_duo] is the fault-free control, [Jumbo_truncate] needs
    guests that are co-resident while the bulk stream is written (not
    [Migration_world]), and the two kinds that
    need a world tuned away from the defaults are armed only by explicit
    cases: [Evict_storm] bites only with a channel cap and idle TTL
    ([config.evictions]), [Tenant_flood] only with QoS on
    ([config.qos]). *)

type config = {
  seed : int;
  scenario : scenario;
  faults : Fault.spec list;
  packets : int;  (** datagrams per flow (two flows, one per direction) *)
  payload : int;  (** datagram payload bytes (>= 8 for the stamp) *)
  check_period : Sim.Time.span;  (** runtime invariant-checker cadence *)
  evictions : bool;
      (** build the world with a channel cap of 2, a 20 ms idle TTL and a
          2 ms eviction cooldown — the regime {!Fault.Evict_storm} bites
          in; the defaults leave channels unbounded *)
  qos : bool;
      (** build the world with the multi-tenant QoS subsystem on
          ({!Hypervisor.Params.qos_enabled}) and deliberately small
          per-flow sub-queues, the regime {!Fault.Tenant_flood} bites in;
          QoS is off by default *)
}

val chaos_params : Hypervisor.Params.t
(** The parameters every chaos world starts from:
    {!Hypervisor.Params.default} with the discovery period, soft-state
    TTL, bootstrap cooldown and migration downtime compressed to
    milliseconds.  Everything else is the shipped configuration. *)

val default_config :
  ?seed:int ->
  ?faults:Fault.spec list ->
  ?evictions:bool ->
  ?qos:bool ->
  scenario ->
  config
(** 250 packets of 256 B per flow, 1 ms checker cadence, evictions and
    QoS off.  Every world runs {!Hypervisor.Params.default} with the
    soft-state timescales compressed to milliseconds; arming
    {!Fault.Jumbo_truncate} adds an auxiliary TCP bulk stream that keeps
    jumbo descriptors in flight. *)

type verdict = {
  v_seed : int;
  v_scenario : string;
  v_faults : (string * int) list;  (** injections actually fired, by kind *)
  v_total_injected : int;
  v_sent : int;
  v_delivered : int;  (** distinct (flow, seq) pairs that arrived *)
  v_duplicates : int;  (** (flow, seq) pairs that arrived more than once *)
  v_lost : int;  (** (flow, seq) pairs that never arrived *)
  v_checks : int;  (** runtime invariant evaluations performed *)
  v_recovery : Sim.Time.span option;
      (** fast-path re-establishment latency measured from the moment the
          last fault window closed; [None] when the scenario expects no
          channel or it never recovered within the deadline *)
  v_violations : string list;  (** invariant + delivery violations, in order *)
  v_log_digest : string;
  v_log_length : int;
}

val ok : verdict -> bool
(** No violations, nothing lost, nothing duplicated. *)

val pp_verdict : Format.formatter -> verdict -> unit

val run :
  ?sabotage:(Invariant.ctx -> unit) -> config -> verdict * Event_log.t
(** Execute one chaos run to completion (bounded at 120 simulated
    seconds).  [sabotage], used by the self-test, runs just before the
    final invariant sweep — deliberately corrupting the world there must
    surface as a violation, proving the checker is live. *)
