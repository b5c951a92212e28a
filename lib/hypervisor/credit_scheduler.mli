(** The Xen credit scheduler (the scheduler running under the paper's
    testbed, Xen 3.2).

    Implements the classic algorithm: each vCPU belongs to a domain with a
    {e weight} (and optional {e cap}); every accounting period, credits are
    distributed proportionally to weight and debited as vCPUs run.  vCPUs
    with positive credit are UNDER priority, negative are OVER; a vCPU that
    wakes after blocking gets the temporary BOOST priority so I/O-latency-
    sensitive guests (like a domain running netback) preempt CPU hogs —
    the mechanism behind Dom0's responsiveness on the netfront path.

    The module is a faithful standalone model over the simulation engine:
    create a scheduler with [n] physical CPUs, add vCPUs, and submit work
    as bursts; the scheduler interleaves bursts according to credits,
    priorities, and the 30 ms timeslice.  Statistics expose per-domain CPU
    time so fairness is testable. *)

type t
type vcpu

type priority = Boost | Under | Over

val create :
  engine:Sim.Engine.t ->
  physical_cpus:int ->
  ?timeslice:Sim.Time.span ->
  ?accounting_period:Sim.Time.span ->
  ?boost:bool ->
  unit ->
  t
(** Defaults match Xen's credit scheduler: 30 ms timeslice, 30 ms
    accounting, BOOST enabled.  [?boost:false] disables the wake-up
    priority — the ablation knob that shows why I/O latency through Dom0
    is microseconds rather than timeslices. *)

val add_vcpu : t -> name:string -> weight:int -> ?cap_percent:int -> unit -> vcpu
(** [weight] is relative (Xen default 256).  [cap_percent], when given,
    limits the vCPU to that share of one physical CPU even when idle
    capacity exists. *)

val run : vcpu -> Sim.Time.span -> unit
(** Execute a CPU burst on this vCPU (process context): blocks until the
    scheduler has granted enough physical-CPU time.  A vCPU that was idle
    (blocked) when the burst arrives enters BOOST. *)

val cpu_time : vcpu -> Sim.Time.span
(** Physical CPU time consumed so far. *)
