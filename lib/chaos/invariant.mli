(** Structural invariants over a chaos scenario's world.

    The checker never mutates anything and charges no simulated cost, so
    it can run from a timer at any instant — including mid-fault — without
    perturbing the run.  Runtime checks must hold {e always}; final checks
    additionally assume the world has been quiesced and every XenLoop
    module unloaded. *)

type fit_watch
(** The netfront taps of the device-fit check, and what they saw. *)

val fit_watch : unit -> fit_watch

type ctx = {
  iv_machines : (string * Hypervisor.Machine.t) list;
      (** every Xen machine in the scenario, with a display name *)
  iv_modules : (string * Xenloop.Guest_module.t) list;
      (** every {e live} XenLoop module (crashed guests' modules are
          removed by the harness — their shared pages are reclaimed by the
          hypervisor and by the surviving peers, so reading them would be
          inspecting reused memory) *)
  iv_netfronts : (string * Netstack.Stack.t) list;
      (** every guest's stack, whose netfront the device-fit check taps *)
  iv_fit : fit_watch;
}

val check_runtime : ctx -> string list
(** Invariants that hold at every instant:
    - frame-page conservation per machine (free + Σ per-owner = total);
    - per-channel FIFO control-word sanity, both directions of every
      queue (indices within capacity, geometry intact, flags boolean);
    - payload-pool slot conservation (free ring within bounds, each slot
      distinct and valid);
    - every backlog flow within {!Hypervisor.Params.xenloop_waiting_list_max};
    - no module's lingering receive handler ever expired on work that no
      wake announced ([poll_missed_wakes] = 0);
    - device fit: no guest's netfront has sent a TCP frame wider than
      its budget (gso size or MTU, less 40 bytes) or a TCP fragment,
      each misfit with its instant.  A netfront is tapped when a check
      first sees it: a migrated guest's new one is unchecked until the
      next check.

    Empty list = healthy; messages are deterministic and sorted by
    machine/module name. *)

val check_final : ctx -> string list
(** Everything in {!check_runtime}, plus quiescent-state checks valid
    only after all modules are unloaded:
    - no guest (or Dom0) still owns machine frames — channel memory must
      be fully returned;
    - no grant table has active grants — every mapping unwound;
    - no module still reports an established channel or a non-empty
      waiting list. *)
