(** Domains (VMs).

    A domain is the unit of isolation: it has a vCPU (a serial
    {!Sim.Resource.t} — all of its protocol processing contends on it), a
    cost meter, an identity (MAC and IP persist across migration; the
    domain id does not, as in Xen), and lifecycle hooks that kernel modules
    such as XenLoop register to learn about suspend/migrate/shutdown
    events. *)

type state = Running | Suspended | Dead

type t

val make :
  domid:int ->
  name:string ->
  mac:Netcore.Mac.t ->
  ip:Netcore.Ip.t ->
  ?cpu:Sim.Resource.t ->
  unit ->
  t
(** [cpu] defaults to a dedicated serial resource; machines running the
    credit scheduler pass a scheduler-backed resource instead. *)

val domid : t -> int
val set_domid : t -> int -> unit
(** Used by migration: the target machine assigns a fresh id. *)

val name : t -> string
val mac : t -> Netcore.Mac.t
val ip : t -> Netcore.Ip.t
val cpu : t -> Sim.Resource.t
val meter : t -> Memory.Cost_meter.t

val state : t -> state
val set_state : t -> state -> unit
val is_running : t -> bool

(** {1 Lifecycle hooks}

    [on_pre_migrate] runs in process context before the domain is detached
    from its machine (XenLoop uses it to tear down channels and save
    in-flight packets); [on_post_restore] runs after the domain is attached
    to the target machine; [on_shutdown] runs when the domain is destroyed.
    Hooks run most-recently-registered first. *)

val on_pre_migrate : t -> (unit -> unit) -> unit
val on_post_restore : t -> (unit -> unit) -> unit
val on_shutdown : t -> (unit -> unit) -> unit

val run_pre_migrate : t -> unit
val run_post_restore : t -> unit
val run_shutdown : t -> unit
