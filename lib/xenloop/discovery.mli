(** The Domain Discovery module that runs in Dom0 (paper Sect. 3.2).

    Every [discovery_period] (5 s in the paper) it scans XenStore for
    guests advertising a "xenloop" entry under their subtree — something
    only Dom0 is allowed to do, which is the whole reason discovery lives
    in Dom0 — collates their [guest-ID, MAC] pairs, and transmits an
    announcement message (a XenLoop-type layer-3 packet) to each willing
    guest.

    {b Delta announcements} (DESIGN.md §12).  Dom0 versions the
    willing-guest list with an epoch, keeps a bounded log of per-epoch
    joins/leaves, and reads each guest's acked epoch back from its
    {!ack_path} XenStore node: a guest behind the current epoch receives
    only the aggregated joins/leaves since its acked epoch (one encode
    shared by every guest at the same base), a guest that is up to date
    is skipped entirely until the announce-refresh deadline, where it
    gets an empty heartbeat, and a guest whose base fell out of the log
    gets a full resync. *)

type t

val advert_path : domid:int -> string

val ack_path : domid:int -> string

val start :
  machine:Hypervisor.Machine.t -> dom0_stack:Netstack.Stack.t -> unit -> t
(** Begins periodic scanning on the machine's engine, with the period from
    the machine's {!Hypervisor.Params.t}. *)

val stop : t -> unit

val scan_now : t -> unit
(** One synchronous scan+announce round (process context); tests and the
    benches use it to avoid waiting out the period. *)

val willing_guests : t -> Proto.entry list
(** The result of the last scan. *)

val announcements_sent : t -> int
(** Announcement copies actually handed to the stack (all kinds). *)

val announcements_suppressed : t -> int
(** Recipients skipped because they were up to date and inside their
    refresh window. *)

val announce_bytes : t -> int
(** Total payload bytes across every announcement copy sent — the
    numerator of the bench's announce-bytes-per-guest metric. *)

val current_epoch : t -> int
(** The version of the current willing-guest list (0 until the first
    change). *)

(** {1 Fault injection}

    Chaos-harness hook.  The injector is consulted once per recipient
    actually being sent to (suppressed recipients are not consulted);
    [true] silently drops that guest's copy (the scan still ran, the
    others still hear).  A guest starved of announcements long enough
    must expire its whole mapping table
    ({!Hypervisor.Params.xenloop_softstate_ttl}) and recover when they
    resume. *)

val set_announce_fault : t -> (domid:int -> bool) option -> unit
