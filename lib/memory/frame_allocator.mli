(** Machine-frame accounting.

    Tracks which domain owns each allocated page and enforces the machine's
    physical memory limit.  XenLoop channel FIFOs draw their pages from
    here, so a machine cannot hand out unbounded shared memory, and
    teardown must return every page (tests assert balance). *)

type t

type error = Out_of_frames

val create : total_frames:int -> t

val total_frames : t -> int
val free_frames : t -> int

val allocate : t -> owner:int -> (Page.t, error) result
(** A fresh zeroed page charged to [owner]. *)

val allocate_many : t -> owner:int -> count:int -> (Page.t array, error) result
(** All-or-nothing. *)

val release : t -> owner:int -> Page.t -> unit
(** @raise Invalid_argument if the page is not currently owned by
    [owner] (double free or theft). *)

val owned_by : t -> int -> int
(** Frames currently charged to a domain. *)

val owners : t -> (int * int) list
(** Every (domid, frame count) with a nonzero balance, sorted by domid —
    the chaos invariant checker sums these against [free_frames] to prove
    conservation. *)

val release_all : t -> owner:int -> unit
(** Return every frame a domain owns (domain destruction). *)

(** {2 Fault injection}

    The injector is consulted once per {!allocate} / {!allocate_many} call
    (not per page of a batch); returning [true] makes the call fail with
    [Out_of_frames] even though frames are free — a transient exhaustion
    the caller must handle like the real thing. *)

val set_fault_injector : t -> (owner:int -> count:int -> bool) option -> unit
