(** Lightweight event tracing.

    Subsystems emit categorized trace records (cheap no-ops unless the
    category is enabled); a bounded ring keeps the most recent records for
    inspection — the tool you reach for when a simulated protocol exchange
    goes wrong.  Used by the XenLoop module, discovery, and migration. *)

type t

type category = Discovery | Bootstrap | Channel | Migration | Teardown | Custom of string

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 1024 records. *)

val enable : t -> category -> unit
val enable_all : t -> unit
val disable : t -> category -> unit

val emit : t -> category -> time:Time.t -> string -> unit
(** Record an event (dropped silently when the category is disabled;
    overwrites the oldest record when the ring is full). *)

val emitf :
  t -> category -> time:Time.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!emit} with lazy formatting: the format arguments are only
    rendered when the category is enabled. *)

type record = { at : Time.t; cat : category; message : string }

val records : t -> record list
(** Oldest first. *)

val count : t -> int
(** Records currently retained. *)

val total_emitted : t -> int
(** Including records that have been overwritten. *)

val clear : t -> unit
