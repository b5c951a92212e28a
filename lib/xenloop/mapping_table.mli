(** The per-guest soft-state mapping table of co-resident guests
    ([guest-ID, MAC] pairs, paper Sect. 3.1/3.2).

    Populated exclusively from Dom0 announcements; replaced wholesale on
    every announcement so entries for departed guests age out — that is the
    soft-state property. *)

type t

val create : unit -> t

val update : t -> Proto.entry list -> unit
(** Replace the table contents with a fresh announcement. *)

val apply_delta : t -> joins:Proto.entry list -> leaves:int list -> unit
(** Apply a delta announcement: drop the guests in [leaves], replace or
    add the guests in [joins].  Entries not named stay untouched — under
    deltas, soft-state aging is driven by explicit leaves plus the TTL
    backstop rather than wholesale replacement. *)

val lookup : t -> Netcore.Mac.t -> int option
(** Guest id of the co-resident guest owning this MAC, if any. *)

val lookup_by_ip : t -> Netcore.Ip.t -> Proto.entry option
(** The co-resident guest owning this IP address, if any (used by the
    transport-level shortcut, which intercepts before MAC resolution). *)

val mem_domid : t -> int -> bool

val find_domid : t -> int -> Proto.entry option
(** The full announcement entry for this guest id (the listener reads the
    peer's advertised queue count from it before allocating a channel). *)

val size : t -> int
val clear : t -> unit
