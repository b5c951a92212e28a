(** Bounded producer–consumer I/O rings, the netfront/netback transport
    (paper Sect. 2).

    A full ring blocks the producer — this is the backpressure that couples
    a fast guest sender to the slower netback worker and bounds in-flight
    memory, exactly like the real 256-slot rings. *)

type 'a t

val create : capacity:int -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Blocking when full (process context). *)

val try_push : 'a t -> 'a -> bool

val pop : 'a t -> 'a
(** Blocking when empty (process context). *)

val try_pop : 'a t -> 'a option

val peek : 'a t -> 'a option
