(** Deterministic pseudo-random number generator (splitmix64).

    Each simulation owns its own generator so that runs are reproducible and
    independent of any global state. *)

type t

val create : seed:int -> t

val split : t -> t
(** A new generator whose stream is independent of the parent's. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (for workload
    inter-arrival times). *)
