(** Time series accumulation, used for figure-style outputs (value over
    simulated time, or value over a swept parameter). *)

type t

val create : name:string -> t

val record : t -> x:float -> y:float -> unit

val points : t -> (float * float) list
(** In insertion order. *)

val bucketize : width:float -> (float * float) list -> (float * float) list
(** [bucketize ~width pts] groups points into fixed-width buckets of the x
    axis and returns one [(bucket_midpoint, sum_of_y)] per non-empty bucket,
    in x order.  Used to turn per-transaction timestamps into a
    rate-per-interval plot (paper Fig. 11). *)
