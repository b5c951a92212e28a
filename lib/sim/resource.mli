(** Exclusive serial resources (a CPU, a link, a DMA engine).

    Processes queue FIFO for the resource; holding it for a span models
    service time.  Throughput through a pipeline of resources is then
    limited by its slowest stage, which is exactly the behaviour the
    benchmark reproductions rely on. *)

type t

val create : name:string -> t
(** A serial FIFO resource. *)

val custom :
  name:string ->
  use:(Time.span -> unit) ->
  busy_time:(unit -> Time.span) ->
  t
(** A resource whose {!use} is delegated — e.g. a vCPU whose time comes
    from the credit scheduler rather than a dedicated serial queue.
    Holding one ({!release}) is not supported. *)

val release : t -> unit
(** @raise Invalid_argument if the resource is not held. *)

val use : t -> Time.span -> unit
(** [use t span] = acquire; sleep span; release — with the span accounted
    as busy time. *)

val is_busy : t -> bool
val queue_length : t -> int

val busy_time : t -> Time.span
(** Total time spent inside {!use}, for utilization reports. *)
