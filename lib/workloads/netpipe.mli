(** NetPIPE-MPICH: protocol-independent ping-pong with increasing message
    sizes (paper Figs. 6–7 and the netpipe rows of Tables 2–3). *)

type point = { size : int; latency_us : float; mbps : float }

val sweep :
  client:Host.t ->
  server:Host.t ->
  dst:Netcore.Ip.t ->
  ?sizes:int list ->
  ?reps_for:(int -> int) ->
  unit ->
  point list
(** For each size, [reps] request–response exchanges; latency is the
    average one-way time, throughput is size / one-way-time.  Process
    context. *)

val single :
  client:Host.t ->
  server:Host.t ->
  dst:Netcore.Ip.t ->
  size:int ->
  ?reps:int ->
  unit ->
  point
