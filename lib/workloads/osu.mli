(** OSU MPI micro-benchmarks (paper Figs. 8–10): uni-directional bandwidth
    (windowed back-to-back sends), bi-directional bandwidth, and ping-pong
    latency. *)

type bw_point = { size : int; mbps : float }
type lat_point = { size : int; latency_us : float }

val uni_bandwidth :
  client:Host.t ->
  server:Host.t ->
  dst:Netcore.Ip.t ->
  ?sizes:int list ->
  ?window:int ->
  ?iterations_for:(int -> int) ->
  unit ->
  bw_point list
(** Per iteration the sender streams [window] messages back-to-back; the
    receiver acknowledges the whole window with an empty message. *)

val bi_bandwidth :
  client:Host.t ->
  server:Host.t ->
  dst:Netcore.Ip.t ->
  ?sizes:int list ->
  ?window:int ->
  ?iterations_for:(int -> int) ->
  unit ->
  bw_point list
(** Both sides stream a window simultaneously; reported bandwidth is the
    aggregate of the two directions. *)

val latency :
  client:Host.t ->
  server:Host.t ->
  dst:Netcore.Ip.t ->
  ?sizes:int list ->
  ?iterations_for:(int -> int) ->
  unit ->
  lat_point list
(** Ping-pong; reports the average one-way latency per size. *)
