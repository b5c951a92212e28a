(** A reliable, windowed, in-order stream transport.

    Faithful to TCP where it matters for the reproduced experiments:
    three-way handshake, MSS segmentation against the path MTU, sliding
    window flow control with a 16-bit advertised window, cumulative ACKs,
    window-update ACKs on receive-buffer drain, FIN/RST teardown.
    Simplified where the substrate guarantees make machinery moot: all
    simulated channels are lossless and ordered, so there is no
    retransmission, reordering queue, or congestion control (the paper's
    testbed is a single switched LAN).  Sequence numbers use serial
    (wrap-around) arithmetic and are exercised across the wrap in tests. *)

type t
(** The per-host TCP layer. *)

type listener
type conn

type error = Refused | Closed | Already_bound

val pp_error : Format.formatter -> error -> unit

exception Tcp_error of error

val attach : Stack.t -> t

val listen : t -> port:int -> (listener, error) result
val accept : listener -> conn
(** Blocking. *)

val accept_opt : listener -> conn option

val connect :
  t -> ?src_port:int -> dst:Netcore.Ip.t -> dst_port:int -> unit ->
  (conn, error) result
(** Blocking three-way handshake.  [src_port] pins the local port instead
    of taking an ephemeral one (benchmarks use it to control the
    connection's flow-steering 5-tuple). *)

val send : conn -> Bytes.t -> unit
(** Blocking stream send: segments at the connection MSS and respects the
    peer's advertised window.  Whole writes of at most half an MSS issued
    while data is in flight are autocorked (Nagle) unless {!set_nodelay}
    was called.
    @raise Tcp_error if the connection is closed under us. *)

val set_nodelay : conn -> bool -> unit
(** TCP_NODELAY: disable autocorking of small writes.  Enabling flushes
    any corked bytes immediately.  Latency-sensitive pipelined senders
    (MPI-style windowed workloads) set this, mirroring real MPI-over-TCP
    transports. *)

val recv : conn -> max:int -> Bytes.t
(** Blocking; returns 1..max bytes, or the empty string at end-of-stream.
    A read that takes exactly one whole queued chunk returns that chunk
    itself rather than a copy, as {!Udp.recvfrom} returns its datagram;
    the caller owns it. *)

val recv_exact : conn -> int -> Bytes.t
(** Loop {!recv} until exactly [n] bytes arrive.
    @raise Tcp_error [Closed] if the stream ends first. *)

val close : conn -> unit
(** Send FIN.  Receiving is still possible until the peer closes. *)

val mss : conn -> int
val peer : conn -> Netcore.Ip.t * int
val local_port : conn -> int
val bytes_sent : conn -> int
val bytes_received : conn -> int

(** {1 Serial sequence-number arithmetic} (exposed for property tests) *)

val seq_add : int32 -> int -> int32
val seq_diff : int32 -> int32 -> int
val seq_lt : int32 -> int32 -> bool
