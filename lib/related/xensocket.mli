(** A XenSockets-style baseline (Zhang et al., Middleware 2007), as
    characterized by the XenLoop paper's related-work section:

    - a {e one-way} shared-memory byte pipe between two co-resident guests;
    - an {e explicit} socket-like API — applications must be rewritten to
      call it, and must learn the peer's connection handle out of band
      (there is no discovery);
    - receiver-side batching with minimal event-channel signalling, which
      is where its throughput comes from;
    - no migration support: if either guest moves, the pipe is dead.

    Implementing it makes the paper's qualitative comparison quantitative:
    the [related-baselines] bench measures this pipe against XenLoop on
    the same substrate. *)

type reader
type writer

type handle
(** What the connector needs: descriptor grant ref, data grant refs count,
    and the event-channel port.  XenSockets has no discovery protocol, so
    this must be communicated out of band — exactly the transparency gap
    the XenLoop paper criticizes. *)

val create_pipe :
  machine:Hypervisor.Machine.t ->
  owner:Hypervisor.Domain.t ->
  writer_domid:int ->
  ?size:int ->
  unit ->
  reader * handle
(** The receiver allocates a [size]-byte buffer (default 64 KiB, power of
    two), grants it to [writer_domid], and returns the out-of-band handle. *)

val connect :
  machine:Hypervisor.Machine.t ->
  domain:Hypervisor.Domain.t ->
  reader_domid:int ->
  handle ->
  (writer, string) result

val send : writer -> Bytes.t -> unit
(** Blocking until every byte is in the buffer (process context).  Signals
    the reader only on empty→non-empty transitions. *)

val recv : reader -> max:int -> Bytes.t
(** Blocking while the pipe is empty; returns up to [max] bytes, or the
    empty string once the writer has closed and the pipe drained.  Signals
    the writer only on full→not-full transitions. *)

val close_writer : writer -> unit

val signals_sent : writer -> int
(** Event-channel notifications the writer issued — compare with one per
    packet on the XenLoop data path. *)
