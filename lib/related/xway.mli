(** An XWay-style baseline (Kim et al., VEE 2008), as characterized by the
    XenLoop paper's related-work section:

    - transparent {e for TCP applications only}: the interception happens
      beneath the socket layer at connection time, so unmodified
      socket-style code benefits — but UDP, ICMP and everything else still
      takes the slow path;
    - {e no automatic discovery}: co-residency must be configured by hand
      ({!register_peer}), exactly the administration burden XenLoop's
      soft-state protocol removes;
    - {e no migration support} (work-in-progress in the original): once
      peered, a connection is wedded to the shared memory; this model
      simply refuses to see peers that were never registered.

    A connection to a registered co-resident peer with a matching listener
    becomes a duplex shared-memory stream (two one-way pipes); anything
    else transparently falls back to real TCP through the stack. *)

type t
type listener
type conn

val attach :
  machine:Hypervisor.Machine.t ->
  domain:Hypervisor.Domain.t ->
  tcp:Netstack.Tcp.t ->
  t

val register_peer : t -> peer_ip:Netcore.Ip.t -> t -> unit
(** Manual co-residency configuration (one direction; call on both sides
    for duplex setup).  The two [t]s must live on the same machine. *)

val listen : t -> port:int -> (listener, Netstack.Tcp.error) result
val accept : listener -> conn
(** Blocking. *)

val connect :
  t -> dst:Netcore.Ip.t -> dst_port:int -> (conn, Netstack.Tcp.error) result
(** Shared-memory stream when [dst] is a registered peer with a listener
    on [dst_port]; otherwise ordinary TCP. *)

val send : conn -> Bytes.t -> unit
val recv : conn -> max:int -> Bytes.t

val is_shared_memory : conn -> bool
(** Which path this connection took. *)
