(** A minimal MPI-style message layer over TCP stream sockets
    (length-prefixed messages), the transport under the NetPIPE-MPICH and
    OSU benchmarks.  Like MPICH's ch3:sock channel, it runs over ordinary
    sockets and therefore benefits from XenLoop without modification. *)

type conn

val establish :
  client:Host.t ->
  server:Host.t ->
  dst:Netcore.Ip.t ->
  ?port:int ->
  unit ->
  conn * conn
(** [(client_side, server_side)].  Process context. *)

val of_tcp : Netstack.Tcp.conn -> conn
(** Frame an existing TCP connection with the MPI length-prefix protocol. *)

val send : conn -> Bytes.t -> unit
val recv : conn -> Bytes.t

val send_empty : conn -> unit
(** A 0-byte message (used as the OSU window acknowledgement). *)

val close : conn -> unit
