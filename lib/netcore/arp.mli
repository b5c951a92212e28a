(** ARP messages (IPv4 over Ethernet only). *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;  (** zero in requests *)
  target_ip : Ip.t;
}

val request : sender_mac:Mac.t -> sender_ip:Ip.t -> target_ip:Ip.t -> t
val reply : sender_mac:Mac.t -> sender_ip:Ip.t -> target_mac:Mac.t -> target_ip:Ip.t -> t

val length : int
(** 28 bytes on the wire. *)

val pp : Format.formatter -> t -> unit
