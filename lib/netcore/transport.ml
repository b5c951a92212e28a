type icmp = {
  echo_kind : [ `Request | `Reply ];
  icmp_ident : int;
  icmp_seq : int;
}

type udp = { udp_src_port : int; udp_dst_port : int }

type tcp_flags = { syn : bool; ack : bool; fin : bool; psh : bool; rst : bool }

type tcp = {
  tcp_src_port : int;
  tcp_dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : tcp_flags;
  window : int;
}

type t = Icmp of icmp | Udp of udp | Tcp of tcp

let length = function Icmp _ -> 8 | Udp _ -> 8 | Tcp _ -> 20

let no_flags = { syn = false; ack = false; fin = false; psh = false; rst = false }

let flags_to_string f =
  String.concat ""
    [
      (if f.syn then "S" else "");
      (if f.ack then "A" else "");
      (if f.fin then "F" else "");
      (if f.psh then "P" else "");
      (if f.rst then "R" else "");
    ]

let src_port = function
  | Icmp _ -> None
  | Udp u -> Some u.udp_src_port
  | Tcp t -> Some t.tcp_src_port

let dst_port = function
  | Icmp _ -> None
  | Udp u -> Some u.udp_dst_port
  | Tcp t -> Some t.tcp_dst_port

let protocol = function
  | Icmp _ -> Ipv4.Icmp
  | Udp _ -> Ipv4.Udp
  | Tcp _ -> Ipv4.Tcp

let pp fmt = function
  | Icmp i ->
      Format.fprintf fmt "icmp-%s id=%d seq=%d"
        (match i.echo_kind with `Request -> "req" | `Reply -> "rep")
        i.icmp_ident i.icmp_seq
  | Udp u -> Format.fprintf fmt "udp %d->%d" u.udp_src_port u.udp_dst_port
  | Tcp t ->
      Format.fprintf fmt "tcp %d->%d seq=%ld ack=%ld [%s] win=%d" t.tcp_src_port
        t.tcp_dst_port t.seq t.ack_seq (flags_to_string t.flags) t.window
