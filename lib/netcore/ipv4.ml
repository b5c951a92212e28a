type protocol = Icmp | Tcp | Udp

let protocol_number = function Icmp -> 1 | Tcp -> 6 | Udp -> 17

let protocol_of_number = function
  | 1 -> Some Icmp
  | 6 -> Some Tcp
  | 17 -> Some Udp
  | _ -> None

let pp_protocol fmt p =
  Format.pp_print_string fmt (match p with Icmp -> "icmp" | Tcp -> "tcp" | Udp -> "udp")

type header = {
  src : Ip.t;
  dst : Ip.t;
  protocol : protocol;
  ident : int;
  frag_offset : int;
  more_fragments : bool;
  ttl : int;
}

let header_length = 20

let make ~src ~dst ~protocol ?(ident = 0) () =
  { src; dst; protocol; ident; frag_offset = 0; more_fragments = false; ttl = 64 }

let is_fragment h = h.more_fragments || h.frag_offset > 0

let pp_header fmt h =
  Format.fprintf fmt "%a -> %a %a id=%d%s" Ip.pp h.src Ip.pp h.dst pp_protocol
    h.protocol h.ident
    (if is_fragment h then
       Printf.sprintf " frag(off=%d more=%b)" h.frag_offset h.more_fragments
     else "")
