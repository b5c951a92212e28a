type ipv4_content =
  | Full of { transport : Transport.t; payload : Bytes.t }
  | Fragment of Bytes.t

type body =
  | Ipv4_body of { header : Ipv4.header; content : ipv4_content }
  | Arp_body of Arp.t
  | Xenloop_body of Bytes.t

type t = { src_mac : Mac.t; dst_mac : Mac.t; body : body }

let ethernet_header_length = 14

let ethertype = function
  | Ipv4_body _ -> 0x0800
  | Arp_body _ -> 0x0806
  | Xenloop_body _ -> 0x58D0

let ipv4 ~src_mac ~dst_mac ~header ~transport ~payload =
  { src_mac; dst_mac; body = Ipv4_body { header; content = Full { transport; payload } } }

let udp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ?ident payload =
  let header = Ipv4.make ~src:src_ip ~dst:dst_ip ~protocol:Ipv4.Udp ?ident () in
  let transport = Transport.Udp { udp_src_port = src_port; udp_dst_port = dst_port } in
  ipv4 ~src_mac ~dst_mac ~header ~transport ~payload

let tcp ~src_mac ~dst_mac ~src_ip ~dst_ip ~header ?ident payload =
  let ip_header = Ipv4.make ~src:src_ip ~dst:dst_ip ~protocol:Ipv4.Tcp ?ident () in
  ipv4 ~src_mac ~dst_mac ~header:ip_header ~transport:(Transport.Tcp header) ~payload

let icmp_echo ~src_mac ~dst_mac ~src_ip ~dst_ip ~kind ~icmp_ident ~icmp_seq ?ident
    payload =
  let header = Ipv4.make ~src:src_ip ~dst:dst_ip ~protocol:Ipv4.Icmp ?ident () in
  let transport = Transport.Icmp { echo_kind = kind; icmp_ident; icmp_seq } in
  ipv4 ~src_mac ~dst_mac ~header ~transport ~payload

let arp ~src_mac ~dst_mac msg = { src_mac; dst_mac; body = Arp_body msg }

let xenloop_ctrl ~src_mac ~dst_mac data =
  { src_mac; dst_mac; body = Xenloop_body data }

let ip_header t =
  match t.body with Ipv4_body { header; _ } -> Some header | _ -> None

let transport t =
  match t.body with
  | Ipv4_body { content = Full { transport; _ }; _ } -> Some transport
  | Ipv4_body { content = Fragment _; _ } | Arp_body _ | Xenloop_body _ -> None

let payload t =
  match t.body with
  | Ipv4_body { content = Full { payload; _ }; _ } -> Some payload
  | Ipv4_body { content = Fragment _; _ } | Arp_body _ | Xenloop_body _ -> None

let body_length = function
  | Ipv4_body { content = Full { transport; payload }; _ } ->
      Ipv4.header_length + Transport.length transport + Bytes.length payload
  | Ipv4_body { content = Fragment blob; _ } -> Ipv4.header_length + Bytes.length blob
  | Arp_body _ -> Arp.length
  | Xenloop_body data -> 2 + Bytes.length data

let wire_length t = ethernet_header_length + body_length t.body

let is_ipv4 t = match t.body with Ipv4_body _ -> true | _ -> false

let equal a b = a = b

let pp fmt t =
  Format.fprintf fmt "[%a -> %a " Mac.pp t.src_mac Mac.pp t.dst_mac;
  (match t.body with
  | Ipv4_body { header; content } -> (
      Ipv4.pp_header fmt header;
      match content with
      | Full { transport; payload } ->
          Format.fprintf fmt " %a len=%d" Transport.pp transport (Bytes.length payload)
      | Fragment blob -> Format.fprintf fmt " frag-blob len=%d" (Bytes.length blob))
  | Arp_body a -> Arp.pp fmt a
  | Xenloop_body data -> Format.fprintf fmt "xenloop-ctrl len=%d" (Bytes.length data));
  Format.fprintf fmt "]"
