type error =
  | Truncated
  | Bad_ethertype of int
  | Bad_protocol of int
  | Bad_checksum of string
  | Malformed of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated frame"
  | Bad_ethertype e -> Format.fprintf fmt "unknown ethertype 0x%04x" e
  | Bad_protocol p -> Format.fprintf fmt "unknown IP protocol %d" p
  | Bad_checksum layer -> Format.fprintf fmt "bad %s checksum" layer
  | Malformed what -> Format.fprintf fmt "malformed %s" what

(* --- Writers ---

   Serialization targets an exact-size [Bytes.t] through a mutable write
   cursor.  The previous [Buffer]-based writers re-allocated on every
   doubling: for an MTU-sized frame the final backing block crosses the
   minor-heap large-object threshold, so every serialized packet paid a
   direct major-heap allocation plus the doubling garbage.  Sizes are
   known up front for every layer, so nothing here ever resizes. *)

type wcursor = { wdata : Bytes.t; mutable wpos : int }

let w8 w v =
  Bytes.unsafe_set w.wdata w.wpos (Char.unsafe_chr (v land 0xFF));
  w.wpos <- w.wpos + 1

let w16 w v =
  w8 w (v lsr 8);
  w8 w v

let w32 w (v : int32) =
  w16 w (Int32.to_int (Int32.shift_right_logical v 16));
  w16 w (Int32.to_int (Int32.logand v 0xFFFFl))

let wmac w mac =
  let v = Mac.to_int64 mac in
  for i = 5 downto 0 do
    w8 w (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let wip w ip = w32 w (Ip.to_int32 ip)

let wbytes w b =
  let len = Bytes.length b in
  Bytes.blit b 0 w.wdata w.wpos len;
  w.wpos <- w.wpos + len

let transport_header_length = function
  | Transport.Icmp _ -> 8
  | Transport.Udp _ -> 8
  | Transport.Tcp _ -> 20

let transport_length transport ~payload =
  transport_header_length transport + Bytes.length payload

(* --- Readers ---

   A frame need not be one contiguous [Bytes.t]: on the XenLoop pool path
   it lies scattered across grant-mapped slots.  The parser therefore reads
   every header field at its fixed offset in [head], which holds at least
   the frame's first [min len max_header_length] bytes (the whole frame,
   when it is contiguous), and takes each byte range past the headers —
   payload, fragment blob, control message — with one call to [sub], the
   single copy out of wherever the frame lives.  [len] is the frame
   length: a field that does not fit in it is [Short].  Errors unwind as
   exceptions, so a parsed frame allocates its packet and nothing else. *)

exception Short
exception Fail of error

let ethernet_header_length = 14
let max_header_length = ethernet_header_length + Ipv4.header_length + 20

let need len off n = if off + n > len then raise Short
let r8 head off = Bytes.get_uint8 head off
let r16 head off = Bytes.get_uint16_be head off

let rip head off = Ip.of_int32 (Bytes.get_int32_be head off)

(* --- Transport --- *)

let tcp_flag_bits (f : Transport.tcp_flags) =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

(* Flag records are immutable, so the parser shares one per combination
   of the five bits it knows instead of building one per segment. *)
let tcp_flags_of_bits =
  let table =
    Array.init 32 (fun bits : Transport.tcp_flags ->
        {
          fin = bits land 0x01 <> 0;
          syn = bits land 0x02 <> 0;
          rst = bits land 0x04 <> 0;
          psh = bits land 0x08 <> 0;
          ack = bits land 0x10 <> 0;
        })
  in
  fun bits -> table.(bits land 0x1F)

(* The transport header, its checksum field zero; the payload of
   [payload_len] bytes follows it. *)
let write_transport_header w transport ~payload_len =
  match transport with
  | Transport.Icmp i ->
      w8 w (match i.echo_kind with `Request -> 8 | `Reply -> 0);
      w8 w 0;
      w16 w 0;
      w16 w i.icmp_ident;
      w16 w i.icmp_seq
  | Transport.Udp u ->
      w16 w u.udp_src_port;
      w16 w u.udp_dst_port;
      w16 w (8 + payload_len);
      w16 w 0
  | Transport.Tcp t ->
      w16 w t.tcp_src_port;
      w16 w t.tcp_dst_port;
      w32 w t.seq;
      w32 w t.ack_seq;
      w16 w (0x5000 lor tcp_flag_bits t.flags);
      w16 w t.window;
      w16 w 0;
      w16 w 0

let checksum_field_offset = function
  | Ipv4.Icmp -> 2
  | Ipv4.Udp -> 6
  | Ipv4.Tcp -> 16

let transport_protocol = function
  | Transport.Icmp _ -> Ipv4.Icmp
  | Transport.Udp _ -> Ipv4.Udp
  | Transport.Tcp _ -> Ipv4.Tcp

(* Compute the checksum of the [len] transport bytes at [start] (header
   + payload) and store it in the header's field, which is zeroed first
   so that a frame that already carries a checksum gets the same one. *)
let set_transport_checksum data ~start ~len protocol =
  let field = start + checksum_field_offset protocol in
  Bytes.set_uint16_be data field 0;
  Bytes.set_uint16_be data field (Checksum.compute data ~off:start ~len)

(* [~csum:false] leaves the checksum field zero — the checksum-elision
   contract on the trusted xenloop channel (DESIGN.md §15): such bytes
   are only valid against [parse ~verify_transport:false], and any path
   that re-enters an untrusted transport (netfront, physnet) must
   re-serialize, which recomputes. *)
let write_transport ?(csum = true) w transport ~payload =
  let start = w.wpos in
  write_transport_header w transport ~payload_len:(Bytes.length payload);
  wbytes w payload;
  if csum then
    set_transport_checksum w.wdata ~start ~len:(w.wpos - start)
      (transport_protocol transport)

let serialize_transport ?(csum = true) transport ~payload =
  let w =
    { wdata = Bytes.create (transport_length transport ~payload); wpos = 0 }
  in
  write_transport ~csum w transport ~payload;
  w.wdata

(* The transport layer of a frame whose transport header starts at [t]
   and whose payload runs to the frame's end [len].  The payload is taken
   first, with one [sub], so that with [verify] the checksum over the
   whole range — the header's raw sum plus the payload's (the header
   length is even) — is checked before any header error is reported.
   [k] builds the result from the header and the payload. *)
let parse_transport_at ~verify protocol head ~len ~t sub k =
  let region = len - t in
  let header_len =
    match protocol with Ipv4.Icmp | Ipv4.Udp -> 8 | Ipv4.Tcp -> 20
  in
  let payload =
    if region >= header_len then sub (t + header_len) (region - header_len)
    else Bytes.empty
  in
  if
    verify
    && Checksum.add
         (Checksum.ones_complement_sum head ~off:t ~len:(min region header_len))
         (Checksum.ones_complement_sum payload ~off:0 ~len:(Bytes.length payload))
       <> 0xFFFF
  then raise (Fail (Bad_checksum "transport"));
  need len t header_len;
  let transport =
    match protocol with
    | Ipv4.Icmp ->
        let echo_kind =
          match r8 head t with
          | 8 -> `Request
          | 0 -> `Reply
          | _ -> raise (Fail (Malformed "transport header"))
        in
        Transport.Icmp
          { echo_kind; icmp_ident = r16 head (t + 4); icmp_seq = r16 head (t + 6) }
    | Ipv4.Udp ->
        if r16 head (t + 4) <> region then
          raise (Fail (Malformed "transport header"));
        Transport.Udp
          { udp_src_port = r16 head t; udp_dst_port = r16 head (t + 2) }
    | Ipv4.Tcp ->
        let off_flags = r16 head (t + 12) in
        (* The stack sends no options, so any header length but the bare
           20 bytes is a corrupted header, not a longer one. *)
        if off_flags lsr 12 <> 5 then raise (Fail (Malformed "TCP data offset"));
        Transport.Tcp
          {
            tcp_src_port = r16 head t;
            tcp_dst_port = r16 head (t + 2);
            seq = Bytes.get_int32_be head (t + 4);
            ack_seq = Bytes.get_int32_be head (t + 8);
            flags = tcp_flags_of_bits off_flags;
            window = r16 head (t + 14);
          }
  in
  k transport payload

let parse_transport ?(verify = true) protocol blob =
  match
    parse_transport_at ~verify protocol blob ~len:(Bytes.length blob) ~t:0
      (Bytes.sub blob) (fun transport payload -> (transport, payload))
  with
  | parsed -> Ok parsed
  | exception Short -> Error Truncated
  | exception Fail e -> Error e

(* --- IPv4 --- *)

let serialize_ipv4_header w (h : Ipv4.header) ~content_length =
  let start = w.wpos in
  w8 w 0x45;
  w8 w 0;
  w16 w (Ipv4.header_length + content_length);
  w16 w h.ident;
  assert (h.frag_offset mod 8 = 0);
  w16 w (((if h.more_fragments then 1 else 0) lsl 13) lor (h.frag_offset / 8));
  w8 w h.ttl;
  w8 w (Ipv4.protocol_number h.protocol);
  w16 w 0;
  wip w h.src;
  wip w h.dst;
  let cksum = Checksum.compute w.wdata ~off:start ~len:Ipv4.header_length in
  Bytes.set_uint8 w.wdata (start + 10) (cksum lsr 8);
  Bytes.set_uint8 w.wdata (start + 11) (cksum land 0xFF)

let parse_ipv4 ~verify_transport head ~len sub =
  let ip = ethernet_header_length in
  need len ip 1;
  if r8 head ip <> 0x45 then raise (Fail (Malformed "IPv4 version/IHL"));
  need len ip Ipv4.header_length;
  if not (Checksum.verify head ~off:ip ~len:Ipv4.header_length) then
    raise (Fail (Bad_checksum "IPv4"));
  let proto = r8 head (ip + 9) in
  match Ipv4.protocol_of_number proto with
  | None -> raise (Fail (Bad_protocol proto))
  | Some protocol ->
      let t = ip + Ipv4.header_length in
      let content_len = r16 head (ip + 2) - Ipv4.header_length in
      if content_len <> len - t then raise Short;
      let flags_frag = r16 head (ip + 6) in
      let header : Ipv4.header =
        {
          src = rip head (ip + 12);
          dst = rip head (ip + 16);
          protocol;
          ident = r16 head (ip + 4);
          frag_offset = (flags_frag land 0x1FFF) * 8;
          more_fragments = flags_frag land 0x2000 <> 0;
          ttl = r8 head (ip + 8);
        }
      in
      let content =
        if Ipv4.is_fragment header then Packet.Fragment (sub t content_len)
        else
          parse_transport_at ~verify:verify_transport protocol head ~len ~t sub
            (fun transport payload -> Packet.Full { transport; payload })
      in
      Packet.Ipv4_body { header; content }

(* --- ARP --- *)

let arp_length = 28

let serialize_arp w (a : Arp.t) =
  w16 w 1;
  w16 w 0x0800;
  w8 w 6;
  w8 w 4;
  w16 w (match a.op with Arp.Request -> 1 | Arp.Reply -> 2);
  wmac w a.sender_mac;
  wip w a.sender_ip;
  wmac w a.target_mac;
  wip w a.target_ip

let parse_arp head ~len =
  let a = ethernet_header_length in
  need len a 6;
  if
    r16 head a <> 1
    || r16 head (a + 2) <> 0x0800
    || r8 head (a + 4) <> 6
    || r8 head (a + 5) <> 4
  then raise (Fail (Malformed "ARP header"));
  need len a arp_length;
  let op =
    match r16 head (a + 6) with
    | 1 -> Arp.Request
    | 2 -> Arp.Reply
    | _ -> raise (Fail (Malformed "ARP op"))
  in
  Packet.Arp_body
    {
      Arp.op;
      sender_mac = Mac.of_bytes head (a + 8);
      sender_ip = rip head (a + 14);
      target_mac = Mac.of_bytes head (a + 18);
      target_ip = rip head (a + 24);
    }

(* --- Frames --- *)

let body_length (body : Packet.body) =
  match body with
  | Packet.Ipv4_body { content = Packet.Full { transport; payload }; _ } ->
      Ipv4.header_length + transport_length transport ~payload
  | Packet.Ipv4_body { content = Packet.Fragment blob; _ } ->
      Ipv4.header_length + Bytes.length blob
  | Packet.Arp_body _ -> arp_length
  | Packet.Xenloop_body data -> 2 + Bytes.length data

(* Everything a frame carries before its tail (the payload, fragment
   blob or control message), transport checksum field zero. *)
let write_head w (p : Packet.t) =
  wmac w p.dst_mac;
  wmac w p.src_mac;
  w16 w (Packet.ethertype p.body);
  match p.body with
  | Packet.Ipv4_body { header; content } -> (
      match content with
      | Packet.Full { transport; payload } ->
          serialize_ipv4_header w header
            ~content_length:(transport_length transport ~payload);
          write_transport_header w transport ~payload_len:(Bytes.length payload)
      | Packet.Fragment blob ->
          serialize_ipv4_header w header ~content_length:(Bytes.length blob))
  | Packet.Arp_body a -> serialize_arp w a
  | Packet.Xenloop_body data -> w16 w (Bytes.length data)

let tail (p : Packet.t) =
  match p.body with
  | Packet.Ipv4_body { content = Packet.Full { payload; _ }; _ } -> payload
  | Packet.Ipv4_body { content = Packet.Fragment blob; _ } -> blob
  | Packet.Arp_body _ -> Bytes.empty
  | Packet.Xenloop_body data -> data

let serialize_head p buf =
  if Bytes.length buf < max_header_length then
    invalid_arg "Codec.serialize_head: buffer shorter than max_header_length";
  let w = { wdata = buf; wpos = 0 } in
  write_head w p;
  w.wpos

let transport_start = ethernet_header_length + Ipv4.header_length

let serialize ?(csum = true) (p : Packet.t) =
  let w =
    { wdata = Bytes.create (ethernet_header_length + body_length p.body);
      wpos = 0 }
  in
  write_head w p;
  wbytes w (tail p);
  (match p.body with
  | Packet.Ipv4_body { content = Packet.Full { transport; _ }; _ } when csum ->
      set_transport_checksum w.wdata ~start:transport_start
        ~len:(w.wpos - transport_start) (transport_protocol transport)
  | _ -> ());
  w.wdata

(* The frames [serialize] checksums: IPv4, not a fragment, a known
   transport whose header fits.  Anything else is left as it is. *)
let restore_transport_checksum raw =
  let len = Bytes.length raw in
  if
    len >= transport_start
    && r16 raw 12 = 0x0800
    && r8 raw ethernet_header_length = 0x45
    && r16 raw (ethernet_header_length + 6) land 0x3FFF = 0
  then
    match Ipv4.protocol_of_number (r8 raw (ethernet_header_length + 9)) with
    | Some protocol
      when len >= transport_start + checksum_field_offset protocol + 2 ->
        set_transport_checksum raw ~start:transport_start
          ~len:(len - transport_start) protocol
    | Some _ | None -> ()

let parse_body ~verify_transport head ~len sub =
  need len 0 ethernet_header_length;
  match r16 head 12 with
  | 0x0800 -> parse_ipv4 ~verify_transport head ~len sub
  | 0x0806 -> parse_arp head ~len
  | 0x58D0 ->
      need len ethernet_header_length 2;
      let data_len = r16 head ethernet_header_length in
      let start = ethernet_header_length + 2 in
      if data_len <> len - start then raise Short;
      Packet.Xenloop_body (sub start data_len)
  | other -> raise (Fail (Bad_ethertype other))

let parse_with ?(verify_transport = true) ~head ~len sub =
  if Bytes.length head < min len max_header_length then
    invalid_arg "Codec.parse_with: head shorter than the frame's headers";
  match parse_body ~verify_transport head ~len sub with
  | body ->
      Ok { Packet.dst_mac = Mac.of_bytes head 0; src_mac = Mac.of_bytes head 6; body }
  | exception Short -> Error Truncated
  | exception Fail e -> Error e

let parse ?verify_transport data =
  parse_with ?verify_transport ~head:data ~len:(Bytes.length data)
    (fun off n -> Bytes.sub data off n)
