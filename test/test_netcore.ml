(* Tests for addresses, checksums, packet codec, and IP fragmentation. *)

module Mac = Netcore.Mac
module Ip = Netcore.Ip
module Checksum = Netcore.Checksum
module Ipv4 = Netcore.Ipv4
module Transport = Netcore.Transport
module Arp = Netcore.Arp
module Packet = Netcore.Packet
module Codec = Netcore.Codec
module Fragment = Netcore.Fragment

let mac_a = Mac.of_domid ~machine:0 ~domid:1
let mac_b = Mac.of_domid ~machine:0 ~domid:2
let ip_a = Ip.make ~subnet:1 ~host:1
let ip_b = Ip.make ~subnet:1 ~host:2

(* ------------------------------------------------------------------ *)
(* Addresses *)

let test_mac_string_roundtrip () =
  let m = Mac.of_int64 0x0123456789ABL in
  Alcotest.(check string) "to_string" "01:23:45:67:89:ab" (Mac.to_string m);
  (match Mac.of_string "01:23:45:67:89:ab" with
  | Some m' -> Alcotest.(check bool) "roundtrip" true (Mac.equal m m')
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check (option reject)) "garbage" None
    (Option.map ignore (Mac.of_string "zz:aa"));
  Alcotest.(check (option reject)) "wrong groups" None
    (Option.map ignore (Mac.of_string "01:23:45:67:89"))

let test_mac_broadcast () =
  Alcotest.(check string) "broadcast" "ff:ff:ff:ff:ff:ff" (Mac.to_string Mac.broadcast);
  Alcotest.(check bool) "is_broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "unicast not broadcast" false (Mac.is_broadcast mac_a)

let test_mac_of_domid () =
  Alcotest.(check bool) "distinct per domain" false (Mac.equal mac_a mac_b);
  Alcotest.(check bool) "distinct per machine" false
    (Mac.equal mac_a (Mac.of_domid ~machine:1 ~domid:1));
  (* Xen OUI prefix. *)
  Alcotest.(check string) "oui" "00:16:3e"
    (String.sub (Mac.to_string mac_a) 0 8)

let test_ip_string_roundtrip () =
  let ip = Ip.of_octets 192 168 1 42 in
  Alcotest.(check string) "to_string" "192.168.1.42" (Ip.to_string ip);
  (match Ip.of_string "192.168.1.42" with
  | Some ip' -> Alcotest.(check bool) "roundtrip" true (Ip.equal ip ip')
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check (option reject)) "out of range" None
    (Option.map ignore (Ip.of_string "1.2.3.256"));
  Alcotest.(check (option reject)) "not dotted quad" None
    (Option.map ignore (Ip.of_string "1.2.3"))

let test_ip_make () =
  Alcotest.(check string) "cluster scheme" "10.3.0.7"
    (Ip.to_string (Ip.make ~subnet:3 ~host:7))

(* ------------------------------------------------------------------ *)
(* Checksum *)

let test_checksum_known_vector () =
  (* Classic RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 220d. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071" 0x220d (Checksum.compute data ~off:0 ~len:8)

let test_checksum_verify () =
  (* Checksum field (offset 2) starts zeroed; after embedding the computed
     checksum the whole range must verify. *)
  let data = Bytes.of_string "\x45\x00\x00\x00xyzabcdefhij" in
  let len = Bytes.length data in
  let ck = Checksum.compute data ~off:0 ~len in
  Bytes.set_uint8 data 2 (ck lsr 8);
  Bytes.set_uint8 data 3 (ck land 0xff);
  Alcotest.(check bool) "verifies" true (Checksum.verify data ~off:0 ~len);
  (* And corruption breaks verification. *)
  Bytes.set_uint8 data 5 (Bytes.get_uint8 data 5 lxor 1);
  Alcotest.(check bool) "corruption detected" false (Checksum.verify data ~off:0 ~len)

let test_checksum_odd_length () =
  let data = Bytes.of_string "abc" in
  let ck = Checksum.compute data ~off:0 ~len:3 in
  Alcotest.(check bool) "in range" true (ck >= 0 && ck <= 0xffff)

let prop_checksum_detects_single_bit_flips =
  QCheck.Test.make ~name:"checksum detects single corrupted byte" ~count:200
    QCheck.(pair (string_of_size Gen.(2 -- 64)) small_int)
    (fun (s, idx) ->
      QCheck.assume (String.length s >= 2);
      let data = Bytes.of_string s in
      let len = Bytes.length data in
      let ck = Checksum.compute data ~off:0 ~len in
      let idx = idx mod len in
      let original = Bytes.get_uint8 data idx in
      let corrupted = (original + 1) land 0xff in
      QCheck.assume (corrupted <> original);
      Bytes.set_uint8 data idx corrupted;
      Checksum.compute data ~off:0 ~len <> ck)

(* The production sum is accumulated 32 bits at a time in native byte
   order; this reference is the textbook big-endian byte-pair fold.  They
   must agree bit-for-bit on every input, offset, and length parity. *)
let reference_checksum data ~off ~len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum :=
      !sum
      + (Char.code (Bytes.get data !i) lsl 8)
      + Char.code (Bytes.get data (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get data !i) lsl 8);
  let s = ref !sum in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"wide checksum matches byte-pair reference" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (int_bound 7))
    (fun (s, off) ->
      let data = Bytes.of_string s in
      QCheck.assume (off <= Bytes.length data);
      let len = Bytes.length data - off in
      Checksum.compute data ~off ~len = reference_checksum data ~off ~len)

let prop_checksum_incremental_matches_full =
  QCheck.Test.make ~name:"incremental update matches recomputation" ~count:200
    QCheck.(triple (string_of_size (QCheck.Gen.return 8)) (int_bound 3) (int_bound 0xffff))
    (fun (s, word_idx, new_word) ->
      let data = Bytes.of_string s in
      let old = Checksum.compute data ~off:0 ~len:8 in
      let old_word =
        (Bytes.get_uint8 data (2 * word_idx) lsl 8)
        lor Bytes.get_uint8 data ((2 * word_idx) + 1)
      in
      Bytes.set_uint8 data (2 * word_idx) (new_word lsr 8);
      Bytes.set_uint8 data ((2 * word_idx) + 1) (new_word land 0xff);
      let fresh = Checksum.compute data ~off:0 ~len:8 in
      let incremental = Checksum.incremental_update ~old_checksum:old ~old_word ~new_word in
      fresh = incremental)

(* ------------------------------------------------------------------ *)
(* Codec *)

let codec_error = Alcotest.testable Codec.pp_error ( = )

let roundtrip packet =
  match Codec.parse (Codec.serialize packet) with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %a" Codec.pp_error e

let test_codec_udp_roundtrip () =
  let p =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:5000
      ~dst_port:53 ~ident:7 (Bytes.of_string "dns query")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_tcp_roundtrip () =
  let header =
    {
      Transport.tcp_src_port = 43210;
      tcp_dst_port = 80;
      seq = 123456789l;
      ack_seq = 42l;
      flags = { Transport.no_flags with syn = true; ack = true };
      window = 65535;
    }
  in
  let p =
    Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header ~ident:3
      (Bytes.of_string "GET / HTTP/1.0\r\n")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_icmp_roundtrip () =
  let p =
    Packet.icmp_echo ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
      ~kind:`Request ~icmp_ident:99 ~icmp_seq:5 ~ident:11 (Bytes.of_string "ping")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_arp_roundtrip () =
  let msg = Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b in
  let p = Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast msg in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_xenloop_roundtrip () =
  let p =
    Packet.xenloop_ctrl ~src_mac:mac_a ~dst_mac:mac_b (Bytes.of_string "ANNOUNCE 1 2 3")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_wire_length_matches () =
  let p =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1
      ~dst_port:2 (Bytes.of_string "0123456789")
  in
  Alcotest.(check int) "wire length" (Bytes.length (Codec.serialize p))
    (Packet.wire_length p)

let test_codec_rejects_corruption () =
  let p =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1
      ~dst_port:2 (Bytes.of_string "payload")
  in
  let raw = Codec.serialize p in
  (* Corrupt a payload byte: transport checksum must catch it. *)
  let last = Bytes.length raw - 1 in
  Bytes.set_uint8 raw last (Bytes.get_uint8 raw last lxor 0xFF);
  (match Codec.parse raw with
  | Error (Codec.Bad_checksum "transport") -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted corrupted payload");
  (* Corrupt the IP header. *)
  let raw2 = Codec.serialize p in
  Bytes.set_uint8 raw2 20 (Bytes.get_uint8 raw2 20 lxor 0xFF);
  match Codec.parse raw2 with
  | Error (Codec.Bad_checksum "IPv4") -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted corrupted header"

let test_codec_truncated () =
  let p = Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast
      (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b) in
  let raw = Codec.serialize p in
  Alcotest.(check (result reject codec_error)) "truncated" (Error Codec.Truncated)
    (Result.map ignore (Codec.parse (Bytes.sub raw 0 (Bytes.length raw - 3))))

let test_codec_bad_ethertype () =
  let raw = Bytes.make 20 '\000' in
  Bytes.set_uint8 raw 12 0xAB;
  Bytes.set_uint8 raw 13 0xCD;
  match Codec.parse raw with
  | Error (Codec.Bad_ethertype 0xABCD) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted unknown ethertype"

let payload_gen = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 2000)))

let arbitrary_udp_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff and* ident = 0 -- 0xffff in
      let* payload = payload_gen in
      return
        (Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
           ~src_port:sp ~dst_port:dp ~ident payload))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrip" ~count:200 arbitrary_udp_packet
    (fun p ->
      match Codec.parse (Codec.serialize p) with
      | Ok p' -> Packet.equal p p'
      | Error _ -> false)

let arbitrary_tcp_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff in
      let* seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
      let* ack_seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
      let* window = 0 -- 0xffff in
      let* syn = bool and* ack = bool and* fin = bool and* psh = bool and* rst = bool in
      let* payload = payload_gen in
      let header =
        {
          Transport.tcp_src_port = sp;
          tcp_dst_port = dp;
          seq;
          ack_seq;
          flags = { Transport.syn; ack; fin; psh; rst };
          window;
        }
      in
      return
        (Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header
           payload))

let prop_codec_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp serialize/parse roundtrip (all flag combos)" ~count:300
    arbitrary_tcp_packet (fun p ->
      match Codec.parse (Codec.serialize p) with
      | Ok p' -> Packet.equal p p'
      | Error _ -> false)

(* Checksum-elision trust contract (DESIGN.md §15): a frame sent over
   the xenloop channel with its transport checksum elided, then bounced
   to netfront/physnet by the fallback (parse without verification,
   re-serialize with the default always-compute), must be bit for bit
   the frame the sender would have produced with no elision at all.
   Payloads are sliced out of a backing buffer at unaligned offsets and
   biased toward odd lengths, and zero length is generated, because the
   16-bit ones'-complement sum is exactly where odd tails and offset
   bugs hide. *)
let elision_payload_gen =
  QCheck.Gen.(
    let* backing = string_size (0 -- 2000) in
    let* off = 0 -- 7 in
    let off = min off (String.length backing) in
    let* len = 0 -- (String.length backing - off) in
    let* odd_bias = bool in
    let len = if odd_bias && len > 0 && len mod 2 = 0 then len - 1 else len in
    return (Bytes.sub (Bytes.of_string backing) off len))

let arbitrary_elision_tcp_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff in
      let* seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
      let* ack = bool and* fin = bool and* psh = bool in
      let* payload = elision_payload_gen in
      let header =
        {
          Transport.tcp_src_port = sp;
          tcp_dst_port = dp;
          seq;
          ack_seq = 0l;
          flags = { Transport.syn = false; ack; fin; psh; rst = false };
          window = 0xffff;
        }
      in
      return
        (Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header
           payload))

let prop_csum_elision_fallback =
  QCheck.Test.make
    ~name:"csum elision + fallback recompute equals always-compute baseline"
    ~count:400 arbitrary_elision_tcp_packet (fun p ->
      let baseline = Codec.serialize p in
      let elided = Codec.serialize ~csum:false p in
      match Codec.parse ~verify_transport:false elided with
      | Error _ -> false
      | Ok p' -> Bytes.equal (Codec.serialize p') baseline)

let test_codec_tcp_data_offset () =
  (* The stack sends no TCP options, so a data offset other than 5 words
     can only be a corrupted header.  With verification off (a csum_ok
     channel) nothing else would catch it. *)
  let header =
    {
      Transport.tcp_src_port = 1;
      tcp_dst_port = 2;
      seq = 7l;
      ack_seq = 0l;
      flags = { Transport.no_flags with Transport.ack = true };
      window = 100;
    }
  in
  let p =
    Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header
      (Bytes.of_string "payload")
  in
  let raw = Codec.serialize ~csum:false p in
  let off_byte = Packet.ethernet_header_length + Ipv4.header_length + 12 in
  Alcotest.(check int) "serialized offset is 5 words" 5 (Bytes.get_uint8 raw off_byte lsr 4);
  List.iter
    (fun words ->
      let bad = Bytes.copy raw in
      Bytes.set_uint8 bad off_byte ((words lsl 4) lor (Bytes.get_uint8 raw off_byte land 0x0F));
      Alcotest.(check (result reject codec_error))
        (Printf.sprintf "data offset %d" words)
        (Error (Codec.Malformed "TCP data offset"))
        (Result.map ignore (Codec.parse ~verify_transport:false bad)))
    [ 0; 4; 6; 15 ];
  match Codec.parse ~verify_transport:false raw with
  | Ok p' -> Alcotest.(check bool) "offset 5 parses" true (Packet.equal p p')
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e

(* The parser as it was before it read headers in place: it copied the
   IPv4 body into a blob and the payload out of that blob.  It stays here
   as the oracle the in-place parser is checked against; the two differ
   only in that the old one ignored the TCP data offset. *)
module Blob_parser = struct
  exception Short

  type cursor = { data : Bytes.t; mutable pos : int }

  let r8 c =
    if c.pos >= Bytes.length c.data then raise Short;
    let v = Char.code (Bytes.get c.data c.pos) in
    c.pos <- c.pos + 1;
    v

  let r16 c =
    let hi = r8 c in
    (hi lsl 8) lor r8 c

  let r32 c =
    let hi = r16 c in
    Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int (r16 c))

  let rmac c =
    let v = ref 0L in
    for _ = 1 to 6 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (r8 c))
    done;
    Mac.of_int64 !v

  let rip c = Ip.of_int32 (r32 c)

  let rbytes c len =
    if len < 0 || c.pos + len > Bytes.length c.data then raise Short;
    let b = Bytes.sub c.data c.pos len in
    c.pos <- c.pos + len;
    b

  let remaining c = Bytes.length c.data - c.pos

  let tcp_flags_of_bits bits : Transport.tcp_flags =
    {
      fin = bits land 0x01 <> 0;
      syn = bits land 0x02 <> 0;
      rst = bits land 0x04 <> 0;
      psh = bits land 0x08 <> 0;
      ack = bits land 0x10 <> 0;
    }

  let parse_transport ~verify protocol blob =
    let c = { data = blob; pos = 0 } in
    try
      if verify && not (Checksum.verify blob ~off:0 ~len:(Bytes.length blob)) then
        Error (Codec.Bad_checksum "transport")
      else begin
        let transport =
          match protocol with
          | Ipv4.Icmp ->
              let ty = r8 c in
              let _code = r8 c in
              let _cksum = r16 c in
              let icmp_ident = r16 c in
              let icmp_seq = r16 c in
              let echo_kind =
                match ty with 8 -> `Request | 0 -> `Reply | _ -> raise Exit
              in
              Transport.Icmp { echo_kind; icmp_ident; icmp_seq }
          | Ipv4.Udp ->
              let udp_src_port = r16 c in
              let udp_dst_port = r16 c in
              let len = r16 c in
              let _cksum = r16 c in
              if len <> Bytes.length blob then raise Exit;
              Transport.Udp { udp_src_port; udp_dst_port }
          | Ipv4.Tcp ->
              let tcp_src_port = r16 c in
              let tcp_dst_port = r16 c in
              let seq = r32 c in
              let ack_seq = r32 c in
              let off_flags = r16 c in
              let window = r16 c in
              let _cksum = r16 c in
              let _urgent = r16 c in
              Transport.Tcp
                {
                  tcp_src_port;
                  tcp_dst_port;
                  seq;
                  ack_seq;
                  flags = tcp_flags_of_bits (off_flags land 0x3F);
                  window;
                }
        in
        let payload = rbytes c (remaining c) in
        Ok (transport, payload)
      end
    with
    | Short -> Error Codec.Truncated
    | Exit -> Error (Codec.Malformed "transport header")

  let parse_ipv4 ~verify_transport c =
    let start = c.pos in
    let vihl = r8 c in
    if vihl <> 0x45 then Error (Codec.Malformed "IPv4 version/IHL")
    else begin
      let _tos = r8 c in
      let total_length = r16 c in
      let ident = r16 c in
      let flags_frag = r16 c in
      let ttl = r8 c in
      let proto = r8 c in
      let _cksum = r16 c in
      let src = rip c in
      let dst = rip c in
      if not (Checksum.verify c.data ~off:start ~len:Ipv4.header_length) then
        Error (Codec.Bad_checksum "IPv4")
      else
        match Ipv4.protocol_of_number proto with
        | None -> Error (Codec.Bad_protocol proto)
        | Some protocol ->
            let content_len = total_length - Ipv4.header_length in
            if content_len <> remaining c then Error Codec.Truncated
            else begin
              let header : Ipv4.header =
                {
                  src;
                  dst;
                  protocol;
                  ident;
                  frag_offset = (flags_frag land 0x1FFF) * 8;
                  more_fragments = flags_frag land 0x2000 <> 0;
                  ttl;
                }
              in
              let blob = rbytes c content_len in
              if Ipv4.is_fragment header then
                Ok (Packet.Ipv4_body { header; content = Packet.Fragment blob })
              else
                match parse_transport ~verify:verify_transport protocol blob with
                | Error e -> Error e
                | Ok (transport, payload) ->
                    Ok
                      (Packet.Ipv4_body
                         { header; content = Packet.Full { transport; payload } })
            end
    end

  let parse_arp c =
    let htype = r16 c in
    let ptype = r16 c in
    let hlen = r8 c in
    let plen = r8 c in
    if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then
      Error (Codec.Malformed "ARP header")
    else begin
      let opn = r16 c in
      let sender_mac = rmac c in
      let sender_ip = rip c in
      let target_mac = rmac c in
      let target_ip = rip c in
      match opn with
      | 1 | 2 ->
          let op = if opn = 1 then Arp.Request else Arp.Reply in
          Ok
            (Packet.Arp_body
               { Arp.op; sender_mac; sender_ip; target_mac; target_ip })
      | _ -> Error (Codec.Malformed "ARP op")
    end

  let parse ~verify_transport data =
    let c = { data; pos = 0 } in
    try
      let dst_mac = rmac c in
      let src_mac = rmac c in
      let ethertype = r16 c in
      let body =
        match ethertype with
        | 0x0800 -> parse_ipv4 ~verify_transport c
        | 0x0806 -> parse_arp c
        | 0x58D0 ->
            let len = r16 c in
            if len <> remaining c then Error Codec.Truncated
            else Ok (Packet.Xenloop_body (rbytes c len))
        | other -> Error (Codec.Bad_ethertype other)
      in
      Result.map (fun body -> { Packet.src_mac; dst_mac; body }) body
    with Short -> Error Codec.Truncated
end

(* Random frames of every kind the codec knows, 0–64 KiB of payload
   (mostly small), serialized with or without their transport checksum,
   then damaged: a few byte flips biased toward the headers, and/or a
   truncation. *)
let frame_payload_gen =
  QCheck.Gen.(
    let* big = int_bound 9 in
    let* n = if big = 0 then 0 -- 65_495 else 0 -- 1_600 in
    map Bytes.of_string (string_size (return n)))

let frame_kinds = 6

let frame_of_kind ?(payload_gen = frame_payload_gen) kind =
  QCheck.Gen.(
    let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff and* ident = 0 -- 0xffff in
    let* payload = payload_gen in
    match kind with
    | 0 ->
        let payload = Bytes.sub payload 0 (min (Bytes.length payload) 65_507) in
        return
          (Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
             ~src_port:sp ~dst_port:dp ~ident payload)
    | 1 ->
        let* seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
        let* bits = 0 -- 0x1F and* window = 0 -- 0xffff in
        let header =
          {
            Transport.tcp_src_port = sp;
            tcp_dst_port = dp;
            seq;
            ack_seq = Int32.of_int ident;
            flags = Blob_parser.tcp_flags_of_bits bits;
            window;
          }
        in
        return
          (Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
             ~header ~ident payload)
    | 2 ->
        let* request = bool in
        return
          (Packet.icmp_echo ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
             ~kind:(if request then `Request else `Reply)
             ~icmp_ident:sp ~icmp_seq:dp ~ident payload)
    | 3 ->
        let* more_fragments = bool and* units = 0 -- 1000 in
        let frag_offset = if more_fragments then 8 * units else 8 * (units + 1) in
        let header =
          {
            Ipv4.src = ip_a;
            dst = ip_b;
            protocol = Ipv4.Udp;
            ident;
            frag_offset;
            more_fragments;
            ttl = 64;
          }
        in
        return
          {
            Packet.src_mac = mac_a;
            dst_mac = mac_b;
            body = Packet.Ipv4_body { header; content = Packet.Fragment payload };
          }
    | 4 ->
        return
          (Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast
             (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b))
    | _ ->
        let payload = Bytes.sub payload 0 (min (Bytes.length payload) 0xffff) in
        return (Packet.xenloop_ctrl ~src_mac:mac_a ~dst_mac:mac_b payload))

let frame_packet_gen = QCheck.Gen.(int_bound (frame_kinds - 1) >>= frame_of_kind)

let damage_gen raw =
  QCheck.Gen.(
    let n = Bytes.length raw in
    let* flips = frequency [ (2, return 0); (3, 1 -- 3) ] in
    let* positions =
      list_repeat flips
        (let* in_headers = bool in
         if in_headers then 0 -- (min n Codec.max_header_length - 1)
         else 0 -- (n - 1))
    in
    let* bits = list_repeat flips (1 -- 255) in
    let* truncate = int_bound 4 in
    let* near_headers = bool in
    let* cut = if near_headers then 0 -- min n (Codec.max_header_length + 2) else 0 -- n in
    let b = Bytes.copy raw in
    List.iter2
      (fun pos bit -> Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor bit))
      positions bits;
    return (if truncate = 0 then Bytes.sub b 0 cut else b))

let damaged_frame_gen =
  QCheck.Gen.(
    let* p = frame_packet_gen in
    let* csum = bool in
    damage_gen (Codec.serialize ~csum p))

let arbitrary_damaged_frame =
  QCheck.make
    ~print:(fun b ->
      Printf.sprintf "%d bytes: %s..." (Bytes.length b)
        (String.concat " "
           (List.init (min 64 (Bytes.length b)) (fun i ->
                Printf.sprintf "%02x" (Bytes.get_uint8 b i)))))
    damaged_frame_gen

let tcp_data_offset_byte = Packet.ethernet_header_length + Ipv4.header_length + 12

let same_result a b =
  match (a, b) with
  | Ok p, Ok q -> Packet.equal p q
  | Error e, Error f -> e = f
  | Ok _, Error _ | Error _, Ok _ -> false

let expected_parse ~verify_transport raw =
  match Blob_parser.parse ~verify_transport raw with
  | Ok
      {
        Packet.body =
          Packet.Ipv4_body
            { content = Packet.Full { transport = Transport.Tcp _; _ }; _ };
        _;
      }
    when Bytes.get_uint8 raw tcp_data_offset_byte lsr 4 <> 5 ->
      Error (Codec.Malformed "TCP data offset")
  | r -> r

let parse_agrees raw =
  List.for_all
    (fun verify_transport ->
      same_result (expected_parse ~verify_transport raw)
        (Codec.parse ~verify_transport raw))
    [ true; false ]

let prop_parse_matches_blob_parser =
  QCheck.Test.make ~name:"in-place parse matches the blob parser" ~count:300
    arbitrary_damaged_frame parse_agrees

let test_parse_matches_blob_parser_near_headers () =
  (* Which error wins depends on where a frame ends relative to each
     header field, so every cut through the headers of one small frame of
     each kind is tried, alone and with each header byte flipped. *)
  let frames =
    List.concat_map
      (fun kind ->
        List.map
          (fun seed ->
            QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) (frame_of_kind kind))
          [ 1; 2 ])
      (List.init frame_kinds Fun.id)
  in
  List.iter
    (fun p ->
      List.iter
        (fun csum ->
          let raw = Codec.serialize ~csum p in
          let n = Bytes.length raw in
          for cut = 0 to min n (Codec.max_header_length + 2) do
            let b = Bytes.sub raw 0 cut in
            if not (parse_agrees b) then Alcotest.failf "cut at %d of %d disagrees" cut n;
            for pos = 0 to cut - 1 do
              List.iter
                (fun bit ->
                  let f = Bytes.copy b in
                  Bytes.set_uint8 f pos (Bytes.get_uint8 f pos lxor bit);
                  if not (parse_agrees f) then
                    Alcotest.failf "cut at %d of %d, byte %d ^ 0x%02x disagrees" cut n pos
                      bit)
                [ 0x01; 0x10; 0xFF ]
            done
          done)
        [ true; false ])
    frames

(* A frame's chunking across pool slots: a run of 1-byte chunks first (so
   the headers straddle chunks), then random cuts, each chunk fitting its
   slot from offset [off]. *)
let scatter_pool =
  lazy
    (let slots = 128 and slot_pages = 5 in
     let ctrl = Memory.Page.create () in
     let data = Array.init (slots * slot_pages) (fun _ -> Memory.Page.create ()) in
     Xenloop.Payload_pool.init ~ctrl ~data ~slots ~slot_pages ~inline_max:256 ())

let chunking_gen ~slot_bytes n =
  QCheck.Gen.(
    let* off = 0 -- 64 in
    let cap = slot_bytes - off in
    let* ones = frequency [ (1, return 0); (1, 0 -- min n 70) ] in
    let rec cuts pos acc =
      if pos >= n then return (List.rev acc)
      else
        let* l = 1 -- min cap (n - pos) in
        let* whole = int_bound 3 in
        let l = if whole = 0 then min cap (n - pos) else l in
        cuts (pos + l) (l :: acc)
    in
    let* rest = cuts ones [] in
    return (off, List.init ones (fun _ -> 1) @ rest))

let arbitrary_scattered_frame =
  let slot_bytes = Xenloop.Payload_pool.slot_bytes (Lazy.force scatter_pool) in
  QCheck.make
    ~print:(fun (raw, (off, lens)) ->
      Printf.sprintf "%d bytes at off %d in chunks [%s]" (Bytes.length raw) off
        (String.concat ";" (List.map string_of_int lens)))
    QCheck.Gen.(
      let* raw = damaged_frame_gen in
      let raw = if Bytes.length raw = 0 then Bytes.make 1 'x' else raw in
      let* chunking = chunking_gen ~slot_bytes (Bytes.length raw) in
      return (raw, chunking))

let prop_parse_scatter_matches_parse =
  QCheck.Test.make ~name:"parse from a pool scatter vector matches parse"
    ~count:300 arbitrary_scattered_frame (fun (raw, (off, lens)) ->
      let pool = Lazy.force scatter_pool in
      QCheck.assume (List.length lens <= Xenloop.Payload_pool.slots pool);
      (* Each chunk goes to its own slot behind [off] bytes of filler. *)
      let pos = ref 0 in
      let chunks =
        Array.of_list
          (List.mapi
             (fun slot l ->
               let src = Bytes.make (off + l) '\xAA' in
               Bytes.blit raw !pos src off l;
               Xenloop.Payload_pool.write pool ~slot ~src ~len:(off + l);
               pos := !pos + l;
               (slot, l))
             lens)
      in
      List.for_all
        (fun verify_transport ->
          same_result
            (Codec.parse ~verify_transport raw)
            (Xenloop.Payload_pool.parse_scatter ~verify_transport pool ~off
               ~len:(Bytes.length raw) chunks))
        [ true; false ])

(* Frames of every kind whose payload length is often odd or zero, the
   lengths where a checksum's trailing byte and empty range show. *)
let odd_payload_gen =
  QCheck.Gen.(
    let* n =
      frequency
        [
          (1, return 0);
          (1, return 1);
          (3, map (fun k -> (2 * k) + 1) (0 -- 800));
          (1, 0 -- 65_495);
        ]
    in
    map Bytes.of_string (string_size (return n)))

let arbitrary_odd_frame_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      int_bound (frame_kinds - 1) >>= frame_of_kind ~payload_gen:odd_payload_gen)

let prop_restore_transport_checksum =
  QCheck.Test.make
    ~name:"restoring the checksum of an elided frame gives serialize"
    ~count:400 arbitrary_odd_frame_packet (fun p ->
      let baseline = Codec.serialize p in
      let elided = Codec.serialize ~csum:false p in
      Codec.restore_transport_checksum elided;
      let again = Bytes.copy baseline in
      Codec.restore_transport_checksum again;
      Bytes.equal elided baseline && Bytes.equal again baseline)

(* The transmit half of the pool path: a frame written across a scatter
   vector of small slots — headers straight from the packet with its
   payload behind them, or a serialized frame behind an empty head — is
   [serialize ~csum:false] byte for byte, and parses back to the
   packet. *)
let write_pool =
  lazy
    (let slots = 256 and slot_pages = 1 in
     let ctrl = Memory.Page.create () in
     let data = Array.init (slots * slot_pages) (fun _ -> Memory.Page.create ()) in
     Xenloop.Payload_pool.init ~ctrl ~data ~slots ~slot_pages ~inline_max:256 ())

let arbitrary_written_frame =
  let slot_bytes = Xenloop.Payload_pool.slot_bytes (Lazy.force write_pool) in
  QCheck.make
    ~print:(fun (p, from_packet, (off, lens)) ->
      Printf.sprintf "%s from %s at off %d in chunks [%s]"
        (Format.asprintf "%a" Packet.pp p)
        (if from_packet then "packet" else "bytes")
        off
        (String.concat ";" (List.map string_of_int lens)))
    QCheck.Gen.(
      let* p = frame_packet_gen and* from_packet = bool in
      let* chunking = chunking_gen ~slot_bytes (Packet.wire_length p) in
      return (p, from_packet, chunking))

let prop_write_scatter_matches_serialize =
  QCheck.Test.make ~name:"a frame written across a pool scatter vector is serialize"
    ~count:300 arbitrary_written_frame (fun (p, from_packet, (off, lens)) ->
      let module Pool = Xenloop.Payload_pool in
      let pool = Lazy.force write_pool in
      let nchunks = List.length lens in
      QCheck.assume (nchunks <= Pool.slots pool);
      (* The vector runs through the slots backwards, so chunk order and
         slot order differ. *)
      let slots = Array.init nchunks (fun i -> Pool.slots pool - 1 - i) in
      let lens = Array.of_list lens in
      let expected = Codec.serialize ~csum:false p in
      let len = Bytes.length expected in
      (if from_packet then begin
         let head = Bytes.make Codec.max_header_length '\xAA' in
         let head_len = Codec.serialize_head p head in
         let tail = Codec.tail p in
         Pool.write_scatter pool ~off ~slots ~lens ~head ~head_len ~src:tail
           ~src_off:0 ~len:(Bytes.length tail)
       end
       else
         Pool.write_scatter pool ~off ~slots ~lens ~head:Bytes.empty ~head_len:0
           ~src:expected ~src_off:0 ~len);
      let chunks = Array.mapi (fun i slot -> (slot, lens.(i))) slots in
      let got = Bytes.create len in
      Pool.read_scatter pool ~off chunks ~pos:0 ~len ~dst:got ~dst_off:0;
      Bytes.equal got expected
      && same_result (Ok p)
           (Pool.parse_scatter ~verify_transport:false pool ~off ~len chunks))

let test_write_scatter_head_straddles () =
  (* A TCP frame's 54 header bytes split 1 + 13 + 30 + 10 across four
     chunks, the last of which also starts the payload. *)
  let module Pool = Xenloop.Payload_pool in
  let pool = Lazy.force write_pool in
  let header =
    {
      Transport.tcp_src_port = 7;
      tcp_dst_port = 9;
      seq = 0x01020304l;
      ack_seq = 0x0A0B0C0Dl;
      flags = { Transport.no_flags with Transport.ack = true; psh = true };
      window = 4096;
    }
  in
  let payload = Bytes.init 6_001 (fun i -> Char.chr (i land 0xFF)) in
  let p = Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header payload in
  let expected = Codec.serialize ~csum:false p in
  let len = Bytes.length expected in
  let sb = Pool.slot_bytes pool in
  let lens = [| 1; 13; 30; 100; sb; len - 144 - sb |] in
  let slots = [| 9; 3; 200; 4; 17; 0 |] in
  let head = Bytes.create Codec.max_header_length in
  let head_len = Codec.serialize_head p head in
  Alcotest.(check int) "TCP head" Codec.max_header_length head_len;
  Pool.write_scatter pool ~off:0 ~slots ~lens ~head ~head_len ~src:payload ~src_off:0
    ~len:(Bytes.length payload);
  let chunks = Array.mapi (fun i slot -> (slot, lens.(i))) slots in
  let got = Bytes.create len in
  Pool.read_scatter pool ~off:0 chunks ~pos:0 ~len ~dst:got ~dst_off:0;
  Alcotest.(check bool) "slot bytes are serialize ~csum:false" true
    (Bytes.equal got expected);
  match Pool.parse_scatter ~verify_transport:false pool ~off:0 ~len chunks with
  | Ok q -> Alcotest.(check bool) "parses back to the packet" true (Packet.equal p q)
  | Error e -> Alcotest.failf "parse failed: %a" Codec.pp_error e

let prop_checksum_add =
  QCheck.Test.make ~name:"checksum add joins an even split" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, k) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let split = min n (2 * (k / 2)) in
      Checksum.add
        (Checksum.ones_complement_sum b ~off:0 ~len:split)
        (Checksum.ones_complement_sum b ~off:split ~len:(n - split))
      = Checksum.ones_complement_sum b ~off:0 ~len:n)

let prop_mac_string_roundtrip =
  QCheck.Test.make ~name:"mac to_string/of_string roundtrip" ~count:200
    QCheck.(map Int64.of_int int)
    (fun v ->
      let m = Mac.of_int64 v in
      match Mac.of_string (Mac.to_string m) with
      | Some m' -> Mac.equal m m'
      | None -> false)

let prop_ip_string_roundtrip =
  QCheck.Test.make ~name:"ip to_string/of_string roundtrip" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let ip = Ip.of_octets a b c d in
      match Ip.of_string (Ip.to_string ip) with
      | Some ip' -> Ip.equal ip ip'
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Fragmentation *)

let big_udp len =
  Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9
    ~dst_port:10 ~ident:77
    (Bytes.init len (fun i -> Char.chr (i land 0xff)))

let test_fragment_small_packet_untouched () =
  let p = big_udp 100 in
  Alcotest.(check int) "singleton" 1 (List.length (Fragment.fragment ~mtu:1500 p))

let test_fragment_splits_and_offsets () =
  let p = big_udp 4000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  Alcotest.(check bool) "several fragments" true (List.length frags >= 3);
  let offsets =
    List.filter_map
      (fun f -> Option.map (fun h -> h.Ipv4.frag_offset) (Packet.ip_header f))
      frags
  in
  Alcotest.(check int) "first at 0" 0 (List.hd offsets);
  List.iter
    (fun off -> Alcotest.(check int) "8-byte aligned" 0 (off mod 8))
    offsets;
  (* All but the last must have more_fragments set. *)
  let more_flags =
    List.filter_map
      (fun f -> Option.map (fun h -> h.Ipv4.more_fragments) (Packet.ip_header f))
      frags
  in
  Alcotest.(check bool) "last has no MF" false (List.nth more_flags (List.length more_flags - 1));
  List.iteri
    (fun i mf ->
      if i < List.length more_flags - 1 then
        Alcotest.(check bool) "MF set" true mf)
    more_flags;
  (* Every fragment respects the MTU. *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "fits mtu" true
        (Packet.wire_length f - Packet.ethernet_header_length <= 1500))
    frags

let test_fragment_reassembles_in_order () =
  let p = big_udp 5000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  let reasm = Fragment.create_reassembler () in
  let result =
    List.fold_left
      (fun acc f ->
        match Fragment.push reasm f with
        | Ok (Some whole) -> Some whole
        | Ok None -> acc
        | Error e -> Alcotest.failf "reassembly error: %a" Codec.pp_error e)
      None frags
  in
  match result with
  | None -> Alcotest.fail "never completed"
  | Some whole ->
      Alcotest.(check bool) "identical to original" true (Packet.equal p whole);
      Alcotest.(check int) "no pending state" 0 (Fragment.pending_datagrams reasm)

let test_fragment_reassembles_out_of_order () =
  let p = big_udp 6000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  let shuffled = List.rev frags in
  let reasm = Fragment.create_reassembler () in
  let result =
    List.fold_left
      (fun acc f ->
        match Fragment.push reasm f with
        | Ok (Some whole) -> Some whole
        | Ok None -> acc
        | Error e -> Alcotest.failf "reassembly error: %a" Codec.pp_error e)
      None shuffled
  in
  match result with
  | None -> Alcotest.fail "never completed"
  | Some whole -> Alcotest.(check bool) "identical" true (Packet.equal p whole)

let test_fragment_incomplete_stays_pending () =
  let p = big_udp 4000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  let reasm = Fragment.create_reassembler () in
  (match frags with
  | first :: _ -> (
      match Fragment.push reasm first with
      | Ok None -> ()
      | _ -> Alcotest.fail "single fragment completed a datagram")
  | [] -> Alcotest.fail "no fragments");
  Alcotest.(check int) "pending" 1 (Fragment.pending_datagrams reasm)

let test_fragment_interleaved_datagrams () =
  let p1 = big_udp 3000 in
  let p2 =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9
      ~dst_port:10 ~ident:78 (Bytes.make 3000 'z')
  in
  let frags = Fragment.fragment ~mtu:1500 p1 @ Fragment.fragment ~mtu:1500 p2 in
  (* Interleave the two datagrams' fragments. *)
  let reasm = Fragment.create_reassembler () in
  let completed = ref [] in
  List.iter
    (fun f ->
      match Fragment.push reasm f with
      | Ok (Some whole) -> completed := whole :: !completed
      | Ok None -> ()
      | Error e -> Alcotest.failf "reassembly error: %a" Codec.pp_error e)
    frags;
  Alcotest.(check int) "both completed" 2 (List.length !completed)

let prop_fragment_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip at random sizes" ~count:100
    QCheck.(pair (int_range 0 20000) (int_range 600 1500))
    (fun (len, mtu) ->
      let p = big_udp len in
      let frags = Fragment.fragment ~mtu p in
      let reasm = Fragment.create_reassembler () in
      let result =
        List.fold_left
          (fun acc f ->
            match Fragment.push reasm f with
            | Ok (Some whole) -> Some whole
            | Ok None -> acc
            | Error _ -> acc)
          None frags
      in
      match result with Some whole -> Packet.equal p whole | None -> false)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "netcore.addresses",
      [
        Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
        Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
        Alcotest.test_case "mac of domid" `Quick test_mac_of_domid;
        Alcotest.test_case "ip string roundtrip" `Quick test_ip_string_roundtrip;
        Alcotest.test_case "cluster addressing" `Quick test_ip_make;
      ]
      @ qsuite [ prop_mac_string_roundtrip; prop_ip_string_roundtrip ] );
    ( "netcore.checksum",
      [
        Alcotest.test_case "known vector" `Quick test_checksum_known_vector;
        Alcotest.test_case "verify embedded" `Quick test_checksum_verify;
        Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
      ]
      @ qsuite
          [
            prop_checksum_detects_single_bit_flips;
            prop_checksum_matches_reference;
            prop_checksum_incremental_matches_full;
            prop_checksum_add;
          ]
    );
    ( "netcore.codec",
      [
        Alcotest.test_case "udp roundtrip" `Quick test_codec_udp_roundtrip;
        Alcotest.test_case "tcp roundtrip" `Quick test_codec_tcp_roundtrip;
        Alcotest.test_case "icmp roundtrip" `Quick test_codec_icmp_roundtrip;
        Alcotest.test_case "arp roundtrip" `Quick test_codec_arp_roundtrip;
        Alcotest.test_case "xenloop ctrl roundtrip" `Quick test_codec_xenloop_roundtrip;
        Alcotest.test_case "wire length matches bytes" `Quick test_codec_wire_length_matches;
        Alcotest.test_case "rejects corruption" `Quick test_codec_rejects_corruption;
        Alcotest.test_case "rejects truncation" `Quick test_codec_truncated;
        Alcotest.test_case "rejects unknown ethertype" `Quick test_codec_bad_ethertype;
        Alcotest.test_case "rejects a TCP data offset other than 5" `Quick
          test_codec_tcp_data_offset;
        Alcotest.test_case "in-place parse matches the blob parser near headers" `Quick
          test_parse_matches_blob_parser_near_headers;
        Alcotest.test_case "a pool write splits the headers across chunks" `Quick
          test_write_scatter_head_straddles;
      ]
      @ qsuite
          [
            prop_codec_roundtrip;
            prop_codec_tcp_roundtrip;
            prop_csum_elision_fallback;
            prop_parse_matches_blob_parser;
            prop_parse_scatter_matches_parse;
            prop_restore_transport_checksum;
            prop_write_scatter_matches_serialize;
          ] );
    ( "netcore.fragment",
      [
        Alcotest.test_case "small packet untouched" `Quick
          test_fragment_small_packet_untouched;
        Alcotest.test_case "splits with correct offsets" `Quick
          test_fragment_splits_and_offsets;
        Alcotest.test_case "reassembles in order" `Quick test_fragment_reassembles_in_order;
        Alcotest.test_case "reassembles out of order" `Quick
          test_fragment_reassembles_out_of_order;
        Alcotest.test_case "incomplete stays pending" `Quick
          test_fragment_incomplete_stays_pending;
        Alcotest.test_case "interleaved datagrams" `Quick test_fragment_interleaved_datagrams;
      ]
      @ qsuite [ prop_fragment_roundtrip ] );
  ]
