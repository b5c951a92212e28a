(* Deterministic flow-hash steering for multi-queue channels.

   The hash must be a pure function of the flow identity so every packet
   of a flow lands on the same queue (in-order delivery per flow), and it
   must keep unrelated flows apart so a bulk stream saturating one queue
   cannot head-of-line-block a latency-sensitive flow on another.

   TCP hashes on the 5-tuple: the stack segments to MSS (TSO frames
   bypass IP fragmentation), so every packet of a connection carries its
   ports and the whole connection stays on one queue.

   UDP hashes on the 3-tuple (proto, src IP, dst IP) only — the Linux RSS
   default, and for the same reason: a large datagram IP-fragments, and
   fragments past the first carry no ports.  Hashing unfragmented
   datagrams by port while their oversized siblings fall back to the
   3-tuple would split one socket's traffic across queues and reorder it.
   Any actual fragment likewise hashes on the 3-tuple.  Non-TCP/UDP
   traffic falls back to the destination MAC. *)

type flow_key =
  | Ip_flow of { proto : int; src : int32; dst : int32; sport : int; dport : int }
  | Mac_flow of int64

let ip_flow ~proto ~src ~dst ~sport ~dport =
  Ip_flow
    { proto; src = Netcore.Ip.to_int32 src; dst = Netcore.Ip.to_int32 dst; sport; dport }

let flow_key (packet : Netcore.Packet.t) =
  match packet.Netcore.Packet.body with
  | Netcore.Packet.Ipv4_body { header; content } -> (
      let proto = Netcore.Ipv4.protocol_number header.Netcore.Ipv4.protocol in
      let three_tuple =
        ip_flow ~proto ~src:header.Netcore.Ipv4.src ~dst:header.Netcore.Ipv4.dst
          ~sport:0 ~dport:0
      in
      match content with
      | Netcore.Packet.Fragment _ -> three_tuple
      | Netcore.Packet.Full { transport; _ } -> (
          match transport with
          | Netcore.Transport.Udp _ -> three_tuple
          | Netcore.Transport.Tcp _ when not (Netcore.Ipv4.is_fragment header) -> (
              match
                ( Netcore.Transport.src_port transport,
                  Netcore.Transport.dst_port transport )
              with
              | Some sport, Some dport ->
                  ip_flow ~proto ~src:header.Netcore.Ipv4.src
                    ~dst:header.Netcore.Ipv4.dst ~sport ~dport
              | _ -> three_tuple)
          | Netcore.Transport.Tcp _ -> three_tuple
          | Netcore.Transport.Icmp _ ->
              Mac_flow (Netcore.Mac.to_int64 packet.Netcore.Packet.dst_mac)))
  | Netcore.Packet.Arp_body _ | Netcore.Packet.Xenloop_body _ ->
      Mac_flow (Netcore.Mac.to_int64 packet.Netcore.Packet.dst_mac)

(* The QoS flow identity is finer than the steering identity: steering
   zeroes UDP ports so a socket's fragmented and unfragmented datagrams
   stay on one queue, but fairness accounting wants one flow per UDP
   socket pair.  Unfragmented datagrams (ports visible on every packet)
   therefore keep their ports here; fragments and fragmented-datagram
   heads still collapse to the 3-tuple.  TCP and everything else match
   [flow_key] exactly. *)
let qos_flow_key (packet : Netcore.Packet.t) =
  match packet.Netcore.Packet.body with
  | Netcore.Packet.Ipv4_body { header; content } -> (
      match content with
      | Netcore.Packet.Full { transport = Netcore.Transport.Udp _ as transport; _ }
        when not (Netcore.Ipv4.is_fragment header) -> (
          let proto = Netcore.Ipv4.protocol_number header.Netcore.Ipv4.protocol in
          match
            ( Netcore.Transport.src_port transport,
              Netcore.Transport.dst_port transport )
          with
          | Some sport, Some dport ->
              ip_flow ~proto ~src:header.Netcore.Ipv4.src
                ~dst:header.Netcore.Ipv4.dst ~sport ~dport
          | _ -> flow_key packet)
      | _ -> flow_key packet)
  | _ -> flow_key packet

let describe_key = function
  | Ip_flow { proto; src; dst; sport; dport } ->
      let ip v =
        let v = Int32.to_int v land 0xFFFFFFFF in
        Printf.sprintf "%d.%d.%d.%d" ((v lsr 24) land 0xFF) ((v lsr 16) land 0xFF)
          ((v lsr 8) land 0xFF) (v land 0xFF)
      in
      let proto_name =
        match proto with 6 -> "tcp" | 17 -> "udp" | 1 -> "icmp" | p -> string_of_int p
      in
      Printf.sprintf "%s:%s:%d>%s:%d" proto_name (ip src) sport (ip dst) dport
  | Mac_flow mac -> Printf.sprintf "mac:%Lx" mac

(* FNV-1a over the key's words: cheap, stateless, and well-mixed in the
   low bits (which is all [queue_index] keeps). *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let mix h v = Int64.mul (Int64.logxor h (Int64.of_int (v land 0xFFFF))) fnv_prime

let mix32 h v =
  let v = Int32.to_int v land 0xFFFFFFFF in
  mix (mix h (v land 0xFFFF)) (v lsr 16)

let hash key =
  let h =
    match key with
    | Ip_flow { proto; src; dst; sport; dport } ->
        mix (mix (mix32 (mix32 (mix fnv_offset proto) src) dst) sport) dport
    | Mac_flow mac ->
        let lo = Int64.to_int (Int64.logand mac 0xFFFFFFL) in
        let hi = Int64.to_int (Int64.shift_right_logical mac 24) in
        mix (mix fnv_offset lo) hi
  in
  Int64.to_int (Int64.logand h 0x3FFFFFFFL)

let queue_index key ~queues =
  if queues <= 1 then 0 else hash key mod queues

(* The flow cache's table: a field-by-field equality, and the steering
   hash above; a generic [Hashtbl] would walk the key through the
   runtime's polymorphic compare and hash on every packet. *)
module Flow_table = Hashtbl.Make (struct
  type t = flow_key

  let equal a b =
    match (a, b) with
    | Ip_flow a, Ip_flow b ->
        a.sport = b.sport && a.dport = b.dport && Int32.equal a.src b.src
        && Int32.equal a.dst b.dst && a.proto = b.proto
    | Mac_flow a, Mac_flow b -> Int64.equal a b
    | Ip_flow _, Mac_flow _ | Mac_flow _, Ip_flow _ -> false

  let hash = hash
end)
