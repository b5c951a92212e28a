let max_fragment_payload ~mtu = (mtu - Ipv4.header_length) / 8 * 8

let fragment ~mtu packet =
  match packet.Packet.body with
  | Packet.Arp_body _ | Packet.Xenloop_body _ -> [ packet ]
  | Packet.Ipv4_body { header; content } ->
      (* The fits-in-one-MTU test needs only the serialized length; the
         common unfragmented case must not serialize (and checksum) a blob
         it would throw away. *)
      let content_length =
        match content with
        | Packet.Full { transport; payload } ->
            Codec.transport_length transport ~payload
        | Packet.Fragment blob -> blob.View.len
      in
      if Ipv4.header_length + content_length <= mtu then [ packet ]
      else begin
        (* Every fragment is a view of the one serialized blob. *)
        let blob =
          match content with
          | Packet.Full { transport; payload } ->
              View.of_bytes (Codec.serialize_transport transport ~payload)
          | Packet.Fragment blob -> blob
        in
        let chunk = max_fragment_payload ~mtu in
        if chunk <= 0 then invalid_arg "Fragment.fragment: mtu too small";
        let total = blob.View.len in
        let rec slice off acc =
          if off >= total then List.rev acc
          else begin
            let len = min chunk (total - off) in
            let more = off + len < total in
            let fragment_header =
              { header with Ipv4.frag_offset = off; more_fragments = more }
            in
            let piece =
              {
                packet with
                Packet.body =
                  Packet.Ipv4_body
                    {
                      header = fragment_header;
                      content = Packet.Fragment (View.sub blob ~off ~len);
                    };
              }
            in
            slice (off + len) (piece :: acc)
          end
        in
        slice 0 []
      end

type key = { k_src : Ip.t; k_dst : Ip.t; k_proto : Ipv4.protocol; k_ident : int }

type datagram = {
  mutable chunks : (int * View.t) list;  (** (offset, blob) *)
  mutable total : int option;  (** known once the last fragment arrives *)
  mutable frame : Packet.t;  (** source of MAC addresses for the rebuild *)
}

type reassembler = (key, datagram) Hashtbl.t

let create_reassembler () : reassembler = Hashtbl.create 16

let coverage_complete chunks total =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) chunks in
  let rec walk expected = function
    | [] -> expected = total
    | (off, blob) :: rest ->
        off = expected && walk (off + blob.View.len) rest
  in
  walk 0 sorted

let assemble chunks total =
  let blob = Bytes.create total in
  List.iter
    (fun (off, piece) -> View.blit piece ~src_off:0 blob ~dst_off:off ~len:piece.View.len)
    chunks;
  blob

let push reasm packet =
  match packet.Packet.body with
  | Packet.Arp_body _ | Packet.Xenloop_body _ -> Ok (Some packet)
  | Packet.Ipv4_body { header; content } -> (
      match content with
      | Packet.Full _ -> Ok (Some packet)
      | Packet.Fragment blob ->
          let key =
            {
              k_src = header.Ipv4.src;
              k_dst = header.Ipv4.dst;
              k_proto = header.Ipv4.protocol;
              k_ident = header.Ipv4.ident;
            }
          in
          let datagram =
            match Hashtbl.find_opt reasm key with
            | Some d -> d
            | None ->
                let d = { chunks = []; total = None; frame = packet } in
                Hashtbl.replace reasm key d;
                d
          in
          let off = header.Ipv4.frag_offset in
          if not (List.mem_assoc off datagram.chunks) then
            datagram.chunks <- (off, blob) :: datagram.chunks;
          if not header.Ipv4.more_fragments then
            datagram.total <- Some (off + blob.View.len);
          (match datagram.total with
          | Some total when coverage_complete datagram.chunks total -> (
              Hashtbl.remove reasm key;
              let whole = assemble datagram.chunks total in
              match Codec.parse_transport header.Ipv4.protocol whole with
              | Error e -> Error e
              | Ok (transport, payload) ->
                  let rebuilt_header =
                    { header with Ipv4.frag_offset = 0; more_fragments = false }
                  in
                  Ok
                    (Some
                       {
                         datagram.frame with
                         Packet.body =
                           Packet.Ipv4_body
                             {
                               header = rebuilt_header;
                               content = Packet.Full { transport; payload };
                             };
                       }))
          | Some _ | None -> Ok None))

let pending_datagrams reasm = Hashtbl.length reasm
