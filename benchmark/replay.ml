(* Host-time replays of single layers' public functions over the
   workload's own inputs: the frames its rpc and bulk traffic put on the
   wire, and its own schedule of due times.  Each replay first checks
   that the calls do what they should, so a timing never measures a
   broken call. *)

module P = Netcore.Packet
module Fifo = Xenloop.Fifo
module Pool = Xenloop.Payload_pool
module Drr = Qos.Drr
module Wheel = Sim.Wheel

exception Check_failed of string

let check cond what = if not cond then raise (Check_failed what)

(* The frames to replay: at most [max_frames], taken from the first rpc
   requests and responses and the first bulk writes cut at the path's
   TCP segment limit [seg].  Only sizes and addresses come from the run. *)
let max_frames = 256

let frames (w : World.t) (rpc : Inputs.rpc) (bulk : Inputs.bulk) =
  let client = w.World.guests.(0).Scenarios.Endpoint.stack
  and server = w.World.guests.(1).Scenarios.Endpoint.stack in
  let module S = Netstack.Stack in
  let cmac = S.mac_addr client and smac = S.mac_addr server in
  let cip = S.ip_addr client and sip = S.ip_addr server in
  let udp ~req len i =
    let payload = Bytes.make len (Traffic.fill i) in
    if req then
      P.udp ~src_mac:cmac ~dst_mac:smac ~src_ip:cip ~dst_ip:sip ~src_port:40000
        ~dst_port:Traffic.rpc_port payload
    else
      P.udp ~src_mac:smac ~dst_mac:cmac ~src_ip:sip ~dst_ip:cip
        ~src_port:Traffic.rpc_port ~dst_port:40000 payload
  in
  let seg =
    max (S.tcp_mss client sip) (min (S.tx_jumbo_hint client ~dst:sip) (65535 - 40))
  in
  let tcp len i =
    P.tcp ~src_mac:cmac ~dst_mac:smac ~src_ip:cip ~dst_ip:sip
      ~header:
        {
          Netcore.Transport.tcp_src_port = 40001;
          tcp_dst_port = Traffic.bulk_port;
          seq = Int32.of_int (i * 1000);
          ack_seq = 1l;
          flags = { Netcore.Transport.no_flags with ack = true };
          window = 65535;
        }
      (Bytes.make len (Traffic.fill i))
  in
  let has_rpc = Array.length rpc.Inputs.due > 0 in
  let has_bulk = Array.length bulk.Inputs.wlen > 0 in
  let quota = if has_rpc && has_bulk then max_frames / 2 else max_frames in
  let rpc_frames =
    List.concat
      (List.init
         (min (quota / 2) (Array.length rpc.Inputs.due))
         (fun i -> [ udp ~req:true Inputs.request_len i; udp ~req:false rpc.Inputs.len.(i) i ]))
  in
  let bulk_frames =
    let out = ref [] and count = ref 0 in
    Array.iteri
      (fun i len ->
        let left = ref len in
        while !left > 0 && !count < quota do
          let l = min !left seg in
          out := tcp l i :: !out;
          incr count;
          left := !left - l
        done)
      bulk.Inputs.wlen;
    List.rev !out
  in
  Array.of_list (rpc_frames @ bulk_frames)

(* Median over [batches] timed runs of [f], in ns per operation; each
   batch is one host span in the traced run. *)
let time ?tr name ~ops ~batches f =
  let per_op =
    Array.init batches (fun _ ->
        let start = Unix.gettimeofday () in
        f ();
        (match tr with
        | Some t -> Spans.record_host t name ~start ~events:(-1)
        | None -> ());
        (Unix.gettimeofday () -. start) *. 1e9 /. float_of_int ops)
  in
  Quantile.median per_op

let batches = 7

(* --- netcore: codec and checksum --- *)

let transport_off = P.ethernet_header_length + Netcore.Ipv4.header_length

let netcore ?tr ~reps frames =
  let wires = Array.map (fun p -> Netcore.Codec.serialize p) frames in
  Array.iteri
    (fun i p ->
      let b = wires.(i) in
      (match Netcore.Codec.parse b with
      | Ok q -> check (P.equal p q) "Codec.parse (serialize p) <> p"
      | Error _ -> check false "Codec.parse rejected a serialized frame");
      check
        (Netcore.Checksum.verify b ~off:transport_off ~len:(Bytes.length b - transport_off))
        "Checksum.verify rejected a serialized frame")
    frames;
  let n = Array.length frames * reps in
  let serialize_ns =
    time ?tr "replay.serialize" ~ops:n ~batches (fun () ->
        for _ = 1 to reps do
          Array.iter (fun p -> ignore (Sys.opaque_identity (Netcore.Codec.serialize p))) frames
        done)
  in
  let parse_ns =
    time ?tr "replay.parse" ~ops:n ~batches (fun () ->
        for _ = 1 to reps do
          Array.iter (fun b -> ignore (Sys.opaque_identity (Netcore.Codec.parse b))) wires
        done)
  in
  let kib =
    Array.fold_left (fun acc b -> acc + Bytes.length b - transport_off) 0 wires * reps / 1024
  in
  let checksum_ns_per_kib =
    time ?tr "replay.checksum" ~ops:(max 1 kib) ~batches (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun b ->
              ignore
                (Sys.opaque_identity
                   (Netcore.Checksum.compute b ~off:transport_off
                      ~len:(Bytes.length b - transport_off))))
            wires
        done)
  in
  (serialize_ns, parse_ns, checksum_ns_per_kib)

(* --- sim: the engine's timer wheel, fed the workload's own times --- *)

(* Events are inserted at the workload's due times (ascending) while the
   queue holds [depth] pending ones, as in the engine's steady state;
   each insert past that depth pops the earliest.  Successive rounds
   shift the times forward so the wheel's clock only moves on. *)
let wheel_depth = 64

let wheel ?tr ~reps times =
  let n = Array.length times in
  let w = Wheel.create ~dummy:0 in
  let free = Stack.create () in
  for i = 0 to wheel_depth do
    Stack.push (Wheel.make_cell w i) free
  done;
  let base = ref 0 and seq = ref 0 in
  let round () =
    let popped = ref 0 and last = ref min_int in
    let pop () =
      let c = Wheel.pop w in
      check (c != Wheel.nil w) "Wheel.pop lost a cell";
      check (c.Wheel.c_time >= !last) "Wheel.pop out of time order";
      last := c.Wheel.c_time;
      incr popped;
      Stack.push c free
    in
    Array.iter
      (fun t ->
        if Wheel.length w >= wheel_depth then pop ();
        let c = Stack.pop free in
        c.Wheel.c_time <- !base + t;
        c.Wheel.c_seq <- !seq;
        incr seq;
        Wheel.insert w c)
      times;
    while not (Wheel.is_empty w) do
      pop ()
    done;
    base := !base + times.(n - 1) + 1;
    !popped
  in
  check (round () = n) "Wheel.pop returned a different number of cells";
  time ?tr "replay.wheel" ~ops:(n * reps) ~batches (fun () ->
      for _ = 1 to reps do
        ignore (round ())
      done)

(* --- xenloop: FIFO, steering, payload pool --- *)

let default_params = Hypervisor.Params.default

let make_pool () =
  let p = default_params in
  let slots = p.Hypervisor.Params.xenloop_pool_slots
  and slot_pages = p.Hypervisor.Params.xenloop_pool_slot_pages in
  let ctrl = Memory.Page.create () in
  let data = Array.init (slots * slot_pages) (fun _ -> Memory.Page.create ()) in
  Pool.init ~ctrl ~data ~slots ~slot_pages
    ~inline_max:p.Hypervisor.Params.xenloop_inline_max ()

(* The frames' bytes, cut to what one FIFO entry can carry — a jumbo
   frame crosses as several pool slots. *)
let entries pool fifo wires =
  let cap = min (Pool.slot_bytes pool) (Fifo.max_packet fifo) in
  Array.concat
    (Array.to_list
       (Array.map
          (fun b ->
            let n = Bytes.length b in
            Array.init ((n + cap - 1) / cap) (fun k ->
                Bytes.sub b (k * cap) (min cap (n - (k * cap)))))
          wires))

let fifo ?tr ~reps frames =
  let k = Fifo.default_k in
  let desc = Memory.Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Memory.Page.create ()) in
  Fifo.init ~desc ~data ~k;
  let f = Fifo.attach ~desc ~data in
  let pool = make_pool () in
  let inline_max = default_params.Hypervisor.Params.xenloop_inline_max in
  let items = entries pool f (Array.map (fun p -> Netcore.Codec.serialize p) frames) in
  let pop_one () =
    match Fifo.pop_entry f with
    | Some (Fifo.Inline b) -> b
    | Some (Fifo.Desc d) ->
        let b = Pool.read pool ~slot:d.d_slot ~off:d.d_off ~len:d.d_len in
        Pool.free pool d.d_slot;
        b
    | Some (Fifo.Jumbo _) | None -> raise (Check_failed "Fifo.pop_entry: no entry")
  in
  (* Push in order until the FIFO or the pool is full, then pop everything
     back; [on_pop i b] sees entry [i]'s bytes. *)
  let round on_pop =
    let next = ref 0 and n = Array.length items in
    while !next < n do
      let start = !next in
      while
        !next < n
        && Fifo.push_entry f ~pool:(Some pool) ~inline_max ~proto_hint:0x0800 items.(!next)
           <> Fifo.push_failed
      do
        incr next
      done;
      check (!next > start) "Fifo.push_entry refused an empty FIFO";
      for i = start to !next - 1 do
        on_pop i (pop_one ())
      done
    done
  in
  round (fun i b -> check (Bytes.equal b items.(i)) "Fifo pop differs from push");
  let push_pop_ns =
    time ?tr "replay.fifo" ~ops:(Array.length items * reps) ~batches (fun () ->
        for _ = 1 to reps do
          round (fun _ b -> ignore (Sys.opaque_identity b))
        done)
  in
  let kib = Array.fold_left (fun acc b -> acc + Bytes.length b) 0 items * reps / 1024 in
  let copy_round on_read =
    Array.iter
      (fun b ->
        let slot = Pool.alloc_slot pool in
        Pool.write pool ~slot ~src:b ~len:(Bytes.length b);
        on_read b (Pool.read pool ~slot ~off:0 ~len:(Bytes.length b));
        Pool.free pool slot)
      items
  in
  copy_round (fun b r -> check (Bytes.equal b r) "Payload_pool.read differs from write");
  let copy_ns_per_kib =
    time ?tr "replay.pool_copy" ~ops:(max 1 kib) ~batches (fun () ->
        for _ = 1 to reps do
          copy_round (fun _ r -> ignore (Sys.opaque_identity r))
        done)
  in
  (push_pop_ns, copy_ns_per_kib)

let steering ?tr ~reps frames =
  let queues = default_params.Hypervisor.Params.xenloop_queues in
  let q p = Xenloop.Steering.queue_index (Xenloop.Steering.flow_key p) ~queues in
  Array.iter
    (fun p ->
      let a = q p in
      check (a >= 0 && a < queues && a = q p) "Steering is not a stable queue index")
    frames;
  time ?tr "replay.steer" ~ops:(Array.length frames * reps) ~batches (fun () ->
      for _ = 1 to reps do
        Array.iter (fun p -> ignore (Sys.opaque_identity (q p))) frames
      done)

(* --- qos: weighted DRR with one flow and with eight --- *)

let drr ?tr ~reps frames ~flows =
  let p = default_params in
  let n = Array.length frames in
  let lens = Array.map P.wire_length frames in
  let round on_item =
    let d =
      Drr.create ~quantum:p.Hypervisor.Params.qos_quantum ~max_per_flow:n ()
    in
    Array.iteri
      (fun i len -> check (Drr.enqueue d ~key:(i mod flows) ~weight:1 ~len i) "Drr.enqueue refused")
      lens;
    let rec go () =
      match Drr.select d with
      | None -> ()
      | Some (_, items) ->
          List.iter (fun (i, _) -> on_item i) items;
          go ()
    in
    go ()
  in
  let seen = Array.make n 0 in
  round (fun i -> seen.(i) <- seen.(i) + 1);
  check (Array.for_all (( = ) 1) seen) "Drr did not return every item exactly once";
  time ?tr (Printf.sprintf "replay.drr%d" flows) ~ops:(n * reps) ~batches (fun () ->
      for _ = 1 to reps do
        round ignore
      done)
