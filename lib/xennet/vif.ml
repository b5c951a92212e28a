module P = Netcore.Packet
module T = Netcore.Transport
module Ec = Evtchn.Event_channel
module Params = Hypervisor.Params

let ring_slots = 256

type t = {
  machine : Hypervisor.Machine.t;
  vif_guest : Hypervisor.Domain.t;
  bridge : Bridge.t;
  dev : Netstack.Netdevice.t;
  tx_ring : P.t Ring.t;  (* guest -> dom0 *)
  rx_ring : P.t Ring.t;  (* dom0 -> guest *)
  guest_port : Ec.port;
  dom0_port : Ec.port;
  mutable bridge_port : Bridge.port option;
  mutable netback_draining : bool;
  mutable netfront_draining : bool;
  mutable attached : bool;
  mutable batches : int;
  mutable netback_packets : int;
}

let is_attached t = t.attached
let tx_batches t = t.batches
let tx_packets_through_netback t = t.netback_packets

let same_tcp_flow a b =
  match (a.P.body, b.P.body) with
  | ( P.Ipv4_body { header = ha; content = P.Full { transport = T.Tcp ta; _ } },
      P.Ipv4_body { header = hb; content = P.Full { transport = T.Tcp tb; _ } } ) ->
      Netcore.Ip.equal ha.Netcore.Ipv4.src hb.Netcore.Ipv4.src
      && Netcore.Ip.equal ha.Netcore.Ipv4.dst hb.Netcore.Ipv4.dst
      && ta.T.tcp_src_port = tb.T.tcp_src_port
      && ta.T.tcp_dst_port = tb.T.tcp_dst_port
  | _ -> false

let is_tcp p =
  match p.P.body with
  | P.Ipv4_body { content = P.Full { transport = T.Tcp _; _ }; _ } -> true
  | _ -> false

let batch_bytes batch = List.fold_left (fun acc p -> acc + P.wire_length p) 0 batch

(* Driver-domain cost of moving one batch across a netback boundary:
   fixed per-packet work plus grant-copy per page. *)
let netback_cost params batch =
  let bytes = batch_bytes batch in
  Sim.Time.span_add params.Params.netback_per_packet
    (Sim.Time.span_scale (Params.pages_of_bytes bytes) params.Params.netback_per_page)

let dom0_of t = Hypervisor.Machine.dom0 t.machine

(* --- tx direction: netback worker drains the guest's tx ring --- *)

let collect_batch t first =
  let params = Hypervisor.Machine.params t.machine in
  if not (is_tcp first) then [ first ]
  else begin
    let rec grow acc bytes =
      match Ring.peek t.tx_ring with
      | Some next
        when same_tcp_flow first next
             && bytes + P.wire_length next <= params.Params.tso_max_frame -> (
          match Ring.try_pop t.tx_ring with
          | Some popped -> grow (popped :: acc) (bytes + P.wire_length popped)
          | None -> acc
        )
      | Some _ | None -> acc
    in
    List.rev (grow [ first ] (P.wire_length first))
  end

let netback_drain t =
  let params = Hypervisor.Machine.params t.machine in
  let dom0 = dom0_of t in
  (* Wake-up penalty: scheduling the driver domain after the event. *)
  Sim.Engine.sleep params.Params.dom0_wakeup;
  let rec loop () =
    match Ring.try_pop t.tx_ring with
    | None -> t.netback_draining <- false
    | Some first ->
        let batch = collect_batch t first in
        t.batches <- t.batches + 1;
        t.netback_packets <- t.netback_packets + List.length batch;
        Memory.Cost_meter.record
          (Hypervisor.Domain.meter dom0)
          (Memory.Cost_meter.Page_copy (batch_bytes batch));
        Sim.Resource.use (Hypervisor.Domain.cpu dom0) (netback_cost params batch);
        (match t.bridge_port with
        | Some port when t.attached -> Bridge.inject t.bridge ~from:port batch
        | Some _ | None -> ());
        loop ()
  in
  loop ()

(* --- rx direction: netfront drains the guest's rx ring --- *)

let netfront_drain t =
  let params = Hypervisor.Machine.params t.machine in
  let rec loop () =
    match Ring.try_pop t.rx_ring with
    | None -> t.netfront_draining <- false
    | Some packet ->
        Sim.Resource.use (Hypervisor.Domain.cpu t.vif_guest) params.Params.netfront_rx;
        Netstack.Netdevice.receive t.dev packet;
        loop ()
  in
  loop ()

(* --- bridge side: frames destined to this guest --- *)

let deliver_batch t batch =
  if t.attached then begin
    let params = Hypervisor.Machine.params t.machine in
    let dom0 = dom0_of t in
    Memory.Cost_meter.record
      (Hypervisor.Domain.meter dom0)
      (Memory.Cost_meter.Page_copy (batch_bytes batch));
    Sim.Resource.use (Hypervisor.Domain.cpu dom0) (netback_cost params batch);
    List.iter (fun packet -> Ring.push t.rx_ring packet) batch;
    ignore
      (Ec.notify
         (Hypervisor.Machine.evtchn t.machine)
         ~dom:0 ~port:t.dom0_port
         ~meter:(Hypervisor.Domain.meter dom0))
  end

(* --- guest transmit entry point --- *)

let guest_xmit t packet =
  if t.attached then begin
    let params = Hypervisor.Machine.params t.machine in
    let cpu = Hypervisor.Domain.cpu t.vif_guest in
    Sim.Resource.use cpu params.Params.netfront_tx;
    Ring.push t.tx_ring packet;
    (* Notify netback; the hypercall costs guest CPU and is metered. *)
    Sim.Resource.use cpu params.Params.hypercall;
    ignore
      (Ec.notify
         (Hypervisor.Machine.evtchn t.machine)
         ~dom:(Hypervisor.Domain.domid t.vif_guest)
         ~port:t.guest_port
         ~meter:(Hypervisor.Domain.meter t.vif_guest))
  end

let create ~machine ~guest ~bridge ~stack () =
  let params = Hypervisor.Machine.params machine in
  let domid = Hypervisor.Domain.domid guest in
  let dev =
    Netstack.Netdevice.create
      ~name:(Printf.sprintf "vif%d.0" domid)
      ~mtu:params.Params.nic_mtu ?gso_size:params.Params.vif_gso_size
      ~mac:(Hypervisor.Domain.mac guest)
      ()
  in
  let ec = Hypervisor.Machine.evtchn machine in
  let guest_port = Ec.alloc_unbound ec ~dom:domid ~remote:0 in
  let dom0_port =
    match Ec.bind_interdomain ec ~dom:0 ~remote:domid ~remote_port:guest_port with
    | Ok p -> p
    | Error e -> invalid_arg (Format.asprintf "Vif.create: %a" Ec.pp_error e)
  in
  let t =
    {
      machine;
      vif_guest = guest;
      bridge;
      dev;
      tx_ring = Ring.create ~capacity:ring_slots;
      rx_ring = Ring.create ~capacity:ring_slots;
      guest_port;
      dom0_port;
      bridge_port = None;
      netback_draining = false;
      netfront_draining = false;
      attached = true;
      batches = 0;
      netback_packets = 0;
    }
  in
  (* Dom0 side: tx-ring events start the netback worker. *)
  Ec.set_handler ec ~dom:0 ~port:dom0_port (fun () ->
      if not t.netback_draining then begin
        t.netback_draining <- true;
        netback_drain t
      end);
  (* Guest side: rx-ring events start the netfront worker. *)
  Ec.set_handler ec ~dom:domid ~port:guest_port (fun () ->
      if not t.netfront_draining then begin
        t.netfront_draining <- true;
        netfront_drain t
      end);
  let port =
    Bridge.attach bridge
      ~name:(Netstack.Netdevice.name dev)
      ~deliver:(fun batch -> deliver_batch t batch)
  in
  t.bridge_port <- Some port;
  Netstack.Netdevice.set_transmit dev (fun packet -> guest_xmit t packet);
  Netstack.Stack.attach_device stack dev;
  t

let detach t =
  if t.attached then begin
    t.attached <- false;
    (match t.bridge_port with
    | Some port -> Bridge.detach t.bridge port
    | None -> ());
    t.bridge_port <- None;
    Ec.close (Hypervisor.Machine.evtchn t.machine) ~dom:0 ~port:t.dom0_port
  end
