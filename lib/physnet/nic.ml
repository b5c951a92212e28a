module Params = Hypervisor.Params

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  cpu : Sim.Resource.t;
  switch : Switch.t;
  nic_mac : Netcore.Mac.t;
  wire : Sim.Resource.t;  (* egress serialization at line rate *)
  mutable port : Switch.port option;
  mutable receiver : (Netcore.Packet.t -> unit) option;
  mutable sent : int;
  mutable received : int;
  mutable rx_backlog : int;
}

let rx_backlog_limit = 300

let handle_rx t packet =
  (* Beyond the backlog bound the NIC drops (the netdev backlog bound:
     no receive livelock under small-frame floods, as in a real kernel). *)
  if t.rx_backlog < rx_backlog_limit then begin
    t.rx_backlog <- t.rx_backlog + 1;
    (* Interrupt moderation delays visibility; then the driver runs. *)
    Sim.Engine.after t.engine t.params.Params.nic_interrupt_latency (fun () ->
        Sim.Resource.use t.cpu t.params.Params.nic_rx;
        t.rx_backlog <- t.rx_backlog - 1;
        t.received <- t.received + 1;
        match t.receiver with Some f -> f packet | None -> ())
  end

let create ~engine ~params ~cpu ~switch ~mac ~name =
  let t =
    {
      engine;
      params;
      cpu;
      switch;
      nic_mac = mac;
      wire = Sim.Resource.create ~name:(name ^ ".wire");
      port = None;
      receiver = None;
      sent = 0;
      received = 0;
      rx_backlog = 0;
    }
  in
  t.port <- Some (Switch.attach switch ~name ~deliver:(fun packet -> handle_rx t packet));
  t

let send t packet =
  match t.port with
  | None -> ()
  | Some port ->
      Sim.Resource.use t.cpu t.params.Params.nic_tx;
      t.sent <- t.sent + 1;
      (* Serialize onto the wire at line rate, then hand to the switch.
         Spawned so the sender only waits for driver work, as with a real
         DMA engine. *)
      Sim.Engine.spawn t.engine (fun () ->
          Sim.Resource.use t.wire
            (Params.wire_time t.params (Netcore.Packet.wire_length packet));
          Switch.transmit t.switch ~from:port packet)

let set_receiver t f = t.receiver <- Some f

let attach_to_device t dev =
  Netstack.Netdevice.set_transmit dev (fun packet -> send t packet);
  set_receiver t (fun packet -> Netstack.Netdevice.receive dev packet)

let frames_sent t = t.sent
let frames_received t = t.received

let detach t =
  match t.port with
  | None -> ()
  | Some port ->
      Switch.detach t.switch port;
      t.port <- None
