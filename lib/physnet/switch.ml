type port = {
  port_id : int;
  p_name : string;
  deliver : Netcore.Packet.t -> unit;
}

type t = {
  engine : Sim.Engine.t;
  params : Hypervisor.Params.t;
  mutable port_list : port list;
  fdb : (Netcore.Mac.t, port) Hashtbl.t;
  mutable next_port : int;
}

let create ~engine ~params =
  {
    engine;
    params;
    port_list = [];
    fdb = Hashtbl.create 16;
    next_port = 0;
  }

let attach t ~name ~deliver =
  let port = { port_id = t.next_port; p_name = name; deliver } in
  ignore port.p_name;
  t.next_port <- t.next_port + 1;
  t.port_list <- t.port_list @ [ port ];
  port

let detach t port =
  t.port_list <- List.filter (fun p -> p.port_id <> port.port_id) t.port_list;
  let stale =
    Hashtbl.fold
      (fun mac p acc -> if p.port_id = port.port_id then mac :: acc else acc)
      t.fdb []
  in
  List.iter (Hashtbl.remove t.fdb) stale

let transmit t ~from packet =
  Hashtbl.replace t.fdb packet.Netcore.Packet.src_mac from;
  Sim.Engine.sleep t.params.Hypervisor.Params.wire_latency;
  let dst = packet.Netcore.Packet.dst_mac in
  if Netcore.Mac.is_broadcast dst then
    List.iter
      (fun p -> if p.port_id <> from.port_id then p.deliver packet)
      t.port_list
  else begin
    match Hashtbl.find_opt t.fdb dst with
    | Some p when p.port_id <> from.port_id -> p.deliver packet
    | Some _ -> ()
    | None ->
        List.iter
          (fun p -> if p.port_id <> from.port_id then p.deliver packet)
          t.port_list
  end
