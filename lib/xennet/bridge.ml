type port = {
  port_id : int;
  p_name : string;
  deliver : Netcore.Packet.t list -> unit;
}

type t = {
  engine : Sim.Engine.t;
  params : Hypervisor.Params.t;
  cpu : Sim.Resource.t;
  bridge_name : string;
  mutable port_list : port list;
  fdb : (Netcore.Mac.t, port) Hashtbl.t;  (* forwarding database *)
  mutable next_port : int;
}

let create ~engine ~params ~cpu ~name =
  {
    engine;
    params;
    cpu;
    bridge_name = name;
    port_list = [];
    fdb = Hashtbl.create 16;
    next_port = 0;
  }

let attach t ~name ~deliver =
  let port = { port_id = t.next_port; p_name = name; deliver } in
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

let port_name p = p.p_name

let learn t ~from packet =
  Hashtbl.replace t.fdb packet.Netcore.Packet.src_mac from

let inject t ~from batch =
  match batch with
  | [] -> ()
  | first :: _ ->
      Sim.Resource.use t.cpu t.params.Hypervisor.Params.bridge_forward;
      List.iter (learn t ~from) batch;
      let dst = first.Netcore.Packet.dst_mac in
      if Netcore.Mac.is_broadcast dst then
        List.iter
          (fun p -> if p.port_id <> from.port_id then p.deliver batch)
          t.port_list
      else begin
        match Hashtbl.find_opt t.fdb dst with
        | Some p when p.port_id <> from.port_id -> p.deliver batch
        | Some _ -> ()
        | None ->
            (* Unknown destination: flood. *)
            List.iter
              (fun p -> if p.port_id <> from.port_id then p.deliver batch)
              t.port_list
      end

let ports t = List.length t.port_list
let lookup t mac = Hashtbl.find_opt t.fdb mac
