module Params = Hypervisor.Params
module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain

type kind = Inter_machine | Netfront_netback | Xenloop_path | Native_loopback

let kind_label = function
  | Inter_machine -> "inter-machine"
  | Netfront_netback -> "netfront/netback"
  | Xenloop_path -> "xenloop"
  | Native_loopback -> "native loopback"

let all_kinds = [ Inter_machine; Netfront_netback; Xenloop_path; Native_loopback ]

type duo = {
  engine : Sim.Engine.t;
  params : Params.t;
  client : Endpoint.t;
  server : Endpoint.t;
  server_ip : Netcore.Ip.t;
  label : string;
  warmup : unit -> unit;
  modules : Xenloop.Guest_module.t list;
  machine : Machine.t option;
  discovery : Xenloop.Discovery.t option;
}

let attach_stack_to_bridge ~params ~bridge ~stack ~name =
  let dev =
    Netstack.Netdevice.create ~name ~mtu:params.Params.nic_mtu
      ~mac:(Netstack.Stack.mac_addr stack) ()
  in
  Netstack.Stack.attach_device stack dev;
  let port =
    Xennet.Bridge.attach bridge ~name ~deliver:(fun batch ->
        List.iter (Netstack.Netdevice.receive dev) batch)
  in
  Netstack.Netdevice.set_transmit dev (fun packet ->
      Xennet.Bridge.inject bridge ~from:port [ packet ])

let ping_until_replied endpoint ~dst =
  (* ARP plus any path setup; a couple of tries is plenty. *)
  let rec go n =
    if n > 0 then begin
      match Netstack.Stack.ping endpoint.Endpoint.stack ~dst ~payload_len:8 () with
      | Some _ -> ()
      | None -> go (n - 1)
    end
  in
  go 5

(* --- Scenario 1: two native machines across the switch --- *)

let build_inter_machine ~params =
  let engine = Sim.Engine.create () in
  let switch = Physnet.Switch.create ~engine ~params in
  let make_host i name =
    let cpu = Sim.Resource.create ~name:(name ^ ".cpu") in
    let mac = Netcore.Mac.of_domid ~machine:i ~domid:0 in
    let ip = Netcore.Ip.make ~subnet:1 ~host:i in
    let ep = Endpoint.make ~engine ~params ~cpu ~name ~ip ~mac in
    let dev =
      Netstack.Netdevice.create ~name:"eth0" ~mtu:params.Params.nic_mtu
        ~gso_size:16384 ~mac ()
    in
    Netstack.Stack.attach_device ep.Endpoint.stack dev;
    let nic = Physnet.Nic.create ~engine ~params ~cpu ~switch ~mac ~name:(name ^ ".nic") in
    Physnet.Nic.attach_to_device nic dev;
    ep
  in
  let client = make_host 1 "host1" in
  let server = make_host 2 "host2" in
  {
    engine;
    params;
    client;
    server;
    server_ip = Endpoint.ip server;
    label = kind_label Inter_machine;
    warmup = (fun () -> ping_until_replied client ~dst:(Endpoint.ip server));
    modules = [];
    machine = None;
    discovery = None;
  }

(* --- Scenarios 2 and 3: two guests on one Xen machine --- *)

let build_xen_machine ~params ~with_xenloop ~fifo_k ~client_queues ~server_queues
    ~client_rung ~server_rung ~cpu_model =
  let engine = Sim.Engine.create () in
  let machine = Machine.create ~engine ~params ~id:0 ?cpu_model () in
  let dom0 = Machine.dom0 machine in
  let bridge =
    Xennet.Bridge.create ~engine ~params ~cpu:(Domain.cpu dom0) ~name:"xenbr0"
  in
  let dom0_ep =
    Endpoint.make ~engine ~params ~cpu:(Domain.cpu dom0) ~name:"dom0"
      ~ip:(Domain.ip dom0) ~mac:(Domain.mac dom0)
  in
  attach_stack_to_bridge ~params ~bridge ~stack:dom0_ep.Endpoint.stack ~name:"dom0-vif";
  let make_guest i rung =
    let name = Printf.sprintf "guest%d" i in
    let domain = Machine.create_domain machine ~name ~ip:(Netcore.Ip.make ~subnet:2 ~host:i) in
    (* A module advertises its own stack's rung. *)
    let params =
      match rung with
      | Some r -> { params with Params.xenloop_rung = r }
      | None -> params
    in
    let ep =
      Endpoint.make ~engine ~params ~cpu:(Domain.cpu domain) ~name
        ~ip:(Domain.ip domain) ~mac:(Domain.mac domain)
    in
    let _vif =
      Xennet.Vif.create ~machine ~guest:domain ~bridge ~stack:ep.Endpoint.stack ()
    in
    (domain, ep)
  in
  let _d1, client = make_guest 1 client_rung in
  let _d2, server = make_guest 2 server_rung in
  let modules, discovery =
    if with_xenloop then begin
      let m1 =
        Xenloop.Guest_module.create ~domain:_d1 ~stack:client.Endpoint.stack
          ~current_machine:(fun () -> machine)
          ?fifo_k ?max_queues:client_queues ()
      in
      let m2 =
        Xenloop.Guest_module.create ~domain:_d2 ~stack:server.Endpoint.stack
          ~current_machine:(fun () -> machine)
          ?fifo_k ?max_queues:server_queues ()
      in
      let discovery =
        Xenloop.Discovery.start ~machine ~dom0_stack:dom0_ep.Endpoint.stack ()
      in
      ([ m1; m2 ], Some discovery)
    end
    else ([], None)
  in
  let warmup () =
    (match discovery with
    | Some d -> Xenloop.Discovery.scan_now d
    | None -> ());
    Sim.Engine.sleep (Sim.Time.ms 1);
    (* First traffic rides netfront and, under XenLoop, triggers channel
       bootstrap; wait for the handshake, then confirm the fast path. *)
    ping_until_replied client ~dst:(Endpoint.ip server);
    Sim.Engine.sleep (Sim.Time.ms 5);
    ping_until_replied client ~dst:(Endpoint.ip server);
    Sim.Engine.sleep (Sim.Time.ms 1)
  in
  let kind = if with_xenloop then Xenloop_path else Netfront_netback in
  {
    engine;
    params;
    client;
    server;
    server_ip = Endpoint.ip server;
    label = kind_label kind;
    warmup;
    modules;
    machine = Some machine;
    discovery;
  }

(* --- Scenario 4: native loopback --- *)

let build_native_loopback ~params =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Resource.create ~name:"host.cpu" in
  let mac = Netcore.Mac.of_domid ~machine:7 ~domid:0 in
  let ip = Netcore.Ip.make ~subnet:3 ~host:1 in
  let ep = Endpoint.make ~engine ~params ~cpu ~name:"host" ~ip ~mac in
  {
    engine;
    params;
    client = ep;
    server = ep;
    server_ip = ip;
    label = kind_label Native_loopback;
    warmup = (fun () -> ping_until_replied ep ~dst:ip);
    modules = [];
    machine = None;
    discovery = None;
  }

(* --- N-guest XenLoop cluster --- *)

type cluster = {
  c_engine : Sim.Engine.t;
  c_params : Params.t;
  c_machine : Machine.t;
  guests : (Domain.t * Endpoint.t * Xenloop.Guest_module.t) list;
  c_discovery : Xenloop.Discovery.t;
  c_warmup : unit -> unit;
}

let build_cluster ?(params = Params.default) ?fifo_k ?queues ?cpu_model ~guests:n () =
  if n < 2 then invalid_arg "Setup.build_cluster: need at least two guests";
  let engine = Sim.Engine.create () in
  let machine = Machine.create ~engine ~params ~id:0 ?cpu_model () in
  let dom0 = Machine.dom0 machine in
  let bridge =
    Xennet.Bridge.create ~engine ~params ~cpu:(Domain.cpu dom0) ~name:"xenbr0"
  in
  let dom0_ep =
    Endpoint.make ~engine ~params ~cpu:(Domain.cpu dom0) ~name:"dom0"
      ~ip:(Domain.ip dom0) ~mac:(Domain.mac dom0)
  in
  attach_stack_to_bridge ~params ~bridge ~stack:dom0_ep.Endpoint.stack ~name:"dom0-vif";
  let guests =
    List.init n (fun i ->
        let i = i + 1 in
        let name = Printf.sprintf "guest%d" i in
        let domain =
          Machine.create_domain machine ~name ~ip:(Netcore.Ip.make ~subnet:2 ~host:i)
        in
        let ep =
          Endpoint.make ~engine ~params ~cpu:(Domain.cpu domain) ~name
            ~ip:(Domain.ip domain) ~mac:(Domain.mac domain)
        in
        let _vif =
          Xennet.Vif.create ~machine ~guest:domain ~bridge ~stack:ep.Endpoint.stack ()
        in
        let xl =
          Xenloop.Guest_module.create ~domain ~stack:ep.Endpoint.stack
            ~current_machine:(fun () -> machine)
            ?fifo_k ?max_queues:queues ()
        in
        (domain, ep, xl))
  in
  let discovery =
    Xenloop.Discovery.start ~machine ~dom0_stack:dom0_ep.Endpoint.stack ()
  in
  let c_warmup () =
    Xenloop.Discovery.scan_now discovery;
    Sim.Engine.sleep (Sim.Time.ms 1);
    (* All-pairs traffic: each ping triggers one channel bootstrap. *)
    List.iteri
      (fun i (_, ep_i, _) ->
        List.iteri
          (fun j (_, ep_j, _) ->
            if i < j then
              ignore
                (Netstack.Stack.ping ep_i.Endpoint.stack
                   ~dst:(Netstack.Stack.ip_addr ep_j.Endpoint.stack)
                   ()))
          guests)
      guests;
    Sim.Engine.sleep (Sim.Time.ms 10)
  in
  { c_engine = engine; c_params = params; c_machine = machine; guests;
    c_discovery = discovery; c_warmup }

let build ?(params = Params.default) ?fifo_k ?client_queues ?server_queues
    ?client_rung ?server_rung ?cpu_model kind =
  match kind with
  | Inter_machine -> build_inter_machine ~params
  | Netfront_netback ->
      build_xen_machine ~params ~with_xenloop:false ~fifo_k:None ~client_queues:None
        ~server_queues:None ~client_rung:None ~server_rung:None
        ~cpu_model
  | Xenloop_path ->
      build_xen_machine ~params ~with_xenloop:true ~fifo_k ~client_queues
        ~server_queues ~client_rung ~server_rung ~cpu_model
  | Native_loopback -> build_native_loopback ~params
