(* Parameterized N-guest x M-host mesh (DESIGN.md §12).

   The hand-wired worlds top out at a handful of guests; the cluster-scale
   control plane needs topologies two orders of magnitude larger, built
   from one description: how many guests, spread over how many hosts.
   Guests are placed in contiguous blocks (host h gets guests
   [h*N/M .. (h+1)*N/M)), so low-stride neighbour traffic is mostly
   co-resident — the regime XenLoop channels exist for — while any
   cross-host pair exercises the standard wire path untouched.

   A single-host mesh is exactly the [Setup.build_cluster] construction
   generalized; a multi-host mesh adds the [Migration_world] plumbing:
   one switch, one uplink NIC per host bridged into its xenbr. *)

module Params = Hypervisor.Params
module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain
module Gm = Xenloop.Guest_module

type host = {
  h_index : int;
  h_machine : Machine.t;
  h_bridge : Xennet.Bridge.t;
  h_dom0 : Endpoint.t;
  h_discovery : Xenloop.Discovery.t;
}

type guest = {
  g_index : int;  (** global 0-based index across the whole mesh *)
  g_host : int;  (** index into [hosts] *)
  g_domain : Domain.t;
  g_endpoint : Endpoint.t;
  g_module : Gm.t;
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  switch : Physnet.Switch.t option;  (** [None] on a single-host mesh *)
  hosts : host array;
  guests : guest array;
}

(* Globally unique guest addresses: 10.2.x.y over the flat L2, good for
   meshes far past the 254-host ceiling of one /24. *)
let guest_ip idx =
  let n = idx + 1 in
  Netcore.Ip.of_octets 10 2 (n lsr 8) (n land 0xff)

let make_host ~engine ~params ~switch ~index =
  (* Machine ids start at 1 so dom0 MACs never collide with the
     single-machine worlds' id 0. *)
  let id = index + 1 in
  let machine = Machine.create ~engine ~params ~id () in
  let dom0 = Machine.dom0 machine in
  let bridge =
    Xennet.Bridge.create ~engine ~params ~cpu:(Domain.cpu dom0)
      ~name:(Printf.sprintf "xenbr%d" id)
  in
  let dom0_ep =
    Endpoint.make ~engine ~params ~cpu:(Domain.cpu dom0)
      ~name:(Printf.sprintf "m%d.dom0" id)
      ~ip:(Domain.ip dom0) ~mac:(Domain.mac dom0)
  in
  Setup.attach_stack_to_bridge ~params ~bridge ~stack:dom0_ep.Endpoint.stack
    ~name:"dom0-vif";
  (match switch with
  | None -> ()
  | Some switch ->
      let nic =
        Physnet.Nic.create ~engine ~params ~cpu:(Domain.cpu dom0) ~switch
          ~mac:(Netcore.Mac.of_domid ~machine:id ~domid:999)
          ~name:(Printf.sprintf "m%d.uplink" id)
      in
      let uplink_port = ref None in
      let port =
        Xennet.Bridge.attach bridge ~name:"uplink" ~deliver:(fun batch ->
            List.iter (Physnet.Nic.send nic) batch)
      in
      uplink_port := Some port;
      Physnet.Nic.set_receiver nic (fun packet ->
          match !uplink_port with
          | Some p -> Xennet.Bridge.inject bridge ~from:p [ packet ]
          | None -> ()));
  let discovery =
    Xenloop.Discovery.start ~machine ~dom0_stack:dom0_ep.Endpoint.stack ()
  in
  { h_index = index; h_machine = machine; h_bridge = bridge; h_dom0 = dom0_ep;
    h_discovery = discovery }

let host_of_guest ~guests ~hosts idx = idx * hosts / guests

let build ?(params = Params.default) ?fifo_k ~guests:n ~hosts:m () =
  if n < 2 then invalid_arg "Mesh.build: need at least two guests";
  if m < 1 then invalid_arg "Mesh.build: need at least one host";
  if m > n then invalid_arg "Mesh.build: more hosts than guests";
  let engine = Sim.Engine.create () in
  let switch =
    if m = 1 then None else Some (Physnet.Switch.create ~engine ~params)
  in
  let hosts = Array.init m (fun index -> make_host ~engine ~params ~switch ~index) in
  let guests =
    Array.init n (fun idx ->
        let hi = host_of_guest ~guests:n ~hosts:m idx in
        let host = hosts.(hi) in
        let name = Printf.sprintf "g%d" (idx + 1) in
        let domain =
          Machine.create_domain host.h_machine ~name ~ip:(guest_ip idx)
        in
        let ep =
          Endpoint.make ~engine ~params ~cpu:(Domain.cpu domain) ~name
            ~ip:(Domain.ip domain) ~mac:(Domain.mac domain)
        in
        let _vif =
          Xennet.Vif.create ~machine:host.h_machine ~guest:domain
            ~bridge:host.h_bridge ~stack:ep.Endpoint.stack ()
        in
        let g_module =
          Gm.create ~domain ~stack:ep.Endpoint.stack
            ~current_machine:(fun () -> host.h_machine)
            ?fifo_k ()
        in
        { g_index = idx; g_host = hi; g_domain = domain; g_endpoint = ep;
          g_module })
  in
  { engine; params; switch; hosts; guests }

let scan_all t =
  Array.iter (fun h -> Xenloop.Discovery.scan_now h.h_discovery) t.hosts

(* One discovery round plus settle time: every guest's mapping table holds
   its co-residents, no channels yet. *)
(* Boot-time gratuitous ARP from every guest — every stack gleans the
   sender from any ARP message, and the bridges and switch learn the
   source port — so later traffic starts with warm neighbour caches and
   forwarding databases.  Without this, each first contact floods a
   broadcast across all N vifs, and at cluster scale those O(N) floods
   drown the channel bring-up being measured. *)
let prime_arp t =
  Array.iter
    (fun g -> Netstack.Stack.gratuitous_arp g.g_endpoint.Endpoint.stack)
    t.guests

let warmup t =
  prime_arp t;
  scan_all t;
  Sim.Engine.sleep (Sim.Time.ms 1)

let co_resident t a b = t.guests.(a).g_host = t.guests.(b).g_host

let ping t ~src ~dst =
  ignore
    (Netstack.Stack.ping t.guests.(src).g_endpoint.Endpoint.stack
       ~dst:(Endpoint.ip t.guests.(dst).g_endpoint)
       ())

(* Ring-neighbour traffic: guest i talks to its next [degree] successors
   (mod N).  With block placement most of these pairs are co-resident, so
   the live channel population per guest is ~degree — the sparse traffic
   matrix the idle-LRU eviction is sized against. *)
let establish_ring t ~degree =
  let n = Array.length t.guests in
  for i = 0 to n - 1 do
    for d = 1 to degree do
      let j = (i + d) mod n in
      if i <> j && co_resident t i j then ping t ~src:i ~dst:j
    done
  done

(* All-pairs co-resident traffic: the dense worst case the channel cap is
   sized against.  Quadratic per host — keep N per host modest. *)
let establish_all_pairs t =
  let n = Array.length t.guests in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if co_resident t i j then ping t ~src:i ~dst:j
    done
  done

let live_channels t =
  Array.fold_left (fun acc g -> acc + Gm.live_channels g.g_module) 0 t.guests

let channel_pool_bytes t =
  Array.fold_left (fun acc g -> acc + Gm.channel_pool_bytes g.g_module) 0 t.guests

let grant_entries t =
  Array.fold_left (fun acc g -> acc + Gm.grant_entries g.g_module) 0 t.guests

let announce_bytes t =
  Array.fold_left
    (fun acc h -> acc + Xenloop.Discovery.announce_bytes h.h_discovery)
    0 t.hosts

let announcements_sent t =
  Array.fold_left
    (fun acc h -> acc + Xenloop.Discovery.announcements_sent h.h_discovery)
    0 t.hosts

let announcements_suppressed t =
  Array.fold_left
    (fun acc h -> acc + Xenloop.Discovery.announcements_suppressed h.h_discovery)
    0 t.hosts

let channels_established t =
  Array.fold_left
    (fun acc g -> acc + (Gm.stats g.g_module).Gm.channels_established)
    0 t.guests

let channels_evicted t =
  Array.fold_left
    (fun acc g -> acc + (Gm.stats g.g_module).Gm.channels_evicted)
    0 t.guests
