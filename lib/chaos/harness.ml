module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain
module Params = Hypervisor.Params
module Migration = Hypervisor.Migration
module Gm = Xenloop.Guest_module
module Discovery = Xenloop.Discovery
module Ec = Evtchn.Event_channel
module Setup = Scenarios.Setup
module Mw = Scenarios.Migration_world
module Endpoint = Scenarios.Endpoint
module Experiment = Scenarios.Experiment
module Stack = Netstack.Stack
module Udp = Netstack.Udp
module Tcp = Netstack.Tcp

type scenario = Xenloop_duo | Netfront_duo | Cluster3 | Migration_world

let all_scenarios = [ Xenloop_duo; Netfront_duo; Cluster3; Migration_world ]

let scenario_label = function
  | Xenloop_duo -> "xenloop-duo"
  | Netfront_duo -> "netfront-duo"
  | Cluster3 -> "cluster3"
  | Migration_world -> "migration-world"

let scenario_of_label s =
  List.find_opt (fun sc -> scenario_label sc = s) all_scenarios

let applicable scenario kind =
  match (scenario, kind) with
  (* Forced eviction needs a channel cap and an idle TTL, which the
     defaults leave off, so the storm is armed only by the explicit
     eviction cases ([config.evictions]). *)
  | _, Fault.Evict_storm -> false
  (* The flood needs the QoS scheduler on to have fairness to attack;
     QoS is off by default, so it is armed only by the explicit QoS cases
     ([config.qos]). *)
  | _, Fault.Tenant_flood -> false
  | Netfront_duo, _ -> false
  (* The migration world's guests meet only after the migration, by which
     time the auxiliary bulk stream has been written over the wire: it
     moves no jumbo descriptor for the truncation to corrupt. *)
  | Migration_world, Fault.Jumbo_truncate -> false
  | Cluster3, Fault.Peer_crash -> true
  | _, Fault.Peer_crash -> false
  | Migration_world, Fault.Migrate_midstream -> true
  | _, Fault.Migrate_midstream -> false
  | (Xenloop_duo | Cluster3), Fault.Suspend_resume -> true
  | Migration_world, Fault.Suspend_resume -> false
  | (Xenloop_duo | Cluster3 | Migration_world), _ -> true

type config = {
  seed : int;
  scenario : scenario;
  faults : Fault.spec list;
  packets : int;
  payload : int;
  check_period : Sim.Time.span;
  evictions : bool;
      (** eviction world: tight channel cap, short idle TTL — the regime
          [Fault.Evict_storm] bites in *)
  qos : bool;
      (** QoS world: the multi-tenant scheduler on, with a deliberately
          shallow per-flow bound so [Fault.Tenant_flood] overflows *)
}

let default_config ?(seed = 1) ?(faults = []) ?(evictions = false) ?(qos = false)
    scenario =
  {
    seed;
    scenario;
    faults;
    packets = 250;
    payload = 256;
    check_period = Sim.Time.ms 1;
    evictions;
    qos;
  }

type verdict = {
  v_seed : int;
  v_scenario : string;
  v_faults : (string * int) list;
  v_total_injected : int;
  v_sent : int;
  v_delivered : int;
  v_duplicates : int;
  v_lost : int;
  v_checks : int;
  v_recovery : Sim.Time.span option;
  v_violations : string list;
  v_log_digest : string;
  v_log_length : int;
}

let ok v = v.v_violations = [] && v.v_lost = 0 && v.v_duplicates = 0

let pp_verdict fmt v =
  Format.fprintf fmt "@[<v>%s seed=%d: %s@," v.v_scenario v.v_seed
    (if ok v then "OK" else "VIOLATED");
  Format.fprintf fmt "  injected=%d sent=%d delivered=%d lost=%d dup=%d checks=%d@,"
    v.v_total_injected v.v_sent v.v_delivered v.v_lost v.v_duplicates v.v_checks;
  (match v.v_recovery with
  | Some d -> Format.fprintf fmt "  recovery=%.0fus@," (Sim.Time.to_us_f d)
  | None -> ());
  List.iter (fun (k, n) -> Format.fprintf fmt "  fault %s x%d@," k n) v.v_faults;
  List.iter (fun m -> Format.fprintf fmt "  violation: %s@," m) v.v_violations;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Worlds *)

(* The shipped configuration with compressed soft-state timescales, so
   one run exercises full discovery / TTL / cooldown cycles in tens of
   simulated milliseconds. *)
let chaos_params =
  {
    Params.default with
    Params.discovery_period = Sim.Time.ms 5;
    xenloop_softstate_ttl = Sim.Time.ms 40;
    xenloop_bootstrap_cooldown = Sim.Time.ms 100;
    migration_downtime = Sim.Time.ms 2;
  }

type world = {
  w_engine : Sim.Engine.t;
  w_label : string;
  w_machines : (string * Machine.t) list;
  w_modules : (string * Gm.t) list ref;
      (* live modules only: a crash removes the victim (its shared pages
         are reclaimed and reused, so inspecting them would be reading
         someone else's memory) *)
  w_discoveries : Discovery.t list;
  w_warmup : unit -> unit;
  w_flows : (Endpoint.t * Endpoint.t) list;  (* (sender, receiver) *)
  w_stir : unit -> unit;  (* traffic nudge that re-triggers bootstrap *)
  w_recovered : unit -> bool;
  w_expected_peers : unit -> (string * int * int) list;
      (* (module, actual mapping size, expected) at convergence time *)
  w_suspend : (unit -> unit) option;
  w_crash : (unit -> unit) option;
  w_migrate : (unit -> unit) option;
}

let ping_until stack ~dst =
  let ok = ref false in
  while not !ok do
    match Stack.ping stack ~dst ~timeout:(Sim.Time.ms 5) () with
    | Some _ -> ok := true
    | None -> Sim.Engine.sleep (Sim.Time.ms 1)
  done

let stir_ping stack ~dst =
  ignore (Stack.ping stack ~dst ~timeout:(Sim.Time.ms 1) ())

let expected_peers_colocated modules () =
  (* Everyone lives on one machine: each live module must know every
     other live module. *)
  let live = List.filter (fun (_, m) -> Gm.is_loaded m) !modules in
  let n = List.length live in
  List.map (fun (name, m) -> (name, Gm.mapping_size m, n - 1)) live

let build_duo ~params ~xenloop =
  let kind = if xenloop then Setup.Xenloop_path else Setup.Netfront_netback in
  let duo = Setup.build ~params kind in
  let machine = Option.get duo.Setup.machine in
  let modules =
    ref
      (match duo.Setup.modules with
      | [ m1; m2 ] -> [ ("guest1", m1); ("guest2", m2) ]
      | _ -> [])
  in
  let client = duo.Setup.client and server = duo.Setup.server in
  let domain1 = Option.get (Machine.domain machine 1) in
  let stir () =
    stir_ping client.Endpoint.stack ~dst:(Endpoint.ip server);
    stir_ping server.Endpoint.stack ~dst:(Endpoint.ip client)
  in
  let recovered () =
    match !modules with
    | [ (_, m1); (_, m2) ] ->
        Gm.has_channel_with m1 ~domid:2 && Gm.has_channel_with m2 ~domid:1
    | _ -> true
  in
  {
    w_engine = duo.Setup.engine;
    w_label = duo.Setup.label;
    w_machines = [ ("machine0", machine) ];
    w_modules = modules;
    w_discoveries = Option.to_list duo.Setup.discovery;
    w_warmup = duo.Setup.warmup;
    w_flows = [ (client, server); (server, client) ];
    w_stir = stir;
    w_recovered = recovered;
    w_expected_peers = expected_peers_colocated modules;
    w_suspend =
      (if xenloop then
         Some (fun () -> Migration.suspend_resume ~machine domain1)
       else None);
    w_crash = None;
    w_migrate = None;
  }

let build_cluster3 ~params () =
  let c = Setup.build_cluster ~params ~guests:3 () in
  let machine = c.Setup.c_machine in
  let guests = Array.of_list c.Setup.guests in
  let domain_of i = match guests.(i) with d, _, _ -> d in
  let ep_of i = match guests.(i) with _, ep, _ -> ep in
  let module_of i = match guests.(i) with _, _, m -> m in
  let modules =
    ref
      (List.mapi
         (fun i (_, _, m) -> (Printf.sprintf "guest%d" (i + 1), m))
         c.Setup.guests)
  in
  let stir () =
    stir_ping (ep_of 0).Endpoint.stack ~dst:(Endpoint.ip (ep_of 1));
    stir_ping (ep_of 1).Endpoint.stack ~dst:(Endpoint.ip (ep_of 0))
  in
  let recovered () =
    (* The flows run between guest1 and guest2; guest3 exists to be the
       crash victim, so its channels are not part of recovery. *)
    Gm.has_channel_with (module_of 0) ~domid:(Domain.domid (domain_of 1))
    && Gm.has_channel_with (module_of 1) ~domid:(Domain.domid (domain_of 0))
  in
  let crash () =
    (* Abrupt death: the module gets no chance to tear down or
       unadvertise; the hypervisor reclaims the domain's memory. *)
    Gm.kill (module_of 2);
    Machine.crash_domain machine (domain_of 2);
    modules := List.filter (fun (name, _) -> name <> "guest3") !modules
  in
  {
    w_engine = c.Setup.c_engine;
    w_label = "cluster3";
    w_machines = [ ("machine0", machine) ];
    w_modules = modules;
    w_discoveries = [ c.Setup.c_discovery ];
    w_warmup = c.Setup.c_warmup;
    w_flows = [ (ep_of 0, ep_of 1); (ep_of 1, ep_of 0) ];
    w_stir = stir;
    w_recovered = recovered;
    w_expected_peers = expected_peers_colocated modules;
    w_suspend = Some (fun () -> Migration.suspend_resume ~machine (domain_of 0));
    w_crash = Some crash;
    w_migrate = None;
  }

let build_migration_world ~params () =
  let w = Mw.create ~params () in
  let g1 = w.Mw.guest1 and g2 = w.Mw.guest2 in
  let modules =
    ref [ ("guest1", g1.Mw.xl_module); ("guest2", g2.Mw.xl_module) ]
  in
  let warmup () =
    (* Let both Dom0s run a discovery round, then resolve the cross-wire
       path in both directions. *)
    Sim.Engine.sleep (Sim.Time.ms 6);
    ping_until g1.Mw.ep.Endpoint.stack ~dst:(Endpoint.ip g2.Mw.ep);
    ping_until g2.Mw.ep.Endpoint.stack ~dst:(Endpoint.ip g1.Mw.ep)
  in
  let stir () =
    stir_ping g1.Mw.ep.Endpoint.stack ~dst:(Endpoint.ip g2.Mw.ep);
    stir_ping g2.Mw.ep.Endpoint.stack ~dst:(Endpoint.ip g1.Mw.ep)
  in
  let recovered () =
    (* Domids are dynamic: adoption by the destination machine assigns a
       fresh one.  Apart, no channel is expected and the wire path is the
       steady state. *)
    (not (Mw.co_resident g1 g2))
    || Gm.has_channel_with g1.Mw.xl_module ~domid:(Domain.domid g2.Mw.domain)
       && Gm.has_channel_with g2.Mw.xl_module ~domid:(Domain.domid g1.Mw.domain)
  in
  let expected_peers () =
    let expected = if Mw.co_resident g1 g2 then 1 else 0 in
    List.filter_map
      (fun (name, m) ->
        if Gm.is_loaded m then Some (name, Gm.mapping_size m, expected) else None)
      !modules
  in
  {
    w_engine = w.Mw.engine;
    w_label = "migration-world";
    w_machines =
      [ ("machine1", w.Mw.m1.Mw.machine); ("machine2", w.Mw.m2.Mw.machine) ];
    w_modules = modules;
    w_discoveries = [ w.Mw.m1.Mw.discovery; w.Mw.m2.Mw.discovery ];
    w_warmup = warmup;
    w_flows = [ (g1.Mw.ep, g2.Mw.ep); (g2.Mw.ep, g1.Mw.ep) ];
    w_stir = stir;
    w_recovered = recovered;
    w_expected_peers = expected_peers;
    w_suspend = None;
    w_crash = None;
    w_migrate = Some (fun () -> Mw.migrate w g1 ~dst:w.Mw.m2);
  }

let build ~params = function
  | Xenloop_duo -> build_duo ~params ~xenloop:true
  | Netfront_duo -> build_duo ~params ~xenloop:false
  | Cluster3 -> build_cluster3 ~params ()
  | Migration_world -> build_migration_world ~params ()

(* ------------------------------------------------------------------ *)
(* Injector wiring *)

let ctrl_label = function
  | Xenloop.Proto.Request_channel _ -> "request"
  | Xenloop.Proto.Create_channel _ -> "create"
  | Xenloop.Proto.Channel_ack _ -> "ack"
  | Xenloop.Proto.Delta_announce _ -> "delta"
  | Xenloop.Proto.App_payload _ -> "payload"

let wire w plan rec_ =
  List.iter
    (fun (mname, machine) ->
      let ec = Machine.evtchn machine in
      Ec.set_fault_injector ec
        (Some
           (fun ~dom ~port ->
             (* Only guest-to-guest doorbells (the XenLoop channels);
                vif interrupts to and from Dom0 stay reliable. *)
             let guest_to_guest =
               dom <> 0
               &&
               match Ec.peer ec ~dom ~port with
               | Some (pd, _) -> pd <> 0
               | None -> false
             in
             if not guest_to_guest then Ec.Notify_deliver
             else if Fault.draw plan Fault.Drop_notify then begin
               rec_ (Printf.sprintf "%s: notify dom%d port %d dropped" mname dom port);
               Ec.Notify_drop
             end
             else if Fault.draw plan Fault.Delay_notify then begin
               let d = Fault.delay_span plan Fault.Delay_notify in
               rec_
                 (Printf.sprintf "%s: notify dom%d port %d delayed %.0fus" mname
                    dom port (Sim.Time.to_us_f d));
               Ec.Notify_delay d
             end
             else Ec.Notify_deliver));
      Memory.Frame_allocator.set_fault_injector
        (Machine.frame_allocator machine)
        (Some
           (fun ~owner ~count ->
             if owner = 0 then false
             else if Fault.draw plan Fault.Frame_exhaustion then begin
               rec_
                 (Printf.sprintf "%s: frame allocation refused dom%d (%d frame(s))"
                    mname owner count);
               true
             end
             else false));
      List.iter
        (fun domain ->
          let domid = Domain.domid domain in
          match Machine.grant_table machine domid with
          | None -> ()
          | Some gt ->
              Memory.Grant_table.set_map_fault_injector gt
                (Some
                   (fun ~by gref ->
                     if by = 0 then false
                     else if Fault.draw plan Fault.Grant_map_fail then begin
                       rec_
                         (Printf.sprintf
                            "%s: grant map gref %d by dom%d failed" mname gref by);
                       true
                     end
                     else false)))
        (Machine.guests machine);
      Xenstore.set_fault_injector (Machine.xenstore machine)
        (Some
           (fun ~op ~path ->
             match op with
             | `Watch ->
                 if Fault.draw plan Fault.Lost_watch then begin
                   rec_ (Printf.sprintf "%s: watch event lost: %s" mname path);
                   Xenstore.Lost_watch
                 end
                 else Xenstore.Pass
             | `Read ->
                 if Fault.draw plan Fault.Stale_read then begin
                   rec_ (Printf.sprintf "%s: stale read: %s" mname path);
                   Xenstore.Stale_read
                 end
                 else Xenstore.Pass)))
    w.w_machines;
  List.iter
    (fun d ->
      Discovery.set_announce_fault d
        (Some
           (fun ~domid ->
             if Fault.draw plan Fault.Drop_announce then begin
               rec_ (Printf.sprintf "announcement to dom%d dropped" domid);
               true
             end
             else false)))
    w.w_discoveries;
  List.iter
    (fun (mname, m) ->
      Gm.set_ctrl_fault_injector m
        (Some
           (fun msg ->
             match msg with
             | Xenloop.Proto.Request_channel _ | Xenloop.Proto.Create_channel _
             | Xenloop.Proto.Channel_ack _ ->
                 if Fault.draw plan Fault.Ctrl_drop then begin
                   rec_
                     (Printf.sprintf "%s: ctrl %s dropped" mname (ctrl_label msg));
                   Gm.Ctrl_drop
                 end
                 else if Fault.draw plan Fault.Ctrl_dup then begin
                   rec_
                     (Printf.sprintf "%s: ctrl %s duplicated" mname
                        (ctrl_label msg));
                   Gm.Ctrl_dup
                 end
                 else if Fault.draw plan Fault.Ctrl_delay then begin
                   let d = Fault.delay_span plan Fault.Ctrl_delay in
                   rec_
                     (Printf.sprintf "%s: ctrl %s delayed %.0fus" mname
                        (ctrl_label msg) (Sim.Time.to_us_f d));
                   Gm.Ctrl_delay d
                 end
                 else Gm.Ctrl_pass
             | Xenloop.Proto.Delta_announce _ | Xenloop.Proto.App_payload _ ->
                 Gm.Ctrl_pass));
      Gm.set_push_fault_injector m
        (Some
           (fun () ->
             if Fault.draw plan Fault.Push_refusal then begin
               rec_ (Printf.sprintf "%s: fifo push refused" mname);
               true
             end
             else false));
      Gm.set_pool_fault_injector m
        (Some
           (fun () ->
             if Fault.draw plan Fault.Pool_exhaustion then begin
               rec_ (Printf.sprintf "%s: payload-pool slot refused" mname);
               true
             end
             else false));
      (* Consulted only at loaned-delivery time. *)
      Gm.set_loan_fault_injector m
        (Some
           (fun () ->
             if Fault.draw plan Fault.Loan_leak then begin
               rec_ (Printf.sprintf "%s: loaned view leaked by app" mname);
               Gm.Loan_leak
             end
             else if Fault.draw plan Fault.Slow_consumer then begin
               let d = Fault.delay_span plan Fault.Slow_consumer in
               rec_
                 (Printf.sprintf "%s: slow consumer holds loan %.0fus" mname
                    (Sim.Time.to_us_f d));
               Gm.Loan_delay d
             end
             else Gm.Loan_pass));
      (* Consulted only when a jumbo descriptor is pushed. *)
      Gm.set_jumbo_fault_injector m
        (Some
           (fun () ->
             if Fault.draw plan Fault.Jumbo_truncate then begin
               rec_
                 (Printf.sprintf "%s: jumbo scatter vector truncated" mname);
               true
             end
             else false)))
    !(w.w_modules)

(* ------------------------------------------------------------------ *)
(* Stamped flows *)

type flow = {
  fl_id : int;
  fl_label : string;
  fl_src : Endpoint.t;
  fl_dst : Endpoint.t;
  fl_sock : Udp.socket;
  fl_counts : int array;
  mutable fl_sent : int;
  mutable fl_corrupt : int;
}

let stamp ~payload ~flow ~seq =
  let b = Bytes.make payload '\000' in
  Bytes.set_uint16_be b 0 flow;
  Bytes.set_int32_be b 2 (Int32.of_int seq);
  for i = 6 to payload - 1 do
    Bytes.set_uint8 b i (((flow * 7) + (seq * 13) + i) land 0xff)
  done;
  b

let note_rx fl data =
  let corrupt () = fl.fl_corrupt <- fl.fl_corrupt + 1 in
  if Bytes.length data < 6 then corrupt ()
  else
    let flow = Bytes.get_uint16_be data 0 in
    let seq = Int32.to_int (Bytes.get_int32_be data 2) in
    if flow <> fl.fl_id || seq < 0 || seq >= Array.length fl.fl_counts then
      corrupt ()
    else begin
      let intact = ref true in
      for i = 6 to Bytes.length data - 1 do
        if Bytes.get_uint8 data i <> ((flow * 7) + (seq * 13) + i) land 0xff then
          intact := false
      done;
      if !intact then fl.fl_counts.(seq) <- fl.fl_counts.(seq) + 1
      else corrupt ()
    end

let make_flows w config =
  List.mapi
    (fun i (src, dst) ->
      let sock =
        match Udp.bind dst.Endpoint.udp ~port:(7000 + i) () with
        | Ok s -> s
        | Error _ -> failwith "chaos: receiver bind failed"
      in
      {
        fl_id = i;
        fl_label =
          Printf.sprintf "flow%d(%s->%s)" i src.Endpoint.ep_name
            dst.Endpoint.ep_name;
        fl_src = src;
        fl_dst = dst;
        fl_sock = sock;
        fl_counts = Array.make config.packets 0;
        fl_sent = 0;
        fl_corrupt = 0;
      })
    w.w_flows

let start_receiver engine running fl =
  Sim.Engine.spawn engine ~name:(fl.fl_label ^ "-rx") (fun () ->
      let rec loop () =
        if !running then
          match Udp.recv_opt fl.fl_sock with
          | Some (_, _, data) ->
              note_rx fl data;
              loop ()
          | None ->
              Sim.Engine.sleep (Sim.Time.us 20);
              loop ()
      in
      loop ())

let start_sender engine frozen config fl senders_left =
  Sim.Engine.spawn engine ~name:(fl.fl_label ^ "-tx") (fun () ->
      (match Udp.bind fl.fl_src.Endpoint.udp () with
      | Error _ -> ()
      | Ok sock ->
          for seq = 0 to config.packets - 1 do
            (* Senders pause across lifecycle one-shots: a frame pushed
               into a vif mid-detach is legitimately gone, and this
               harness asserts exactly-once for everything it sends. *)
            while !frozen do
              Sim.Engine.sleep (Sim.Time.ms 1)
            done;
            Udp.sendto sock ~dst:(Endpoint.ip fl.fl_dst)
              ~dst_port:(7000 + fl.fl_id)
              (stamp ~payload:config.payload ~flow:fl.fl_id ~seq);
            fl.fl_sent <- fl.fl_sent + 1;
            Sim.Engine.sleep (Sim.Time.us 200)
          done);
      decr senders_left)

(* ------------------------------------------------------------------ *)
(* The run loop *)

let min_span a b = if Sim.Time.span_compare a b <= 0 then a else b

let run ?sabotage config =
  if config.payload < 6 then invalid_arg "Harness.run: payload below stamp size";
  if config.packets < 1 then invalid_arg "Harness.run: no packets";
  let params =
    let p =
      if config.qos then
        (* QoS world: scheduler on, per-flow backlog bound shallow enough
           that a flooding tenant actually overflows (to netfront, per
           flow) inside one run. *)
        { chaos_params with Params.qos_enabled = true; xenloop_waiting_list_max = 16 }
      else chaos_params
    in
    if config.evictions then
      (* Eviction world: the bounded-channel knobs come on, tight enough
         that the cap, the idle TTL and the post-eviction cooldown all
         cycle several times inside one run. *)
      {
        p with
        Params.xenloop_channel_cap = 2;
        xenloop_channel_idle_ttl = Sim.Time.ms 20;
        xenloop_evict_cooldown = Sim.Time.ms 2;
      }
    else p
  in
  let w = build ~params config.scenario in
  let engine = w.w_engine in
  let log = Event_log.create () in
  let rec_ msg = Event_log.record log ~time:(Sim.Engine.now engine) msg in
  let out = ref None in
  Experiment.run_process ~limit:(Sim.Time.sec 120) engine (fun () ->
      w.w_warmup ();
      rec_ (Printf.sprintf "%s warmed up" w.w_label);
      let plan = Fault.arm ~engine ~seed:config.seed config.faults in
      wire w plan rec_;
      (* Evict-storm: shed LRU channels far ahead of policy while the
         window is open — mid-stream, so in-flight frames must fall back
         to netfront and still land exactly once. *)
      let evictor =
        if not (Fault.armed plan Fault.Evict_storm) then None
        else
          Some
            (Sim.Engine.every engine (Sim.Time.ms 1) (fun () ->
                 List.iter
                   (fun (name, m) ->
                     if Fault.draw plan Fault.Evict_storm && Gm.evict_lru m
                     then
                       rec_
                         (Printf.sprintf "evict-storm: %s sheds its LRU channel"
                            name))
                   !(w.w_modules)))
      in
      (* Tenant-flood (QoS worlds): one misbehaving tenant bursts its own
         flow flat-out while the window is open, with its congestion
         edges swallowed — a tenant that ignores backpressure.  Victims
         must keep exactly-once delivery and their own fair share; the
         flooder's excess overflows to netfront, per flow. *)
      let flood_port = 7999 in
      (if config.qos && Fault.armed plan Fault.Tenant_flood then begin
         List.iter
           (fun (_, m) ->
             Gm.set_congestion_fault_injector m
               (Some
                  (fun key ->
                    match key with
                    | Xenloop.Steering.Ip_flow { dport; _ } -> dport = flood_port
                    | Xenloop.Steering.Mac_flow _ -> false)))
           !(w.w_modules);
         match w.w_flows with
         | [] -> ()
         | (src, dst) :: _ ->
             let deadline =
               Sim.Time.add (Sim.Engine.now engine) (Fault.clearance plan)
             in
             Sim.Engine.spawn engine ~name:"tenant-flood" (fun () ->
                 match Udp.bind src.Endpoint.udp () with
                 | Error _ -> ()
                 | Ok sock ->
                     rec_ "tenant-flood: flooder online";
                     let payload = Bytes.make 1024 '\xfa' in
                     while Sim.Time.(Sim.Engine.now engine < deadline) do
                       if Fault.draw plan Fault.Tenant_flood then
                         for _ = 1 to 16 do
                           ignore
                             (Udp.sendto_nb sock ~dst:(Endpoint.ip dst)
                                ~dst_port:flood_port payload)
                         done;
                       Sim.Engine.sleep (Sim.Time.us 100)
                     done)
       end);
      (* Jumbo-truncate: the stamped UDP datagrams are far below jumbo
         size, so an auxiliary TCP bulk stream keeps jumbo descriptors in
         flight while the fault window is open.  The stream must still
         land byte-identical — a truncated jumbo is dropped loudly at rx
         and recovered by TCP retransmission. *)
      let aux_bulk =
        if not (Fault.armed plan Fault.Jumbo_truncate) then None
        else
          match w.w_flows with
          | [] -> None
          | (src, dst) :: _ ->
              let total = 512 * 1024 in
              let data =
                Bytes.init total (fun i -> Char.chr ((i * 131) land 0xff))
              in
              let state = ref `Running in
              (match Tcp.listen dst.Endpoint.tcp ~port:7997 with
              | Error _ -> state := `Failed
              | Ok listener ->
                  Sim.Engine.spawn engine ~name:"gso-bulk-rx" (fun () ->
                      let conn = Tcp.accept listener in
                      let got = Tcp.recv_exact conn total in
                      state :=
                        (if Bytes.equal got data then `Done else `Corrupt));
                  Sim.Engine.spawn engine ~name:"gso-bulk-tx" (fun () ->
                      match
                        Tcp.connect src.Endpoint.tcp ~dst:(Endpoint.ip dst)
                          ~dst_port:7997 ()
                      with
                      | Ok conn ->
                          (* Paced in jumbo-sized chunks so descriptor
                             pushes span the whole fault window instead
                             of bursting before it opens. *)
                          let chunk = 64 * 1024 in
                          let off = ref 0 in
                          while !off < total do
                            let n = min chunk (total - !off) in
                            Tcp.send conn (Bytes.sub data !off n);
                            off := !off + n;
                            Sim.Engine.sleep (Sim.Time.ms 1)
                          done;
                          Tcp.close conn
                      | Error _ -> state := `Failed));
              Some state
      in
      let seen = Hashtbl.create 16 in
      let violations = ref [] in
      let note_violation msg =
        if not (Hashtbl.mem seen msg) then begin
          Hashtbl.replace seen msg ();
          violations := msg :: !violations;
          rec_ ("VIOLATION " ^ msg)
        end
      in
      let ctx () =
        { Invariant.iv_machines = w.w_machines; iv_modules = !(w.w_modules) }
      in
      let checks = ref 0 in
      let checker =
        Sim.Engine.every engine config.check_period (fun () ->
            incr checks;
            List.iter note_violation (Invariant.check_runtime (ctx ())))
      in
      let frozen = ref false in
      let flows = make_flows w config in
      let running = ref true in
      let senders_left = ref (List.length flows) in
      List.iter (fun fl -> start_receiver engine running fl) flows;
      List.iter (fun fl -> start_sender engine frozen config fl senders_left) flows;
      (* One-shot lifecycle faults run as their own processes. *)
      let schedule_oneshot kind op ~freeze desc =
        match op with
        | None -> ()
        | Some f -> (
            match Fault.oneshot_start plan kind with
            | None -> ()
            | Some start ->
                Sim.Engine.after engine start (fun () ->
                    rec_ (Printf.sprintf "one-shot %s: %s" (Fault.label kind) desc);
                    if freeze then frozen := true;
                    f ();
                    Fault.note_fired plan kind;
                    if freeze then begin
                      Sim.Engine.sleep (Sim.Time.ms 2);
                      frozen := false
                    end))
      in
      schedule_oneshot Fault.Peer_crash w.w_crash ~freeze:false
        "flow-free guest crashes without teardown";
      schedule_oneshot Fault.Suspend_resume w.w_suspend ~freeze:false
        "guest suspends and resumes in place";
      schedule_oneshot Fault.Migrate_midstream w.w_migrate ~freeze:true
        "guest live-migrates to join its peer";
      (* Bootstrap-phase faults would never fire against warm channels, so
         churn: suspend/resume at the window start forces a re-bootstrap
         inside the window. *)
      let churn_kinds =
        [
          Fault.Grant_map_fail; Fault.Frame_exhaustion; Fault.Ctrl_drop;
          Fault.Ctrl_dup; Fault.Ctrl_delay;
        ]
      in
      (match w.w_suspend with
      | Some suspend
        when (not (Fault.armed plan Fault.Suspend_resume))
             && List.exists (fun k -> Fault.armed plan k) churn_kinds ->
          let start =
            List.fold_left
              (fun acc s ->
                if List.mem s.Fault.f_kind churn_kinds then
                  match acc with
                  | None -> Some s.Fault.f_start
                  | Some a -> Some (min_span a s.Fault.f_start)
                else acc)
              None config.faults
          in
          Option.iter
            (fun st ->
              Sim.Engine.after engine
                (Sim.Time.span_add st (Sim.Time.us 200))
                (fun () ->
                  rec_ "churn: suspend/resume forces re-bootstrap in-window";
                  suspend ()))
            start
      | Some _ | None -> ());
      (* Ride out every fault window, then measure recovery. *)
      Sim.Engine.sleep (Sim.Time.span_max (Fault.clearance plan) (Sim.Time.ms 10));
      let clearance_t = Sim.Engine.now engine in
      rec_ "fault windows cleared";
      let deadline = Sim.Time.add clearance_t (Sim.Time.sec 4) in
      let recovery = ref None in
      let rec poll () =
        if w.w_recovered () then
          recovery := Some (Sim.Time.diff (Sim.Engine.now engine) clearance_t)
        else if Sim.Time.(Sim.Engine.now engine >= deadline) then ()
        else begin
          w.w_stir ();
          Sim.Engine.sleep (Sim.Time.us 500);
          poll ()
        end
      in
      poll ();
      (match !recovery with
      | Some d ->
          rec_
            (Printf.sprintf "fast path recovered %.0fus after clearance"
               (Sim.Time.to_us_f d))
      | None ->
          note_violation "fast path failed to re-establish before the deadline");
      while !senders_left > 0 do
        Sim.Engine.sleep (Sim.Time.ms 1)
      done;
      rec_ "all senders finished";
      (* Drain: everything sent must land; stirring keeps doorbells coming
         for any frame parked behind a dropped notification. *)
      let drain_deadline = Sim.Time.add (Sim.Engine.now engine) (Sim.Time.sec 2) in
      let all_delivered () =
        List.for_all
          (fun fl -> Array.for_all (fun c -> c > 0) fl.fl_counts)
          flows
      in
      while
        (not (all_delivered ()))
        && Sim.Time.(Sim.Engine.now engine < drain_deadline)
      do
        w.w_stir ();
        Sim.Engine.sleep (Sim.Time.ms 1)
      done;
      (* Jumbo-truncate runs: the bulk stream must have completed
         byte-identical, jumbo descriptors must actually have moved (else
         the run tested nothing), and every injected truncation must show up as
         an accounted rx drop — never as delivered bytes. *)
      (match aux_bulk with
      | None -> ()
      | Some state ->
          let aux_deadline =
            Sim.Time.add (Sim.Engine.now engine) (Sim.Time.sec 8)
          in
          while
            !state = `Running
            && Sim.Time.(Sim.Engine.now engine < aux_deadline)
          do
            Sim.Engine.sleep (Sim.Time.ms 1)
          done;
          (match !state with
          | `Done -> rec_ "gso bulk stream delivered byte-identical"
          | `Running -> note_violation "gso bulk stream did not complete"
          | `Corrupt -> note_violation "gso bulk stream delivered corrupt bytes"
          | `Failed -> note_violation "gso bulk stream failed to establish");
          let sum f =
            List.fold_left (fun a (_, m) -> a + f (Gm.stats m)) 0 !(w.w_modules)
          in
          if sum (fun s -> s.Gm.jumbo_tx) = 0 then
            note_violation "bulk stream moved no jumbo descriptors";
          let truncations =
            match List.assoc_opt "jumbo-truncate" (Fault.injections plan) with
            | Some n -> n
            | None -> 0
          in
          let drops = sum (fun s -> s.Gm.jumbo_drops) in
          if truncations > 0 && drops = 0 then
            note_violation
              "jumbo truncations injected but no rx drop accounted";
          if drops > truncations then
            note_violation
              (Printf.sprintf "%d jumbo drop(s) accounted for %d truncation(s)"
                 drops truncations));
      (* QoS worlds fold each flow's accounting into the log, so the
         digest pins per-flow scheduling and not only the milestones. *)
      if config.qos then
        List.iter
          (fun (name, m) ->
            List.iter
              (fun fs ->
                rec_
                  (Printf.sprintf
                     "%s flow %s: bytes=%d frames=%d descs=%d overflows=%d \
                      raises=%d clears=%d"
                     name fs.Gm.fs_label fs.Gm.fs_bytes fs.Gm.fs_frames
                     fs.Gm.fs_descs fs.Gm.fs_overflows fs.Gm.fs_congestion_raises
                     fs.Gm.fs_congestion_clears))
              (Gm.flow_stats m))
          !(w.w_modules);
      (* Tenant-flood fairness: per-flow sub-queues mean only the flooder
         may be forced to spill to netfront; a victim flow overflowing
         means the flood evicted someone else's frames. *)
      (if config.qos && Fault.armed plan Fault.Tenant_flood then
         let flood_suffix = Printf.sprintf ":%d" flood_port in
         let is_flood label =
           let n = String.length flood_suffix and l = String.length label in
           l >= n && String.sub label (l - n) n = flood_suffix
         in
         List.iter
           (fun (name, m) ->
             List.iter
               (fun fs ->
                 if (not (is_flood fs.Gm.fs_label)) && fs.Gm.fs_overflows > 0
                 then
                   note_violation
                     (Printf.sprintf
                        "%s: victim flow %s overflowed under tenant flood (%d)"
                        name fs.Gm.fs_label fs.Gm.fs_overflows))
               (Gm.flow_stats m))
           !(w.w_modules));
      (* Soft state must have converged on the surviving population before
         teardown. *)
      List.iter
        (fun (name, actual, expected) ->
          if actual <> expected then
            note_violation
              (Printf.sprintf
                 "%s: mapping table not converged: %d peer(s), expected %d" name
                 actual expected))
        (w.w_expected_peers ());
      (* Finale: quiesce, unload, final sweep. *)
      List.iter Discovery.stop w.w_discoveries;
      Sim.Engine.cancel checker;
      Option.iter (Sim.Engine.cancel) evictor;
      (* Loan quiescence: with every datagram drained, no borrowed slot
         view may still be out — unless the plan deliberately leaked some,
         in which case teardown's force-return must recover them below. *)
      if not (Fault.armed plan Fault.Loan_leak) then
        List.iter
          (fun (name, m) ->
            let out = Gm.outstanding_loans m in
            if out > 0 then
              note_violation
                (Printf.sprintf "%s: %d loaned slot(s) outstanding at quiescence"
                   name out))
          !(w.w_modules);
      List.iter
        (fun (_, m) ->
          if Gm.is_loaded m then begin
            Gm.unload m;
            Sim.Engine.sleep (Sim.Time.ms 1)
          end)
        !(w.w_modules);
      Sim.Engine.sleep (Sim.Time.ms 2);
      List.iter
        (fun (name, m) ->
          let out = Gm.outstanding_loans m in
          if out > 0 then
            note_violation
              (Printf.sprintf "%s: %d loaned slot(s) survived unload" name out))
        !(w.w_modules);
      running := false;
      Sim.Engine.sleep (Sim.Time.ms 1);
      (match sabotage with Some f -> f (ctx ()) | None -> ());
      List.iter note_violation (Invariant.check_final (ctx ()));
      let sent = List.fold_left (fun a fl -> a + fl.fl_sent) 0 flows in
      let delivered = ref 0 and dups = ref 0 and lost = ref 0 in
      List.iter
        (fun fl ->
          let fl_lost = ref 0 and fl_dup = ref 0 in
          Array.iter
            (fun c ->
              if c = 0 then incr fl_lost
              else begin
                incr delivered;
                if c > 1 then incr fl_dup
              end)
            fl.fl_counts;
          lost := !lost + !fl_lost;
          dups := !dups + !fl_dup;
          if !fl_lost > 0 then
            note_violation
              (Printf.sprintf "%s: %d of %d datagram(s) lost" fl.fl_label
                 !fl_lost config.packets);
          if !fl_dup > 0 then
            note_violation
              (Printf.sprintf "%s: %d datagram(s) duplicated" fl.fl_label !fl_dup);
          if fl.fl_corrupt > 0 then
            note_violation
              (Printf.sprintf "%s: %d corrupt datagram(s)" fl.fl_label
                 fl.fl_corrupt);
          let drops = Udp.drops fl.fl_sock in
          if drops > 0 then
            note_violation
              (Printf.sprintf "%s: %d receive-buffer drop(s)" fl.fl_label drops))
        flows;
      rec_
        (Printf.sprintf "run complete: injected=%d sent=%d violations=%d"
           (Fault.total_injected plan) sent (List.length !violations));
      out :=
        Some
          {
            v_seed = config.seed;
            v_scenario = scenario_label config.scenario;
            v_faults = Fault.injections plan;
            v_total_injected = Fault.total_injected plan;
            v_sent = sent;
            v_delivered = !delivered;
            v_duplicates = !dups;
            v_lost = !lost;
            v_checks = !checks;
            v_recovery = !recovery;
            v_violations = List.rev !violations;
            v_log_digest = "";
            v_log_length = 0;
          });
  match !out with
  | None -> failwith "chaos: run did not complete"
  | Some v ->
      ( { v with v_log_digest = Event_log.digest log; v_log_length = Event_log.length log },
        log )
