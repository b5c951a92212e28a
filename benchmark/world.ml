(* Building a world through the public scenario builders, driving its
   engine, and reading every layer's counters from outside. *)

module Gm = Xenloop.Guest_module
module Setup = Scenarios.Setup
module Mesh = Scenarios.Mesh
module Endpoint = Scenarios.Endpoint
module Domain = Hypervisor.Domain
module Machine = Hypervisor.Machine

type t = {
  engine : Sim.Engine.t;
  guests : Endpoint.t array;  (** traffic endpoints, by guest index *)
  guest_domains : Domain.t array;  (** same order as [guests] *)
  dom0s : Domain.t list;
  modules : Gm.t list;
  discoveries : Xenloop.Discovery.t list;
  build_s : float;  (** host: constructing the world *)
  warmup_s : float;  (** host: warmup, plus the ring bring-up on a mesh *)
  warmup_sim_s : float;  (** simulated time the warmup took *)
  ring_channels_per_s : float;  (** mesh ring bring-up rate; 0 on a duo *)
}

let host_now = Unix.gettimeofday
let now_ns engine = Int64.to_int (Sim.Time.instant_to_ns (Sim.Engine.now engine))

exception Stuck of string

(* The benchmark drives the engine itself, in 1 ms simulated slices,
   until [finished] holds.  The traced run records each slice as a host
   span with its event count; the untraced run takes exactly the same
   slices, so both simulate the same event sequence. *)
let slice = Sim.Time.ms 1

let drive ?tr engine ~deadline_ns finished =
  while not (finished ()) do
    if now_ns engine >= deadline_ns then
      raise (Stuck (Printf.sprintf "simulation still running at %d ns" deadline_ns));
    let start = host_now () and e0 = Sim.Engine.events_executed engine in
    Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) slice) engine;
    match tr with
    | None -> ()
    | Some t ->
        Spans.record_host t "sim.slice" ~start
          ~events:(Sim.Engine.events_executed engine - e0)
  done

(* Run [f] as a simulation process to completion. *)
let in_process ?tr engine ~limit_s f =
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f ()));
  let deadline_ns = now_ns engine + int_of_float (limit_s *. 1e9) in
  drive ?tr engine ~deadline_ns (fun () -> !result <> None);
  Option.get !result

let domain_of_endpoint domains (ep : Endpoint.t) =
  List.find (fun d -> Domain.cpu d == ep.Endpoint.cpu) domains

let duo ?tr kind =
  let h0 = host_now () in
  let d = Spans.host_span tr "scenarios.build" (fun () -> Setup.build kind) in
  let h1 = host_now () in
  let s0 = now_ns d.Setup.engine in
  Spans.host_span tr "scenarios.warmup" (fun () ->
      in_process ?tr d.Setup.engine ~limit_s:10.0 d.Setup.warmup);
  let h2 = host_now () in
  let m = Option.get d.Setup.machine in
  let guests = [| d.Setup.client; d.Setup.server |] in
  {
    engine = d.Setup.engine;
    guests;
    guest_domains = Array.map (domain_of_endpoint (Machine.guests m)) guests;
    dom0s = [ Machine.dom0 m ];
    modules = d.Setup.modules;
    discoveries = Option.to_list d.Setup.discovery;
    build_s = h1 -. h0;
    warmup_s = h2 -. h1;
    warmup_sim_s = float_of_int (now_ns d.Setup.engine - s0) /. 1e9;
    ring_channels_per_s = 0.0;
  }

(* Guest pairs (i, i+d mod n) for d = 1..degree: the ring the mesh
   brings up, so every pair has a channel. *)
let ring_pairs ~guests ~degree =
  Array.init (guests * degree) (fun k ->
      let i = k / degree and d = (k mod degree) + 1 in
      (i, (i + d) mod guests))

(* How often bring-up completion is checked, and the settle time after
   it before traffic starts. *)
let ring_poll = Sim.Time.us 100
let ring_settle = Sim.Time.ms 20

let mesh ?tr ~guests ~degree () =
  let h0 = host_now () in
  let m = Spans.host_span tr "scenarios.build" (fun () -> Mesh.build ~guests ~hosts:1 ()) in
  let h1 = host_now () in
  let s0 = now_ns m.Mesh.engine in
  let rate =
    Spans.host_span tr "scenarios.warmup" (fun () ->
        in_process ?tr m.Mesh.engine ~limit_s:60.0 (fun () ->
            Mesh.warmup m;
            let t0 = now_ns m.Mesh.engine in
            Mesh.establish_ring m ~degree;
            (* Bring-up ends when the last ring channel is up at both
               ends (channels_established counts each end). *)
            let want = 2 * Array.length (ring_pairs ~guests ~degree) in
            while Mesh.channels_established m < want && now_ns m.Mesh.engine - t0 < 1_000_000_000 do
              Sim.Engine.sleep ring_poll
            done;
            let rate =
              float_of_int (Mesh.channels_established m / 2)
              /. (float_of_int (now_ns m.Mesh.engine - t0) /. 1e9)
            in
            Sim.Engine.sleep ring_settle;
            rate))
  in
  let h2 = host_now () in
  {
    engine = m.Mesh.engine;
    guests = Array.map (fun g -> g.Mesh.g_endpoint) m.Mesh.guests;
    guest_domains = Array.map (fun g -> g.Mesh.g_domain) m.Mesh.guests;
    dom0s = Array.to_list (Array.map (fun h -> Machine.dom0 h.Mesh.h_machine) m.Mesh.hosts);
    modules = Array.to_list (Array.map (fun g -> g.Mesh.g_module) m.Mesh.guests);
    discoveries = Array.to_list (Array.map (fun h -> h.Mesh.h_discovery) m.Mesh.hosts);
    build_s = h1 -. h0;
    warmup_s = h2 -. h1;
    warmup_sim_s = float_of_int (now_ns m.Mesh.engine - s0) /. 1e9;
    ring_channels_per_s = rate;
  }

(* --- Counters ---

   A snapshot is every counter the libraries export, read from outside
   and keyed by name; per-layer metrics are differences of two
   snapshots taken around the measured phase. *)

type snapshot = (string * float) list

let all_domains w = w.dom0s @ Array.to_list w.guest_domains
let busy_s d = Sim.Time.to_sec_f (Sim.Resource.busy_time (Domain.cpu d))
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let gm_fields : (string * (Gm.stats -> int)) list =
  [
    ("via_channel_tx", fun s -> s.Gm.via_channel_tx);
    ("queued_to_waiting", fun s -> s.Gm.queued_to_waiting);
    ("waiting_overflows", fun s -> s.Gm.waiting_overflows);
    ("notifies_sent", fun s -> s.Gm.notifies_sent);
    ("poll_rounds", fun s -> s.Gm.poll_rounds);
    ("flow_cache_hits", fun s -> s.Gm.flow_cache_hits);
    ("flow_cache_misses", fun s -> s.Gm.flow_cache_misses);
    ("desc_tx", fun s -> s.Gm.desc_tx);
    ("inline_tx", fun s -> s.Gm.inline_tx);
    ("pool_fallbacks", fun s -> s.Gm.pool_fallbacks);
    ("loan_credit_stalls", fun s -> s.Gm.loan_credit_stalls);
    ("jumbo_tx", fun s -> s.Gm.jumbo_tx);
    ("csum_elided", fun s -> s.Gm.csum_elided);
    ("bootstraps_started", fun s -> s.Gm.bootstraps_started);
    ("bootstrap_failures", fun s -> s.Gm.bootstrap_failures);
    ("channels_established", fun s -> s.Gm.channels_established);
  ]

let meter_fields : (string * (Memory.Cost_meter.t -> int)) list =
  Memory.Cost_meter.
    [
      ("copied_bytes", bytes_copied);
      ("hypercalls", hypercalls);
      ("event_notifies", event_notifies);
      ("grant_maps", grant_maps);
    ]

let snapshot w : snapshot =
  let fi x = float_of_int x in
  let doms = all_domains w in
  let stacks = Array.to_list (Array.map (fun e -> e.Endpoint.stack) w.guests) in
  let stack_stat f = fi (sum (fun s -> f (Netstack.Stack.stats s)) stacks) in
  let gc = Gc.quick_stat () in
  [
    ("events", fi (Sim.Engine.events_executed w.engine));
    ("now_s", float_of_int (now_ns w.engine) /. 1e9);
    ("busy_all_s", fsum busy_s doms);
    ("busy_dom0_s", fsum busy_s w.dom0s);
    ("busy_client_s", busy_s w.guest_domains.(0));
    ("busy_server_s", busy_s w.guest_domains.(1));
    ("busy_guests_s", fsum busy_s (Array.to_list w.guest_domains));
    ("ip_tx", stack_stat (fun s -> s.Netstack.Stack.tx_datagrams));
    ("sw_segmented", stack_stat (fun s -> s.Netstack.Stack.sw_segmented));
    ( "vif_tx",
      fi
        (sum
           (fun s ->
             match Netstack.Stack.device s with
             | Some dev -> Netstack.Netdevice.tx_packets dev
             | None -> 0)
           stacks) );
    ("dom0_notifies", fi (sum (fun d -> Memory.Cost_meter.event_notifies (Domain.meter d)) w.dom0s));
    ("minor_words", gc.Gc.minor_words);
    ("major_collections", fi gc.Gc.major_collections);
  ]
  @ List.map (fun (k, f) -> ("gm." ^ k, fi (sum (fun m -> f (Gm.stats m)) w.modules))) gm_fields
  @ List.map (fun (k, f) -> ("meter." ^ k, fi (sum (fun d -> f (Domain.meter d)) doms))) meter_fields

let diff (after : snapshot) (before : snapshot) : snapshot =
  List.map2 (fun (k, a) (_, b) -> (k, a -. b)) after before

let get (s : snapshot) k = List.assoc k s

(* Totals that describe the whole world rather than the measured phase. *)
let announce_bytes w = sum Xenloop.Discovery.announce_bytes w.discoveries
let channel_pool_bytes w = sum Gm.channel_pool_bytes w.modules
let grant_entries w = sum Gm.grant_entries w.modules
