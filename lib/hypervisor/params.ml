type rung = Paper | Notify | Zerocopy | Loans | Gso

type t = {
  hypercall : Sim.Time.span;
  evtchn_delivery : Sim.Time.span;
  dom0_wakeup : Sim.Time.span;
  page_map : Sim.Time.span;
  page_zero : Sim.Time.span;
  migration_downtime : Sim.Time.span;
  syscall : Sim.Time.span;
  udp_tx : Sim.Time.span;
  udp_rx : Sim.Time.span;
  tcp_tx : Sim.Time.span;
  tcp_rx : Sim.Time.span;
  tcp_ack : Sim.Time.span;
  icmp_proc : Sim.Time.span;
  app_wakeup : Sim.Time.span;
  netfilter_hook : Sim.Time.span;
  ip_rx : Sim.Time.span;
  arp_proc : Sim.Time.span;
  copy_ns_per_byte : float;
  xenloop_copy_ns_per_byte : float;
  xenloop_fifo_op : Sim.Time.span;
  xenloop_rung : rung;
  xenloop_poll_window : Sim.Time.span;
  xenloop_queues : int;
  xenloop_waiting_list_max : int;
  xenloop_inline_max : int;
  xenloop_pool_slots : int;
  xenloop_pool_slot_pages : int;
  xenloop_max_loans : int;
  discovery_period : Sim.Time.span;
  xenloop_softstate_ttl : Sim.Time.span;
  xenloop_bootstrap_cooldown : Sim.Time.span;
  xenloop_announce_refresh : Sim.Time.span;
  xenloop_channel_cap : int;
  xenloop_channel_idle_ttl : Sim.Time.span;
  xenloop_evict_cooldown : Sim.Time.span;
  qos_enabled : bool;
  qos_quantum : int;
  netfront_tx : Sim.Time.span;
  netfront_rx : Sim.Time.span;
  netback_per_packet : Sim.Time.span;
  netback_per_page : Sim.Time.span;
  bridge_forward : Sim.Time.span;
  tso_max_frame : int;
  vif_gso_size : int option;
  wire_gbps : float;
  wire_latency : Sim.Time.span;
  nic_tx : Sim.Time.span;
  nic_rx : Sim.Time.span;
  nic_interrupt_latency : Sim.Time.span;
  nic_mtu : int;
  loopback_xmit : Sim.Time.span;
  loopback_mtu : int;
}

let default =
  {
    hypercall = Sim.Time.ns 300;
    evtchn_delivery = Sim.Time.of_us_f 7.0;
    dom0_wakeup = Sim.Time.of_us_f 10.0;
    page_map = Sim.Time.of_us_f 1.2;
    page_zero = Sim.Time.of_us_f 1.0;
    migration_downtime = Sim.Time.ms 60;
    syscall = Sim.Time.ns 500;
    udp_tx = Sim.Time.of_us_f 1.5;
    udp_rx = Sim.Time.of_us_f 1.6;
    tcp_tx = Sim.Time.of_us_f 1.0;
    tcp_rx = Sim.Time.of_us_f 1.1;
    tcp_ack = Sim.Time.ns 800;
    icmp_proc = Sim.Time.of_us_f 1.2;
    app_wakeup = Sim.Time.of_us_f 5.0;
    netfilter_hook = Sim.Time.ns 250;
    ip_rx = Sim.Time.ns 400;
    arp_proc = Sim.Time.ns 600;
    copy_ns_per_byte = 0.55;
    xenloop_copy_ns_per_byte = 0.75;
    xenloop_fifo_op = Sim.Time.ns 200;
    xenloop_rung = Gso;
    xenloop_poll_window = Sim.Time.of_us_f 100.0;
    xenloop_queues = 4;
    xenloop_waiting_list_max = 1024;
    xenloop_inline_max = 256;
    xenloop_pool_slots = 64;
    xenloop_pool_slot_pages = 5;
    xenloop_max_loans = 32;
    discovery_period = Sim.Time.sec 5;
    xenloop_softstate_ttl = Sim.Time.sec 15;
    xenloop_bootstrap_cooldown = Sim.Time.sec 1;
    (* Cluster-scale control plane (DESIGN.md §12).  Dom0 sends each
       guest the joins/leaves since its acked epoch instead of the full
       list.  The refresh span bounds announce suppression — an unchanged
       peer still hears from Dom0 at least this often, which must stay
       well under [xenloop_softstate_ttl] or idle guests expire their
       whole mapping table. *)
    xenloop_announce_refresh = Sim.Time.sec 10;
    (* 0 = unbounded (the pre-cap behaviour).  A positive cap bounds the
       number of Active channels per guest; bootstrap evicts the
       least-recently-active channel to make room. *)
    xenloop_channel_cap = 0;
    (* zero = no idle eviction.  Positive: a channel with no traffic for
       this long is evicted by the soft-state expiry timer. *)
    xenloop_channel_idle_ttl = Sim.Time.span_zero;
    xenloop_evict_cooldown = Sim.Time.ms 100;
    (* Multi-tenant QoS (DESIGN.md §14).  Off by default: with
       [qos_enabled = false] every frame is one flow, so each queue's
       backlog is the paper's FIFO-order waiting list. *)
    qos_enabled = false;
    qos_quantum = 1500;
    netfront_tx = Sim.Time.of_us_f 1.0;
    netfront_rx = Sim.Time.of_us_f 1.0;
    netback_per_packet = Sim.Time.of_us_f 2.3;
    netback_per_page = Sim.Time.of_us_f 5.4;
    bridge_forward = Sim.Time.ns 600;
    tso_max_frame = 65536;
    vif_gso_size = Some 16384;
    wire_gbps = 1.0;
    wire_latency = Sim.Time.of_us_f 8.0;
    nic_tx = Sim.Time.of_us_f 2.0;
    nic_rx = Sim.Time.of_us_f 6.0;
    nic_interrupt_latency = Sim.Time.of_us_f 20.0;
    nic_mtu = 1500;
    loopback_xmit = Sim.Time.ns 400;
    loopback_mtu = 16436;
  }

let paper = { default with xenloop_rung = Paper; xenloop_queues = 1 }

let rungs = [ (Paper, "paper"); (Notify, "notify"); (Zerocopy, "zerocopy"); (Loans, "loans"); (Gso, "gso") ]
let rung_name r = List.assoc r rungs

let rung_of_name s =
  List.find_map (fun (r, name) -> if name = s then Some r else None) rungs

let copy_cost t bytes = Sim.Time.of_ns_f (float_of_int bytes *. t.copy_ns_per_byte)

let xenloop_copy_cost t bytes =
  Sim.Time.of_ns_f (float_of_int bytes *. t.xenloop_copy_ns_per_byte)

let wire_time t bytes =
  (* Include Ethernet preamble + IFG (20 bytes) and FCS (4). *)
  Sim.Time.of_ns_f (float_of_int ((bytes + 24) * 8) /. t.wire_gbps)

let pages_of_bytes n = if n <= 0 then 1 else (n + 4095) / 4096
