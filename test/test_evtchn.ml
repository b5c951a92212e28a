(* Tests for event channels. *)

module Ec = Evtchn.Event_channel
module Cm = Memory.Cost_meter

let fixed_latency = Sim.Time.us 4

let make_system () =
  let engine = Sim.Engine.create () in
  let ec = Ec.create ~engine ~delivery_latency:(fun () -> fixed_latency) in
  (engine, ec)

let make_channel ec ~a ~b =
  let port_a = Ec.alloc_unbound ec ~dom:a ~remote:b in
  match Ec.bind_interdomain ec ~dom:b ~remote:a ~remote_port:port_a with
  | Error e -> Alcotest.failf "bind failed: %a" Ec.pp_error e
  | Ok port_b -> (port_a, port_b)

let notify_exn ec ~dom ~port ~meter =
  match Ec.notify ec ~dom ~port ~meter with
  | Ok () -> ()
  | Error e -> Alcotest.failf "notify failed: %a" Ec.pp_error e

let test_bind_and_notify () =
  let engine, ec = make_system () in
  let meter = Cm.create () in
  let port_a, port_b = make_channel ec ~a:1 ~b:2 in
  let fired_at = ref None in
  Ec.set_handler ec ~dom:2 ~port:port_b (fun () ->
      fired_at := Some (Sim.Engine.now engine));
  Sim.Engine.spawn engine (fun () -> notify_exn ec ~dom:1 ~port:port_a ~meter);
  Sim.Engine.run engine;
  (match !fired_at with
  | None -> Alcotest.fail "handler never fired"
  | Some t ->
      Alcotest.(check int64) "fired after delivery latency" 4_000L
        (Sim.Time.instant_to_ns t));
  Alcotest.(check int) "notify is a hypercall" 1
    (Cm.hypercall_count meter Evtchn_send)

let test_notify_is_bidirectional () =
  let engine, ec = make_system () in
  let meter = Cm.create () in
  let port_a, port_b = make_channel ec ~a:1 ~b:2 in
  let a_fired = ref false in
  Ec.set_handler ec ~dom:1 ~port:port_a (fun () -> a_fired := true);
  Sim.Engine.spawn engine (fun () -> notify_exn ec ~dom:2 ~port:port_b ~meter);
  Sim.Engine.run engine;
  Alcotest.(check bool) "b can notify a" true !a_fired

let test_notifications_coalesce () =
  let engine, ec = make_system () in
  let meter = Cm.create () in
  let port_a, port_b = make_channel ec ~a:1 ~b:2 in
  let fired = ref 0 in
  Ec.set_handler ec ~dom:2 ~port:port_b (fun () -> incr fired);
  Sim.Engine.spawn engine (fun () ->
      (* Three back-to-back notifications while the pending bit is set must
         deliver exactly once. *)
      notify_exn ec ~dom:1 ~port:port_a ~meter;
      notify_exn ec ~dom:1 ~port:port_a ~meter;
      notify_exn ec ~dom:1 ~port:port_a ~meter);
  Sim.Engine.run engine;
  Alcotest.(check int) "coalesced" 1 !fired

let test_notify_after_delivery_fires_again () =
  let engine, ec = make_system () in
  let meter = Cm.create () in
  let port_a, port_b = make_channel ec ~a:1 ~b:2 in
  let fired = ref 0 in
  Ec.set_handler ec ~dom:2 ~port:port_b (fun () -> incr fired);
  Sim.Engine.spawn engine (fun () ->
      notify_exn ec ~dom:1 ~port:port_a ~meter;
      Sim.Engine.sleep (Sim.Time.us 100);
      notify_exn ec ~dom:1 ~port:port_a ~meter);
  Sim.Engine.run engine;
  Alcotest.(check int) "two deliveries" 2 !fired

let test_mask_defers_delivery () =
  let engine, ec = make_system () in
  let meter = Cm.create () in
  let port_a, port_b = make_channel ec ~a:1 ~b:2 in
  let fired = ref 0 in
  Ec.set_handler ec ~dom:2 ~port:port_b (fun () -> incr fired);
  Ec.mask ec ~dom:2 ~port:port_b;
  Sim.Engine.spawn engine (fun () ->
      notify_exn ec ~dom:1 ~port:port_a ~meter;
      Sim.Engine.sleep (Sim.Time.us 50);
      Alcotest.(check int) "not delivered while masked" 0 !fired;
      Alcotest.(check bool) "pending" true (Ec.is_pending ec ~dom:2 ~port:port_b);
      Ec.unmask ec ~dom:2 ~port:port_b);
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered after unmask" 1 !fired

let test_bind_validation () =
  let _, ec = make_system () in
  let port_a = Ec.alloc_unbound ec ~dom:1 ~remote:2 in
  (match Ec.bind_interdomain ec ~dom:3 ~remote:1 ~remote_port:port_a with
  | Error Ec.Bad_port -> ()
  | _ -> Alcotest.fail "wrong domain bound");
  (match Ec.bind_interdomain ec ~dom:2 ~remote:1 ~remote_port:99 with
  | Error Ec.Bad_port -> ()
  | _ -> Alcotest.fail "bound to nonexistent port");
  (match Ec.bind_interdomain ec ~dom:2 ~remote:1 ~remote_port:port_a with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "legit bind failed: %a" Ec.pp_error e);
  match Ec.bind_interdomain ec ~dom:2 ~remote:1 ~remote_port:port_a with
  | Error Ec.Already_bound -> ()
  | _ -> Alcotest.fail "double bind accepted"

let test_notify_unbound () =
  let _, ec = make_system () in
  let meter = Cm.create () in
  let port_a = Ec.alloc_unbound ec ~dom:1 ~remote:2 in
  match Ec.notify ec ~dom:1 ~port:port_a ~meter with
  | Error Ec.Not_bound -> ()
  | _ -> Alcotest.fail "notified through an unbound port"

let test_close_tears_down_both_ends () =
  let _, ec = make_system () in
  let meter = Cm.create () in
  let port_a, port_b = make_channel ec ~a:1 ~b:2 in
  Alcotest.(check int) "two endpoints" 2 (Ec.active_channels ec);
  Alcotest.(check (option (pair int int))) "peer of a" (Some (2, port_b))
    (Ec.peer ec ~dom:1 ~port:port_a);
  Ec.close ec ~dom:1 ~port:port_a;
  Alcotest.(check int) "all endpoints gone" 0 (Ec.active_channels ec);
  (match Ec.notify ec ~dom:2 ~port:port_b ~meter with
  | Error Ec.Bad_port -> ()
  | _ -> Alcotest.fail "notified through a closed channel");
  match Ec.notify ec ~dom:1 ~port:port_a ~meter with
  | Error Ec.Bad_port -> ()
  | _ -> Alcotest.fail "notified through own closed port"

let test_ports_are_per_domain () =
  let _, ec = make_system () in
  let p1 = Ec.alloc_unbound ec ~dom:1 ~remote:2 in
  let p2 = Ec.alloc_unbound ec ~dom:2 ~remote:1 in
  (* Port numbering is per-domain, so both should start from the same
     value; what matters is they address different endpoints. *)
  Alcotest.(check int) "first port of dom1" 1 p1;
  Alcotest.(check int) "first port of dom2" 1 p2

let suites =
  [
    ( "evtchn",
      [
        Alcotest.test_case "bind and notify" `Quick test_bind_and_notify;
        Alcotest.test_case "bidirectional" `Quick test_notify_is_bidirectional;
        Alcotest.test_case "notifications coalesce" `Quick test_notifications_coalesce;
        Alcotest.test_case "refires after delivery" `Quick
          test_notify_after_delivery_fires_again;
        Alcotest.test_case "mask defers delivery" `Quick test_mask_defers_delivery;
        Alcotest.test_case "bind validation" `Quick test_bind_validation;
        Alcotest.test_case "notify unbound port" `Quick test_notify_unbound;
        Alcotest.test_case "close tears down both ends" `Quick
          test_close_tears_down_both_ends;
        Alcotest.test_case "ports are per-domain" `Quick test_ports_are_per_domain;
      ] );
  ]
