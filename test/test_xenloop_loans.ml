(* Loaned-slot zero-copy receive (DESIGN.md §11): borrowed pool-slot
   views through the socket layer, negotiated loan credit, transparent
   degradation to copy-out when credit runs dry, force-return at channel
   teardown, and a qcheck property that the loan/release protocol never
   double-frees or leaks a slot. *)

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module
module Pool = Xenloop.Payload_pool
module Page = Memory.Page
module Udp = Netstack.Udp

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

let modules_of duo =
  match duo.Setup.modules with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Alcotest.fail "expected two xenloop modules"

let bind_exn udp ?port () =
  match Udp.bind udp ?port () with Ok s -> s | Error _ -> Alcotest.fail "bind"

(* A payload large enough to ride a descriptor (above the inline
   threshold), patterned so corruption cannot hide. *)
let big_payload i =
  Bytes.init 1400 (fun j -> Char.chr ((i + (j * 7)) land 0xff))

(* A two-guest XenLoop world.  The datagrams the tests send ride the
   packet path: a 1,400 B payload is above the inline threshold, so each
   frame takes a pool descriptor the receiver may lend to its socket
   layer. *)
let with_loan_world ?params f =
  let duo =
    match params with
    | Some params -> Setup.build ~params Setup.Xenloop_path
    | None -> Setup.build Setup.Xenloop_path
  in
  let m1, m2 = modules_of duo in
  Experiment.execute duo (fun () ->
      f ~duo ~m1 ~m2 ~client:(host_of duo.Setup.client)
        ~server:(host_of duo.Setup.server))

(* ------------------------------------------------------------------ *)
(* Loaned delivery on the packet path *)

let test_packet_path_loaned_delivery () =
  (* Every frame rides a descriptor; the receiver borrows the slot for the
     whole netstack traversal and the borrow ends when the app reads the
     datagram out. *)
  with_loan_world (fun ~duo ~m1 ~m2 ~client ~server ->
      Alcotest.(check bool) "loans negotiated" true (Gm.loans_active m1 ~domid:2);
      let server_sock = bind_exn server.Workloads.Host.udp ~port:4000 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      let n = 8 in
      for i = 0 to n - 1 do
        Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:4000
          (big_payload i)
      done;
      for i = 0 to n - 1 do
        let _, _, got = Udp.recvfrom server_sock in
        Alcotest.(check bytes)
          (Printf.sprintf "payload %d intact" i)
          (big_payload i) got
      done;
      let tx = Gm.stats m1 and rx = Gm.stats m2 in
      Alcotest.(check int) "all rode loan descriptors" n tx.Gm.loan_tx;
      Alcotest.(check int) "all delivered as loans" n rx.Gm.loan_rx;
      Alcotest.(check int) "every borrow returned" n rx.Gm.loan_returns;
      Alcotest.(check int) "no credit stalls" 0 rx.Gm.loan_credit_stalls;
      Alcotest.(check int) "no loans outstanding" 0 (Gm.outstanding_loans m2))

let test_view_release_idempotent () =
  with_loan_world (fun ~duo ~m1:_ ~m2 ~client ~server ->
      let server_sock = bind_exn server.Workloads.Host.udp ~port:4002 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:4002
        (big_payload 0);
      let _, _, got, release = Udp.recvfrom_view server_sock in
      Alcotest.(check bytes) "view intact" (big_payload 0) got;
      Alcotest.(check int) "view pins the slot" 1 (Gm.outstanding_loans m2);
      release ();
      Alcotest.(check int) "released" 0 (Gm.outstanding_loans m2);
      release ();
      release ();
      Alcotest.(check int) "extra releases no-op" 0 (Gm.outstanding_loans m2);
      Alcotest.(check int) "returned exactly once" 1 (Gm.stats m2).Gm.loan_returns)

(* ------------------------------------------------------------------ *)
(* Credit exhaustion degrades transparently to copy-out *)

let test_credit_exhaustion_transparent_copyout () =
  let params =
    { Hypervisor.Params.default with Hypervisor.Params.xenloop_max_loans = 2 }
  in
  with_loan_world ~params (fun ~duo ~m1:_ ~m2 ~client ~server ->
      let server_sock = bind_exn server.Workloads.Host.udp ~port:4003 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      let n = 10 in
      let rx_before = (Gm.stats m2).Gm.via_channel_rx in
      (* The receiver never runs while the burst lands: the first two
         datagrams park as views and pin the whole loan credit, so the
         rest must degrade to copy-out — delivery itself must not care. *)
      for i = 0 to n - 1 do
        Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:4003
          (big_payload i)
      done;
      (* Let the receiving module drain every descriptor before looking:
         the views park in the socket buffer, nobody reads yet. *)
      Sim.Engine.sleep (Sim.Time.ms 2);
      let rx = Gm.stats m2 in
      Alcotest.(check int) "credit capped the borrows" 2 rx.Gm.loan_rx;
      Alcotest.(check int) "the rest stalled to copy-out" (n - 2)
        rx.Gm.loan_credit_stalls;
      Alcotest.(check int) "credit fully pinned" 2 (Gm.outstanding_loans m2);
      (* Identical delivery: same order, same bytes, loan or copy. *)
      for i = 0 to n - 1 do
        let _, _, got = Udp.recvfrom server_sock in
        Alcotest.(check bytes)
          (Printf.sprintf "payload %d identical" i)
          (big_payload i) got
      done;
      Alcotest.(check int) "borrows returned on read" 2
        (Gm.stats m2).Gm.loan_returns;
      Alcotest.(check int) "no loans outstanding" 0 (Gm.outstanding_loans m2);
      Alcotest.(check int) "all delivered via the channel" n
        ((Gm.stats m2).Gm.via_channel_rx - rx_before))

(* ------------------------------------------------------------------ *)
(* Teardown force-returns leaked loans *)

let test_leak_force_return_on_teardown () =
  with_loan_world (fun ~duo ~m1 ~m2 ~client ~server ->
      (* A leaky application: every borrowed view is kept forever. *)
      Gm.set_loan_fault_injector m2 (Some (fun () -> Gm.Loan_leak));
      let server_sock = bind_exn server.Workloads.Host.udp ~port:4005 () in
      let client_sock = bind_exn client.Workloads.Host.udp () in
      let n = 5 in
      for i = 0 to n - 1 do
        Udp.sendto client_sock ~dst:duo.Setup.server_ip ~dst_port:4005
          (big_payload i)
      done;
      for i = 0 to n - 1 do
        let _, _, got = Udp.recvfrom server_sock in
        Alcotest.(check bytes)
          (Printf.sprintf "payload %d still delivered" i)
          (big_payload i) got
      done;
      Alcotest.(check int) "leaked borrows pin their slots" n
        (Gm.outstanding_loans m2);
      Alcotest.(check int) "nothing returned" 0 (Gm.stats m2).Gm.loan_returns;
      (* Channel teardown (here: the peer unloading, as a migration or
         module removal would) must force-return every leaked slot before
         the pool pages are unmapped. *)
      Gm.unload m1;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "force-return recovered the leaks" n
        (Gm.stats m2).Gm.loans_force_returned;
      Alcotest.(check int) "no loans outstanding after teardown" 0
        (Gm.outstanding_loans m2))

(* ------------------------------------------------------------------ *)
(* qcheck: the loan/release protocol never double-frees or leaks *)

let prop_loan_release_safe =
  QCheck.Test.make ~name:"loan/release never double-frees or leaks" ~count:300
    QCheck.(list (int_range 0 5))
    (fun ops ->
      let slots = 8 and max_loans = 4 in
      let ctrl = Page.create () in
      let data = Array.init slots (fun _ -> Page.create ()) in
      let p =
        Pool.init ~max_loans ~ctrl ~data ~slots ~slot_pages:1 ~inline_max:64 ()
      in
      (* Model: [allocated] are slots off the ring being written/read;
         [loaned] are borrowed views the app holds. *)
      let allocated = ref [] and loaned = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 -> (
              match Pool.alloc p with
              | Some s -> allocated := s :: !allocated
              | None -> ())
          | 2 -> (
              match !allocated with
              | s :: rest ->
                  allocated := rest;
                  Pool.free p s
              | [] -> ())
          | 3 -> (
              match !allocated with
              | s :: rest when List.length !loaned < max_loans ->
                  allocated := rest;
                  Pool.loan p s;
                  loaned := s :: !loaned
              | _ -> ())
          | 4 -> (
              match !loaned with
              | s :: rest ->
                  loaned := rest;
                  Pool.release p s
              | [] -> ())
          | _ -> (
              (* Release from the back: out-of-order returns are legal. *)
              match List.rev !loaned with
              | s :: _ ->
                  loaned := List.filter (fun x -> x <> s) !loaned;
                  Pool.release p s
              | [] -> ()))
        ops;
      (* Conservation: every slot is exactly one of free / allocated /
         loaned, the pool's own sanity check agrees, and its outstanding
         count matches the model. *)
      let ok_mid =
        Pool.sanity p = None
        && Pool.outstanding_loans p = List.length !loaned
        && Pool.free_slots p
           = slots - List.length !allocated - List.length !loaned
      in
      (* Teardown: force-return recovers exactly the model's loans, after
         which late releases are no-ops (never a double free). *)
      let returned = Pool.force_return_loans p in
      let late_release_safe =
        List.for_all
          (fun s ->
            Pool.release p s;
            true)
          !loaned
      in
      ok_mid
      && returned = List.length !loaned
      && Pool.outstanding_loans p = 0
      && late_release_safe
      && Pool.sanity p = None)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "xenloop.loans",
      [
        Alcotest.test_case "packet path loaned delivery" `Quick
          test_packet_path_loaned_delivery;
        Alcotest.test_case "view release is idempotent" `Quick
          test_view_release_idempotent;
        Alcotest.test_case "credit exhaustion degrades to copy-out" `Quick
          test_credit_exhaustion_transparent_copyout;
        Alcotest.test_case "teardown force-returns leaked loans" `Quick
          test_leak_force_return_on_teardown;
      ] );
    ("xenloop.loans.qcheck", qsuite [ prop_loan_release_safe ]);
  ]
