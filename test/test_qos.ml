(* QoS subsystem tests (DESIGN.md §14): DRR weight proportionality and
   the per-flow sub-queue bound, watermark hysteresis (one edge per
   genuine crossing), and qcheck properties: every DRR visit serves at
   most one replenishment past the flow's banked credit, item-by-item
   service ([peek]/[pop]) is the batch service ([select]) cut into
   items, and one flow is served in FIFO order. *)

module Drr = Qos.Drr
module Watermark = Qos.Watermark

(* ------------------------------------------------------------------ *)
(* DRR: service is proportional to weight while flows stay backlogged *)

let test_drr_weight_proportionality () =
  let d = Drr.create ~quantum:100 ~max_per_flow:64 () in
  for _ = 1 to 32 do
    assert (Drr.enqueue d ~key:"heavy" ~weight:3 ~len:100 ());
    assert (Drr.enqueue d ~key:"light" ~weight:1 ~len:100 ())
  done;
  (* 8 visits = 4 full rounds over 2 flows; both stay backlogged, so
     service is exactly quantum * weight per visit. *)
  let heavy = ref 0 and light = ref 0 in
  for _ = 1 to 8 do
    match Drr.select d with
    | None -> Alcotest.fail "scheduler drained early"
    | Some (key, batch) ->
        let served = List.fold_left (fun a (_, l) -> a + l) 0 batch in
        if key = "heavy" then heavy := !heavy + served
        else light := !light + served
  done;
  Alcotest.(check int) "heavy bytes" 1200 !heavy;
  Alcotest.(check int) "light bytes" 400 !light;
  Alcotest.(check int) "3:1 ratio" (3 * !light) !heavy;
  Alcotest.(check int) "nothing lost"
    (32 * 2 * 100 - !heavy - !light)
    (Drr.bytes d)

let test_drr_per_flow_bound () =
  let d = Drr.create ~quantum:100 ~max_per_flow:4 () in
  for _ = 1 to 4 do
    Alcotest.(check bool) "under bound" true
      (Drr.enqueue d ~key:"a" ~weight:1 ~len:10 ())
  done;
  Alcotest.(check bool) "5th refused" false
    (Drr.enqueue d ~key:"a" ~weight:1 ~len:10 ());
  (* The bound is per flow: another flow still has room. *)
  Alcotest.(check bool) "other flow unaffected" true
    (Drr.enqueue d ~key:"b" ~weight:1 ~len:10 ());
  Alcotest.(check int) "a holds its bound" 4 (Drr.flow_length d "a");
  (* Draining frees the slot again. *)
  (match Drr.select d with
  | Some ("a", batch) ->
      Alcotest.(check int) "full sub-queue served" 4 (List.length batch)
  | _ -> Alcotest.fail "expected flow a first");
  Alcotest.(check bool) "room after drain" true
    (Drr.enqueue d ~key:"a" ~weight:1 ~len:10 ())

(* A consumer that cannot take the peeked item leaves it queued: it
   stays counted, and the next peek names it again, until [pop]. *)
let test_drr_peek_keeps_item () =
  let d = Drr.create ~quantum:1000 ~max_per_flow:16 () in
  assert (Drr.enqueue d ~key:"f" ~weight:1 ~len:100 'a');
  assert (Drr.enqueue d ~key:"f" ~weight:1 ~len:100 'b');
  assert (Drr.enqueue d ~key:"g" ~weight:1 ~len:100 'z');
  let peeked () =
    match Drr.peek d with
    | Some (key, v, len) -> (key, v, len)
    | None -> Alcotest.fail "peek on a non-empty scheduler"
  in
  let first = peeked () in
  Alcotest.(check bool) "f's head first" true (first = ("f", 'a', 100));
  Alcotest.(check int) "peeked item still counted" 3 (Drr.length d);
  Alcotest.(check int) "peeked bytes still counted" 300 (Drr.bytes d);
  Alcotest.(check int) "peeked flow still holds it" 2 (Drr.flow_length d "f");
  Alcotest.(check bool) "a second peek names the same item" true
    (peeked () = first);
  Drr.pop d;
  Alcotest.(check int) "pop removes it" 2 (Drr.length d);
  Alcotest.(check bool) "the visit resumes at f's next item" true
    (peeked () = ("f", 'b', 100));
  Drr.pop d;
  Drr.pop d;
  Alcotest.(check bool) "empty" true (Drr.is_empty d && Drr.peek d = None);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Drr.pop: empty scheduler")
    (fun () -> Drr.pop d)

(* ------------------------------------------------------------------ *)
(* Watermark: one edge per genuine crossing, latched between *)

let test_watermark_hysteresis () =
  let w = Watermark.create ~high:0.75 ~low:0.25 in
  let up u = Watermark.update w ~used:u ~capacity:8 in
  Alcotest.(check bool) "below high: no edge" true (up 5 = `None);
  Alcotest.(check bool) "crossing raises" true (up 6 = `Raise);
  Alcotest.(check bool) "hovering: latched, no second raise" true
    (up 6 = `None && up 7 = `None);
  Alcotest.(check bool) "latched while above low" true
    (Watermark.congested w && up 3 = `None);
  Alcotest.(check bool) "falling to low clears" true (up 2 = `Clear);
  Alcotest.(check bool) "cleared: no second clear" true (up 1 = `None);
  Alcotest.(check bool) "second crossing raises again" true (up 8 = `Raise);
  Alcotest.(check int) "raises counted" 2 (Watermark.raises w);
  Alcotest.(check int) "clears counted" 1 (Watermark.clears w);
  Alcotest.(check bool) "zero capacity is no information" true
    (Watermark.update w ~used:0 ~capacity:0 = `None);
  (* Teardown reset drops the latch without emitting an edge. *)
  Watermark.reset w;
  Alcotest.(check bool) "reset unlatches silently" true
    ((not (Watermark.congested w)) && Watermark.clears w = 1)

(* ------------------------------------------------------------------ *)
(* qcheck: every DRR visit serves within one replenishment of the
   flow's banked credit, and nothing is lost or invented. *)

let prop_drr_visit_bounded =
  QCheck.Test.make ~name:"drr visit serves <= banked credit + quantum*weight"
    ~count:300
    QCheck.(list (pair (int_range 0 3) (int_range 1 200)))
    (fun items ->
      let quantum = 64 in
      let weight = [| 1; 2; 3; 4 |] in
      let d = Drr.create ~quantum ~max_per_flow:10_000 () in
      let enqueued = Array.make 4 0 in
      List.iter
        (fun (f, len) ->
          assert (Drr.enqueue d ~key:f ~weight:weight.(f) ~len ());
          enqueued.(f) <- enqueued.(f) + len)
        items;
      let served = Array.make 4 0 in
      let ok = ref true in
      let rec drain () =
        match Drr.select d with
        | None -> ()
        | Some (f, batch) ->
            let bytes = List.fold_left (fun a (_, l) -> a + l) 0 batch in
            (* A skipped visit banks credit only while the bank is still
               smaller than the head item (< 200 B here), so the serving
               visit holds less than max_len - 1 + one replenishment —
               the classic "within one quantum" DRR bound. *)
            if bytes > 200 - 1 + (quantum * weight.(f)) then ok := false;
            served.(f) <- served.(f) + bytes;
            drain ()
      in
      drain ();
      !ok
      && Array.for_all2 (fun a b -> a = b) served enqueued
      && Drr.is_empty d)

(* A scheduler holding [items], (flow, len) pairs; each item's value is
   its index, and flow [f] has weight [f + 1]. *)
let fill items ~quantum =
  let d = Drr.create ~quantum ~max_per_flow:10_000 () in
  List.iteri
    (fun i (f, len) -> assert (Drr.enqueue d ~key:f ~weight:(f + 1) ~len i))
    items;
  d

let prop_drr_peek_pop_is_select =
  QCheck.Test.make ~name:"drr peek/pop sequence = concatenated select batches"
    ~count:300
    QCheck.(pair (int_range 1 300) (list (pair (int_range 0 3) (int_range 1 200))))
    (fun (quantum, items) ->
      let by_select =
        let d = fill items ~quantum in
        let rec go acc =
          match Drr.select d with
          | None -> List.rev acc
          | Some (f, batch) ->
              go (List.rev_append (List.map (fun (i, len) -> (f, i, len)) batch) acc)
        in
        go []
      in
      let by_peek =
        let d = fill items ~quantum in
        let rec go acc =
          match Drr.peek d with
          | None -> List.rev acc
          | Some item ->
              Drr.pop d;
              go (item :: acc)
        in
        go []
      in
      by_select = by_peek)

let prop_drr_one_flow_is_fifo =
  QCheck.Test.make ~name:"drr with one flow serves in FIFO order" ~count:300
    QCheck.(pair (int_range 1 3000) (list (int_range 1 9000)))
    (fun (quantum, lens) ->
      let d = Drr.create ~quantum ~max_per_flow:10_000 () in
      List.iteri (fun i len -> assert (Drr.enqueue d ~key:() ~weight:1 ~len i)) lens;
      let rec go acc =
        match Drr.peek d with
        | None -> List.rev acc
        | Some ((), i, _) ->
            Drr.pop d;
            go (i :: acc)
      in
      go [] = List.init (List.length lens) Fun.id)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "qos.drr",
      [
        Alcotest.test_case "weight proportionality" `Quick
          test_drr_weight_proportionality;
        Alcotest.test_case "per-flow bound" `Quick test_drr_per_flow_bound;
        Alcotest.test_case "a peeked item stays counted until pop" `Quick
          test_drr_peek_keeps_item;
      ] );
    ( "qos.watermark",
      [ Alcotest.test_case "hysteresis" `Quick test_watermark_hysteresis ] );
    ( "qos.qcheck",
      qsuite
        [ prop_drr_visit_bounded; prop_drr_peek_pop_is_select; prop_drr_one_flow_is_fifo ]
    );
  ]
