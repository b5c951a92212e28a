(* Timer-wheel tests: the calendar queue must reproduce the exact
   (time, seq) pop order of the binary heap it replaced — same-tick FIFO
   ordering, far-future overflow promotion, and cascade across the wheel
   window boundary — plus a property test checking a random workload pops
   in identical order on the wheel and on a reference model. *)

module W = Sim.Wheel

let window_ns = 8192 * 1024
(* slot_count * tick_ns: events beyond [cursor + window] overflow to the
   heap.  Mirrors the constants in wheel.ml; a geometry change that breaks
   this mirror fails the far-future tests loudly. *)

let drain w =
  let rec go acc =
    let c = W.pop w in
    if c == W.nil w then List.rev acc
    else go ((c.W.c_time, c.W.c_seq, c.W.c_value) :: acc)
  in
  go []

let insert_at w ~time ~seq v =
  let c = W.make_cell w v in
  c.W.c_time <- time;
  c.W.c_seq <- seq;
  W.insert w c;
  c

let test_same_tick_fifo () =
  let w = W.create ~dummy:(-1) in
  (* Ten events at one instant (necessarily one slot) pop in seq order. *)
  for i = 0 to 9 do
    ignore (insert_at w ~time:5_000 ~seq:i i)
  done;
  let order = List.map (fun (_, _, v) -> v) (drain w) in
  Alcotest.(check (list int)) "seq order within a tick" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_same_tick_distinct_times () =
  let w = W.create ~dummy:(-1) in
  (* Distinct times within one 1.024us tick still pop by time first. *)
  ignore (insert_at w ~time:1_003 ~seq:0 0);
  ignore (insert_at w ~time:1_001 ~seq:1 1);
  ignore (insert_at w ~time:1_002 ~seq:2 2);
  let order = List.map (fun (t, _, _) -> t) (drain w) in
  Alcotest.(check (list int)) "time order within a tick" [ 1_001; 1_002; 1_003 ] order

let test_far_future_promotion () =
  let w = W.create ~dummy:(-1) in
  (* An event parked far beyond the wheel window must reach the heap and
     still pop, after everything nearer. *)
  ignore (insert_at w ~time:(100 * window_ns) ~seq:0 0);
  ignore (insert_at w ~time:500 ~seq:1 1);
  Alcotest.(check int) "both counted" 2 (W.length w);
  Alcotest.(check bool) "nothing before the near one" true (W.clear_through w 499);
  Alcotest.(check bool) "the near one is at 500" false (W.clear_through w 500);
  let order = List.map (fun (_, _, v) -> v) (drain w) in
  Alcotest.(check (list int)) "near then far" [ 1; 0 ] order;
  Alcotest.(check bool) "empty after drain" true (W.is_empty w)

let test_cascade_at_rollover () =
  let w = W.create ~dummy:(-1) in
  (* Events straddling the window boundary: some inside [0, window), some
     in the next window revolution (same slot indices, later times).  The
     wheel must not conflate them. *)
  let times =
    [ 100; window_ns - 1; window_ns; window_ns + 100; (2 * window_ns) + 5; 7 ]
  in
  List.iteri (fun i t -> ignore (insert_at w ~time:t ~seq:i i)) times;
  let popped = List.map (fun (t, _, _) -> t) (drain w) in
  let expect = List.sort compare times in
  Alcotest.(check (list int)) "global time order across rollover" expect popped

let test_remove () =
  let w = W.create ~dummy:(-1) in
  let near = insert_at w ~time:1_000 ~seq:0 0 in
  let mid = insert_at w ~time:1_000 ~seq:1 1 in
  let far = insert_at w ~time:(50 * window_ns) ~seq:2 2 in
  Alcotest.(check bool) "remove middle of slot" true (W.remove w mid);
  Alcotest.(check bool) "remove from overflow heap" true (W.remove w far);
  Alcotest.(check bool) "second remove is false" false (W.remove w mid);
  Alcotest.(check int) "one left" 1 (W.length w);
  ignore near;
  let order = List.map (fun (_, _, v) -> v) (drain w) in
  Alcotest.(check (list int)) "survivor pops" [ 0 ] order

let test_pop_before () =
  let w = W.create ~dummy:(-1) in
  ignore (insert_at w ~time:2_000 ~seq:0 0);
  ignore (insert_at w ~time:9_000 ~seq:1 1);
  let c = W.pop_before w 1_000 in
  Alcotest.(check bool) "nothing at or before 1us" true (c == W.nil w);
  let c = W.pop_before w 2_000 in
  Alcotest.(check int) "pops the 2us event" 0 c.W.c_value;
  let c = W.pop_before w 2_000 in
  Alcotest.(check bool) "declines the 9us event" true (c == W.nil w);
  (* Declining must leave the queue intact for a later bounded run. *)
  Alcotest.(check int) "still pending" 1 (W.length w);
  Alcotest.(check bool) "clear before 9us" true (W.clear_through w 8_999);
  Alcotest.(check bool) "the 9us event still there" false (W.clear_through w 9_000)

(* Property: a random workload pops in exactly the (time, seq) order of a
   reference model (stable sort by time — seq is the insertion index, so
   stability gives the tie-break).  Times are drawn across several wheel
   windows so slots, collisions, and the overflow heap are all hit. *)
let prop_wheel_matches_model =
  QCheck.Test.make ~count:100 ~name:"wheel pops in model order"
    QCheck.(list_of_size Gen.(int_range 0 200) (int_bound (3 * window_ns)))
    (fun times ->
      let w = W.create ~dummy:(-1) in
      List.iteri (fun i t -> ignore (insert_at w ~time:t ~seq:i i)) times;
      let popped = List.map (fun (t, s, _) -> (t, s)) (drain w) in
      let model =
        List.stable_sort
          (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i t -> (t, i)) times)
      in
      popped = model)

(* Property: interleaved insert/pop rounds with a monotonic clock (the
   engine's usage pattern: every insert is at or after the last popped
   time) still pop in global (time, seq) order. *)
let prop_wheel_interleaved =
  QCheck.Test.make ~count:100 ~name:"wheel interleaved rounds stay sorted"
    QCheck.(
      pair (int_bound 1_000_000)
        (list_of_size Gen.(int_range 1 20)
           (list_of_size Gen.(int_range 0 30) (int_bound (2 * window_ns)))))
    (fun (seed0, rounds) ->
      ignore seed0;
      let w = W.create ~dummy:(-1) in
      let seq = ref 0 in
      let now = ref 0 in
      let ok = ref true in
      let last = ref (-1, -1) in
      List.iter
        (fun offsets ->
          List.iter
            (fun off ->
              ignore (insert_at w ~time:(!now + off) ~seq:!seq !seq);
              incr seq)
            offsets;
          (* Pop half of what is pending, checking global order. *)
          for _ = 1 to W.length w / 2 do
            let c = W.pop w in
            let key = (c.W.c_time, c.W.c_seq) in
            if key < !last then ok := false;
            last := key;
            now := max !now c.W.c_time
          done)
        rounds;
      (* Drain the rest. *)
      let rec finish () =
        let c = W.pop w in
        if c != W.nil w then begin
          let key = (c.W.c_time, c.W.c_seq) in
          if key < !last then ok := false;
          last := key;
          finish ()
        end
      in
      finish ();
      !ok)

(* Property: [clear_through] answers as a sorted-list model does, over
   random inserts, removes, bounded pops (declined ones included) and
   queries, used the way the engine uses them: the clock moves to a
   popped cell's time, to a declined pop's limit, or to a query's limit
   when the query said yes; inserts land at or after the clock. *)
type wheel_op =
  | Insert of int  (* ns after the clock *)
  | Remove of int  (* index into the queued cells *)
  | Pop_before of int  (* limit, ns after the clock *)
  | Query of int * bool  (* limit, ns after the clock; advance on yes *)

let prop_clear_through_matches_model =
  let open QCheck.Gen in
  let offset =
    frequency
      [ (6, 0 -- 5_000); (3, 0 -- 200_000); (1, 0 -- (3 * window_ns)) ]
  in
  let op =
    frequency
      [
        (4, map (fun d -> Insert d) offset);
        (1, map (fun i -> Remove i) (0 -- 50));
        (3, map (fun d -> Pop_before d) offset);
        (4, map2 (fun d adv -> Query (d, adv)) offset bool);
      ]
  in
  let print = function
    | Insert d -> Printf.sprintf "insert +%d" d
    | Remove i -> Printf.sprintf "remove #%d" i
    | Pop_before d -> Printf.sprintf "pop_before +%d" d
    | Query (d, adv) -> Printf.sprintf "query +%d%s" d (if adv then " (advance)" else "")
  in
  QCheck.Test.make ~count:300 ~name:"wheel clear_through matches a sorted model"
    (QCheck.make ~print:QCheck.Print.(list print) (list_size (1 -- 200) op))
    (fun ops ->
      let w = W.create ~dummy:(-1) in
      let clock = ref 0 and seq = ref 0 in
      (* Queued cells, sorted by (time, seq). *)
      let model = ref [] in
      let key c = (c.W.c_time, c.W.c_seq) in
      List.for_all
        (fun op ->
          match op with
          | Insert d ->
              let c = insert_at w ~time:(!clock + d) ~seq:!seq !seq in
              incr seq;
              model := List.sort (fun a b -> compare (key a) (key b)) (c :: !model);
              true
          | Remove i -> (
              match List.nth_opt !model i with
              | None -> true
              | Some c ->
                  model := List.filter (fun x -> x != c) !model;
                  W.remove w c)
          | Pop_before d -> (
              let limit = !clock + d in
              let c = W.pop_before w limit in
              match !model with
              | m :: rest when m.W.c_time <= limit ->
                  model := rest;
                  clock := m.W.c_time;
                  c == m
              | _ ->
                  clock := limit;
                  c == W.nil w)
          | Query (d, advance) ->
              let limit = !clock + d in
              let expect = List.for_all (fun c -> c.W.c_time > limit) !model in
              let got = W.clear_through w limit in
              if got && advance then clock := limit;
              got = expect)
        ops
      && List.map (fun (t, s, _) -> (t, s)) (drain w) = List.map key !model)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "sim.wheel",
      [
        Alcotest.test_case "same-tick fifo order" `Quick test_same_tick_fifo;
        Alcotest.test_case "same-tick distinct times" `Quick test_same_tick_distinct_times;
        Alcotest.test_case "far-future promotion" `Quick test_far_future_promotion;
        Alcotest.test_case "cascade at rollover" `Quick test_cascade_at_rollover;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "pop_before" `Quick test_pop_before;
      ]
      @ qsuite
          [
            prop_wheel_matches_model;
            prop_wheel_interleaved;
            prop_clear_through_matches_model;
          ] );
  ]
