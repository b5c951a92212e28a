(* Tests for the simulation engine library. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_arithmetic () =
  let t = Sim.Time.add Sim.Time.zero (Sim.Time.us 5) in
  Alcotest.(check int64) "5us in ns" 5_000L (Sim.Time.instant_to_ns t);
  let t2 = Sim.Time.add t (Sim.Time.ms 1) in
  Alcotest.(check int64) "diff" 1_000_000L Sim.Time.(to_ns (diff t2 t))

let test_time_ordering () =
  let a = Sim.Time.add Sim.Time.zero (Sim.Time.ns 10) in
  let b = Sim.Time.add Sim.Time.zero (Sim.Time.ns 20) in
  Alcotest.(check bool) "a < b" true Sim.Time.(a < b);
  Alcotest.(check bool) "b > a" true Sim.Time.(b > a);
  Alcotest.(check bool) "a <= a" true Sim.Time.(a <= a);
  Alcotest.(check bool) "not b <= a" false Sim.Time.(b <= a)

let test_time_span_units () =
  Alcotest.(check int64) "1s" 1_000_000_000L (Sim.Time.to_ns (Sim.Time.sec 1));
  Alcotest.(check int64) "1ms" 1_000_000L (Sim.Time.to_ns (Sim.Time.ms 1));
  Alcotest.(check int64) "1us" 1_000L (Sim.Time.to_ns (Sim.Time.us 1));
  check_float "to_us_f" 2.5 (Sim.Time.to_us_f (Sim.Time.ns 2500));
  check_float "of_sec_f roundtrip" 1.5 (Sim.Time.to_sec_f (Sim.Time.of_sec_f 1.5))

let test_time_span_ops () =
  let a = Sim.Time.us 3 and b = Sim.Time.us 7 in
  Alcotest.(check int64) "add" 10_000L Sim.Time.(to_ns (span_add a b));
  Alcotest.(check int64) "sub" 4_000L Sim.Time.(to_ns (span_sub b a));
  Alcotest.(check int64) "scale" 21_000L Sim.Time.(to_ns (span_scale 3 b));
  Alcotest.(check int64) "max" 7_000L Sim.Time.(to_ns (span_max a b));
  Alcotest.(check bool) "positive" true (Sim.Time.span_is_positive a);
  Alcotest.(check bool) "zero not positive" false
    (Sim.Time.span_is_positive Sim.Time.span_zero);
  Alcotest.(check bool) "negative not positive" false
    (Sim.Time.span_is_positive (Sim.Time.span_sub a b))

let test_time_pp () =
  let str v = Format.asprintf "%a" Sim.Time.pp_span v in
  Alcotest.(check string) "ns" "500ns" (str (Sim.Time.ns 500));
  Alcotest.(check string) "us" "12.50us" (str (Sim.Time.of_us_f 12.5));
  Alcotest.(check string) "ms" "3.00ms" (str (Sim.Time.ms 3));
  Alcotest.(check string) "s" "2.000s" (str (Sim.Time.sec 2))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let test_rng_seed_matters () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let same = ref true in
  for _ = 1 to 10 do
    if Sim.Rng.int64 a <> Sim.Rng.int64 b then same := false
  done;
  Alcotest.(check bool) "different seeds differ" false !same

let test_rng_bounds () =
  let r = Sim.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Sim.Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_invalid_bound () =
  let r = Sim.Rng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_rng_split_independent () =
  let parent = Sim.Rng.create ~seed:11 in
  let child = Sim.Rng.split parent in
  let xs = List.init 20 (fun _ -> Sim.Rng.int64 parent) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int64 child) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_exponential_mean () =
  let r = Sim.Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Sim.Rng.exponential r ~mean:10.0 in
    Alcotest.(check bool) "positive" true (v > 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 10"
    true
    (mean > 9.0 && mean < 11.0)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_empty () =
  let s = Sim.Stats.create () in
  Alcotest.(check int) "count" 0 (Sim.Stats.count s);
  check_float "mean" 0.0 (Sim.Stats.mean s);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.min: empty")
    (fun () -> ignore (Sim.Stats.min s))

let test_stats_moments () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Sim.Stats.mean s);
  check_float "stddev" 2.0 (Sim.Stats.stddev s);
  check_float "min" 2.0 (Sim.Stats.min s);
  check_float "max" 9.0 (Sim.Stats.max s);
  check_float "total" 40.0 (Sim.Stats.total s)

let test_stats_percentile () =
  let s = Sim.Stats.create () in
  for i = 1 to 100 do
    Sim.Stats.add s (float_of_int i)
  done;
  check_float "p0" 1.0 (Sim.Stats.percentile s 0.0);
  check_float "p100" 100.0 (Sim.Stats.percentile s 100.0);
  check_float "median" 50.5 (Sim.Stats.median s);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Sim.Stats.percentile s 101.0))

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"streaming mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Sim.Stats.create () in
      List.iter (Sim.Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Sim.Stats.mean s -. naive) < 1e-6)

let prop_stats_minmax =
  QCheck.Test.make ~name:"stats min/max match folds" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Sim.Stats.create () in
      List.iter (Sim.Stats.add s) xs;
      Sim.Stats.min s = List.fold_left Float.min infinity xs
      && Sim.Stats.max s = List.fold_left Float.max neg_infinity xs)

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_order () =
  let s = Sim.Series.create ~name:"t" in
  Sim.Series.record s ~x:1.0 ~y:10.0;
  Sim.Series.record s ~x:2.0 ~y:20.0;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "insertion order"
    [ (1.0, 10.0); (2.0, 20.0) ]
    (Sim.Series.points s)

let test_series_bucketize () =
  let pts = [ (0.1, 1.0); (0.2, 1.0); (1.5, 1.0); (2.9, 4.0) ] in
  let buckets = Sim.Series.bucketize ~width:1.0 pts in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "buckets"
    [ (0.5, 2.0); (1.5, 1.0); (2.5, 4.0) ]
    buckets

let test_series_bucketize_invalid () =
  Alcotest.check_raises "width 0"
    (Invalid_argument "Series.bucketize: width must be positive")
    (fun () -> ignore (Sim.Series.bucketize ~width:0.0 []))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Sim.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Sim.Table.add_row t [ "1"; "2" ];
  let out = Format.asprintf "%a" Sim.Table.pp t in
  Alcotest.(check bool) "has title" true (Testutil.contains out "=== demo ===");
  Alcotest.(check bool) "has row" true (Testutil.contains out "1")

let test_table_row_mismatch () =
  let t = Sim.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Sim.Table.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep (Sim.Time.us 10);
      seen := Sim.Time.instant_to_ns (Sim.Engine.now e) :: !seen;
      Sim.Engine.sleep (Sim.Time.us 5);
      seen := Sim.Time.instant_to_ns (Sim.Engine.now e) :: !seen);
  Sim.Engine.run e;
  Alcotest.(check (list int64)) "timestamps" [ 15_000L; 10_000L ] !seen

let test_engine_event_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  Sim.Engine.after e (Sim.Time.us 20) (fun () -> order := 2 :: !order);
  Sim.Engine.after e (Sim.Time.us 10) (fun () -> order := 1 :: !order);
  Sim.Engine.after e (Sim.Time.us 30) (fun () -> order := 3 :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 3; 2; 1 ] !order

let test_engine_fifo_ties () =
  (* Events at the same instant run in scheduling order. *)
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.Engine.spawn e (fun () -> order := i :: !order)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 5; 4; 3; 2; 1 ] !order

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.after e (Sim.Time.ms 1) (fun () -> incr fired);
  Sim.Engine.after e (Sim.Time.ms 3) (fun () -> incr fired);
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.ms 2)) e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int64) "clock at limit" 2_000_000L
    (Sim.Time.instant_to_ns (Sim.Engine.now e));
  (* Bounded runs compose: continue to 4ms. *)
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.ms 4)) e;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_at_past_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.after e (Sim.Time.ms 1) (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: instant in the past")
        (fun () -> Sim.Engine.at e Sim.Time.zero (fun () -> ())));
  Sim.Engine.run e

let test_engine_every () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let timer = Sim.Engine.every e (Sim.Time.ms 1) (fun () -> incr count) in
  Sim.Engine.after e (Sim.Time.of_us_f 3500.0) (fun () -> Sim.Engine.cancel timer);
  Sim.Engine.run e;
  Alcotest.(check int) "fired 3 times" 3 !count

let test_engine_every_start () =
  let e = Sim.Engine.create () in
  let stamps = ref [] in
  let timer =
    Sim.Engine.every e ~start:Sim.Time.span_zero (Sim.Time.ms 1) (fun () ->
        stamps := Sim.Time.instant_to_ns (Sim.Engine.now e) :: !stamps)
  in
  Sim.Engine.after e (Sim.Time.of_us_f 2500.0) (fun () -> Sim.Engine.cancel timer);
  Sim.Engine.run e;
  Alcotest.(check (list int64)) "stamps" [ 2_000_000L; 1_000_000L; 0L ] !stamps

let test_engine_every_no_drift () =
  let e = Sim.Engine.create () in
  (* A periodic callback that consumes simulated time must not push its own
     schedule: firings rearm from the scheduled fire instant, not from the
     clock after the callback ran. *)
  let fires = ref [] in
  let timer =
    Sim.Engine.every e (Sim.Time.ms 1) (fun () ->
        fires := Sim.Time.instant_to_ns (Sim.Engine.now e) :: !fires;
        Sim.Engine.sleep (Sim.Time.us 300))
  in
  Sim.Engine.after e (Sim.Time.of_us_f 3500.0) (fun () -> Sim.Engine.cancel timer);
  Sim.Engine.run e;
  Alcotest.(check (list int64))
    "exact period multiples" [ 3_000_000L; 2_000_000L; 1_000_000L ] !fires

let test_engine_cancel_immediate () =
  let e = Sim.Engine.create () in
  let timer = Sim.Engine.every e (Sim.Time.ms 1) (fun () -> Alcotest.fail "fired") in
  Alcotest.(check int) "armed" 1 (Sim.Engine.pending_events e);
  Sim.Engine.cancel timer;
  (* The pending entry is gone now, not lazily skipped at fire time. *)
  Alcotest.(check int) "disarmed immediately" 0 (Sim.Engine.pending_events e);
  Sim.Engine.cancel timer;
  (* double-cancel is a no-op *)
  Sim.Engine.run e

let test_engine_cancel_in_own_callback () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let tref = ref None in
  let timer =
    Sim.Engine.every e (Sim.Time.ms 1) (fun () ->
        incr count;
        if !count = 2 then Sim.Engine.cancel (Option.get !tref))
  in
  tref := Some timer;
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.ms 10)) e;
  Alcotest.(check int) "fired exactly twice" 2 !count

let test_engine_suspend_resume () =
  let e = Sim.Engine.create () in
  let resumer = ref (fun () -> ()) in
  let log = ref [] in
  Sim.Engine.spawn e (fun () ->
      log := "before" :: !log;
      Sim.Engine.suspend ~register:(fun resume -> resumer := resume);
      log := "after" :: !log);
  Sim.Engine.after e (Sim.Time.ms 2) (fun () -> !resumer ());
  Sim.Engine.run e;
  Alcotest.(check (list string)) "resumed" [ "after"; "before" ] !log;
  Alcotest.(check int64) "resumed at 2ms" 2_000_000L
    (Sim.Time.instant_to_ns (Sim.Engine.now e))

let test_engine_double_resume_rejected () =
  let e = Sim.Engine.create () in
  let resumer = ref (fun () -> ()) in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.suspend ~register:(fun resume -> resumer := resume));
  Sim.Engine.after e (Sim.Time.ms 1) (fun () ->
      !resumer ();
      Alcotest.check_raises "double resume"
        (Invalid_argument "Engine: suspended process resumed twice")
        (fun () -> !resumer ()));
  Sim.Engine.run e

let test_engine_negative_sleep_clamped () =
  let e = Sim.Engine.create () in
  let ok = ref false in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep (Sim.Time.span_sub Sim.Time.span_zero (Sim.Time.us 5));
      ok := Sim.Time.equal (Sim.Engine.now e) Sim.Time.zero);
  Sim.Engine.run e;
  Alcotest.(check bool) "clock unchanged" true !ok

let test_engine_determinism () =
  let run_once () =
    let e = Sim.Engine.create ~seed:9 () in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.Engine.after e
        (Sim.Time.us (Sim.Rng.int (Sim.Engine.rng e) 100))
        (fun () -> log := i :: !log)
    done;
    Sim.Engine.run e;
    !log
  in
  Alcotest.(check (list int)) "identical runs" (run_once ()) (run_once ())

let test_engine_pending_events () =
  let e = Sim.Engine.create () in
  Alcotest.(check int) "empty" 0 (Sim.Engine.pending_events e);
  Sim.Engine.after e (Sim.Time.ms 1) (fun () -> ());
  Sim.Engine.after e (Sim.Time.ms 2) (fun () -> ());
  Alcotest.(check int) "two pending" 2 (Sim.Engine.pending_events e);
  Alcotest.(check bool) "step" true (Sim.Engine.step e);
  Alcotest.(check int) "one left" 1 (Sim.Engine.pending_events e);
  Alcotest.(check bool) "step" true (Sim.Engine.step e);
  Alcotest.(check bool) "drained" false (Sim.Engine.step e)

let test_engine_spawn_inside_process () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  Sim.Engine.spawn e (fun () ->
      order := "outer-start" :: !order;
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep (Sim.Time.us 5);
          order := "inner" :: !order);
      Sim.Engine.sleep (Sim.Time.us 10);
      order := "outer-end" :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "interleaving" [ "outer-start"; "inner"; "outer-end" ]
    (List.rev !order)

let test_engine_nested_timers () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.after e (Sim.Time.ms 1) (fun () ->
      fired := "outer" :: !fired;
      Sim.Engine.after e (Sim.Time.ms 1) (fun () -> fired := "nested" :: !fired));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested timer fired" [ "nested"; "outer" ] !fired;
  Alcotest.(check int64) "at 2ms" 2_000_000L (Sim.Time.instant_to_ns (Sim.Engine.now e))

(* ------------------------------------------------------------------ *)
(* Engine.park: the tick rule and the wake contract *)

(* Every instant is a multiple of [poll_q] ns, so producers keep landing
   exactly on ticks; a chained producer is scheduled from inside the run,
   after whatever ticks preceded it, so same-instant ties arise in every
   scheduling order. *)
let poll_q = 10

type poller = {
  interval : int;  (* [poll_q] units *)
  max_ticks : int;
  gaps : int list;  (* one park each: [poll_q] units slept after it *)
  producers : (int * int option) list;
      (* own producers: instant, chained follow-up delay ([poll_q] units) *)
}

type poll_schedule = { pollers : poller list }

(* Who wakes the parked pollers: each producer its own poller, at the
   instant it adds work; or the run loop, every waiter after every event. *)
type wakes = Precise | After_every_event

(* Park until a woken tick finds [ready] true or the expiry; the ticks
   this park took. *)
let park_ticks w span ~max_ticks ready =
  Sim.Engine.park w span ~max_ticks ready;
  Sim.Engine.take_ticks w

(* Runs the schedule; per poller, its parks as (resume instant ns, ticks,
   work seen, missed wake). *)
let run_pollers wakes sc =
  let e = Sim.Engine.create () in
  let now () = Int64.to_int (Sim.Time.instant_to_ns (Sim.Engine.now e)) in
  let runs =
    List.map
      (fun p ->
        let w = Sim.Engine.waiter e in
        let work = ref 0 and log = ref [] in
        let produce () =
          incr work;
          if wakes = Precise then Sim.Engine.wake w
        in
        List.iter
          (fun (start, chain) ->
            Sim.Engine.after e (Sim.Time.ns (start * poll_q)) (fun () ->
                produce ();
                Option.iter
                  (fun d -> Sim.Engine.after e (Sim.Time.ns (d * poll_q)) produce)
                  chain))
          p.producers;
        Sim.Engine.spawn e (fun () ->
            List.iter
              (fun gap ->
                let ticks =
                  park_ticks w (Sim.Time.ns (p.interval * poll_q)) ~max_ticks:p.max_ticks
                    (fun () -> !work > 0)
                in
                log := (now (), ticks, !work, Sim.Engine.missed_wake w) :: !log;
                work := 0;
                Sim.Engine.sleep (Sim.Time.ns (gap * poll_q)))
              p.gaps);
        (w, log))
      sc.pollers
  in
  (match wakes with
  | Precise -> Sim.Engine.run e
  | After_every_event ->
      while Sim.Engine.step e do
        List.iter (fun (w, _) -> Sim.Engine.wake w) runs
      done);
  List.map (fun (_, log) -> List.rev !log) runs

(* The analytic answer.  A producer at instant x is seen by the first tick
   strictly after x (a tick at x runs ahead of it), and belongs to the
   park in progress once the previous resume at R <= x reset the work
   count (a producer at R itself runs after that resume). *)
let poll_oracle p =
  let xs =
    List.concat_map
      (fun (s, chain) ->
        (s * poll_q) :: (match chain with Some d -> [ (s + d) * poll_q ] | None -> []))
      p.producers
  in
  let iv = p.interval * poll_q in
  let rec parks r s gaps acc =
    match gaps with
    | [] -> List.rev acc
    | gap :: rest ->
        let pending = List.filter (fun x -> x >= r) xs in
        let k =
          match List.fold_left min max_int pending with
          | x when x = max_int -> p.max_ticks
          | x when x < s -> 1
          | x -> min p.max_ticks (((x - s) / iv) + 1)
        in
        let resume = s + (k * iv) in
        let work = List.length (List.filter (fun x -> x < resume) pending) in
        parks resume (resume + (gap * poll_q)) rest ((resume, k, work, false) :: acc)
  in
  parks 0 0 p.gaps []

let poll_schedule_arb =
  let open QCheck.Gen in
  let poller =
    map
      (fun ((interval, max_ticks), (gaps, producers)) ->
        { interval; max_ticks; gaps; producers })
      (pair
         (pair (1 -- 4) (1 -- 6))
         (pair
            (list_size (1 -- 4) (0 -- 3))
            (list_size (0 -- 6) (pair (0 -- 40) (opt (0 -- 6))))))
  in
  let gen = map (fun pollers -> { pollers }) (list_size (1 -- 3) poller) in
  let print sc =
    String.concat "; "
      (List.map
         (fun p ->
           Printf.sprintf "{iv=%d max=%d gaps=[%s] producers=[%s]}" p.interval
             p.max_ticks
             (String.concat "," (List.map string_of_int p.gaps))
             (String.concat ","
                (List.map
                   (fun (s, c) ->
                     Printf.sprintf "%d%s" s
                       (match c with Some d -> "+" ^ string_of_int d | None -> ""))
                   p.producers)))
         sc.pollers)
  in
  QCheck.make ~print gen

let prop_park_matches_oracle =
  QCheck.Test.make
    ~name:"Engine.park resumes at the first tick after work, or at expiry"
    ~count:500 poll_schedule_arb (fun sc ->
      run_pollers Precise sc = List.map poll_oracle sc.pollers)

let prop_park_overwake_is_invisible =
  QCheck.Test.make ~name:"Engine.park: waking after every event changes nothing"
    ~count:500 poll_schedule_arb (fun sc ->
      run_pollers After_every_event sc = run_pollers Precise sc)

let test_engine_park_same_instant_ties () =
  (* Ticks every 10 ns from t=0 land at 10, 20, 30, ...
     - [early] is scheduled for t=20 before any tick ran, yet the t=20
       tick runs ahead of it, misses it, and the t=30 tick resumes;
     - [late] is scheduled for t=40 by an event at t=35; the t=40 tick
       again runs first and the t=50 tick resumes.
     Either way a tick at T sees exactly what happened before T. *)
  let e = Sim.Engine.create () in
  let w = Sim.Engine.waiter e in
  let work = ref false in
  let produce () =
    work := true;
    Sim.Engine.wake w
  in
  let resumed = ref [] in
  let now () = Sim.Time.instant_to_ns (Sim.Engine.now e) in
  Sim.Engine.after e (Sim.Time.ns 20) produce;
  Sim.Engine.after e (Sim.Time.ns 35) (fun () ->
      Sim.Engine.after e (Sim.Time.ns 5) produce);
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 2 do
        ignore (park_ticks w (Sim.Time.ns 10) ~max_ticks:100 (fun () -> !work));
        work := false;
        resumed := now () :: !resumed
      done);
  Sim.Engine.run e;
  Alcotest.(check (list int64)) "resume instants" [ 50L; 30L ] !resumed

let test_engine_park_tick_ties () =
  (* Two pollers on one 10 ns grid: [a] parked first, so at every shared
     instant a's tick runs before b's.  a is woken for work from t=15,
     resumes at its t=20 tick and, in that event, hands b work: b's own
     t=20 tick has not run yet, so the wake lands there and b resumes at
     t=20 too. *)
  let e = Sim.Engine.create () in
  let wa = Sim.Engine.waiter e and wb = Sim.Engine.waiter e in
  let work_a = ref false and work_b = ref false in
  let resumed = ref [] in
  let now () = Sim.Time.instant_to_ns (Sim.Engine.now e) in
  Sim.Engine.after e (Sim.Time.ns 15) (fun () ->
      work_a := true;
      Sim.Engine.wake wa);
  Sim.Engine.spawn e (fun () ->
      ignore (park_ticks wa (Sim.Time.ns 10) ~max_ticks:100 (fun () -> !work_a));
      resumed := ("a", now ()) :: !resumed;
      work_b := true;
      Sim.Engine.wake wb);
  Sim.Engine.spawn e (fun () ->
      ignore (park_ticks wb (Sim.Time.ns 10) ~max_ticks:100 (fun () -> !work_b));
      resumed := ("b", now ()) :: !resumed);
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "resume order" [ ("b", 20L); ("a", 20L) ] !resumed

let test_engine_park_counts_skipped_ticks () =
  (* A 10-tick window nobody wakes executes one event, its expiry, yet
     reports every tick: part of them to a read mid-window, the rest at
     the resume. *)
  let e = Sim.Engine.create () in
  let w = Sim.Engine.waiter e in
  let mid = ref (-1) and at_resume = ref (-1) in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.park w (Sim.Time.ns 10) ~max_ticks:10 (fun () -> false);
      at_resume := Sim.Engine.take_ticks w);
  Sim.Engine.after e (Sim.Time.ns 35) (fun () -> mid := Sim.Engine.take_ticks w);
  Sim.Engine.run e;
  Alcotest.(check int) "ticks by t=35" 3 !mid;
  Alcotest.(check int) "the rest at expiry" 7 !at_resume;
  Alcotest.(check int64) "expired at t=100" 100L
    (Sim.Time.instant_to_ns (Sim.Engine.now e));
  Alcotest.(check int) "spawn, read, expiry" 3 (Sim.Engine.events_executed e);
  Alcotest.(check bool) "no missed wake" false (Sim.Engine.missed_wake w)

let test_engine_park_detects_missed_wake () =
  (* Work that arrives without a wake is found only at the expiry, and
     that resume is flagged. *)
  let e = Sim.Engine.create () in
  let w = Sim.Engine.waiter e in
  let work = ref false in
  Sim.Engine.after e (Sim.Time.ns 15) (fun () -> work := true);
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.park w (Sim.Time.ns 10) ~max_ticks:5 (fun () -> !work));
  Sim.Engine.run e;
  Alcotest.(check int64) "resumed at expiry" 50L
    (Sim.Time.instant_to_ns (Sim.Engine.now e));
  Alcotest.(check bool) "flagged" true (Sim.Engine.missed_wake w)

let test_engine_park_rejects_nonpositive_span () =
  let e = Sim.Engine.create () in
  let rejected = ref [] in
  List.iter
    (fun (span, max_ticks) ->
      Sim.Engine.spawn e (fun () ->
          match
            Sim.Engine.park (Sim.Engine.waiter e) span ~max_ticks (fun () -> true)
          with
          | () -> Alcotest.fail "park accepted a non-positive span or window"
          | exception Invalid_argument _ ->
              rejected := (Sim.Time.to_ns span, max_ticks) :: !rejected))
    [
      (Sim.Time.span_zero, 5);
      (Sim.Time.ns (-5), 5);
      (Sim.Time.ns 10, 0);
      (Sim.Time.ns 10, max_int);
    ];
  Sim.Engine.run e;
  Alcotest.(check (list (pair int64 int)))
    "all rejected"
    [ (10L, max_int); (10L, 0); (-5L, 5); (0L, 5) ]
    !rejected;
  Alcotest.(check int64) "clock never moved" 0L
    (Sim.Time.instant_to_ns (Sim.Engine.now e))

let test_engine_park_raise_surfaces () =
  let e = Sim.Engine.create () in
  let w = Sim.Engine.waiter e in
  let broken = ref false and caught = ref None in
  let ready () = if !broken then failwith "ready failed" else false in
  Sim.Engine.spawn e (fun () ->
      match Sim.Engine.park w (Sim.Time.us 1) ~max_ticks:100 ready with
      | () -> Alcotest.fail "park returned"
      | exception Failure msg ->
          caught := Some (msg, Sim.Time.instant_to_ns (Sim.Engine.now e)));
  Sim.Engine.after e (Sim.Time.ns 2_500) (fun () ->
      broken := true;
      Sim.Engine.wake w);
  Sim.Engine.run e;
  Alcotest.(check (option (pair string int64)))
    "raised in the process at the woken tick"
    (Some ("ready failed", 3_000L))
    !caught;
  Alcotest.(check int) "no tick left behind" 0 (Sim.Engine.pending_events e)

(* ------------------------------------------------------------------ *)
(* Engine.run = Engine.step: a sleep whose wake-up is the next event
   continues inline under [run], never under [step], and nothing a
   program can observe may tell the two apart. *)

(* One unit of simulated time: a few units per 1.024 us wheel tick, so
   programs collide within ticks and cross them. *)
let unit_ns = 300

type prog_op =
  | Sleep of int  (* units; 0 and negative included *)
  | Send of int  (* mailbox *)
  | Recv of int
  | Signal of int  (* condition *)
  | Await of int
  | Use of int * int  (* resource, units *)
  | Produce of int  (* work for process [i]'s waiter, and a wake *)
  | Park of int * int  (* tick span (units, >= 1), max ticks *)
  | Timer of int * int * int  (* period (units, >= 1), fires, sleep per fire *)

type prog = { procs : (int * prog_op list) list; slices : int list }

(* Runs [prog] by [drive]; the (instant, process, label) log, the final
   clock and the events executed. *)
let run_prog prog drive =
  let e = Sim.Engine.create () in
  let now () = Int64.to_int (Sim.Time.instant_to_ns (Sim.Engine.now e)) in
  let log = ref [] in
  let note pid label = log := (now (), pid, label) :: !log in
  let units n = Sim.Time.ns (n * unit_ns) in
  let boxes = Array.init 2 (fun _ -> Sim.Mailbox.create ()) in
  let conds = Array.init 2 (fun _ -> Sim.Condition.create ()) in
  let cpus = Array.init 2 (fun i -> Sim.Resource.create ~name:(string_of_int i)) in
  let nprocs = List.length prog.procs in
  let work = Array.make nprocs 0 in
  let waiters = Array.init nprocs (fun _ -> Sim.Engine.waiter e) in
  List.iteri
    (fun pid (start, ops) ->
      let step i op =
        let label = 10 * i in
        match op with
        | Sleep n ->
            Sim.Engine.sleep (units n);
            note pid label
        | Send b -> Sim.Mailbox.send boxes.(b) (pid, i)
        | Recv b ->
            let from, j = Sim.Mailbox.recv boxes.(b) in
            note pid (label + 1 + (100 * ((100 * from) + j)))
        | Signal c -> Sim.Condition.signal conds.(c)
        | Await c ->
            Sim.Condition.await conds.(c);
            note pid label
        | Use (r, n) ->
            Sim.Resource.use cpus.(r) (units n);
            note pid label
        | Produce j ->
            let j = j mod nprocs in
            work.(j) <- work.(j) + 1;
            Sim.Engine.wake waiters.(j)
        | Park (span, max_ticks) ->
            Sim.Engine.park waiters.(pid) (units span) ~max_ticks (fun () ->
                work.(pid) > 0);
            note pid (label + 2 + (100 * work.(pid)));
            work.(pid) <- 0
        | Timer (period, fires, nap) ->
            let fired = ref 0 and handle = ref None in
            handle :=
              Some
                (Sim.Engine.every e (units period) (fun () ->
                     incr fired;
                     note pid (label + 3 + (100 * !fired));
                     Sim.Engine.sleep (units nap);
                     note pid (label + 4 + (100 * !fired));
                     if !fired >= fires then Option.iter Sim.Engine.cancel !handle))
      in
      Sim.Engine.after e (units start) (fun () -> List.iteri step ops))
    prog.procs;
  let last_limit = ref 0 in
  (match drive with
  | `Step -> while Sim.Engine.step e do () done
  | `Run_slices ->
      List.iter
        (fun n ->
          last_limit := now () + (n * unit_ns);
          Sim.Engine.run ~until:(Sim.Time.instant_of_ns (Int64.of_int !last_limit)) e)
        prog.slices;
      Sim.Engine.run e);
  (List.rev !log, now (), !last_limit, Sim.Engine.events_executed e)

let prog_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun n -> Sleep n) (-2 -- 6));
        (1, map (fun n -> Sleep n) (20 -- 60));
        (* Past the wheel's ~8.4 ms window: the overflow heap. *)
        (1, return (Sleep 30_000));
        (2, map (fun b -> Send b) (0 -- 1));
        (2, map (fun b -> Recv b) (0 -- 1));
        (2, map (fun c -> Signal c) (0 -- 1));
        (1, map (fun c -> Await c) (0 -- 1));
        (3, map2 (fun r n -> Use (r, n)) (0 -- 1) (0 -- 4));
        (2, map (fun j -> Produce j) (0 -- 4));
        (2, map2 (fun sp k -> Park (sp, k)) (1 -- 3) (1 -- 5));
        (1, map3 (fun p k n -> Timer (p, k, n)) (1 -- 5) (1 -- 4) (-1 -- 7));
      ]
  in
  let gen =
    map2
      (fun procs slices -> { procs; slices })
      (list_size (1 -- 5) (pair (0 -- 8) (list_size (0 -- 8) op)))
      (list_size (0 -- 6) (0 -- 40))
  in
  let print_op = function
    | Sleep n -> Printf.sprintf "sleep %d" n
    | Send b -> Printf.sprintf "send %d" b
    | Recv b -> Printf.sprintf "recv %d" b
    | Signal c -> Printf.sprintf "signal %d" c
    | Await c -> Printf.sprintf "await %d" c
    | Use (r, n) -> Printf.sprintf "use %d %d" r n
    | Produce j -> Printf.sprintf "produce %d" j
    | Park (sp, k) -> Printf.sprintf "park %d %d" sp k
    | Timer (p, k, n) -> Printf.sprintf "every %d x%d sleep %d" p k n
  in
  let print prog =
    Printf.sprintf "procs=[%s] slices=[%s]"
      (String.concat "; "
         (List.map
            (fun (start, ops) ->
              Printf.sprintf "@%d: %s" start (String.concat ", " (List.map print_op ops)))
            prog.procs))
      (String.concat "," (List.map string_of_int prog.slices))
  in
  QCheck.make ~print gen

let prop_run_matches_step =
  QCheck.Test.make ~name:"Engine.run in slices = Engine.step loop" ~count:500 prog_arb
    (fun prog ->
      let log_r, clock_r, last_limit, events_r = run_prog prog `Run_slices in
      let log_s, clock_s, _, events_s = run_prog prog `Step in
      log_r = log_s && clock_r = max clock_s last_limit && events_r = events_s)

(* Declined bounded pops leave the wheel's cursor ahead of the clock; a
   cell scheduled behind it is clamped into the cursor's slot, and a
   sleep past that cell must not continue inline. *)
let test_engine_inline_sleep_sees_clamped_cell () =
  let drive ~step =
    let e = Sim.Engine.create () in
    let log = ref [] in
    let note name =
      log := (name, Sim.Time.instant_to_ns (Sim.Engine.now e)) :: !log
    in
    Sim.Engine.after e (Sim.Time.us 100) (fun () -> note "far");
    Sim.Engine.run ~until:(Sim.Time.instant_of_ns 10_000L) e;
    Sim.Engine.after e (Sim.Time.us 5) (fun () -> note "clamped");
    Sim.Engine.spawn e (fun () ->
        Sim.Engine.sleep (Sim.Time.us 20);
        note "sleeper");
    if step then while Sim.Engine.step e do () done else Sim.Engine.run e;
    (List.rev !log, Sim.Engine.events_executed e)
  in
  let expected = [ ("clamped", 15_000L); ("sleeper", 30_000L); ("far", 100_000L) ] in
  Alcotest.(check (list (pair string int64))) "run order" expected
    (fst (drive ~step:false));
  Alcotest.(check int) "events as under step"
    (snd (drive ~step:true))
    (snd (drive ~step:false))

(* A timer callback's first segment never continues inline: its rearm
   takes its seq when the callback returns, so a callback that sleeps
   past its next fire must see that fire first. *)
let test_engine_timer_callback_sleep_keeps_rearm_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let fires = ref 0 and handle = ref None in
  let note name =
    log := (name, Sim.Time.instant_to_ns (Sim.Engine.now e)) :: !log
  in
  handle :=
    Some
      (Sim.Engine.every e (Sim.Time.us 10) (fun () ->
           incr fires;
           let n = !fires in
           note (Printf.sprintf "fire %d" n);
           if n = 1 then begin
             Sim.Engine.sleep (Sim.Time.us 15);
             note "slept 1";
             (* The continuation is an ordinary resume: this one may run
                inline, and must land in the same place. *)
             Sim.Engine.sleep (Sim.Time.us 1);
             note "slept 1 again"
           end;
           if n = 3 then Option.iter Sim.Engine.cancel !handle));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "rearm order"
    [
      ("fire 1", 10_000L);
      ("fire 2", 20_000L);
      ("slept 1", 25_000L);
      ("slept 1 again", 26_000L);
      ("fire 3", 30_000L);
    ]
    (List.rev !log)

(* A waiter's cell stays in the wheel's registry for the engine's life;
   once the waiter has resumed and is dropped, the cell must not keep
   its [ready] predicate (and what that reaches) alive. *)
let test_engine_dead_waiter_pins_nothing () =
  let e = Sim.Engine.create () in
  let collected = ref false in
  let () =
    let state = Bytes.make 4096 'w' in
    Gc.finalise_last (fun () -> collected := true) state;
    let w = Sim.Engine.waiter e in
    Sim.Engine.spawn e (fun () ->
        Sim.Engine.park w (Sim.Time.us 1) ~max_ticks:3 (fun () -> Bytes.length state = 0))
  in
  Sim.Engine.run e;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "the ready closure's state was collected" true !collected;
  Alcotest.(check int) "the engine is still usable" 0 (Sim.Engine.pending_events e)

let test_engine_sleep_outside_process_unhandled () =
  let e = Sim.Engine.create () in
  let outside () =
    match Sim.Engine.sleep (Sim.Time.us 1) with
    | () -> Alcotest.fail "sleep outside a process returned"
    | exception Effect.Unhandled _ -> ()
  in
  outside ();
  Sim.Engine.spawn e (fun () -> Sim.Engine.sleep (Sim.Time.us 1));
  Sim.Engine.run e;
  (* A finished run leaves no engine behind for a stray sleep to use. *)
  outside ();
  Alcotest.(check int64) "clock stayed at the last event" 1_000L
    (Sim.Time.instant_to_ns (Sim.Engine.now e))

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serializes () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create ~name:"cpu" in
  let finish_times = ref [] in
  for _ = 1 to 3 do
    Sim.Engine.spawn e (fun () ->
        Sim.Resource.use r (Sim.Time.us 10);
        finish_times := Sim.Time.instant_to_ns (Sim.Engine.now e) :: !finish_times)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int64)) "serialized 10us apart" [ 30_000L; 20_000L; 10_000L ]
    !finish_times;
  Alcotest.(check int64) "busy time accumulated" 30_000L
    (Sim.Time.to_ns (Sim.Resource.busy_time r))

let test_resource_fifo_no_barging () =
  (* Strict handoff: a later acquirer can never overtake an earlier one,
     even when the release and the new acquire land at the same instant. *)
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create ~name:"cpu" in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.Engine.after e (Sim.Time.ns i) (fun () ->
        Sim.Resource.use r (Sim.Time.us 5);
        order := i :: !order)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "completion order = arrival order" [ 5; 4; 3; 2; 1 ]
    !order

(* The wait queue is a ring of continuations that grows as processes
   pile up and wraps as they leave: handoff order must stay arrival
   order through both, with new arrivals joining while the queue drains. *)
let test_resource_fifo_through_ring_growth () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create ~name:"cpu" in
  let order = ref [] in
  let arrive i =
    Sim.Engine.after e (Sim.Time.ns (i * 3)) (fun () ->
        Sim.Resource.use r (Sim.Time.ns 5);
        order := i :: !order)
  in
  for i = 1 to 40 do
    arrive i
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "completion order = arrival order" (List.init 40 (fun i -> i + 1))
    (List.rev !order);
  Alcotest.(check int) "nobody left waiting" 0 (Sim.Resource.queue_length r)

let test_resource_release_unheld () =
  let r = Sim.Resource.create ~name:"cpu" in
  Alcotest.check_raises "release unheld" (Invalid_argument "Resource.release: not held")
    (fun () -> Sim.Resource.release r)

let test_resource_queue_length () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create ~name:"cpu" in
  Sim.Engine.spawn e (fun () -> Sim.Resource.use r (Sim.Time.us 100));
  Sim.Engine.spawn e (fun () -> Sim.Resource.use r (Sim.Time.us 1));
  Sim.Engine.spawn e (fun () -> Sim.Resource.use r (Sim.Time.us 1));
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.us 50)) e;
  Alcotest.(check bool) "busy" true (Sim.Resource.is_busy r);
  Alcotest.(check int) "two waiting" 2 (Sim.Resource.queue_length r);
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.ms 1)) e;
  Alcotest.(check bool) "idle at the end" false (Sim.Resource.is_busy r)

(* ------------------------------------------------------------------ *)
(* Condition / Mailbox *)

let test_condition_signal_wakes_one () =
  let e = Sim.Engine.create () in
  let cond = Sim.Condition.create () in
  let woke = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn e (fun () ->
        Sim.Condition.await cond;
        woke := i :: !woke)
  done;
  Sim.Engine.after e (Sim.Time.ms 1) (fun () -> Sim.Condition.signal cond);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "only first woke" [ 1 ] !woke;
  Alcotest.(check int) "two still waiting" 2 (Sim.Condition.waiters cond)

let test_condition_broadcast_wakes_all () =
  let e = Sim.Engine.create () in
  let cond = Sim.Condition.create () in
  let woke = ref 0 in
  for _ = 1 to 4 do
    Sim.Engine.spawn e (fun () ->
        Sim.Condition.await cond;
        incr woke)
  done;
  Sim.Engine.after e (Sim.Time.ms 1) (fun () -> Sim.Condition.broadcast cond);
  Sim.Engine.run e;
  Alcotest.(check int) "all woke" 4 !woke;
  Alcotest.(check int) "queue empty" 0 (Sim.Condition.waiters cond)

let test_condition_signal_empty_noop () =
  let cond = Sim.Condition.create () in
  Sim.Condition.signal cond;
  Sim.Condition.broadcast cond;
  Alcotest.(check int) "no waiters" 0 (Sim.Condition.waiters cond)

let test_mailbox_fifo () =
  let e = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref [] in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Sim.Mailbox.recv mb :: !got
      done);
  Sim.Engine.after e (Sim.Time.ms 1) (fun () ->
      Sim.Mailbox.send mb "a";
      Sim.Mailbox.send mb "b";
      Sim.Mailbox.send mb "c");
  Sim.Engine.run e;
  Alcotest.(check (list string)) "fifo order" [ "c"; "b"; "a" ] !got

let test_mailbox_nonblocking () =
  let mb = Sim.Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Sim.Mailbox.recv_opt mb);
  Sim.Mailbox.send mb 42;
  Alcotest.(check int) "length" 1 (Sim.Mailbox.length mb);
  Alcotest.(check (option int)) "recv_opt" (Some 42) (Sim.Mailbox.recv_opt mb);
  Alcotest.(check bool) "empty again" true (Sim.Mailbox.is_empty mb)

let test_mailbox_blocks_until_send () =
  let e = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let stamp = ref Sim.Time.zero in
  Sim.Engine.spawn e (fun () ->
      ignore (Sim.Mailbox.recv mb);
      stamp := Sim.Engine.now e);
  Sim.Engine.after e (Sim.Time.ms 5) (fun () -> Sim.Mailbox.send mb ());
  Sim.Engine.run e;
  Alcotest.(check int64) "received at 5ms" 5_000_000L (Sim.Time.instant_to_ns !stamp)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "sim.time",
      [
        Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
        Alcotest.test_case "ordering" `Quick test_time_ordering;
        Alcotest.test_case "span units" `Quick test_time_span_units;
        Alcotest.test_case "span ops" `Quick test_time_span_ops;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
        Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
        Alcotest.test_case "invalid bound" `Quick test_rng_invalid_bound;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "moments" `Quick test_stats_moments;
        Alcotest.test_case "percentiles" `Quick test_stats_percentile;
      ]
      @ qsuite [ prop_stats_mean_matches_naive; prop_stats_minmax ] );
    ( "sim.series",
      [
        Alcotest.test_case "insertion order" `Quick test_series_order;
        Alcotest.test_case "bucketize" `Quick test_series_bucketize;
        Alcotest.test_case "bucketize invalid width" `Quick test_series_bucketize_invalid;
      ] );
    ( "sim.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "row width mismatch" `Quick test_table_row_mismatch;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "clock advances with sleep" `Quick test_engine_clock_advances;
        Alcotest.test_case "events run in time order" `Quick test_engine_event_order;
        Alcotest.test_case "same-instant ties are FIFO" `Quick test_engine_fifo_ties;
        Alcotest.test_case "run ~until composes" `Quick test_engine_run_until;
        Alcotest.test_case "at rejects the past" `Quick test_engine_at_past_rejected;
        Alcotest.test_case "periodic timer" `Quick test_engine_every;
        Alcotest.test_case "periodic timer with start" `Quick test_engine_every_start;
        Alcotest.test_case "periodic timer does not drift" `Quick test_engine_every_no_drift;
        Alcotest.test_case "cancel disarms immediately" `Quick test_engine_cancel_immediate;
        Alcotest.test_case "cancel in own callback" `Quick test_engine_cancel_in_own_callback;
        Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
        Alcotest.test_case "double resume rejected" `Quick test_engine_double_resume_rejected;
        Alcotest.test_case "negative sleep clamped" `Quick test_engine_negative_sleep_clamped;
        Alcotest.test_case "determinism across runs" `Quick test_engine_determinism;
        Alcotest.test_case "pending events / step" `Quick test_engine_pending_events;
        Alcotest.test_case "spawn inside process" `Quick test_engine_spawn_inside_process;
        Alcotest.test_case "nested timers" `Quick test_engine_nested_timers;
        Alcotest.test_case "poll: same-instant ties" `Quick
          test_engine_park_same_instant_ties;
        Alcotest.test_case "poll: ticks tie by park order" `Quick
          test_engine_park_tick_ties;
        Alcotest.test_case "poll: skipped ticks still count" `Quick
          test_engine_park_counts_skipped_ticks;
        Alcotest.test_case "poll: missed wake detected" `Quick
          test_engine_park_detects_missed_wake;
        Alcotest.test_case "poll: non-positive span rejected" `Quick
          test_engine_park_rejects_nonpositive_span;
        Alcotest.test_case "poll: raising check surfaces" `Quick
          test_engine_park_raise_surfaces;
        Alcotest.test_case "inline sleep sees a clamped cell" `Quick
          test_engine_inline_sleep_sees_clamped_cell;
        Alcotest.test_case "timer callback sleep keeps rearm order" `Quick
          test_engine_timer_callback_sleep_keeps_rearm_order;
        Alcotest.test_case "sleep outside a process is unhandled" `Quick
          test_engine_sleep_outside_process_unhandled;
        Alcotest.test_case "a dead waiter pins nothing" `Quick
          test_engine_dead_waiter_pins_nothing;
      ]
      @ qsuite
          [
            prop_park_matches_oracle;
            prop_park_overwake_is_invisible;
            prop_run_matches_step;
          ] );
    ( "sim.resource",
      [
        Alcotest.test_case "serializes users" `Quick test_resource_serializes;
        Alcotest.test_case "strict FIFO, no barging" `Quick test_resource_fifo_no_barging;
        Alcotest.test_case "FIFO through wait-ring growth" `Quick
          test_resource_fifo_through_ring_growth;
        Alcotest.test_case "release unheld rejected" `Quick test_resource_release_unheld;
        Alcotest.test_case "queue length" `Quick test_resource_queue_length;
      ] );
    ( "sim.sync",
      [
        Alcotest.test_case "signal wakes one" `Quick test_condition_signal_wakes_one;
        Alcotest.test_case "broadcast wakes all" `Quick test_condition_broadcast_wakes_all;
        Alcotest.test_case "signal on empty is noop" `Quick test_condition_signal_empty_noop;
        Alcotest.test_case "mailbox fifo order" `Quick test_mailbox_fifo;
        Alcotest.test_case "mailbox non-blocking ops" `Quick test_mailbox_nonblocking;
        Alcotest.test_case "mailbox blocks until send" `Quick test_mailbox_blocks_until_send;
      ] );
  ]
