module W = Wheel

(* Event payloads live directly in pooled wheel cells.  [P_resume] carries
   a sleeping process's continuation without a wrapping closure, and
   [P_timer] and [P_wait] let a periodic timer or a parked process own one
   cell for its whole life, so the steady-state schedule/fire cycle touches
   the allocator not at all. *)
type t = {
  mutable clock_ns : int;
  queue : payload W.t;
  mutable free : payload W.cell;  (* freelist chained through c_next *)
  mutable next_seq : int;
  mutable cur_seq : int;
      (* key of the event running now ([max_int] between runs): tells
         [wake] whether a tick at the current instant has run yet *)
  mutable events_run : int;
  engine_rng : Rng.t;
  (* [now] returns a boxed Time.t; cache the box so bursts of same-instant
     queries (every packet touches the clock several times) allocate once
     per distinct instant instead of once per call. *)
  mutable clock_box : Time.t;
  mutable clock_box_ns : int;
  (* The effect handler and its [Sleep] arm are built once per engine and
     reused for every process entry: rebuilding them per callback was a
     measurable share of per-event cost.  [sleep_ns_arg] smuggles the
     span from [effc] into the pre-allocated continuation consumer. *)
  mutable proc_handler : (unit, unit) Effect.Deep.handler;
  mutable sleep_ns_arg : int;
  mutable sleep_arm : ((unit, unit) Effect.Deep.continuation -> unit) option;
  (* [Park] the same way: the waiter rides in [park_arg]. *)
  mutable park_arg : waiter option;
  mutable park_arm : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

and payload =
  | P_none
  | P_thunk of (unit -> unit)
  (* Inline record: a timer fire dereferences one block, not a chain of
     variant-then-record. *)
  | P_timer of {
      mutable tm_period_ns : int;
      mutable tm_active : bool;
      tm_run : unit -> unit;
    }
  | P_resume of (unit, unit) Effect.Deep.continuation
  | P_wait of waiter

(* A process parked in [park] owns exactly one cell, the waiter's own: at
   its expiry tick, or at the tick a [wake] moved it to.  Ticks nobody
   woke are never executed; [ticks_now] counts them from the clock. *)
and waiter = {
  w_engine : t;
  w_cell : payload W.cell;
  mutable w_ready : unit -> bool;
  mutable w_k : (unit, unit) Effect.Deep.continuation option;  (* parked *)
  mutable w_start : int;  (* ns; tick j lands at w_start + j * w_interval *)
  mutable w_interval : int;
  mutable w_max : int;  (* the expiry tick *)
  mutable w_ticks : int;  (* the tick the last park resumed at *)
  mutable w_taken : int;  (* ticks already handed out by [take_ticks] *)
  mutable w_woken : bool;  (* a wake came since the cell last went to expiry *)
  mutable w_missed : bool;
  w_some : waiter option;  (* [Some self], built once for [park_arg] *)
}

(* Handle returned by [every]; cold-path only.  [tmh_active] guards
   double-cancel — the cell may be recycled for an unrelated event after
   the first cancel, so the handle must not trust [c_value] alone. *)
type timer = {
  tmh_engine : t;
  tmh_cell : payload W.cell;
  mutable tmh_active : bool;
}

type _ Effect.t +=
  | Sleep : Time.span -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Park : unit Effect.t

let null_handler : (unit, unit) Effect.Deep.handler =
  { retc = (fun () -> ()); exnc = raise; effc = (fun _ -> None) }

let now t =
  if t.clock_box_ns <> t.clock_ns then begin
    t.clock_box <- Time.instant_of_ns (Int64.of_int t.clock_ns);
    t.clock_box_ns <- t.clock_ns
  end;
  t.clock_box

let rng t = t.engine_rng

let alloc_cell t time_ns v =
  let nil = W.nil t.queue in
  let c =
    if t.free == nil then W.make_cell t.queue v
    else begin
      let c = t.free in
      t.free <- c.W.c_next;
      c.W.c_next <- nil;
      c.W.c_value <- v;
      c
    end
  in
  c.W.c_time <- time_ns;
  c.W.c_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  c

let free_cell t c =
  c.W.c_value <- P_none;
  c.W.c_next <- t.free;
  t.free <- c

let schedule t time_ns v = W.insert t.queue (alloc_cell t time_ns v)

let span_ns span = Int64.to_int (Time.to_ns span)
let delay_ns span = let d = span_ns span in if d > 0 then d else 0

(* Tick rule: a tick runs before every other event at its instant, so a
   parked process at T sees exactly what happened at instants < T.  Every
   tick of one park carries the same key, its start seq shifted below
   every ordinary (non-negative) seq; ties between ticks therefore go by
   park order, and a tick's place never depends on which ticks ran. *)
let tick_key start_seq = min_int + start_seq

(* Resumptions must fire exactly once: double-resume would duplicate the
   continuation and corrupt the simulation, so we guard each one. *)
let once name f =
  let fired = ref false in
  fun () ->
    if !fired then invalid_arg (Printf.sprintf "Engine: %s resumed twice" name);
    fired := true;
    f ()

let create ?(seed = 42) () =
  let queue = W.create ~dummy:P_none in
  let t =
    {
      clock_ns = 0;
      queue;
      free = W.nil queue;
      next_seq = 0;
      cur_seq = max_int;
      events_run = 0;
      engine_rng = Rng.create ~seed;
      clock_box = Time.zero;
      clock_box_ns = 0;
      proc_handler = null_handler;
      sleep_ns_arg = 0;
      sleep_arm = None;
      park_arg = None;
      park_arm = None;
    }
  in
  t.sleep_arm <-
    Some (fun k -> schedule t (t.clock_ns + t.sleep_ns_arg) (P_resume k));
  t.park_arm <-
    Some
      (fun k ->
        match t.park_arg with
        | None -> assert false
        | Some w ->
            t.park_arg <- None;
            w.w_k <- Some k;
            let c = w.w_cell in
            c.W.c_time <-
              w.w_start + ((if w.w_woken then 1 else w.w_max) * w.w_interval);
            c.W.c_seq <- tick_key t.next_seq;
            t.next_seq <- t.next_seq + 1;
            W.insert t.queue c);
  let open Effect.Deep in
  t.proc_handler <-
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep span ->
              t.sleep_ns_arg <- delay_ns span;
              (t.sleep_arm : ((a, unit) continuation -> unit) option)
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resume =
                    once "suspended process" (fun () ->
                        schedule t t.clock_ns (P_resume k))
                  in
                  register resume)
          | Park -> (t.park_arm : ((a, unit) continuation -> unit) option)
          | _ -> None);
    };
  t

let run_process t f = Effect.Deep.match_with f () t.proc_handler

let spawn t ?name f =
  ignore name;
  schedule t t.clock_ns (P_thunk (fun () -> run_process t f))

let at t time f =
  let time_ns = Int64.to_int (Time.instant_to_ns time) in
  if time_ns < t.clock_ns then invalid_arg "Engine.at: instant in the past";
  schedule t time_ns (P_thunk (fun () -> run_process t f))

let after t span f =
  schedule t (t.clock_ns + delay_ns span) (P_thunk (fun () -> run_process t f))

let every t ?start period f =
  let first = match start with Some s -> delay_ns s | None -> delay_ns period in
  let cell = alloc_cell t (t.clock_ns + first) P_none in
  cell.W.c_value <-
    P_timer { tm_period_ns = span_ns period; tm_active = true; tm_run = f };
  W.insert t.queue cell;
  { tmh_engine = t; tmh_cell = cell; tmh_active = true }

let cancel h =
  if h.tmh_active then begin
    h.tmh_active <- false;
    (match h.tmh_cell.W.c_value with
    | P_timer tm -> tm.tm_active <- false
    | _ -> ());
    (* Drop the pooled cell now rather than letting a dead entry fire:
       [remove] fails only while the timer's own callback is running (the
       cell is out of the queue then), and [step] frees it in that case. *)
    let t = h.tmh_engine in
    if W.remove t.queue h.tmh_cell then free_cell t h.tmh_cell
  end

let sleep span = Effect.perform (Sleep span)
let suspend ~register = Effect.perform (Suspend register)

let waiter t =
  let cell = W.make_cell t.queue P_none in
  let rec w =
    {
      w_engine = t;
      w_cell = cell;
      w_ready = (fun () -> true);
      w_k = None;
      w_start = 0;
      w_interval = 1;
      w_max = 0;
      w_ticks = 0;
      w_taken = 0;
      w_woken = false;
      w_missed = false;
      w_some = Some w;
    }
  in
  cell.W.c_value <- P_wait w;
  w

let park w span ~max_ticks ready =
  let interval = span_ns span in
  if interval <= 0 then invalid_arg "Engine.park: non-positive span";
  if max_ticks <= 0 || max_ticks > (max_int - w.w_engine.clock_ns) / interval then
    invalid_arg "Engine.park: max_ticks out of range";
  if Option.is_some w.w_k then invalid_arg "Engine.park: waiter already parked";
  w.w_ready <- ready;
  w.w_start <- w.w_engine.clock_ns;
  w.w_interval <- interval;
  w.w_max <- max_ticks;
  w.w_ticks <- 0;
  w.w_taken <- 0;
  (* Work already there when parking is for the first tick to see, as if
     a wake had come with it. *)
  w.w_woken <- ready ();
  w.w_missed <- false;
  w.w_engine.park_arg <- w.w_some;
  Effect.perform Park

(* Ticks of the current park at instants up to now, counting the tick at
   now only once it has run: it has not while an earlier-parked waiter's
   tick at this instant is the running event. *)
let ticks_now w =
  let t = w.w_engine in
  let rel = t.clock_ns - w.w_start in
  let n = rel / w.w_interval in
  let n =
    if n > 0 && rel mod w.w_interval = 0 && t.cur_seq < w.w_cell.W.c_seq then n - 1
    else n
  in
  if n < w.w_max then n else w.w_max

let wake w =
  if Option.is_some w.w_k then begin
    w.w_woken <- true;
    let target = w.w_start + ((ticks_now w + 1) * w.w_interval) in
    let c = w.w_cell in
    if target < c.W.c_time then begin
      let q = w.w_engine.queue in
      ignore (W.remove q c);
      c.W.c_time <- target;
      W.insert q c
    end
  end

let take_ticks w =
  let n = if Option.is_some w.w_k then ticks_now w else w.w_ticks in
  let fresh = n - w.w_taken in
  w.w_taken <- n;
  fresh

let missed_wake w = w.w_missed

let resume_waiter w tick =
  w.w_ticks <- tick;
  match w.w_k with
  | Some k ->
      w.w_k <- None;
      k
  | None -> invalid_arg "Engine: waiter cell fired while not parked"

let exec t c =
  t.clock_ns <- c.W.c_time;
  t.cur_seq <- c.W.c_seq;
  t.events_run <- t.events_run + 1;
  match c.W.c_value with
  | P_thunk f ->
      (* Recycle before running so the callback's own scheduling reuses
         this cell. *)
      free_cell t c;
      f ()
  | P_resume k ->
      free_cell t c;
      Effect.Deep.continue k ()
  | P_timer tm ->
      let fired_ns = c.W.c_time in
      run_process t tm.tm_run;
      if tm.tm_active then begin
        (* Rearm from the scheduled fire time, not the clock after the
           callback: periodic timers must not drift.  The fresh seq is
           taken after the callback's own enqueues, matching the order
           the pre-wheel engine produced. *)
        c.W.c_time <- fired_ns + tm.tm_period_ns;
        c.W.c_seq <- t.next_seq;
        t.next_seq <- t.next_seq + 1;
        W.insert t.queue c
      end
      else free_cell t c
  | P_wait w -> (
      (* A woken tick, or the expiry tick.  A woken tick that finds nothing
         sends the cell back to expiry, keeping its key. *)
      let tick = (c.W.c_time - w.w_start) / w.w_interval in
      match w.w_ready () with
      | ready when ready || tick >= w.w_max ->
          w.w_missed <- ready && not w.w_woken;
          Effect.Deep.continue (resume_waiter w tick) ()
      | _ ->
          w.w_woken <- false;
          c.W.c_time <- w.w_start + (w.w_max * w.w_interval);
          W.insert t.queue c
      | exception e -> Effect.Deep.discontinue (resume_waiter w tick) e)
  | P_none -> invalid_arg "Engine.step: empty event cell"

let step t =
  let c = W.pop t.queue in
  if c == W.nil t.queue then false
  else begin
    exec t c;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let limit_ns = Int64.to_int (Time.instant_to_ns limit) in
      let nil = W.nil t.queue in
      let continue_ = ref true in
      while !continue_ do
        let c = W.pop_before t.queue limit_ns in
        if c == nil then begin
          t.clock_ns <- limit_ns;
          t.cur_seq <- max_int;
          continue_ := false
        end
        else exec t c
      done

let pending_events t = W.length t.queue
let events_executed t = t.events_run
