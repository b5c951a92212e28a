module W = Wheel

(* Event payloads live directly in pooled wheel cells.  [P_resume] carries
   a sleeping process's continuation without a wrapping closure, and
   [P_timer] and [P_poll] let a periodic timer or a polling process own one
   cell for its whole life, so the steady-state schedule/fire cycle touches
   the allocator not at all. *)
type t = {
  mutable clock_ns : int;
  queue : payload W.t;
  mutable free : payload W.cell;  (* freelist chained through c_next *)
  mutable next_seq : int;
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
  (* A process parked in [poll]: each tick runs [pl_check] as a plain
     callback and resumes [pl_k] only once it says so. *)
  | P_poll of {
      pl_span_ns : int;
      pl_check : unit -> bool;
      pl_k : (unit, unit) Effect.Deep.continuation;
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
  | Poll : Time.span * (unit -> bool) -> unit Effect.t

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
      events_run = 0;
      engine_rng = Rng.create ~seed;
      clock_box = Time.zero;
      clock_box_ns = 0;
      proc_handler = null_handler;
      sleep_ns_arg = 0;
      sleep_arm = None;
    }
  in
  t.sleep_arm <-
    Some (fun k -> schedule t (t.clock_ns + t.sleep_ns_arg) (P_resume k));
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
          | Poll (span, check) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let span_ns = delay_ns span in
                  schedule t (t.clock_ns + span_ns)
                    (P_poll { pl_span_ns = span_ns; pl_check = check; pl_k = k }))
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
let poll span check = Effect.perform (Poll (span, check))

let exec t c =
  t.clock_ns <- c.W.c_time;
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
  | P_poll pl -> (
      (* One tick is exactly the event a [sleep span] wake-up would have
         been: the check runs at the same (time, seq), and an idle tick
         takes its fresh seq after whatever the check enqueued, as the
         next [sleep] would have. *)
      match pl.pl_check () with
      | false ->
          c.W.c_time <- c.W.c_time + pl.pl_span_ns;
          c.W.c_seq <- t.next_seq;
          t.next_seq <- t.next_seq + 1;
          W.insert t.queue c
      | true ->
          free_cell t c;
          Effect.Deep.continue pl.pl_k ()
      | exception e ->
          free_cell t c;
          Effect.Deep.discontinue pl.pl_k e)
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
          continue_ := false
        end
        else exec t c
      done

let pending_events t = W.length t.queue
let events_executed t = t.events_run
