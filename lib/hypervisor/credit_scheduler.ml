type priority = Boost | Under | Over

type vcpu = {
  sched : t;
  name : string;
  weight : int;
  cap_percent : int option;
  mutable credit_ns : int;
  mutable state : state;
  mutable boost : bool;
  mutable remaining_ns : int;  (** queued work not yet executed *)
  mutable demanded_ns : int;  (** cumulative work submitted *)
  mutable serviced_ns : int;  (** cumulative work executed *)
  mutable period_ns : int;  (** executed within the current accounting period *)
  mutable waiters : (int * (unit -> unit)) list;
}

and state = Idle | Queued | Running | Capped

and assignment = {
  av : vcpu;
  started : Sim.Time.t;
  mutable cancelled : bool;
}

and t = {
  engine : Sim.Engine.t;
  physical_cpus : int;
  timeslice_ns : int;
  period_ns_total : int;
  boost_enabled : bool;
  mutable vcpus : vcpu list;
  mutable free_cpus : int;
  mutable running : assignment list;
  queue_boost : vcpu Queue.t;
  queue_under : vcpu Queue.t;
  queue_over : vcpu Queue.t;
  capped : vcpu Queue.t;
}

let ns_of span = Int64.to_int (Sim.Time.to_ns span)

let create ~engine ~physical_cpus ?(timeslice = Sim.Time.ms 30)
    ?(accounting_period = Sim.Time.ms 30) ?(boost = true) () =
  if physical_cpus <= 0 then
    invalid_arg "Credit_scheduler.create: need at least one physical CPU";
  let t =
    {
      engine;
      physical_cpus;
      timeslice_ns = ns_of timeslice;
      period_ns_total = ns_of accounting_period;
      boost_enabled = boost;
      vcpus = [];
      free_cpus = physical_cpus;
      running = [];
      queue_boost = Queue.create ();
      queue_under = Queue.create ();
      queue_over = Queue.create ();
      capped = Queue.create ();
    }
  in
  t

let priority_of v =
  if v.boost then Boost else if v.credit_ns > 0 then Under else Over

let cpu_time v = Sim.Time.ns_int64 (Int64.of_int v.serviced_ns)

let cap_reached v =
  match v.cap_percent with
  | None -> false
  | Some cap -> v.period_ns >= v.sched.period_ns_total * cap / 100

let enqueue t v =
  v.state <- Queued;
  match priority_of v with
  | Boost -> Queue.push v t.queue_boost
  | Under -> Queue.push v t.queue_under
  | Over -> Queue.push v t.queue_over

let pick t =
  match Queue.take_opt t.queue_boost with
  | Some v -> Some v
  | None -> (
      match Queue.take_opt t.queue_under with
      | Some v -> Some v
      | None -> Queue.take_opt t.queue_over)

let wake_waiters v =
  let ready, still =
    List.partition (fun (target, _) -> v.serviced_ns >= target) v.waiters
  in
  v.waiters <- still;
  List.iter (fun (_, resume) -> resume ()) (List.rev ready)

let cap_allowance v =
  match v.cap_percent with
  | None -> max_int
  | Some cap -> max 0 ((v.sched.period_ns_total * cap / 100) - v.period_ns)

(* Account [ran] nanoseconds of execution and requeue or idle the vCPU. *)
let rec finish t v ~ran =
  v.remaining_ns <- v.remaining_ns - ran;
  v.serviced_ns <- v.serviced_ns + ran;
  v.period_ns <- v.period_ns + ran;
  v.credit_ns <- v.credit_ns - ran;
  t.free_cpus <- t.free_cpus + 1;
  wake_waiters v;
  if v.remaining_ns > 0 then begin
    if cap_reached v then begin
      v.state <- Capped;
      Queue.push v t.capped
    end
    else enqueue t v
  end
  else v.state <- Idle

and dispatch t =
  if t.free_cpus > 0 then begin
    match pick t with
    | None -> ()
    | Some v when cap_allowance v = 0 ->
        (* Out of budget for this accounting period. *)
        v.state <- Capped;
        Queue.push v t.capped;
        dispatch t
    | Some v ->
        t.free_cpus <- t.free_cpus - 1;
        v.state <- Running;
        (* BOOST is consumed by being scheduled (as in Xen): a running vCPU
           no longer outranks a waking one. *)
        v.boost <- false;
        let a = { av = v; started = Sim.Engine.now t.engine; cancelled = false } in
        t.running <- a :: t.running;
        let slice = min (min t.timeslice_ns v.remaining_ns) (cap_allowance v) in
        Sim.Engine.after t.engine (Sim.Time.ns slice) (fun () ->
            if not a.cancelled then begin
              t.running <- List.filter (fun a' -> not (a' == a)) t.running;
              finish t v ~ran:slice;
              dispatch t
            end);
        dispatch t
  end

(* Xen's runq tickle: a waking BOOST vCPU preempts a running lower-priority
   vCPU instead of waiting for its timeslice to expire. *)
let tickle t =
  if t.free_cpus = 0 && not (Queue.is_empty t.queue_boost) then begin
    let prio_rank v = match priority_of v with Boost -> 2 | Under -> 1 | Over -> 0 in
    let victim =
      List.fold_left
        (fun best a ->
          match best with
          | None -> if prio_rank a.av < 2 then Some a else None
          | Some b -> if prio_rank a.av < prio_rank b.av then Some a else best)
        None t.running
    in
    match victim with
    | None -> ()
    | Some a ->
        a.cancelled <- true;
        t.running <- List.filter (fun a' -> not (a' == a)) t.running;
        let ran =
          Int64.to_int
            (Sim.Time.to_ns (Sim.Time.diff (Sim.Engine.now t.engine) a.started))
        in
        finish t a.av ~ran;
        dispatch t
  end

let accounting_tick t =
  let total_weight = List.fold_left (fun acc v -> acc + v.weight) 0 t.vcpus in
  if total_weight > 0 then begin
    let capacity = t.period_ns_total * t.physical_cpus in
    List.iter
      (fun v ->
        let grant = capacity * v.weight / total_weight in
        v.credit_ns <- v.credit_ns + grant;
        (* Clamp, as Xen does, so an idle domain cannot bank unbounded
           credit and then starve everyone. *)
        let bound = 2 * t.period_ns_total in
        if v.credit_ns > bound then v.credit_ns <- bound;
        if v.credit_ns < -bound then v.credit_ns <- -bound;
        v.period_ns <- 0)
      t.vcpus
  end;
  (* Capped vCPUs get a fresh period. *)
  let rec release () =
    match Queue.take_opt t.capped with
    | None -> ()
    | Some v ->
        if v.remaining_ns > 0 then enqueue t v else v.state <- Idle;
        release ()
  in
  release ();
  dispatch t

let add_vcpu t ~name ~weight ?cap_percent () =
  if weight <= 0 then invalid_arg "Credit_scheduler.add_vcpu: weight must be positive";
  (match cap_percent with
  | Some c when c <= 0 || c > 100 ->
      invalid_arg "Credit_scheduler.add_vcpu: cap must be in 1..100"
  | Some _ | None -> ());
  let v =
    {
      sched = t;
      name;
      weight;
      cap_percent;
      credit_ns = 0;
      state = Idle;
      boost = false;
      remaining_ns = 0;
      demanded_ns = 0;
      serviced_ns = 0;
      period_ns = 0;
      waiters = [];
    }
  in
  (if t.vcpus = [] then
     (* First vCPU: start the accounting clock. *)
     ignore
       (Sim.Engine.every t.engine
          (Sim.Time.ns t.period_ns_total)
          (fun () -> accounting_tick t)));
  t.vcpus <- v :: t.vcpus;
  v

let run v span =
  let t = v.sched in
  let ns = ns_of span in
  if ns < 0 then invalid_arg "Credit_scheduler.run: negative span";
  if ns > 0 then begin
    v.demanded_ns <- v.demanded_ns + ns;
    let target = v.demanded_ns in
    let was_idle = v.state = Idle in
    v.remaining_ns <- v.remaining_ns + ns;
    if was_idle then begin
      (* A vCPU waking from idle gets BOOST (I/O latency mechanism). *)
      if t.boost_enabled then v.boost <- true;
      enqueue t v;
      dispatch t;
      if t.boost_enabled then tickle t
    end;
    if v.serviced_ns < target then
      Sim.Engine.suspend ~register:(fun resume ->
          v.waiters <- (target, resume) :: v.waiters)
  end
