(** Deterministic discrete-event simulation engine.

    The engine maintains a virtual clock and a priority queue of pending
    events.  Code scheduled on the engine runs as a cooperative {e process}:
    inside a process, {!sleep} advances virtual time and {!suspend} parks the
    process until some other event resumes it.  Processes are implemented
    with OCaml effects, so simulation code reads like straight-line blocking
    code while remaining single-threaded and fully deterministic (ties in the
    event queue are broken by scheduling order). *)

type t

val create : ?seed:int -> unit -> t
(** A fresh engine with its clock at {!Time.zero}.  [seed] (default 42)
    seeds the engine's {!Rng}. *)

val now : t -> Time.t
val rng : t -> Rng.t

(** {1 Scheduling}

    Every scheduled callback runs in process context, so it may freely call
    {!sleep} and {!suspend}. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Run a process at the current instant (after the currently executing
    event completes). *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** Run a process at an absolute instant.
    @raise Invalid_argument if the instant is in the past. *)

val after : t -> Time.span -> (unit -> unit) -> unit
(** Run a process after the given delay (negative delays are clamped to
    zero). *)

type timer

val every : t -> ?start:Time.span -> Time.span -> (unit -> unit) -> timer
(** Periodic process: first firing after [start] (default one period), then
    every period until {!cancel}. *)

val cancel : timer -> unit

(** {1 Process operations}

    These must be called from process context; calling them outside any
    process raises [Effect.Unhandled]. *)

val sleep : Time.span -> unit
(** Advance this process's virtual time.  Non-positive spans yield the
    processor but do not advance the clock.

    Under {!run}, a sleep whose wake-up would be the next event — no
    queued event at or before it, and within [until] — continues inline:
    the clock, the event count and every later tie-break are as if the
    wake-up had been queued and popped, but no effect is performed.  A
    timer callback's first segment and a waiter's [ready] never continue
    inline, and {!step} never does. *)

val suspend : register:((unit -> unit) -> unit) -> unit
(** [suspend ~register] parks the calling process.  [register] receives a
    [resume] thunk; invoking [resume] (from any context, at any later
    instant) schedules the process to continue at the instant of the call.
    Invoking [resume] more than once is an error and raises
    [Invalid_argument]. *)

(** {1 Blocking}

    A FIFO of processes waiting for a resource or a condition.  The
    process's continuation itself is queued, so a wait allocates no
    resume closure. *)

type wait_queue

val wait_queue : unit -> wait_queue

val block : wait_queue -> unit
(** Park the calling process at the tail of the queue until an
    {!unblock} takes it. *)

val unblock : wait_queue -> bool
(** Take the longest-blocked process and schedule it to continue at the
    current instant, as a [suspend]'s [resume] would; [false] if the
    queue is empty. *)

val blocked : wait_queue -> int
(** Processes in the queue. *)

(** {1 Parking}

    A process that lingers on a condition — a receiver re-checking its
    ring every interval for a bounded window — parks on a {!waiter}
    instead of ticking.  The tick grid is that of a sleep loop (tick [j]
    at [start + j * span], j = 1 .. [max_ticks]), but only two kinds of
    tick execute: the expiry tick, and a tick some {!wake} asked for.  A
    parked process costs O(1) events per park, however long the window. *)

type waiter
(** A reusable parking spot for one process at a time.  It owns a single
    pooled event cell for its whole life, so a steady-state park, wake and
    resume reuse the same cell. *)

val waiter : t -> waiter

val park : waiter -> Time.span -> max_ticks:int -> (unit -> bool) -> unit
(** [park w span ~max_ticks ready] parks the calling process on [w].  It
    resumes, inside that tick's event, at the first tick a {!wake} asked
    for at which [ready ()] holds, or at tick [max_ticks] (the expiry)
    whatever [ready] says.

    Tick rule: a tick runs before every other event at its instant, and
    ties between ticks go by park order.  A tick at T therefore sees
    exactly what happened at instants before T.

    Wake contract: [ready] must be a pure read, and whatever can flip it
    from false to true must call {!wake}.  Then the process resumes at the
    same tick as a poller that evaluated [ready] at every tick would.
    [ready] is also read once at the park itself: work already there is
    for the first tick to see.  [ready] runs outside process context and
    must not {!sleep},
    {!suspend} or {!park}; an exception it raises is raised in the
    process.
    @raise Invalid_argument if [span] or [max_ticks] is not positive (a
    zero span would put every tick at the start instant, ahead of
    everything else there), if the expiry would overflow the clock, or if
    [w] is already parked. *)

val wake : waiter -> unit
(** Ask a parked waiter to evaluate [ready] at the first tick that has
    not yet run: the first grid tick strictly after now, or the tick at
    now itself while an earlier-parked waiter's tick at this instant is
    the running event.  Further wakes before that tick do nothing; a woken
    tick that finds [ready] false goes back to waiting for expiry.  A wake
    costs no simulated time and no event of its own; waking a waiter that
    is not parked does nothing. *)

val take_ticks : waiter -> int
(** Ticks elapsed since the last [take_ticks] on this waiter: while parked,
    the ticks at instants up to now (executed or not); after a resume, up
    to the tick it resumed at.  Parking starts a fresh count. *)

val missed_wake : waiter -> bool
(** Whether the last park resumed at a tick no {!wake} asked for (the
    expiry) while [ready] held — a broken wake contract. *)

(** {1 Running} *)

val run : ?until:Time.t -> t -> unit
(** Process events in time order until the queue is empty or the clock
    would pass [until].  When [until] is given the clock is left at [until]
    even if the queue drained earlier, so repeated bounded runs compose. *)

val step : t -> bool
(** Process a single event.  Returns [false] if the queue was empty.  A
    sleep inside it always queues its wake-up, so a [step] loop runs
    the same events in the same order as {!run}, one per call. *)

val pending_events : t -> int

val events_executed : t -> int
(** Total events this engine has run since creation — the numerator of the
    [sim_events_per_sec] benchmark metric.  A sleep that continued inline
    counts as the event its wake-up would have been. *)
