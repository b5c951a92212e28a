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
    processor but do not advance the clock. *)

val suspend : register:((unit -> unit) -> unit) -> unit
(** [suspend ~register] parks the calling process.  [register] receives a
    [resume] thunk; invoking [resume] (from any context, at any later
    instant) schedules the process to continue at the instant of the call.
    Invoking [resume] more than once is an error and raises
    [Invalid_argument]. *)

val poll : Time.span -> (unit -> bool) -> unit
(** [poll span check] parks the calling process and runs [check] every
    [span] of virtual time until it returns [true]; the process then
    resumes in that same event.  Event for event — the same instants, the
    same tie-break order, the same {!events_executed} — this is

    {[ while (sleep span; not (check ())) do () done ]}

    but an idle tick costs one plain callback instead of waking the
    process.  [check] therefore runs outside process context and must not
    {!sleep}, {!suspend} or {!poll}; an exception it raises is raised in
    the process.  Non-positive spans are clamped to zero, as in {!sleep}. *)

(** {1 Running} *)

val run : ?until:Time.t -> t -> unit
(** Process events in time order until the queue is empty or the clock
    would pass [until].  When [until] is given the clock is left at [until]
    even if the queue drained earlier, so repeated bounded runs compose. *)

val step : t -> bool
(** Process a single event.  Returns [false] if the queue was empty. *)

val pending_events : t -> int

val events_executed : t -> int
(** Total events this engine has run since creation — the numerator of the
    [sim_events_per_sec] benchmark metric. *)
