(* Calendar-queue event scheduler: a circular timer wheel over the
   near-future window with a binary heap of cells as far-future overflow.

   The wheel covers [cursor, cursor + slots) ticks of [tick_ns] each
   (~8.4 ms of simulated time).  Events inside the window go to the slot
   [tick land slot_mask]; events beyond it wait in the overflow heap and
   are promoted ("cascaded") into the wheel when the cursor approaches.
   Each slot keeps its cells sorted by (time, seq), so pop order is
   exactly the binary-heap order the engine used before: time first, then
   insertion sequence.

   Cells are caller-owned mutable records, registered once in the
   wheel's cell registry: [cells.(c.c_id) == c].  Every link — the next
   cell in a slot, a slot head, a heap entry, the engine's freelist — is
   a registry index, with the [nil] cell at index 0 ending lists.  A
   link store is then an int store, not a pointer store, and pays
   nothing for the GC's write barrier ([caml_modify], and [caml_darken]
   while it marks): with pointer links the barrier on every relink was
   7% of an rpc run's host time.  The slot links and a copy of each
   queued cell's (time, seq) key live in int arrays beside the registry
   ([nexts], [times], [seqs]), so a sorted-insert walk chases one load
   per step, as a pointer list does, not an id then a cell.
   Steady-state insert/remove/pop never allocates. *)

type 'a cell = {
  mutable c_time : int;  (* ns *)
  mutable c_seq : int;
  mutable c_value : 'a;
  mutable c_next : int;
  mutable c_loc : int;
  c_id : int;
}

let tick_bits = 10 (* 1.024 us per tick *)
let slot_bits = 13
let slot_count = 1 lsl slot_bits
let slot_mask = slot_count - 1
let group_bits = 6 (* 64 slots per occupancy group *)
let group_count = slot_count lsr group_bits

(* [c_loc] values: a slot index, or one of these. *)
let loc_free = -1
let loc_heap = -2

let nil_id = 0

type 'a t = {
  mutable cells : 'a cell array;  (* the registry; [cells.(0)] is nil *)
  mutable n_cells : int;
  (* Per registry id, for queued cells: *)
  mutable nexts : int array;  (* the next cell in its slot *)
  mutable times : int array;  (* its [c_time] and [c_seq] when inserted *)
  mutable seqs : int array;
  heads : int array;  (* per slot: the first cell's id, or [nil_id] *)
  group_fill : int array;  (* occupied-slot count per group, for fast scans *)
  mutable wheel_len : int;
  mutable cur_tick : int;
  mutable heap : int array;  (* cell ids *)
  mutable heap_len : int;
}

let create ~dummy =
  let nil =
    {
      c_time = max_int;
      c_seq = max_int;
      c_value = dummy;
      c_next = nil_id;
      c_loc = loc_free;
      c_id = nil_id;
    }
  in
  {
    cells = Array.make 64 nil;
    n_cells = 1;
    nexts = Array.make 64 nil_id;
    times = Array.make 64 max_int;
    seqs = Array.make 64 max_int;
    heads = Array.make slot_count nil_id;
    group_fill = Array.make group_count 0;
    wheel_len = 0;
    cur_tick = 0;
    heap = [||];
    heap_len = 0;
  }

let make_cell t v =
  let id = t.n_cells in
  if id = Array.length t.cells then begin
    let grow a fill =
      let bigger = Array.make (2 * id) fill in
      Array.blit a 0 bigger 0 id;
      bigger
    in
    t.cells <- grow t.cells t.cells.(nil_id);
    t.nexts <- grow t.nexts nil_id;
    t.times <- grow t.times max_int;
    t.seqs <- grow t.seqs max_int
  end;
  let c = { c_time = 0; c_seq = 0; c_value = v; c_next = nil_id; c_loc = loc_free; c_id = id } in
  t.cells.(id) <- c;
  t.n_cells <- id + 1;
  c

(* Ids come only from the registry, so the hot paths index it unchecked. *)
let cell t id = Array.unsafe_get t.cells id
let nil t = cell t nil_id
let length t = t.wheel_len + t.heap_len
let is_empty t = t.wheel_len = 0 && t.heap_len = 0

let before a b = a.c_time < b.c_time || (a.c_time = b.c_time && a.c_seq < b.c_seq)

(* Slot indices are always masked into range and group indices derived from
   them, so the hot paths use unchecked array accesses. *)
let head_get t s = Array.unsafe_get t.heads s
let head_set t s id = Array.unsafe_set t.heads s id
let fill_incr t g d =
  Array.unsafe_set t.group_fill g (Array.unsafe_get t.group_fill g + d)

(* Overflow heap: an array binary min-heap of cell ids ordered by
   [before]. *)

let heap_before t i j = before (cell t t.heap.(i)) (cell t t.heap.(j))

let heap_swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_before t i p then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 in
  if l < t.heap_len then begin
    let s = if l + 1 < t.heap_len && heap_before t (l + 1) l then l + 1 else l in
    if heap_before t s i then begin
      heap_swap t i s;
      heap_down t s
    end
  end

(* Only ever read with [heap_len > 0]. *)
let heap_top t = cell t (Array.unsafe_get t.heap 0)

let heap_push t c =
  if t.heap_len = Array.length t.heap then begin
    let cap = max 16 (2 * t.heap_len) in
    let bigger = Array.make cap nil_id in
    Array.blit t.heap 0 bigger 0 t.heap_len;
    t.heap <- bigger
  end;
  t.heap.(t.heap_len) <- c.c_id;
  t.heap_len <- t.heap_len + 1;
  heap_up t (t.heap_len - 1);
  c.c_loc <- loc_heap

let heap_pop_top t =
  let c = heap_top t in
  t.heap_len <- t.heap_len - 1;
  t.heap.(0) <- t.heap.(t.heap_len);
  t.heap.(t.heap_len) <- nil_id;
  if t.heap_len > 0 then heap_down t 0;
  c.c_loc <- loc_free;
  c

let heap_remove t c =
  (* A loop, not a local recursive function: that would be a closure
     allocated on every call. *)
  let i = ref 0 in
  while !i < t.heap_len && t.heap.(!i) <> c.c_id do
    incr i
  done;
  let i = !i in
  if i >= t.heap_len then false
  else begin
    t.heap_len <- t.heap_len - 1;
    let last = t.heap.(t.heap_len) in
    t.heap.(t.heap_len) <- nil_id;
    if i < t.heap_len then begin
      t.heap.(i) <- last;
      heap_up t i;
      heap_down t i
    end;
    c.c_loc <- loc_free;
    true
  end

(* Wheel slots. *)

let tick_of_time time_ns = time_ns asr tick_bits

let slot_insert t c tick =
  let s = tick land slot_mask in
  let id = c.c_id and ct = c.c_time and cs = c.c_seq in
  Array.unsafe_set t.times id ct;
  Array.unsafe_set t.seqs id cs;
  let head_id = head_get t s in
  if head_id = nil_id then begin
    fill_incr t (s lsr group_bits) 1;
    Array.unsafe_set t.nexts id nil_id;
    head_set t s id
  end
  else begin
    (* Sorted insertion keeps pop = list head; slots span ~1 us so lists
       stay short.  Ids index the arrays unchecked: they all come from
       the registry, and the arrays grow with it. *)
    let times = t.times and seqs = t.seqs and nexts = t.nexts in
    let ht = Array.unsafe_get times head_id in
    if ct < ht || (ct = ht && cs < Array.unsafe_get seqs head_id) then begin
      Array.unsafe_set nexts id head_id;
      head_set t s id
    end
    else begin
      let prev = ref head_id in
      let nxt = ref (Array.unsafe_get nexts head_id) in
      while
        !nxt <> nil_id
        &&
        let nt = Array.unsafe_get times !nxt in
        nt < ct || (nt = ct && Array.unsafe_get seqs !nxt < cs)
      do
        prev := !nxt;
        nxt := Array.unsafe_get nexts !nxt
      done;
      Array.unsafe_set nexts id !nxt;
      Array.unsafe_set nexts !prev id
    end
  end;
  c.c_loc <- s;
  t.wheel_len <- t.wheel_len + 1

let insert t c =
  let tick = tick_of_time c.c_time in
  (* The engine may schedule at instants at or before the cursor (e.g.
     resume-at-current-instant); clamp into the cursor slot — the sorted
     slot list still pops them in (time, seq) order. *)
  let tick = if tick < t.cur_tick then t.cur_tick else tick in
  if tick - t.cur_tick >= slot_count then heap_push t c else slot_insert t c tick

let slot_unlink t c =
  let s = c.c_loc and id = c.c_id in
  let next = t.nexts.(id) in
  if head_get t s = id then begin
    head_set t s next;
    if next = nil_id then fill_incr t (s lsr group_bits) (-1)
  end
  else begin
    let prev = ref (head_get t s) in
    while t.nexts.(!prev) <> id do
      prev := t.nexts.(!prev)
    done;
    t.nexts.(!prev) <- next
  end;
  t.nexts.(id) <- nil_id;
  c.c_loc <- loc_free;
  t.wheel_len <- t.wheel_len - 1

let remove t c =
  if c.c_loc = loc_free then false
  else if c.c_loc = loc_heap then heap_remove t c
  else begin
    slot_unlink t c;
    true
  end

(* Promote overflow cells whose tick has entered the wheel window. *)
let cascade t =
  while t.heap_len > 0 && tick_of_time (heap_top t).c_time - t.cur_tick < slot_count do
    let c = heap_pop_top t in
    let tick = tick_of_time c.c_time in
    let tick = if tick < t.cur_tick then t.cur_tick else tick in
    slot_insert t c tick
  done

(* First occupied slot at or after the cursor (circularly), skipping empty
   64-slot groups in one comparison each. *)
let scan_to_next_occupied t =
  let base = t.cur_tick in
  let d = ref 0 in
  let found = ref (-1) in
  while !found < 0 do
    let s = (base + !d) land slot_mask in
    if s land ((1 lsl group_bits) - 1) = 0
       && Array.unsafe_get t.group_fill (s lsr group_bits) = 0
    then d := !d + (1 lsl group_bits)
    else if head_get t s <> nil_id then found := s
    else incr d
  done;
  t.cur_tick <- base + !d;
  !found

(* Unlink and return the head of occupied slot [s]. *)
let take_head t s =
  let id = head_get t s in
  let next = Array.unsafe_get t.nexts id in
  head_set t s next;
  if next = nil_id then fill_incr t (s lsr group_bits) (-1);
  Array.unsafe_set t.nexts id nil_id;
  let c = cell t id in
  c.c_loc <- loc_free;
  t.wheel_len <- t.wheel_len - 1;
  c

let pop t =
  if t.wheel_len = 0 && t.heap_len = 0 then nil t
  else begin
    if t.heap_len > 0 then cascade t;
    if t.wheel_len = 0 then begin
      (* Everything lives beyond the window: jump the cursor to the heap
         top.  Safe only here — pop advances the clock to the returned
         cell's time, so no later insert can land behind the new cursor. *)
      t.cur_tick <- tick_of_time (heap_top t).c_time;
      cascade t
    end;
    take_head t (scan_to_next_occupied t)
  end

(* [pop], but only if the minimum's time is <= [limit_ns]; otherwise [nil]
   and the wheel is untouched except for cascading (which never reorders).
   This is the bounded run loop's single-scan fast path: peek-then-pop
   would walk the slots twice per event. *)
let pop_before t limit_ns =
  if t.wheel_len = 0 && t.heap_len = 0 then nil t
  else begin
    if t.heap_len > 0 then cascade t;
    if t.wheel_len = 0 then begin
      if (heap_top t).c_time > limit_ns then nil t
      else begin
        t.cur_tick <- tick_of_time (heap_top t).c_time;
        cascade t;
        take_head t (scan_to_next_occupied t)
      end
    end
    else begin
      (* Advancing the cursor to the first occupied slot is safe even if we
         then decline: every queued event is at or past that slot, and the
         caller's clock only moves to [limit_ns] (>= popped times seen so
         far), so later inserts still land at or after the cursor. *)
      let s = scan_to_next_occupied t in
      if Array.unsafe_get t.times (head_get t s) > limit_ns then nil t else take_head t s
    end
  end

(* Whether every queued cell is later than [limit_ns].  The cursor's own
   slot is read first: it also holds the cells scheduled behind the
   cursor (after a declined [pop_before] the cursor can sit ahead of the
   clock), so its head is the wheel's minimum when it is occupied.
   Otherwise the cursor moves across empty slots up to the first occupied
   one or the limit's tick, whichever comes first: every queued cell is
   at or past the new cursor, and the caller's clock only moves to
   [limit_ns] when the answer is yes, so the scan amortises like [pop]'s. *)
let clear_through t limit_ns =
  if t.heap_len > 0 && (heap_top t).c_time <= limit_ns then false
  else if t.wheel_len = 0 then true
  else begin
    let head = head_get t (t.cur_tick land slot_mask) in
    if head <> nil_id then Array.unsafe_get t.times head > limit_ns
    else begin
      let span = tick_of_time limit_ns - t.cur_tick in
      let d = ref 1 and found = ref nil_id in
      while !found = nil_id && !d <= span do
        let s = (t.cur_tick + !d) land slot_mask in
        if s land ((1 lsl group_bits) - 1) = 0
           && Array.unsafe_get t.group_fill (s lsr group_bits) = 0
        then d := !d + (1 lsl group_bits)
        else begin
          let h = head_get t s in
          if h <> nil_id then found := h else incr d
        end
      done;
      if !found = nil_id then begin
        if span > 0 then t.cur_tick <- t.cur_tick + span;
        true
      end
      else begin
        t.cur_tick <- t.cur_tick + !d;
        Array.unsafe_get t.times !found > limit_ns
      end
    end
  end
