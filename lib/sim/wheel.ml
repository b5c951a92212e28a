(* Calendar-queue event scheduler: a circular timer wheel over the
   near-future window with a binary heap of cells as far-future overflow.

   The wheel covers [cursor, cursor + slots) ticks of [tick_ns] each
   (~8.4 ms of simulated time).  Events inside the window go to the slot
   [tick land slot_mask]; events beyond it wait in the overflow heap and
   are promoted ("cascaded") into the wheel when the cursor approaches.
   Each slot keeps its cells sorted by (time, seq), so pop order is
   exactly the binary-heap order the engine used before: time first, then
   insertion sequence.

   Cells are caller-owned mutable records linked through [c_next] with the
   wheel's own [nil] cell as the end-of-list marker, so steady-state
   insert/remove/pop never allocates. *)

type 'a cell = {
  mutable c_time : int;  (* ns *)
  mutable c_seq : int;
  mutable c_value : 'a;
  mutable c_next : 'a cell;
  mutable c_loc : int;
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

type 'a t = {
  nil : 'a cell;
  heads : 'a cell array;
  group_fill : int array;  (* occupied-slot count per group, for fast scans *)
  mutable wheel_len : int;
  mutable cur_tick : int;
  mutable heap : 'a cell array;
  mutable heap_len : int;
}

let create ~dummy =
  let rec nil =
    { c_time = max_int; c_seq = max_int; c_value = dummy; c_next = nil; c_loc = loc_free }
  in
  {
    nil;
    heads = Array.make slot_count nil;
    group_fill = Array.make group_count 0;
    wheel_len = 0;
    cur_tick = 0;
    heap = [||];
    heap_len = 0;
  }

let make_cell t v =
  { c_time = 0; c_seq = 0; c_value = v; c_next = t.nil; c_loc = loc_free }

let nil t = t.nil
let length t = t.wheel_len + t.heap_len
let is_empty t = t.wheel_len = 0 && t.heap_len = 0

let before a b = a.c_time < b.c_time || (a.c_time = b.c_time && a.c_seq < b.c_seq)

(* Slot indices are always masked into range and group indices derived from
   them, so the hot paths use unchecked array accesses. *)
let head_get t s = Array.unsafe_get t.heads s
let head_set t s c = Array.unsafe_set t.heads s c
let fill_incr t g d =
  Array.unsafe_set t.group_fill g (Array.unsafe_get t.group_fill g + d)

(* Overflow heap: an array binary min-heap of cells ordered by [before]. *)

let heap_swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 in
  if l < t.heap_len then begin
    let s = if l + 1 < t.heap_len && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    if before t.heap.(s) t.heap.(i) then begin
      heap_swap t i s;
      heap_down t s
    end
  end

let heap_push t c =
  if t.heap_len = Array.length t.heap then begin
    let cap = max 16 (2 * t.heap_len) in
    let bigger = Array.make cap t.nil in
    Array.blit t.heap 0 bigger 0 t.heap_len;
    t.heap <- bigger
  end;
  t.heap.(t.heap_len) <- c;
  t.heap_len <- t.heap_len + 1;
  heap_up t (t.heap_len - 1);
  c.c_loc <- loc_heap

let heap_pop_top t =
  let c = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap.(0) <- t.heap.(t.heap_len);
  t.heap.(t.heap_len) <- t.nil;
  if t.heap_len > 0 then heap_down t 0;
  c.c_loc <- loc_free;
  c

let heap_remove t c =
  (* A loop, not a local recursive function: that would be a closure
     allocated on every call. *)
  let i = ref 0 in
  while !i < t.heap_len && t.heap.(!i) != c do
    incr i
  done;
  let i = !i in
  if i >= t.heap_len then false
  else begin
    t.heap_len <- t.heap_len - 1;
    let last = t.heap.(t.heap_len) in
    t.heap.(t.heap_len) <- t.nil;
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
  let head = head_get t s in
  if head == t.nil then begin
    fill_incr t (s lsr group_bits) 1;
    c.c_next <- t.nil;
    head_set t s c
  end
  else begin
    (* Sorted insertion keeps pop = list head; slots span ~1 us so lists
       stay short.  [c]'s key is hoisted into locals so the walk reloads
       only the scanned cell's fields (mutable loads are never CSEd). *)
    let ct = c.c_time and cs = c.c_seq in
    if ct < head.c_time || (ct = head.c_time && cs < head.c_seq) then begin
      c.c_next <- head;
      head_set t s c
    end
    else begin
      let nil = t.nil in
      let prev = ref head in
      let nxt = ref head.c_next in
      while
        let n = !nxt in
        n != nil && (n.c_time < ct || (n.c_time = ct && n.c_seq < cs))
      do
        prev := !nxt;
        nxt := !nxt.c_next
      done;
      c.c_next <- !nxt;
      !prev.c_next <- c
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
  let s = c.c_loc in
  let head = t.heads.(s) in
  if head == c then begin
    t.heads.(s) <- c.c_next;
    if c.c_next == t.nil then fill_incr t (s lsr group_bits) (-1)
  end
  else begin
    let prev = ref head in
    while !prev.c_next != c do
      prev := !prev.c_next
    done;
    !prev.c_next <- c.c_next
  end;
  c.c_next <- t.nil;
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
  while t.heap_len > 0 && tick_of_time t.heap.(0).c_time - t.cur_tick < slot_count do
    let c = heap_pop_top t in
    let tick = tick_of_time c.c_time in
    let tick = if tick < t.cur_tick then t.cur_tick else tick in
    slot_insert t c tick
  done

(* First occupied slot at or after the cursor (circularly), skipping empty
   64-slot groups in one comparison each. *)
let scan_to_next_occupied t =
  let base = t.cur_tick in
  let nil = t.nil in
  let d = ref 0 in
  let found = ref (-1) in
  while !found < 0 do
    let s = (base + !d) land slot_mask in
    if s land ((1 lsl group_bits) - 1) = 0
       && Array.unsafe_get t.group_fill (s lsr group_bits) = 0
    then d := !d + (1 lsl group_bits)
    else if head_get t s != nil then found := s
    else incr d
  done;
  t.cur_tick <- base + !d;
  !found

let pop t =
  if t.wheel_len = 0 && t.heap_len = 0 then t.nil
  else begin
    if t.heap_len > 0 then cascade t;
    if t.wheel_len = 0 then begin
      (* Everything lives beyond the window: jump the cursor to the heap
         top.  Safe only here — pop advances the clock to the returned
         cell's time, so no later insert can land behind the new cursor. *)
      t.cur_tick <- tick_of_time t.heap.(0).c_time;
      cascade t
    end;
    let s = scan_to_next_occupied t in
    let c = head_get t s in
    head_set t s c.c_next;
    if c.c_next == t.nil then fill_incr t (s lsr group_bits) (-1);
    c.c_next <- t.nil;
    c.c_loc <- loc_free;
    t.wheel_len <- t.wheel_len - 1;
    c
  end

(* [pop], but only if the minimum's time is <= [limit_ns]; otherwise [nil]
   and the wheel is untouched except for cascading (which never reorders).
   This is the bounded run loop's single-scan fast path: peek-then-pop
   would walk the slots twice per event. *)
let pop_before t limit_ns =
  if t.wheel_len = 0 && t.heap_len = 0 then t.nil
  else begin
    if t.heap_len > 0 then cascade t;
    if t.wheel_len = 0 then begin
      if t.heap.(0).c_time > limit_ns then t.nil
      else begin
        t.cur_tick <- tick_of_time t.heap.(0).c_time;
        cascade t;
        let s = scan_to_next_occupied t in
        let c = head_get t s in
        head_set t s c.c_next;
        if c.c_next == t.nil then fill_incr t (s lsr group_bits) (-1);
        c.c_next <- t.nil;
        c.c_loc <- loc_free;
        t.wheel_len <- t.wheel_len - 1;
        c
      end
    end
    else begin
      (* Advancing the cursor to the first occupied slot is safe even if we
         then decline: every queued event is at or past that slot, and the
         caller's clock only moves to [limit_ns] (>= popped times seen so
         far), so later inserts still land at or after the cursor. *)
      let s = scan_to_next_occupied t in
      let c = head_get t s in
      if c.c_time > limit_ns then t.nil
      else begin
        head_set t s c.c_next;
        if c.c_next == t.nil then fill_incr t (s lsr group_bits) (-1);
        c.c_next <- t.nil;
        c.c_loc <- loc_free;
        t.wheel_len <- t.wheel_len - 1;
        c
      end
    end
  end

(* Earliest pending time in ns, or [max_int] when empty.  Read-only: the
   cursor must not move, because a bounded [run ~until] that stops here may
   later enqueue events earlier than what it peeked at. *)
let next_time t =
  let wheel_min =
    if t.wheel_len = 0 then max_int
    else begin
      let d = ref 0 and found = ref (-1) in
      while !found < 0 do
        let s = (t.cur_tick + !d) land slot_mask in
        if s land ((1 lsl group_bits) - 1) = 0 && t.group_fill.(s lsr group_bits) = 0
        then d := !d + (1 lsl group_bits)
        else if t.heads.(s) != t.nil then found := s
        else incr d
      done;
      t.heads.(!found).c_time
    end
  in
  if t.heap_len = 0 then wheel_min
  else if wheel_min <= t.heap.(0).c_time then wheel_min
  else t.heap.(0).c_time
