module Page = Memory.Page

let mask32 = 0xFFFFFFFF
let pool_magic = 0x4C4F4F50 (* "POOL" *)

(* Control page layout (byte offsets). *)
let off_magic = 0
let off_slots = 4
let off_slot_pages = 8
let off_inline_max = 12
let off_fr_head = 16
let off_fr_tail = 20
let off_max_loans = 24
let off_gso_max = 28
let off_ring = 32
let off_grefs ~slots = off_ring + (4 * slots)


let is_power_of_two n = n > 0 && n land (n - 1) = 0

let ctrl_fits ~slots ~slot_pages =
  off_grefs ~slots + (4 * slots * slot_pages) <= Page.size

let pages_for ~slots ~slot_pages = 1 + (slots * slot_pages)

let geometry_valid ~slots ~slot_pages =
  is_power_of_two slots && slot_pages >= 1 && ctrl_fits ~slots ~slot_pages

type t = {
  ctrl : Page.t;
  data : Page.t array;
  p_slots : int;
  p_slot_pages : int;
  (* Chaos-harness hook: lives in this *view*, not the shared page, so only
     the endpoint that registered it sees forced exhaustion. *)
  mutable alloc_fault : (unit -> bool) option;
  (* Loan bookkeeping is view-local: only the receiving endpoint loans
     slots out to its socket layer, and only it needs to know which.  The
     shared page never records loans — a loaned slot is simply "in flight"
     from the free ring's point of view, exactly like one being read. *)
  pl_loaned : bool array;
  mutable pl_outstanding : int;
  (* Set by [force_return_loans] at channel teardown: any release arriving
     after the slots were force-returned must be a silent no-op, not a
     double-free onto a ring someone else now owns. *)
  mutable pl_dead : bool;
  (* The receiver's copy of a scattered frame's leading bytes, which may
     straddle chunks, for {!parse_scatter} to read headers from; reused
     for every frame, as the parser keeps nothing of it. *)
  pl_head : Bytes.t;
}

let check_geometry ~what ~slots ~slot_pages =
  if not (is_power_of_two slots) then
    invalid_arg (Printf.sprintf "Payload_pool.%s: slots must be a power of two" what);
  if slot_pages < 1 then
    invalid_arg (Printf.sprintf "Payload_pool.%s: slot_pages < 1" what);
  if not (ctrl_fits ~slots ~slot_pages) then
    invalid_arg
      (Printf.sprintf "Payload_pool.%s: free ring + gref table overflow the control page"
         what)

let make_view ~ctrl ~data ~slots ~slot_pages =
  {
    ctrl;
    data;
    p_slots = slots;
    p_slot_pages = slot_pages;
    alloc_fault = None;
    pl_loaned = Array.make slots false;
    pl_outstanding = 0;
    pl_dead = false;
    pl_head = Bytes.create Netcore.Codec.max_header_length;
  }

let init ?(max_loans = 0) ?(gso_max = 0) ~ctrl ~data ~slots ~slot_pages
    ~inline_max () =
  check_geometry ~what:"init" ~slots ~slot_pages;
  if Array.length data <> slots * slot_pages then
    invalid_arg "Payload_pool.init: wrong number of data pages";
  Page.zero ctrl;
  Page.set_u32 ctrl off_magic pool_magic;
  Page.set_u32 ctrl off_slots slots;
  Page.set_u32 ctrl off_slot_pages slot_pages;
  Page.set_u32 ctrl off_inline_max inline_max;
  Page.set_u32 ctrl off_max_loans (Int.max 0 max_loans);
  Page.set_u32 ctrl off_gso_max (Int.max 0 gso_max);
  (* Free ring starts full: every slot is available to the sender. *)
  for i = 0 to slots - 1 do
    Page.set_u32 ctrl (off_ring + (4 * i)) i
  done;
  Page.set_u32 ctrl off_fr_head 0;
  Page.set_u32 ctrl off_fr_tail slots;
  make_view ~ctrl ~data ~slots ~slot_pages

let write_grefs t grefs =
  if Array.length grefs <> t.p_slots * t.p_slot_pages then
    invalid_arg "Payload_pool.write_grefs: wrong number of grefs";
  let base = off_grefs ~slots:t.p_slots in
  Array.iteri (fun i gref -> Page.set_u32 t.ctrl (base + (4 * i)) gref) grefs

let read_grefs ~ctrl =
  if Page.get_u32 ctrl off_magic <> pool_magic then
    invalid_arg "Payload_pool.read_grefs: control page not initialized";
  let slots = Page.get_u32 ctrl off_slots in
  let slot_pages = Page.get_u32 ctrl off_slot_pages in
  let base = off_grefs ~slots in
  Array.init (slots * slot_pages) (fun i -> Page.get_u32 ctrl (base + (4 * i)))

let attach ~ctrl ~data =
  if Page.get_u32 ctrl off_magic <> pool_magic then
    invalid_arg "Payload_pool.attach: control page not initialized";
  let slots = Page.get_u32 ctrl off_slots in
  let slot_pages = Page.get_u32 ctrl off_slot_pages in
  check_geometry ~what:"attach" ~slots ~slot_pages;
  if Array.length data <> slots * slot_pages then
    invalid_arg "Payload_pool.attach: wrong number of data pages";
  make_view ~ctrl ~data ~slots ~slot_pages

let slots t = t.p_slots
let slot_bytes t = t.p_slot_pages * Page.size
let inline_threshold t = Page.get_u32 t.ctrl off_inline_max
let max_loans_stamp t = Page.get_u32 t.ctrl off_max_loans
let gso_stamp t = Page.get_u32 t.ctrl off_gso_max

let fr_head t = Page.get_u32 t.ctrl off_fr_head
let fr_tail t = Page.get_u32 t.ctrl off_fr_tail
let free_slots t = (fr_tail t - fr_head t) land mask32

(* Free-ring protocol: the ring holds slot numbers; the sender pops free
   slots at [fr_head], the receiver pushes consumed slots back at
   [fr_tail].  Like the FIFO indices, each 32-bit index is only ever
   incremented by exactly one side, so no lock is needed. *)

let set_alloc_fault t f = t.alloc_fault <- f

let alloc_faulted t =
  match t.alloc_fault with None -> false | Some f -> f ()

let alloc_slot t =
  if free_slots t = 0 || alloc_faulted t then -1
  else begin
    let h = fr_head t in
    let slot = Page.get_u32 t.ctrl (off_ring + (4 * (h land (t.p_slots - 1)))) in
    Page.set_u32 t.ctrl off_fr_head (h + 1);
    slot
  end

let alloc t =
  let slot = alloc_slot t in
  if slot < 0 then None else Some slot

let unalloc t slot =
  (* Sender-local revert of its own most recent [alloc] (e.g. the FIFO
     refused the descriptor): rewind the head.  Only the allocating side
     may call this, and only before the descriptor is published. *)
  let h = fr_head t in
  let pos = off_ring + (4 * ((h - 1) land (t.p_slots - 1))) in
  Page.set_u32 t.ctrl pos slot;
  Page.set_u32 t.ctrl off_fr_head (h - 1)

let free t slot =
  if slot < 0 || slot >= t.p_slots then invalid_arg "Payload_pool.free: bad slot";
  let tl = fr_tail t in
  Page.set_u32 t.ctrl (off_ring + (4 * (tl land (t.p_slots - 1)))) slot;
  Page.set_u32 t.ctrl off_fr_tail (tl + 1)

(* Loaned-slot receive: instead of copying out and freeing immediately, the
   receiver marks the slot loaned and defers [free] until the application
   releases its view.  All state is in this view (see the type above). *)

let outstanding_loans t = t.pl_outstanding

let loan t slot =
  if slot < 0 || slot >= t.p_slots then invalid_arg "Payload_pool.loan: bad slot";
  if t.pl_loaned.(slot) then
    invalid_arg (Printf.sprintf "Payload_pool.loan: slot %d already loaned" slot);
  t.pl_loaned.(slot) <- true;
  t.pl_outstanding <- t.pl_outstanding + 1

let release t slot =
  if slot < 0 || slot >= t.p_slots then invalid_arg "Payload_pool.release: bad slot";
  if t.pl_loaned.(slot) then begin
    t.pl_loaned.(slot) <- false;
    t.pl_outstanding <- t.pl_outstanding - 1;
    if not t.pl_dead then free t slot
  end
  else if not t.pl_dead then
    invalid_arg (Printf.sprintf "Payload_pool.release: slot %d not loaned" slot)

let force_return_loans t =
  (* Channel teardown with loans still out (e.g. migration mid-stream): the
     pool pages are about to be unmapped, so every borrowed slot goes back
     on the free ring now and any release the application fires later is a
     no-op against this dead view. *)
  let returned = ref 0 in
  for slot = 0 to t.p_slots - 1 do
    if t.pl_loaned.(slot) then begin
      t.pl_loaned.(slot) <- false;
      t.pl_outstanding <- t.pl_outstanding - 1;
      free t slot;
      incr returned
    end
  done;
  t.pl_dead <- true;
  !returned

(* Byte access spanning a slot's pages. *)

let check_span t ~what ~slot ~off ~len =
  if slot < 0 || slot >= t.p_slots then
    invalid_arg (Printf.sprintf "Payload_pool.%s: bad slot" what);
  if off < 0 || len < 0 || off + len > slot_bytes t then
    invalid_arg (Printf.sprintf "Payload_pool.%s: out of slot bounds" what)

(* Iterative copy (the sender's once-per-packet path must not allocate,
   and a local recursive helper would close over the arguments) of [len]
   bytes of [src] into the slot at [off]: the per-chunk step of
   {!write_scatter}. *)
let write_into t ~what ~slot ~off ~src ~src_off ~len =
  check_span t ~what ~slot ~off ~len;
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg (Printf.sprintf "Payload_pool.%s: out of src bounds" what);
  let base = slot * t.p_slot_pages in
  let at = ref off and src_off = ref src_off and left = ref len in
  while !left > 0 do
    let page = t.data.(base + (!at / Page.size)) in
    let page_off = !at mod Page.size in
    let chunk = Int.min !left (Page.size - page_off) in
    Page.write page ~off:page_off ~src ~src_off:!src_off ~len:chunk;
    at := !at + chunk;
    src_off := !src_off + chunk;
    left := !left - chunk
  done

let write t ~slot ~src ~len =
  write_into t ~what:"write" ~slot ~off:0 ~src ~src_off:0 ~len

let read t ~slot ~off ~len =
  check_span t ~what:"read" ~slot ~off ~len;
  let dst = Bytes.create len in
  let base = slot * t.p_slot_pages in
  let rec go at dst_off len =
    if len > 0 then begin
      let page = t.data.(base + (at / Page.size)) in
      let page_off = at mod Page.size in
      let chunk = Int.min len (Page.size - page_off) in
      Page.read page ~off:page_off ~dst ~dst_off ~len:chunk;
      go (at + chunk) (dst_off + chunk) (len - chunk)
    end
  in
  go off 0 len;
  dst

(* [read] into a caller-owned buffer at an offset, allocating nothing:
   the step a scatter-vector read takes per chunk. *)
let read_into t ~slot ~off ~len ~dst ~dst_off =
  check_span t ~what:"read_into" ~slot ~off ~len;
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Payload_pool.read_into: out of dst bounds";
  let base = slot * t.p_slot_pages in
  let at = ref off and d = ref dst_off and left = ref len in
  while !left > 0 do
    let page = t.data.(base + (!at / Page.size)) in
    let page_off = !at mod Page.size in
    let chunk = Int.min !left (Page.size - page_off) in
    Page.read page ~off:page_off ~dst ~dst_off:!d ~len:chunk;
    at := !at + chunk;
    d := !d + chunk;
    left := !left - chunk
  done

(* A walk over a scatter vector's chunks, skipping the [pos] frame bytes
   before the range; the loop keeps the per-chunk step allocation-free. *)
let read_scatter t ~off chunks ~pos ~len ~dst ~dst_off =
  let skip = ref pos and d = ref dst_off and left = ref len and i = ref 0 in
  while !left > 0 do
    let slot, chunk_len = chunks.(!i) in
    if !skip >= chunk_len then skip := !skip - chunk_len
    else begin
      let n = Int.min !left (chunk_len - !skip) in
      read_into t ~slot ~off:(off + !skip) ~len:n ~dst ~dst_off:!d;
      skip := 0;
      d := !d + n;
      left := !left - n
    end;
    incr i
  done

(* The transmit mirror of [read_scatter]: the [len] bytes of [src] at
   [src_off] become frame bytes [pos ..].  A frame is written by one call
   per contiguous piece (its headers, then each run of its payload); the
   loop keeps the per-chunk step allocation-free. *)
let write_scatter t ~off ~slots ~lens ~pos ~src ~src_off ~len =
  let skip = ref pos and s = ref src_off and left = ref len and i = ref 0 in
  while !left > 0 do
    let chunk_len = lens.(!i) in
    if !skip >= chunk_len then skip := !skip - chunk_len
    else begin
      let n = Int.min !left (chunk_len - !skip) in
      write_into t ~what:"write_scatter" ~slot:slots.(!i) ~off:(off + !skip) ~src
        ~src_off:!s ~len:n;
      skip := 0;
      s := !s + n;
      left := !left - n
    end;
    incr i
  done

let parse_scatter ?verify_transport t ~off ~len chunks =
  let head = t.pl_head in
  read_scatter t ~off chunks ~pos:0
    ~len:(Int.min len (Bytes.length head))
    ~dst:head ~dst_off:0;
  Netcore.Codec.parse_with ?verify_transport ~head ~len (fun pos n ->
      let dst = Bytes.create n in
      read_scatter t ~off chunks ~pos ~len:n ~dst ~dst_off:0;
      dst)

let sanity t =
  (* Slot conservation over the shared free ring: the live window
     [fr_head, fr_tail) must never exceed the pool size, and every slot
     number in it must be a valid, distinct slot.  Slots outside the
     window are in flight (allocated by the sender or being read by the
     receiver) — free + in-flight = total by construction, so the window
     bounds are the whole invariant. *)
  if Page.get_u32 t.ctrl off_magic <> pool_magic then Some "control page magic corrupt"
  else if Page.get_u32 t.ctrl off_slots <> t.p_slots then
    Some "slot count does not match attached view"
  else if free_slots t > t.p_slots then
    Some
      (Printf.sprintf "free ring overfull: head=%d tail=%d slots=%d" (fr_head t)
         (fr_tail t) t.p_slots)
  else begin
    let h = fr_head t and n = free_slots t in
    let seen = Array.make t.p_slots false in
    let rec go i =
      if i >= n then None
      else begin
        let slot = Page.get_u32 t.ctrl (off_ring + (4 * ((h + i) land (t.p_slots - 1)))) in
        if slot < 0 || slot >= t.p_slots then
          Some (Printf.sprintf "free ring holds bad slot %d" slot)
        else if seen.(slot) then
          Some (Printf.sprintf "slot %d on the free ring twice" slot)
        else if (not t.pl_dead) && t.pl_loaned.(slot) then
          Some (Printf.sprintf "slot %d on the free ring while loaned out" slot)
        else begin
          seen.(slot) <- true;
          go (i + 1)
        end
      end
    in
    go 0
  end
