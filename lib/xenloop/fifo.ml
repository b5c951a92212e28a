module Page = Memory.Page

let default_k = 13
let slot_bytes = 8
let mask32 = 0xFFFFFFFF

(* Descriptor page layout (byte offsets). *)
let off_front = 0
let off_back = 4
let off_state = 8
let off_k = 12
let off_npages = 16
let off_consumer_active = 20
let off_producer_waiting = 24
let off_grefs = 28

let max_k =
  (* The gref table must fit in the descriptor page after the header. *)
  let max_grefs = (Page.size - off_grefs) / 4 in
  (* 2^k slots * 8 bytes / 4096 per page <= max_grefs  =>  k <= 18. *)
  let rec find k =
    if (1 lsl k) * slot_bytes / Page.size > max_grefs then k - 1 else find (k + 1)
  in
  find 10

let data_pages_for ~k =
  let bytes = (1 lsl k) * slot_bytes in
  (bytes + Page.size - 1) / Page.size

(* Queue-indexed layout over one flat page pool: a multi-queue channel
   allocates all its pages in a single atomic grab and carves them into
   per-queue [desc_lc | data_lc | desc_cl | data_cl] stripes, so setup and
   teardown see every queue or none. *)

let pages_per_queue ~k = 2 * (data_pages_for ~k + 1)
let pages_for_queues ~k ~queues = queues * pages_per_queue ~k

type queue_pages = {
  qp_desc_lc : Page.t;
  qp_data_lc : Page.t array;
  qp_desc_cl : Page.t;
  qp_data_cl : Page.t array;
}

let carve_queue ~pool ~k ~index =
  let n = data_pages_for ~k in
  let base = index * pages_per_queue ~k in
  if base + pages_per_queue ~k > Array.length pool then
    invalid_arg "Fifo.carve_queue: pool too small";
  {
    qp_desc_lc = pool.(base);
    qp_data_lc = Array.sub pool (base + 1) n;
    qp_desc_cl = pool.(base + n + 1);
    qp_data_cl = Array.sub pool (base + n + 2) n;
  }

let entry_magic = 0x584C (* "XL" *)
let flag_desc = 1

(* Descriptor carries a socket-shortcut app datagram instead of an Ethernet
   frame: the slot payload starts with an 8-byte app header (src ip u32,
   src port u16, 2 pad) and [proto_hint] is the destination port. *)
let flag_app = 2

(* Jumbo descriptor (GSO, DESIGN.md §15): the entry scatter-gathers one
   oversized frame across several pool slots.  Layout after the metadata
   word (which carries the total frame length): one header word
   {u16 nchunks, u16 proto_hint, u32 reserved}, then [nchunks] chunk words
   {u16 slot, u16 0, u32 len}. *)
let flag_jumbo = 4

(* The frame's transport checksum was elided by the sender (trusted
   shared-memory path); the receiver must parse it verify-free and any
   re-entry into netfront/physnet must re-serialize (recompute). *)
let flag_csum_ok = 8

let max_jumbo_chunks = 32


let init ~desc ~data ~k =
  if k < 1 || k > max_k then invalid_arg "Fifo.init: k out of range";
  if Array.length data <> data_pages_for ~k then
    invalid_arg "Fifo.init: wrong number of data pages";
  Page.zero desc;
  Page.set_u32 desc off_front 0;
  Page.set_u32 desc off_back 0;
  Page.set_u32 desc off_state 1;
  Page.set_u32 desc off_k k;
  Page.set_u32 desc off_npages (Array.length data)

let write_grefs ~desc grefs =
  List.iteri (fun i gref -> Page.set_u32 desc (off_grefs + (4 * i)) gref) grefs

let read_grefs ~desc =
  let n = Page.get_u32 desc off_npages in
  List.init n (fun i -> Page.get_u32 desc (off_grefs + (4 * i)))

type t = { desc : Page.t; data : Page.t array; fifo_slots : int }

let attach ~desc ~data =
  let k = Page.get_u32 desc off_k in
  if k < 1 || k > max_k then invalid_arg "Fifo.attach: descriptor not initialized";
  if Array.length data <> data_pages_for ~k then
    invalid_arg "Fifo.attach: wrong number of data pages";
  { desc; data; fifo_slots = 1 lsl k }

let slots t = t.fifo_slots
let max_packet t = (t.fifo_slots - 1) * slot_bytes

let front t = Page.get_u32 t.desc off_front
let back t = Page.get_u32 t.desc off_back

let used_slots t = (back t - front t) land mask32
let free_slots t = t.fifo_slots - used_slots t
let is_empty t = used_slots t = 0

let is_active t = Page.get_u32 t.desc off_state = 1
let mark_inactive t = Page.set_u32 t.desc off_state 0

(* Notification-suppression flags (engineering extension over the paper's
   Sect. 3.3 layout, in the spirit of Xen's RING_PUSH_REQUESTS_AND_CHECK_NOTIFY).
   Both live in the shared descriptor page so either endpoint can read the
   other's published state without a hypercall. *)

let consumer_active t = Page.get_u32 t.desc off_consumer_active = 1
let set_consumer_active t v = Page.set_u32 t.desc off_consumer_active (Bool.to_int v)

let producer_waiting t = Page.get_u32 t.desc off_producer_waiting = 1
let set_producer_waiting t v = Page.set_u32 t.desc off_producer_waiting (Bool.to_int v)

let force_indices ~desc v =
  Page.set_u32 desc off_front v;
  Page.set_u32 desc off_back v

(* Byte-level ring access spanning the data pages. *)

let ring_bytes t = t.fifo_slots * slot_bytes

(* Iterative (a local recursive helper would allocate a closure; these run
   once per packet on both hot paths). *)

let write_ring t ~at ~src ~src_off ~len =
  let size = ring_bytes t in
  let at = ref at and src_off = ref src_off and left = ref len in
  while !left > 0 do
    let a = !at mod size in
    let page = t.data.(a / Page.size) in
    let page_off = a mod Page.size in
    let chunk = Int.min !left (Page.size - page_off) in
    Page.write page ~off:page_off ~src ~src_off:!src_off ~len:chunk;
    at := a + chunk;
    src_off := !src_off + chunk;
    left := !left - chunk
  done

let read_ring t ~at ~dst ~dst_off ~len =
  let size = ring_bytes t in
  let at = ref at and dst_off = ref dst_off and left = ref len in
  while !left > 0 do
    let a = !at mod size in
    let page = t.data.(a / Page.size) in
    let page_off = a mod Page.size in
    let chunk = Int.min !left (Page.size - page_off) in
    Page.read page ~off:page_off ~dst ~dst_off:!dst_off ~len:chunk;
    at := a + chunk;
    dst_off := !dst_off + chunk;
    left := !left - chunk
  done

let slots_for_payload len = 1 + ((len + slot_bytes - 1) / slot_bytes)

let can_accept t len =
  len > 0 && len <= max_packet t
  && slots_for_payload len <= free_slots t
  && is_active t

let try_push t payload =
  let len = Bytes.length payload in
  (* Refusing an inactive FIFO closes a teardown race: a sender that was
     mid-push when the channel died must fail, not strand the frame in
     pages about to be reclaimed. *)
  if len = 0 || len > max_packet t || not (is_active t) then false
  else begin
    let needed = slots_for_payload len in
    if needed > free_slots t then false
    else begin
      let b = back t in
      let slot_index = b land (t.fifo_slots - 1) in
      let byte_at = slot_index * slot_bytes in
      (* Metadata word: u32 length, u16 magic, u16 flags (none set).
         An 8-byte slot never straddles a 4 KiB page, so the word is
         written in place — no scratch buffer, no allocation. *)
      let mpage = t.data.(byte_at / Page.size) in
      let moff = byte_at mod Page.size in
      Page.set_u32 mpage moff len;
      Page.set_u16 mpage (moff + 4) entry_magic;
      Page.set_u16 mpage (moff + 6) 0;
      write_ring t
        ~at:((byte_at + slot_bytes) mod ring_bytes t)
        ~src:payload ~src_off:0 ~len;
      (* Publish: the producer's atomic increment of [back]. *)
      Page.set_u32 t.desc off_back (b + needed);
      true
    end
  end

(* A descriptor entry occupies exactly two slots: the metadata word with
   the descriptor flag set, then one payload word carrying
   {slot, proto_hint, offset} into the channel's payload pool. *)

let try_push_desc t ?(flags = 0) ~slot ~offset ~len ~proto_hint () =
  if len <= 0 || not (is_active t) then false
  else if free_slots t < 2 then false
  else begin
    let b = back t in
    let slot_index = b land (t.fifo_slots - 1) in
    let byte_at = slot_index * slot_bytes in
    let mpage = t.data.(byte_at / Page.size) in
    let moff = byte_at mod Page.size in
    Page.set_u32 mpage moff len;
    Page.set_u16 mpage (moff + 4) entry_magic;
    Page.set_u16 mpage (moff + 6) (flag_desc lor flags);
    let at2 = (byte_at + slot_bytes) mod ring_bytes t in
    let ppage = t.data.(at2 / Page.size) in
    let poff = at2 mod Page.size in
    Page.set_u16 ppage poff slot;
    Page.set_u16 ppage (poff + 2) proto_hint;
    Page.set_u32 ppage (poff + 4) offset;
    Page.set_u32 t.desc off_back (b + 2);
    true
  end

(* A jumbo entry occupies 2 + nchunks slots: metadata word (total length,
   descriptor + jumbo flags), a header word {nchunks, proto_hint}, then one
   chunk word {slot, len} per pool slot of the scatter list.  The caller
   has already written the payload into those slots; on [false] it owns
   the rollback (unalloc in reverse order). *)

let jumbo_ring_slots nchunks = 2 + nchunks

(* Page and offset of the [i]th 8-byte word of the entry at [byte_at];
   an 8-byte slot never straddles a page. *)
let ring_word t ~byte_at i =
  let a = (byte_at + (slot_bytes * i)) mod ring_bytes t in
  (t.data.(a / Page.size), a mod Page.size)

let can_accept_jumbo t ~nchunks =
  nchunks >= 1 && nchunks <= max_jumbo_chunks
  && is_active t
  && jumbo_ring_slots nchunks <= free_slots t

let try_push_jumbo t ?(flags = 0) ~chunk_slots ~chunk_lens ~nchunks ~total_len
    ~proto_hint () =
  if
    total_len <= 0 || nchunks < 1 || nchunks > max_jumbo_chunks
    || nchunks > Array.length chunk_slots
    || nchunks > Array.length chunk_lens
    || not (is_active t)
    || free_slots t < jumbo_ring_slots nchunks
  then false
  else begin
    let b = back t in
    let slot_index = b land (t.fifo_slots - 1) in
    let byte_at = slot_index * slot_bytes in
    let mpage = t.data.(byte_at / Page.size) in
    let moff = byte_at mod Page.size in
    Page.set_u32 mpage moff total_len;
    Page.set_u16 mpage (moff + 4) entry_magic;
    Page.set_u16 mpage (moff + 6) (flag_desc lor flag_jumbo lor flags);
    let hpage, hoff = ring_word t ~byte_at 1 in
    Page.set_u16 hpage hoff nchunks;
    Page.set_u16 hpage (hoff + 2) proto_hint;
    Page.set_u32 hpage (hoff + 4) 0;
    for i = 0 to nchunks - 1 do
      let cpage, coff = ring_word t ~byte_at (2 + i) in
      Page.set_u16 cpage coff chunk_slots.(i);
      Page.set_u16 cpage (coff + 2) 0;
      Page.set_u32 cpage (coff + 4) chunk_lens.(i)
    done;
    Page.set_u32 t.desc off_back (b + jumbo_ring_slots nchunks);
    true
  end

(* A payload goes through the pool when it is above the negotiated inline
   threshold but still small enough for both a pool slot and an inline
   fallback — keeping every descriptor-eligible packet degradable to the
   copy path when the pool runs dry. *)
let desc_eligible t ~pool ~inline_max len =
  len > inline_max && len <= Payload_pool.slot_bytes pool && len <= max_packet t

(* [push_entry] result codes.  Plain ints: the per-packet producer path
   must not allocate a result block per call. *)
let push_failed = 0
let pushed_inline = 1
let pushed_desc = 2
let pushed_inline_fallback = 3

let push_entry t ~pool ~inline_max ~proto_hint payload =
  let len = Bytes.length payload in
  match pool with
  | Some pool when desc_eligible t ~pool ~inline_max len ->
      let slot = Payload_pool.alloc_slot pool in
      if slot >= 0 then begin
        if not (is_active t) || free_slots t < 2 then begin
          (* Don't burn a pool slot on a push the FIFO refuses; the
             caller queues the frame and retries. *)
          Payload_pool.unalloc pool slot;
          push_failed
        end
        else begin
          Payload_pool.write pool ~slot ~src:payload ~len;
          if try_push_desc t ~slot ~offset:0 ~len ~proto_hint () then pushed_desc
          else begin
            Payload_pool.unalloc pool slot;
            push_failed
          end
        end
      end
      else if
        (* Pool exhausted: transparently degrade this packet to the
           inline copy path rather than blocking behind the receiver's
           slot returns. *)
        try_push t payload
      then pushed_inline_fallback
      else push_failed
  | _ -> if try_push t payload then pushed_inline else push_failed

let can_accept_entry t ?pool ?(inline_max = max_int) len =
  match pool with
  | Some pool when desc_eligible t ~pool ~inline_max len ->
      if Payload_pool.free_slots pool > 0 then
        len > 0 && free_slots t >= 2 && is_active t
      else can_accept t len
  | _ -> can_accept t len

type entry =
  | Inline of Bytes.t
  | Desc of { d_slot : int; d_off : int; d_len : int; d_proto : int; d_flags : int }
  | Jumbo of {
      j_len : int;
      j_proto : int;
      j_flags : int;
      j_chunks : (int * int) array;  (** (pool slot, chunk length) *)
    }

let pop_entry t =
  if is_empty t then None
  else begin
    let f = front t in
    let slot_index = f land (t.fifo_slots - 1) in
    let byte_at = slot_index * slot_bytes in
    let mpage = t.data.(byte_at / Page.size) in
    let moff = byte_at mod Page.size in
    let len = Page.get_u32 mpage moff in
    let magic = Page.get_u16 mpage (moff + 4) in
    let flags = Page.get_u16 mpage (moff + 6) in
    if magic <> entry_magic || len <= 0 then
      invalid_arg "Fifo.pop: corrupt entry metadata"
    else if flags land flag_jumbo <> 0 then begin
      (* The chunk count is the only structurally load-bearing field: out
         of range means the ring framing itself is gone (the next entry
         cannot be located), so it raises like any other corrupt metadata.
         Chunk slots and lengths are validated by the caller against its
         pool, where a bad vector is a droppable frame, not a dead
         channel. *)
      let hpage, hoff = ring_word t ~byte_at 1 in
      let nchunks = Page.get_u16 hpage hoff in
      if nchunks < 1 || nchunks > max_jumbo_chunks then
        invalid_arg "Fifo.pop: corrupt jumbo entry metadata";
      let j_chunks =
        Array.init nchunks (fun i ->
            let cpage, coff = ring_word t ~byte_at (2 + i) in
            (Page.get_u16 cpage coff, Page.get_u32 cpage (coff + 4)))
      in
      Page.set_u32 t.desc off_front (f + jumbo_ring_slots nchunks);
      Some
        (Jumbo
           {
             j_len = len;
             j_proto = Page.get_u16 hpage (hoff + 2);
             j_flags = flags;
             j_chunks;
           })
    end
    else if flags land flag_desc <> 0 then begin
      let at2 = (byte_at + slot_bytes) mod ring_bytes t in
      let ppage = t.data.(at2 / Page.size) in
      let poff = at2 mod Page.size in
      let d_slot = Page.get_u16 ppage poff in
      let d_proto = Page.get_u16 ppage (poff + 2) in
      let d_off = Page.get_u32 ppage (poff + 4) in
      Page.set_u32 t.desc off_front (f + 2);
      Some (Desc { d_slot; d_off; d_len = len; d_proto; d_flags = flags })
    end
    else if len > max_packet t then invalid_arg "Fifo.pop: corrupt entry metadata"
    else begin
      let payload = Bytes.create len in
      read_ring t
        ~at:((byte_at + slot_bytes) mod ring_bytes t)
        ~dst:payload ~dst_off:0 ~len;
      Page.set_u32 t.desc off_front (f + slots_for_payload len);
      Some (Inline payload)
    end
  end

let pop t =
  match pop_entry t with
  | None -> None
  | Some (Inline payload) -> Some payload
  | Some (Desc _ | Jumbo _) ->
      (* A descriptor on a channel whose consumer has no pool mapped means
         the endpoints disagree about the negotiation — treat it like any
         other framing corruption. *)
      invalid_arg "Fifo.pop: descriptor entry on an inline-only consumer"

let sanity t =
  (* The invariant checker's view: every property here must hold at any
     instant between two well-formed shared-memory operations, whatever
     faults the harness injected around them. *)
  let k = Page.get_u32 t.desc off_k in
  let state = Page.get_u32 t.desc off_state in
  let ca = Page.get_u32 t.desc off_consumer_active in
  let pw = Page.get_u32 t.desc off_producer_waiting in
  if k < 1 || k > max_k then Some (Printf.sprintf "k out of range: %d" k)
  else if 1 lsl k <> t.fifo_slots then
    Some (Printf.sprintf "k/slots mismatch: k=%d slots=%d" k t.fifo_slots)
  else if Page.get_u32 t.desc off_npages <> Array.length t.data then
    Some "npages does not match attached data pages"
  else if state <> 0 && state <> 1 then
    Some (Printf.sprintf "state flag corrupt: %d" state)
  else if ca <> 0 && ca <> 1 then
    Some (Printf.sprintf "consumer-active flag corrupt: %d" ca)
  else if pw <> 0 && pw <> 1 then
    Some (Printf.sprintf "producer-waiting flag corrupt: %d" pw)
  else if used_slots t > t.fifo_slots then
    Some
      (Printf.sprintf "ring overfull: front=%d back=%d slots=%d" (front t)
         (back t) t.fifo_slots)
  else None
