(* Pages are Bigarray-backed: the buffer lives outside the OCaml heap, so
   the GC never scans or moves 4 KiB of payload bytes, and the accessors
   below compile to plain loads/stores.  Multi-byte accessors are
   little-endian, composed from byte accesses (portable, no alignment
   requirement — descriptor fields in the FIFOs are packed).

   Two code-generation constraints shape this file:

   - [Bigarray.Array1.unsafe_get] is a compiler primitive ONLY when fully
     applied at a statically-known kind; an eta-reduced alias degrades
     every access to a generic C call with runtime kind dispatch (~7 ns
     per byte instead of a single load).  All call sites below apply the
     primitive directly.
   - There is no stdlib Bytes<->Bigarray blit, so the bulk copies
     ([write], [read]) call memcpy through two [@@noalloc] C stubs
     (page_stubs.c).  Every pool, FIFO and grant byte moves through
     them; an OCaml loop of 8-byte moves ran at about half of memcpy's
     speed.  The stubs do no checking of their own: the bounds checks in
     front of each call are what keep them inside both buffers. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { page_id : int; data : buf }

external ba_get64u : buf -> int -> int64 = "%caml_bigstring_get64u"

external memcpy_to_page : buf -> int -> Bytes.t -> int -> int -> unit
  = "xl_page_write"
[@@noalloc]

external memcpy_from_page : buf -> int -> Bytes.t -> int -> int -> unit
  = "xl_page_read"
[@@noalloc]

let size = 4096

let next_id = ref 0

(* Pages are carved out of arena chunks rather than allocated one bigarray
   each.  A bigarray is a GC custom block whose payload bytes count toward
   the collector's custom-memory pacing: allocating a few thousand 4 KiB
   bigarrays (one channel bootstrap) schedules dozens of extra major
   collections over the following run.  Carving [Array1.sub] slices from a
   1 MiB chunk charges the pacing once per 256 pages instead of once per
   page.  Only the current, partially-carved chunk is referenced here;
   a fully-carved chunk stays alive exactly as long as one of its page
   proxies does, so memory is reclaimed just as with per-page allocation.

   Each chunk is a private mapping of /dev/zero, so the kernel supplies
   its pages zero-filled on first touch.  Pages are carved linearly and a
   chunk is never re-carved, so every fresh page already reads as zeros:
   creating one writes nothing, and the process holds only the pages the
   simulation actually touches (a channel's payload pool is megabytes, of
   which a sparse workload writes a few slots). *)
let chunk_pages = 256

(* Read-write: [map_file] first extends a file shorter than the mapping by
   writing its last byte, which /dev/zero accepts and discards. *)
let dev_zero = lazy (Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0)

let new_chunk () =
  Bigarray.array1_of_genarray
    (Unix.map_file (Lazy.force dev_zero) Bigarray.char Bigarray.c_layout false
       [| chunk_pages * size |])

let chunk = ref (new_chunk ())
let chunk_used = ref 0

let create () =
  let page_id = !next_id in
  incr next_id;
  if !chunk_used >= chunk_pages then begin
    chunk := new_chunk ();
    chunk_used := 0
  end;
  let data = Bigarray.Array1.sub !chunk (!chunk_used * size) size in
  incr chunk_used;
  { page_id; data }

let id t = t.page_id

let check_bounds ~what ~off ~len =
  if off < 0 || len < 0 || off > size - len then
    invalid_arg (Printf.sprintf "Page.%s: out of bounds (off=%d len=%d)" what off len)

(* After [check_bounds] every page index below is in range, so the bodies
   use unchecked accessors.  The checks compare [off] with [size - len]
   rather than [off + len] with [size]: the sum wraps for an [off] near
   [max_int] and would let a copy through. *)

let write t ~off ~src ~src_off ~len =
  check_bounds ~what:"write" ~off ~len;
  if src_off < 0 || src_off > Bytes.length src - len then
    invalid_arg "Page.write: source range out of bounds";
  memcpy_to_page t.data off src src_off len

let read t ~off ~dst ~dst_off ~len =
  check_bounds ~what:"read" ~off ~len;
  if dst_off < 0 || dst_off > Bytes.length dst - len then
    invalid_arg "Page.read: destination range out of bounds";
  memcpy_from_page t.data off dst dst_off len

let get_u8 t off =
  check_bounds ~what:"get_u8" ~off ~len:1;
  Char.code (Bigarray.Array1.unsafe_get t.data off)

let set_u8 t off v =
  check_bounds ~what:"set_u8" ~off ~len:1;
  Bigarray.Array1.unsafe_set t.data off (Char.unsafe_chr (v land 0xff))

let get_u16 t off =
  check_bounds ~what:"get_u16" ~off ~len:2;
  let data = t.data in
  Char.code (Bigarray.Array1.unsafe_get data off)
  lor (Char.code (Bigarray.Array1.unsafe_get data (off + 1)) lsl 8)

let set_u16 t off v =
  check_bounds ~what:"set_u16" ~off ~len:2;
  let data = t.data in
  Bigarray.Array1.unsafe_set data off (Char.unsafe_chr (v land 0xff));
  Bigarray.Array1.unsafe_set data (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let get_u32 t off =
  check_bounds ~what:"get_u32" ~off ~len:4;
  let data = t.data in
  Char.code (Bigarray.Array1.unsafe_get data off)
  lor (Char.code (Bigarray.Array1.unsafe_get data (off + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.unsafe_get data (off + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.unsafe_get data (off + 3)) lsl 24)

let set_u32 t off v =
  check_bounds ~what:"set_u32" ~off ~len:4;
  let data = t.data in
  Bigarray.Array1.unsafe_set data off (Char.unsafe_chr (v land 0xff));
  Bigarray.Array1.unsafe_set data (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_u64 t off =
  check_bounds ~what:"get_u64" ~off ~len:8;
  let data = t.data in
  let lo =
    Char.code (Bigarray.Array1.unsafe_get data off)
    lor (Char.code (Bigarray.Array1.unsafe_get data (off + 1)) lsl 8)
    lor (Char.code (Bigarray.Array1.unsafe_get data (off + 2)) lsl 16)
    lor (Char.code (Bigarray.Array1.unsafe_get data (off + 3)) lsl 24)
  and hi =
    Char.code (Bigarray.Array1.unsafe_get data (off + 4))
    lor (Char.code (Bigarray.Array1.unsafe_get data (off + 5)) lsl 8)
    lor (Char.code (Bigarray.Array1.unsafe_get data (off + 6)) lsl 16)
    lor (Char.code (Bigarray.Array1.unsafe_get data (off + 7)) lsl 24)
  in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let set_u64 t off v =
  check_bounds ~what:"set_u64" ~off ~len:8;
  let data = t.data in
  let lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL)
  and hi = Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL) in
  Bigarray.Array1.unsafe_set data off (Char.unsafe_chr (lo land 0xff));
  Bigarray.Array1.unsafe_set data (off + 1) (Char.unsafe_chr ((lo lsr 8) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 2) (Char.unsafe_chr ((lo lsr 16) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 3) (Char.unsafe_chr ((lo lsr 24) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 4) (Char.unsafe_chr (hi land 0xff));
  Bigarray.Array1.unsafe_set data (off + 5) (Char.unsafe_chr ((hi lsr 8) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 6) (Char.unsafe_chr ((hi lsr 16) land 0xff));
  Bigarray.Array1.unsafe_set data (off + 7) (Char.unsafe_chr ((hi lsr 24) land 0xff))

let zero t = Bigarray.Array1.fill t.data '\000'

let is_zeroed t =
  let data = t.data in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < size do
    if ba_get64u data !i <> 0L then ok := false;
    i := !i + 8
  done;
  !ok
