(* Pages are Bigarray-backed: the bytes live outside the OCaml heap, so
   the GC never scans or moves 4 KiB of payload.  A page is a window
   [base, base + size) of a 1 MiB arena chunk, not a Bigarray of its own
   (see [chunk_pages] below).  Multi-byte accessors are little-endian
   with no alignment requirement (descriptor fields in the FIFOs are
   packed); each is one native unaligned load or store, byte-swapped on
   a big-endian host, after one bounds check.

   Two code-generation constraints shape this file:

   - Bigarray access primitives ([%caml_bigstring_get32u] and friends)
     compile to a load only when fully applied at a statically-known
     kind; an eta-reduced alias degrades every access to a generic C
     call with runtime kind dispatch.  All call sites below apply the
     primitive directly.
   - There is no stdlib Bytes<->Bigarray blit, so the bulk copies
     ([write], [read]) call memcpy, and [zero] memset, through
     [@@noalloc] C stubs (page_stubs.c).  Every pool, FIFO and grant
     byte moves through them; an OCaml loop of 8-byte moves ran at about
     half of memcpy's speed.  The stubs do no checking of their own: the
     bounds checks in front of each call are what keep them inside both
     buffers. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { page_id : int; chunk : buf; base : int }

external ba_get16u : buf -> int -> int = "%caml_bigstring_get16u"
external ba_set16u : buf -> int -> int -> unit = "%caml_bigstring_set16u"
external ba_get32u : buf -> int -> int32 = "%caml_bigstring_get32u"
external ba_set32u : buf -> int -> int32 -> unit = "%caml_bigstring_set32u"
external ba_get64u : buf -> int -> int64 = "%caml_bigstring_get64u"
external ba_set64u : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

external memcpy_to_page : buf -> int -> Bytes.t -> int -> int -> unit
  = "xl_page_write"
[@@noalloc]

external memcpy_from_page : buf -> int -> Bytes.t -> int -> int -> unit
  = "xl_page_read"
[@@noalloc]

external memset_page : buf -> int -> int -> unit = "xl_page_zero" [@@noalloc]

let size = 4096

let next_id = ref 0

(* Pages are carved out of arena chunks rather than allocated one bigarray
   each.  A bigarray is a GC custom block whose payload bytes count toward
   the collector's custom-memory pacing: allocating a few thousand 4 KiB
   bigarrays (one channel bootstrap) schedules dozens of extra major
   collections over the following run.  Carving pages from a 1 MiB chunk
   charges the pacing once per 256 pages instead of once per page.  A
   page is the chunk itself plus its offset in it, so an access is one
   load at [base + off]; an [Array1.sub] slice per page would be one
   more custom block per page and one more indirection per access.
   Only the current, partially-carved chunk is referenced here; a
   fully-carved chunk stays alive exactly as long as one of its pages
   does, so memory is reclaimed just as with per-page allocation.

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
  let base = !chunk_used * size in
  incr chunk_used;
  { page_id; chunk = !chunk; base }

let id t = t.page_id

let out_of_bounds what off len =
  invalid_arg (Printf.sprintf "Page.%s: out of bounds (off=%d len=%d)" what off len)

(* The message is built out of line, so the check is small enough for
   the compiler to inline into every accessor, and each accessor into its
   callers. *)
let[@inline] check_bounds ~what ~off ~len =
  if off < 0 || len < 0 || off > size - len then out_of_bounds what off len

(* After [check_bounds] every access below is inside the page, so the
   bodies use unchecked accessors.  The checks compare [off] with [size -
   len] rather than [off + len] with [size]: the sum wraps for an [off]
   near [max_int] and would let a copy through. *)

let write t ~off ~src ~src_off ~len =
  check_bounds ~what:"write" ~off ~len;
  if src_off < 0 || src_off > Bytes.length src - len then
    invalid_arg "Page.write: source range out of bounds";
  memcpy_to_page t.chunk (t.base + off) src src_off len

let read t ~off ~dst ~dst_off ~len =
  check_bounds ~what:"read" ~off ~len;
  if dst_off < 0 || dst_off > Bytes.length dst - len then
    invalid_arg "Page.read: destination range out of bounds";
  memcpy_from_page t.chunk (t.base + off) dst dst_off len

let[@inline] get_u8 t off =
  check_bounds ~what:"get_u8" ~off ~len:1;
  Char.code (Bigarray.Array1.unsafe_get t.chunk (t.base + off))

let[@inline] set_u8 t off v =
  check_bounds ~what:"set_u8" ~off ~len:1;
  Bigarray.Array1.unsafe_set t.chunk (t.base + off) (Char.unsafe_chr (v land 0xff))

let[@inline] get_u16 t off =
  check_bounds ~what:"get_u16" ~off ~len:2;
  let v = ba_get16u t.chunk (t.base + off) in
  if Sys.big_endian then bswap16 v else v

let[@inline] set_u16 t off v =
  check_bounds ~what:"set_u16" ~off ~len:2;
  let v = v land 0xffff in
  ba_set16u t.chunk (t.base + off) (if Sys.big_endian then bswap16 v else v)

let[@inline] get_u32 t off =
  check_bounds ~what:"get_u32" ~off ~len:4;
  let v = ba_get32u t.chunk (t.base + off) in
  Int32.to_int (if Sys.big_endian then bswap32 v else v) land 0xffff_ffff

let[@inline] set_u32 t off v =
  check_bounds ~what:"set_u32" ~off ~len:4;
  let v = Int32.of_int v in
  ba_set32u t.chunk (t.base + off) (if Sys.big_endian then bswap32 v else v)

let[@inline] get_u64 t off =
  check_bounds ~what:"get_u64" ~off ~len:8;
  let v = ba_get64u t.chunk (t.base + off) in
  if Sys.big_endian then bswap64 v else v

let[@inline] set_u64 t off v =
  check_bounds ~what:"set_u64" ~off ~len:8;
  ba_set64u t.chunk (t.base + off) (if Sys.big_endian then bswap64 v else v)

let zero t = memset_page t.chunk t.base size

let is_zeroed t =
  let ok = ref true in
  let i = ref t.base in
  let stop = t.base + size in
  while !ok && !i < stop do
    if ba_get64u t.chunk !i <> 0L then ok := false;
    i := !i + 8
  done;
  !ok
