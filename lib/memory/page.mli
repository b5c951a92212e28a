(** Machine pages.

    A page is 4 KiB of real bytes: the XenLoop FIFOs and the netfront rings
    store actual packet payloads in pages, so tests can verify end-to-end
    data integrity, not just event ordering.

    The backing store is a [Bigarray] outside the OCaml heap: the GC never
    scans or copies page contents, and the accessors below are plain
    loads/stores after a single bounds check.  Multi-byte accessors are
    little-endian and have no alignment requirement. *)

type t

val size : int
(** 4096. *)

val create : unit -> t
(** A fresh zeroed page. *)

val id : t -> int
(** Unique identity (monotonically assigned), usable as a pseudo frame
    number. *)

val write : t -> off:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Copy [len] bytes of [src] from [src_off] into the page at [off], with
    one memcpy; allocates nothing.
    @raise Invalid_argument on out-of-bounds access (either side), before
    any byte moves. *)

val read : t -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** The mirror of {!write}: [len] page bytes from [off] into [dst] at
    [dst_off]. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit

val get_u32 : t -> int -> int
(** Unboxed: the value is a plain non-negative [int] (OCaml ints are 63-bit,
    so a u32 always fits), which keeps ring-descriptor field reads off the
    minor heap — the old [int32] interface boxed every access. *)

val set_u32 : t -> int -> int -> unit
(** Stores the low 32 bits of the value. *)

val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit

val zero : t -> unit
(** Clear the page (Xen zeroes pages exchanged between domains to prevent
    data leakage). *)

val is_zeroed : t -> bool

