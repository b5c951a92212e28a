(** A one-way shared-memory byte stream between two domains.

    Unlike the XenLoop FIFO (packet-granular, 8-byte slots, metadata per
    entry), this is a raw circular byte buffer: the writer copies bytes in,
    the reader copies bytes out, and the event channel is only signalled on
    empty/full transitions.  This is the transport underneath the
    XenSockets baseline — it is what buys XenSockets its throughput, and
    what it gives up is exactly what XenLoop keeps (message boundaries and
    packet-level transparency). *)

type t

val pages_for : size:int -> int
(** Data pages needed for a [size]-byte buffer (plus one descriptor). *)

val init : desc:Memory.Page.t -> data:Memory.Page.t array -> size:int -> unit
(** Format the descriptor.  [size] must be a power of two and match the
    page count. *)

val attach : desc:Memory.Page.t -> data:Memory.Page.t array -> t

val used : t -> int
val free : t -> int

val write : t -> src:Bytes.t -> off:int -> len:int -> int
(** Copy up to [len] bytes in; returns how many were accepted (0 when
    full).  Non-blocking — the caller decides how to wait. *)

val read : t -> dst:Bytes.t -> off:int -> len:int -> int
(** Copy up to [len] bytes out; returns how many (0 when empty). *)

val is_active : t -> bool
val mark_inactive : t -> unit
