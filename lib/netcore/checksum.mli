(** Internet (RFC 1071) ones'-complement checksum. *)

val ones_complement_sum : Bytes.t -> off:int -> len:int -> int
(** Raw 16-bit ones'-complement sum (before final complement).  Odd-length
    ranges are padded with a virtual zero byte. *)

val add : int -> int -> int
(** Ones'-complement addition of two raw sums: [add (sum a) (sum b)] is
    the raw sum of range [a] followed by range [b] when [a] has even
    length, so a checksum can be verified piecewise — a header where it
    was parsed, a payload where it was copied to. *)

val compute : Bytes.t -> off:int -> len:int -> int
(** The checksum field value: complement of the sum, in [0, 0xffff]. *)

val verify : Bytes.t -> off:int -> len:int -> bool
(** [true] iff the range (including its embedded checksum field) sums to
    0xffff. *)

val incremental_update : old_checksum:int -> old_word:int -> new_word:int -> int
(** RFC 1624 incremental update: recompute a checksum after a single 16-bit
    word changed, without touching the rest of the data. *)
