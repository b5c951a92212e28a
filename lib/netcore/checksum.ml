(* Internet (RFC 1071) ones'-complement checksum.

   The sum itself is a C stub (checksum_stubs.c): 64-bit native-order
   loads over four accumulators, folded and byte-swapped once at the
   end; an OCaml loop of 32-bit loads costs several times as much per
   KiB.  The stub checks nothing.  The bounds check in front of it is
   what keeps it inside [data], and it compares [off] with [length -
   len] rather than [off + len] with [length], since the sum wraps for
   an [off] near [max_int]. *)

external sum_stub : Bytes.t -> int -> int -> int = "xl_ones_complement_sum"
[@@noalloc]

let fold16 v =
  let v = (v land 0xFFFF) + (v lsr 16) in
  (v land 0xFFFF) + (v lsr 16)

let ones_complement_sum data ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Checksum: out of bounds";
  sum_stub data off len

let add a b = fold16 (a + b)

let compute data ~off ~len = lnot (ones_complement_sum data ~off ~len) land 0xFFFF

let verify data ~off ~len = ones_complement_sum data ~off ~len = 0xFFFF

let incremental_update ~old_checksum ~old_word ~new_word =
  (* RFC 1624: HC' = ~(~HC + ~m + m'). *)
  let sum =
    (lnot old_checksum land 0xFFFF)
    + (lnot old_word land 0xFFFF)
    + (new_word land 0xFFFF)
  in
  lnot (fold16 sum) land 0xFFFF
