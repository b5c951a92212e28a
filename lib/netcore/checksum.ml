(* Internet (RFC 1071) ones'-complement checksum.

   The sum is accumulated 32 bits at a time with native-endian unaligned
   reads: ones'-complement addition commutes with byte swapping, so
   summing native-order words and byte-swapping the folded result once at
   the end yields exactly the big-endian word sum the wire format
   specifies.  A 63-bit accumulator takes 2^30 32-bit adds before it
   could overflow, far beyond any frame. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

let fold16 v =
  let v = (v land 0xFFFF) + (v lsr 16) in
  (v land 0xFFFF) + (v lsr 16)

let mask32 = 0xFFFFFFFF

let ones_complement_sum data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Checksum: out of bounds";
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    sum :=
      !sum
      + (Int32.to_int (get32u data !i) land mask32)
      + (Int32.to_int (get32u data (!i + 4)) land mask32);
    i := !i + 8
  done;
  if !i + 4 <= stop then begin
    sum := !sum + (Int32.to_int (get32u data !i) land mask32);
    i := !i + 4
  end;
  if !i + 2 <= stop then begin
    sum := !sum + (get16u data !i land 0xFFFF);
    i := !i + 2
  end;
  (* A trailing odd byte is the high octet of a final zero-padded word in
     wire order, which in the native little-endian accumulation is the low
     octet; the final swap puts it back. *)
  if !i < stop then begin
    let b = Char.code (Bytes.unsafe_get data !i) in
    sum := !sum + (if Sys.big_endian then b lsl 8 else b)
  end;
  let s = ref !sum in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  if Sys.big_endian then !s else ((!s lsr 8) lor (!s lsl 8)) land 0xFFFF

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
