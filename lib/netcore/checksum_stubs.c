/* The RFC 1071 sum for [Checksum.ones_complement_sum].  The OCaml side
   checks the range before the call, so this only reads: it allocates
   nothing, raises nothing and never enters the runtime, which is what
   lets it be declared [@@noalloc].

   Eight bytes are loaded at a time, in native order, and their two
   32-bit halves added into separate 64-bit accumulators: no carry can
   be lost before 2^32 additions, so the loop needs no end-around carry,
   and two pairs of accumulators keep four independent add chains.  The
   total folds to 16 bits with end-around carry, which is the same sum
   as one of 16-bit words.  Ones'-complement addition commutes with byte
   swapping, so one swap of the folded result on a little-endian host
   gives the big-endian wire sum.  The 0-7 trailing bytes are read into
   a zero-padded word: a last odd byte is then the first octet of a
   zero-padded 16-bit word, as RFC 1071 pads it.  The result is 0 only
   when every byte is 0, as with the OCaml loop this replaces. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

value xl_ones_complement_sum(value data, value off, value len)
{
  const unsigned char *p = Bytes_val(data) + Long_val(off);
  size_t n = Long_val(len);
  uint64_t a0 = 0, a1 = 0, b0 = 0, b1 = 0, w, v;
  while (n >= 16) {
    memcpy(&w, p, 8);
    memcpy(&v, p + 8, 8);
    a0 += (uint32_t)w;
    a1 += w >> 32;
    b0 += (uint32_t)v;
    b1 += v >> 32;
    p += 16;
    n -= 16;
  }
  if (n >= 8) {
    memcpy(&w, p, 8);
    a0 += (uint32_t)w;
    a1 += w >> 32;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    w = 0;
    memcpy(&w, p, n);
    b0 += (uint32_t)w;
    b1 += w >> 32;
  }
  /* Each accumulator is below 2^63 for any frame, so two of them add
     without overflow; the third and fourth add with end-around carry. */
  uint64_t sum = a0 + a1, rest = b0 + b1;
  sum += rest;
  sum += (sum < rest);
  sum = (sum & 0xFFFFFFFFu) + (sum >> 32);
  sum = (sum & 0xFFFFFFFFu) + (sum >> 32);
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return Val_long(sum);
#else
  return Val_long(((sum >> 8) | (sum << 8)) & 0xFFFF);
#endif
}
