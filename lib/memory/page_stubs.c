/* Byte copies between a page's arena chunk and an OCaml [bytes], for
   [Page.write] and [Page.read], and [Page.zero]'s memset.  The OCaml
   side checks every range before the call, so these only copy: they
   allocate nothing, raise nothing and never enter the runtime, which is
   what lets them be declared [@@noalloc].  The two buffers of a copy never overlap (one
   is on the OCaml heap, the other is not).  Offsets are into the
   chunk: the page's base plus the offset in the page. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

value xl_page_write(value chunk, value off, value src, value src_off, value len)
{
  memcpy((char *)Caml_ba_data_val(chunk) + Long_val(off),
         Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

value xl_page_read(value chunk, value off, value dst, value dst_off, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off),
         (const char *)Caml_ba_data_val(chunk) + Long_val(off), Long_val(len));
  return Val_unit;
}

value xl_page_zero(value chunk, value off, value len)
{
  memset((char *)Caml_ba_data_val(chunk) + Long_val(off), 0, Long_val(len));
  return Val_unit;
}
