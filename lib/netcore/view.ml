type t = { buf : Bytes.t; off : int; len : int; fresh : bool }

let empty = { buf = Bytes.empty; off = 0; len = 0; fresh = false }
let of_bytes buf = { buf; off = 0; len = Bytes.length buf; fresh = false }
let of_fresh buf = { buf; off = 0; len = Bytes.length buf; fresh = true }

let sub v ~off ~len =
  if off < 0 || len < 0 || off + len > v.len then invalid_arg "View.sub";
  { v with off = v.off + off; len }

let is_whole v = v.off = 0 && v.len = Bytes.length v.buf
let is_owned v = v.fresh && is_whole v
let to_bytes v = if is_whole v then v.buf else Bytes.sub v.buf v.off v.len

let blit v ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > v.len then invalid_arg "View.blit";
  Bytes.blit v.buf (v.off + src_off) dst dst_off len

let equal a b =
  a.len = b.len
  &&
  let rec go i =
    i >= a.len
    || Bytes.unsafe_get a.buf (a.off + i) = Bytes.unsafe_get b.buf (b.off + i)
       && go (i + 1)
  in
  go 0
