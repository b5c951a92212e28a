module Page = Memory.Page

let mask32 = 0xFFFFFFFF

(* Descriptor layout: u32 head (writer), u32 tail (reader), u32 size,
   u32 state. *)
let off_head = 0
let off_tail = 4
let off_size = 8
let off_state = 12

let pages_for ~size = (size + Page.size - 1) / Page.size

let get page off = Page.get_u32 page off
let set page off v = Page.set_u32 page off (v land mask32)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let init ~desc ~data ~size =
  if not (is_power_of_two size) then
    invalid_arg "Bytestream.init: size must be a power of two";
  if Array.length data <> pages_for ~size then
    invalid_arg "Bytestream.init: wrong number of data pages";
  Page.zero desc;
  set desc off_head 0;
  set desc off_tail 0;
  set desc off_size size;
  set desc off_state 1

type t = { desc : Page.t; data : Page.t array; size : int }

let attach ~desc ~data =
  let size = get desc off_size in
  if not (is_power_of_two size) then
    invalid_arg "Bytestream.attach: descriptor not initialized";
  if Array.length data <> pages_for ~size then
    invalid_arg "Bytestream.attach: wrong number of data pages";
  { desc; data; size }

let used t = (get t.desc off_head - get t.desc off_tail) land mask32
let free t = t.size - used t

let is_active t = get t.desc off_state = 1
let mark_inactive t = set t.desc off_state 0

let copy_in t ~at ~src ~off ~len =
  let rec go at off len =
    if len > 0 then begin
      let at = at land (t.size - 1) in
      let page = t.data.(at / Page.size) in
      let page_off = at mod Page.size in
      let chunk = min len (min (Page.size - page_off) (t.size - at)) in
      Page.write page ~off:page_off ~src ~src_off:off ~len:chunk;
      go (at + chunk) (off + chunk) (len - chunk)
    end
  in
  go at off len

let copy_out t ~at ~dst ~off ~len =
  let rec go at off len =
    if len > 0 then begin
      let at = at land (t.size - 1) in
      let page = t.data.(at / Page.size) in
      let page_off = at mod Page.size in
      let chunk = min len (min (Page.size - page_off) (t.size - at)) in
      Page.read page ~off:page_off ~dst ~dst_off:off ~len:chunk;
      go (at + chunk) (off + chunk) (len - chunk)
    end
  in
  go at off len

let write t ~src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Bytestream.write: bad range";
  let n = min len (free t) in
  if n > 0 then begin
    let head = get t.desc off_head in
    copy_in t ~at:head ~src ~off ~len:n;
    set t.desc off_head (head + n)
  end;
  n

let read t ~dst ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length dst then
    invalid_arg "Bytestream.read: bad range";
  let n = min len (used t) in
  if n > 0 then begin
    let tail = get t.desc off_tail in
    copy_out t ~at:tail ~dst ~off ~len:n;
    set t.desc off_tail (tail + n)
  end;
  n
