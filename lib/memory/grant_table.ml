type domid = int
type gref = int

type error =
  | Bad_ref
  | Wrong_domain
  | Still_mapped
  | Not_mapped
  | Read_only
  | Wrong_kind
  | Nothing_transferred

let error_to_string = function
  | Bad_ref -> "bad grant reference"
  | Wrong_domain -> "grant issued to a different domain"
  | Still_mapped -> "grant still mapped by foreign domain"
  | Not_mapped -> "grant not mapped"
  | Read_only -> "write through read-only grant"
  | Wrong_kind -> "operation does not match grant kind"
  | Nothing_transferred -> "no page has been transferred yet"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

(* Grants live in a ring of parallel arrays indexed by gref.  Grefs are
   issued in increasing order and every one below [oldest] has ended, so
   the live grefs all lie in [oldest, next_ref): gref [g] sits in slot
   [g land (capacity - 1)].  The capacity is a power of two (at least
   [min_capacity]) that doubles when the span fills it and halves while
   the span is at most a quarter of it, and ending the oldest grant
   walks [oldest] forward past every ended one.  A lookup is an
   index, a grant writes three array cells, and nothing is allocated per
   grant; memory follows the live span, not the grefs ever issued. *)

(* [state] bits of a slot *)
let live = 1
let transfer_kind = 2
let writable_bit = 4
let mapped_bit = 8
let incoming_bit = 16 (* a transfer grant holding the page sent into it *)

let min_capacity = 16

type t = {
  table_owner : domid;
  mutable next_ref : gref;
  mutable oldest : gref;
  mutable live_grants : int;
  mutable dom : int array;  (* slot -> the domain the grant was issued to *)
  mutable state : int array;  (* slot -> bits above; 0 when free *)
  mutable pages : Page.t array;
      (* slot -> the granted page, or the page transferred in *)
  mutable map_fault_injector : (by:domid -> gref -> bool) option;
}

let create ~owner =
  { table_owner = owner; next_ref = 0; oldest = 0; live_grants = 0;
    dom = Array.make min_capacity 0; state = Array.make min_capacity 0;
    pages = Array.make min_capacity Page.placeholder; map_fault_injector = None }

let set_map_fault_injector t f = t.map_fault_injector <- f

let[@inline] slot t gref = gref land (Array.length t.state - 1)

(* Move the live span into arrays of [capacity] slots. *)
let resize t capacity =
  let dom = Array.make capacity 0
  and state = Array.make capacity 0
  and pages = Array.make capacity Page.placeholder in
  for g = t.oldest to t.next_ref - 1 do
    let i = slot t g and j = g land (capacity - 1) in
    dom.(j) <- t.dom.(i);
    state.(j) <- t.state.(i);
    pages.(j) <- t.pages.(i)
  done;
  t.dom <- dom;
  t.state <- state;
  t.pages <- pages

let issue t ~to_dom ~page bits =
  if t.next_ref - t.oldest = Array.length t.state then
    resize t (2 * Array.length t.state);
  let r = t.next_ref in
  t.next_ref <- r + 1;
  let i = slot t r in
  t.dom.(i) <- to_dom;
  t.state.(i) <- bits;
  t.pages.(i) <- page;
  t.live_grants <- t.live_grants + 1;
  r

let grant_access t ~to_dom ~page ~writable =
  issue t ~to_dom ~page (if writable then live lor writable_bit else live)

let grant_transfer t ~to_dom = issue t ~to_dom ~page:Page.placeholder (live lor transfer_kind)

(* The slot of a live grant, or -1. *)
let find t gref =
  if gref < t.oldest || gref >= t.next_ref then -1
  else
    let i = slot t gref in
    if t.state.(i) land live <> 0 then i else -1

let remove t gref i =
  t.state.(i) <- 0;
  t.pages.(i) <- Page.placeholder;
  t.live_grants <- t.live_grants - 1;
  if gref = t.oldest then begin
    while t.oldest < t.next_ref && t.state.(slot t t.oldest) land live = 0 do
      t.oldest <- t.oldest + 1
    done;
    let span = t.next_ref - t.oldest in
    let cap = ref (Array.length t.state) in
    while !cap > min_capacity && 4 * span <= !cap do
      cap := !cap / 2
    done;
    if !cap < Array.length t.state then resize t !cap
  end

let end_access t gref =
  let i = find t gref in
  if i < 0 then Error Bad_ref
  else
    let st = t.state.(i) in
    if st land transfer_kind <> 0 then Error Wrong_kind
    else if st land mapped_bit <> 0 then Error Still_mapped
    else begin
      remove t gref i;
      Ok ()
    end

let take_transferred t gref =
  let i = find t gref in
  if i < 0 then Error Bad_ref
  else
    let st = t.state.(i) in
    if st land transfer_kind = 0 then Error Wrong_kind
    else if st land incoming_bit = 0 then Error Nothing_transferred
    else begin
      let page = t.pages.(i) in
      remove t gref i;
      Ok page
    end

let active_grants t = t.live_grants

let revoke_mappings_for t ~dom =
  let revoked = ref 0 in
  for g = t.oldest to t.next_ref - 1 do
    let i = slot t g in
    let st = t.state.(i) in
    if st land mapped_bit <> 0 && t.dom.(i) = dom then begin
      t.state.(i) <- st land lnot mapped_bit;
      incr revoked
    end
  done;
  !revoked

(* The slot of a live grant issued to [by]; -1 when there is no live
   grant [gref], -2 when it was issued to another domain. *)
let lookup_for t gref ~by =
  let i = find t gref in
  if i >= 0 && t.dom.(i) <> by then -2 else i

let lookup_error i = if i = -1 then Bad_ref else Wrong_domain

let is_transfer t i = t.state.(i) land transfer_kind <> 0

let hypercall meter h = Cost_meter.record meter (Cost_meter.Hypercall h)

let map t gref ~by ~meter =
  hypercall meter Cost_meter.Gnttab_map_grant_ref;
  let faulted =
    match t.map_fault_injector with
    | None -> false
    | Some f -> f ~by gref
  in
  if faulted then Error Bad_ref
  else
    let i = lookup_for t gref ~by in
    if i < 0 then Error (lookup_error i)
    else if is_transfer t i then Error Wrong_kind
    else begin
      t.state.(i) <- t.state.(i) lor mapped_bit;
      Cost_meter.record meter Cost_meter.Grant_map;
      Ok t.pages.(i)
    end

let unmap t gref ~by ~meter =
  hypercall meter Cost_meter.Gnttab_unmap_grant_ref;
  let i = lookup_for t gref ~by in
  if i < 0 then Error (lookup_error i)
  else if is_transfer t i then Error Wrong_kind
  else if t.state.(i) land mapped_bit = 0 then Error Not_mapped
  else begin
    t.state.(i) <- t.state.(i) land lnot mapped_bit;
    Cost_meter.record meter Cost_meter.Grant_unmap;
    Ok ()
  end

let copy_from t gref ~by ~meter ~src_off ~dst ~dst_off ~len =
  hypercall meter Cost_meter.Gnttab_copy;
  let i = lookup_for t gref ~by in
  if i < 0 then Error (lookup_error i)
  else if is_transfer t i then Error Wrong_kind
  else begin
    Page.read t.pages.(i) ~off:src_off ~dst ~dst_off ~len;
    Cost_meter.record meter (Cost_meter.Page_copy len);
    Ok ()
  end

let copy_to t gref ~by ~meter ~src ~src_off ~dst_off ~len =
  hypercall meter Cost_meter.Gnttab_copy;
  let i = lookup_for t gref ~by in
  if i < 0 then Error (lookup_error i)
  else if is_transfer t i then Error Wrong_kind
  else if t.state.(i) land writable_bit = 0 then Error Read_only
  else begin
    Page.write t.pages.(i) ~off:dst_off ~src ~src_off ~len;
    Cost_meter.record meter (Cost_meter.Page_copy len);
    Ok ()
  end

let transfer t gref ~by ~meter ~page =
  hypercall meter Cost_meter.Gnttab_transfer;
  let i = lookup_for t gref ~by in
  if i < 0 then Error (lookup_error i)
  else if not (is_transfer t i) then Error Wrong_kind
  else begin
    t.state.(i) <- t.state.(i) lor incoming_bit;
    t.pages.(i) <- page;
    (* The exchange page handed back must not leak data. *)
    let exchange = Page.create () in
    Cost_meter.record meter Cost_meter.Page_zero;
    Ok exchange
  end
