type error = Out_of_frames

(* Ownership lives on the pages: each carries the [Page.lease] of the
   domain it was allocated to, and [leases] holds the current lease of
   every domain with a nonzero balance.  Allocating a batch looks the
   lease up once; releasing a page reads its lease and checks it — no
   table is keyed by page, so the host work per page is a few field
   accesses and the memory here grows with the number of domains, not
   with the frames ever handed out. *)
type t = {
  id : int;
  total : int;
  mutable allocated : int;
  leases : (int, Page.lease) Hashtbl.t;  (* domid -> its live lease *)
  mutable fault_injector : (owner:int -> count:int -> bool) option;
}

let next_id = ref 0

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame_allocator.create: no frames";
  let id = !next_id in
  incr next_id;
  { id; total = total_frames; allocated = 0; leases = Hashtbl.create 16;
    fault_injector = None }

let set_fault_injector t f = t.fault_injector <- f

let fault_exhausted t ~owner ~count =
  match t.fault_injector with
  | None -> false
  | Some f -> f ~owner ~count

let total_frames t = t.total
let free_frames t = t.total - t.allocated

let lease_of t owner =
  match Hashtbl.find_opt t.leases owner with
  | Some l -> l
  | None ->
      let l = { Page.allocator = t.id; domid = owner; frames = 0; revoked = false } in
      Hashtbl.replace t.leases owner l;
      l

let allocate_under t (l : Page.lease) =
  let page = Page.create () in
  Page.set_lease page l;
  l.frames <- l.frames + 1;
  t.allocated <- t.allocated + 1;
  page

let allocate t ~owner =
  if fault_exhausted t ~owner ~count:1 || t.allocated >= t.total then
    Error Out_of_frames
  else Ok (allocate_under t (lease_of t owner))

let allocate_many t ~owner ~count =
  if count < 0 then invalid_arg "Frame_allocator.allocate_many: negative count";
  if free_frames t < count || fault_exhausted t ~owner ~count then
    Error Out_of_frames
  else if count = 0 then Ok [||]
  else begin
    let l = lease_of t owner in
    Ok (Array.init count (fun _ -> allocate_under t l))
  end

let release t ~owner page =
  let l = Page.lease page in
  if l.Page.allocator <> t.id || l.revoked then
    invalid_arg "Frame_allocator.release: page not allocated here"
  else if l.domid <> owner then
    invalid_arg "Frame_allocator.release: page owned by another domain"
  else begin
    Page.set_lease page Page.no_lease;
    t.allocated <- t.allocated - 1;
    l.frames <- l.frames - 1;
    (* A drained lease leaves the table; the owner's next allocation
       opens a fresh one. *)
    if l.frames = 0 then Hashtbl.remove t.leases owner
  end

let owned_by t owner =
  match Hashtbl.find_opt t.leases owner with
  | Some l -> l.Page.frames
  | None -> 0

let owners t =
  Hashtbl.fold (fun dom (l : Page.lease) acc -> (dom, l.frames) :: acc) t.leases []
  |> List.sort compare

(* The dead domain's pages keep their lease, now revoked, so a late
   release of one is refused without touching the pages here. *)
let release_all t ~owner =
  match Hashtbl.find_opt t.leases owner with
  | None -> ()
  | Some l ->
      t.allocated <- t.allocated - l.frames;
      l.frames <- 0;
      l.revoked <- true;
      Hashtbl.remove t.leases owner
