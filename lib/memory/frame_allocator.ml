type error = Out_of_frames

type t = {
  total : int;
  mutable allocated : int;
  owners : (int, int) Hashtbl.t;  (* page id -> owner domid *)
  per_owner : (int, int) Hashtbl.t;  (* domid -> frame count *)
  mutable fault_injector : (owner:int -> count:int -> bool) option;
}

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame_allocator.create: no frames";
  { total = total_frames; allocated = 0; owners = Hashtbl.create 256;
    per_owner = Hashtbl.create 16; fault_injector = None }

let set_fault_injector t f = t.fault_injector <- f

let fault_exhausted t ~owner ~count =
  match t.fault_injector with
  | None -> false
  | Some f -> f ~owner ~count

let total_frames t = t.total
let free_frames t = t.total - t.allocated

let bump t owner delta =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.per_owner owner) in
  let next = cur + delta in
  if next = 0 then Hashtbl.remove t.per_owner owner
  else Hashtbl.replace t.per_owner owner next

let allocate_raw t ~owner =
  if t.allocated >= t.total then Error Out_of_frames
  else begin
    let page = Page.create () in
    t.allocated <- t.allocated + 1;
    Hashtbl.replace t.owners (Page.id page) owner;
    bump t owner 1;
    Ok page
  end

let allocate t ~owner =
  if fault_exhausted t ~owner ~count:1 then Error Out_of_frames
  else allocate_raw t ~owner

let release t ~owner page =
  match Hashtbl.find_opt t.owners (Page.id page) with
  | Some o when o = owner ->
      Hashtbl.remove t.owners (Page.id page);
      t.allocated <- t.allocated - 1;
      bump t owner (-1)
  | Some _ -> invalid_arg "Frame_allocator.release: page owned by another domain"
  | None -> invalid_arg "Frame_allocator.release: page not allocated here"

let allocate_many t ~owner ~count =
  if count < 0 then invalid_arg "Frame_allocator.allocate_many: negative count";
  if free_frames t < count || fault_exhausted t ~owner ~count then
    Error Out_of_frames
  else
    Ok
      (Array.init count (fun _ ->
           match allocate_raw t ~owner with
           | Ok page -> page
           | Error Out_of_frames -> assert false))

let owned_by t owner = Option.value ~default:0 (Hashtbl.find_opt t.per_owner owner)

let owners t =
  Hashtbl.fold (fun dom n acc -> (dom, n) :: acc) t.per_owner []
  |> List.sort compare

let release_all t ~owner =
  let mine =
    Hashtbl.fold (fun id o acc -> if o = owner then id :: acc else acc) t.owners []
  in
  List.iter
    (fun id ->
      Hashtbl.remove t.owners id;
      t.allocated <- t.allocated - 1)
    mine;
  Hashtbl.remove t.per_owner owner
