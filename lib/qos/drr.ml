(* Weighted deficit round robin over per-flow sub-queues.

   Each flow key owns a bounded FIFO of (value, length) items and a
   deficit counter.  Active flows sit on a ring.  A visit to the ring
   head replenishes its deficit by quantum * weight and serves items
   while the head item fits the deficit; then the flow rotates to the
   ring tail.  A flow whose queue drains leaves the ring with its
   deficit zeroed (the classic DRR rule that stops an idle flow from
   banking credit).

   Service is item by item: [peek] positions the ring on the next item
   (opening a visit if none is open) and leaves it queued, [pop]
   removes it and closes the visit once the flow empties or its next
   item no longer fits.  A consumer that cannot take the peeked item
   simply stops; the open visit and its credit wait for the next
   [peek].  [select] is the batch form of the same service. *)

module Dq = struct
  type 'a t = {
    mutable front : 'a list;
    mutable back : 'a list;
    mutable len : int;
  }

  let create () = { front = []; back = []; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0
  let clear t = t.front <- []; t.back <- []; t.len <- 0
  let push_back t v = t.back <- v :: t.back; t.len <- t.len + 1

  let normalize t =
    match (t.front, t.back) with
    | [], (_ :: _ as back) -> t.front <- List.rev back; t.back <- []
    | _ -> ()

  let peek_front t =
    normalize t;
    match t.front with [] -> None | v :: _ -> Some v

  let pop_front t =
    normalize t;
    match t.front with
    | [] -> None
    | v :: rest -> t.front <- rest; t.len <- t.len - 1; Some v

  let iter f t =
    List.iter f t.front;
    List.iter f (List.rev t.back)
end

type ('k, 'v) cls = {
  c_key : 'k;
  mutable c_weight : int;
  mutable c_deficit : int;
  c_items : ('v * int) Dq.t;
  mutable c_bytes : int;
  mutable c_on_ring : bool;
}

type ('k, 'v) t = {
  quantum : int;
  max_per_flow : int;
  classes : ('k, ('k, 'v) cls) Hashtbl.t;
  ring : ('k, 'v) cls Dq.t;
  mutable visiting : bool;
      (* the ring head's visit is open: its deficit is replenished *)
  mutable total_items : int;
  mutable total_bytes : int;
}

let create ~quantum ~max_per_flow () =
  if quantum <= 0 then invalid_arg "Drr.create: quantum must be positive";
  if max_per_flow <= 0 then invalid_arg "Drr.create: max_per_flow must be positive";
  {
    quantum;
    max_per_flow;
    classes = Hashtbl.create 1;
    ring = Dq.create ();
    visiting = false;
    total_items = 0;
    total_bytes = 0;
  }

let max_per_flow t = t.max_per_flow
let length t = t.total_items
let bytes t = t.total_bytes
let is_empty t = t.total_items = 0

let find_class t key weight =
  match Hashtbl.find_opt t.classes key with
  | Some c ->
      if c.c_weight <> weight then c.c_weight <- max 1 weight;
      c
  | None ->
      let c =
        {
          c_key = key;
          c_weight = max 1 weight;
          c_deficit = 0;
          c_items = Dq.create ();
          c_bytes = 0;
          c_on_ring = false;
        }
      in
      Hashtbl.replace t.classes key c;
      c

let enqueue t ~key ~weight ~len v =
  let c = find_class t key weight in
  if Dq.length c.c_items >= t.max_per_flow then false
  else begin
    Dq.push_back c.c_items (v, len);
    c.c_bytes <- c.c_bytes + len;
    t.total_items <- t.total_items + 1;
    t.total_bytes <- t.total_bytes + len;
    if not c.c_on_ring then begin
      c.c_on_ring <- true;
      Dq.push_back t.ring c
    end;
    true
  end

let flow_length t key =
  match Hashtbl.find_opt t.classes key with
  | None -> 0
  | Some c -> Dq.length c.c_items

let head t =
  match Dq.peek_front t.ring with
  | None -> None
  | Some c -> Dq.peek_front c.c_items

let head_fits c =
  match Dq.peek_front c.c_items with
  | Some (_, len) -> len <= c.c_deficit
  | None -> false

(* Close the ring head's visit: a drained flow leaves the ring with its
   deficit zeroed, any other rotates to the tail with its credit
   banked. *)
let end_visit t c =
  ignore (Dq.pop_front t.ring);
  t.visiting <- false;
  if Dq.is_empty c.c_items then begin
    c.c_deficit <- 0;
    c.c_on_ring <- false
  end
  else Dq.push_back t.ring c

(* The flow whose head item DRR serves next, its visit open.  A visit
   whose head item exceeds the replenished deficit banks the credit and
   rotates, so each pass strictly grows that flow's credit and the loop
   terminates. *)
let rec serving t =
  match Dq.peek_front t.ring with
  | None -> None
  | Some c ->
      if not t.visiting then begin
        c.c_deficit <- c.c_deficit + (t.quantum * c.c_weight);
        t.visiting <- true
      end;
      if head_fits c then Some c
      else begin
        end_visit t c;
        serving t
      end

(* Remove the serving flow's head item; the visit ends once the flow
   empties or its next item no longer fits. *)
let take t c =
  match Dq.pop_front c.c_items with
  | None -> invalid_arg "Drr: serving flow is empty"
  | Some ((_, len) as item) ->
      c.c_deficit <- c.c_deficit - len;
      c.c_bytes <- c.c_bytes - len;
      t.total_items <- t.total_items - 1;
      t.total_bytes <- t.total_bytes - len;
      if not (head_fits c) then end_visit t c;
      item

let peek t =
  match serving t with
  | None -> None
  | Some c -> (
      match Dq.peek_front c.c_items with
      | Some (v, len) -> Some (c.c_key, v, len)
      | None -> None)

let pop t =
  match serving t with
  | None -> invalid_arg "Drr.pop: empty scheduler"
  | Some c -> ignore (take t c)

let select t =
  match serving t with
  | None -> None
  | Some c ->
      let rec visit acc =
        let acc = take t c :: acc in
        if t.visiting then visit acc else Some (c.c_key, List.rev acc)
      in
      visit []

let drain_all t =
  let out = ref [] in
  let rec loop () =
    match Dq.pop_front t.ring with
    | None -> ()
    | Some c ->
        Dq.iter (fun (v, len) -> out := (c.c_key, v, len) :: !out) c.c_items;
        Dq.clear c.c_items;
        c.c_bytes <- 0;
        c.c_deficit <- 0;
        c.c_on_ring <- false;
        loop ()
  in
  loop ();
  t.visiting <- false;
  t.total_items <- 0;
  t.total_bytes <- 0;
  List.rev !out

let fold_flows f t init =
  (* Ring order: only active (non-empty) flows are folded, in service
     order, which keeps the result deterministic across runs. *)
  let acc = ref init in
  Dq.iter
    (fun c -> acc := f !acc c.c_key ~items:(Dq.length c.c_items) ~bytes:c.c_bytes)
    t.ring;
  !acc
