type 'a t = {
  ring_capacity : int;
  items : 'a Queue.t;
  not_full : Sim.Condition.t;
  not_empty : Sim.Condition.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    ring_capacity = capacity;
    items = Queue.create ();
    not_full = Sim.Condition.create ();
    not_empty = Sim.Condition.create ();
  }

let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items
let is_full t = Queue.length t.items >= t.ring_capacity

let try_push t x =
  if is_full t then false
  else begin
    Queue.push x t.items;
    Sim.Condition.signal t.not_empty;
    true
  end

let push t x =
  while is_full t do
    Sim.Condition.await t.not_full
  done;
  Queue.push x t.items;
  Sim.Condition.signal t.not_empty

let try_pop t =
  match Queue.take_opt t.items with
  | None -> None
  | Some x ->
      Sim.Condition.signal t.not_full;
      Some x

let pop t =
  while is_empty t do
    Sim.Condition.await t.not_empty
  done;
  let x = Queue.pop t.items in
  Sim.Condition.signal t.not_full;
  x

let peek t = Queue.peek_opt t.items
