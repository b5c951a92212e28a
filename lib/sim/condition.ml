type t = { queue : Engine.wait_queue }

let create () = { queue = Engine.wait_queue () }

let await t = Engine.block t.queue

let signal t = ignore (Engine.unblock t.queue)

(* Only the processes waiting now: an unblocked process continues in a
   later event, so none of them can await again before the loop ends. *)
let broadcast t =
  for _ = 1 to Engine.blocked t.queue do
    ignore (Engine.unblock t.queue)
  done

let waiters t = Engine.blocked t.queue
