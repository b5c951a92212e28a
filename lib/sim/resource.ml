type serial = {
  mutable held : bool;
  waiters : (unit -> unit) Queue.t;
  mutable accumulated_ns : int;  (* an int, so a [use] boxes nothing *)
}

type backend =
  | Serial of serial
  | Custom of { use_fn : Time.span -> unit; busy_fn : unit -> Time.span }

type t = { resource_name : string; backend : backend }

let create ~name =
  {
    resource_name = name;
    backend =
      Serial { held = false; waiters = Queue.create (); accumulated_ns = 0 };
  }

let custom ~name ~use ~busy_time =
  { resource_name = name; backend = Custom { use_fn = use; busy_fn = busy_time } }

(* Strict FIFO with ownership handoff on release: a releaser passes the
   resource directly to the longest-waiting process, so later acquirers can
   never barge in front of earlier ones.  Without this, back-to-back packet
   processing fibers could overtake each other and reorder a stream. *)
let acquire t =
  match t.backend with
  | Custom _ -> invalid_arg "Resource.acquire: custom resource"
  | Serial s ->
      if (not s.held) && Queue.is_empty s.waiters then s.held <- true
      else Engine.suspend ~register:(fun resume -> Queue.push resume s.waiters)
(* When the suspend returns, ownership has been handed to us by release. *)

let release t =
  match t.backend with
  | Custom _ -> invalid_arg "Resource.release: custom resource"
  | Serial s -> (
      if not s.held then invalid_arg "Resource.release: not held";
      match Queue.take_opt s.waiters with
      | None -> s.held <- false
      | Some resume -> resume ())

let use t span =
  match t.backend with
  | Custom c -> c.use_fn span
  | Serial s ->
      acquire t;
      Engine.sleep span;
      s.accumulated_ns <- s.accumulated_ns + Int.max 0 (Int64.to_int (Time.to_ns span));
      release t

let is_busy t = match t.backend with Serial s -> s.held | Custom _ -> false

let queue_length t =
  match t.backend with Serial s -> Queue.length s.waiters | Custom _ -> 0

let busy_time t =
  match t.backend with
  | Serial s -> Time.ns s.accumulated_ns
  | Custom c -> c.busy_fn ()
