type state = Running | Suspended | Dead

type t = {
  mutable dom_id : int;
  dom_name : string;
  dom_mac : Netcore.Mac.t;
  dom_ip : Netcore.Ip.t;
  dom_cpu : Sim.Resource.t;
  dom_meter : Memory.Cost_meter.t;
  mutable dom_state : state;
  mutable pre_migrate : (unit -> unit) list;
  mutable post_restore : (unit -> unit) list;
  mutable shutdown : (unit -> unit) list;
}

let make ~domid ~name ~mac ~ip ?cpu () =
  {
    dom_id = domid;
    dom_name = name;
    dom_mac = mac;
    dom_ip = ip;
    dom_cpu =
      (match cpu with
      | Some cpu -> cpu
      | None -> Sim.Resource.create ~name:(name ^ ".vcpu"));
    dom_meter = Memory.Cost_meter.create ();
    dom_state = Running;
    pre_migrate = [];
    post_restore = [];
    shutdown = [];
  }

let domid t = t.dom_id
let set_domid t id = t.dom_id <- id
let name t = t.dom_name
let mac t = t.dom_mac
let ip t = t.dom_ip
let cpu t = t.dom_cpu
let meter t = t.dom_meter

let state t = t.dom_state
let set_state t s = t.dom_state <- s
let is_running t = t.dom_state = Running

let on_pre_migrate t f = t.pre_migrate <- f :: t.pre_migrate
let on_post_restore t f = t.post_restore <- f :: t.post_restore
let on_shutdown t f = t.shutdown <- f :: t.shutdown

(* Pre-migrate hooks run newest-first (modules stacked on top of the
   device plumbing must wind down first); post-restore hooks run in
   registration order (plumbing back first, then modules). *)
let run_pre_migrate t = List.iter (fun f -> f ()) t.pre_migrate
let run_post_restore t = List.iter (fun f -> f ()) (List.rev t.post_restore)
let run_shutdown t = List.iter (fun f -> f ()) t.shutdown
