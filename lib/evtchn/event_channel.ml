type domid = int
type port = int

type error = Bad_port | Already_bound | Not_bound

let pp_error fmt = function
  | Bad_port -> Format.pp_print_string fmt "bad event channel port"
  | Already_bound -> Format.pp_print_string fmt "port already bound"
  | Not_bound -> Format.pp_print_string fmt "port not bound"

type endpoint = {
  ep_dom : domid;
  ep_port : port;
  mutable state : state;
  mutable pending : bool;
  mutable masked : bool;
  mutable handler : (unit -> unit) option;
  mutable waiter : Sim.Engine.waiter option;
}

and state =
  | Unbound of domid  (** waiting for this remote domain to bind *)
  | Bound of endpoint  (** the peer endpoint *)
  | Closed

type notify_fault = Notify_deliver | Notify_drop | Notify_delay of Sim.Time.span

type t = {
  engine : Sim.Engine.t;
  delivery_latency : unit -> Sim.Time.span;
  endpoints : (domid * port, endpoint) Hashtbl.t;
  next_port : (domid, int) Hashtbl.t;
  mutable fault_injector : (dom:domid -> port:port -> notify_fault) option;
}

let create ~engine ~delivery_latency =
  {
    engine;
    delivery_latency;
    endpoints = Hashtbl.create 32;
    next_port = Hashtbl.create 8;
    fault_injector = None;
  }

let set_fault_injector t f = t.fault_injector <- f

let fresh_port t dom =
  let p = Option.value ~default:1 (Hashtbl.find_opt t.next_port dom) in
  Hashtbl.replace t.next_port dom (p + 1);
  p

let make_endpoint t ~dom ~state =
  let p = fresh_port t dom in
  let ep =
    {
      ep_dom = dom;
      ep_port = p;
      state;
      pending = false;
      masked = false;
      handler = None;
      waiter = None;
    }
  in
  Hashtbl.replace t.endpoints (dom, p) ep;
  ep

let alloc_unbound t ~dom ~remote =
  let ep = make_endpoint t ~dom ~state:(Unbound remote) in
  ep.ep_port

let find t ~dom ~port = Hashtbl.find_opt t.endpoints (dom, port)

let bind_interdomain t ~dom ~remote ~remote_port =
  match find t ~dom:remote ~port:remote_port with
  | None -> Error Bad_port
  | Some remote_ep -> (
      match remote_ep.state with
      | Closed -> Error Bad_port
      | Bound _ -> Error Already_bound
      | Unbound expected when expected <> dom -> Error Bad_port
      | Unbound _ ->
          let local_ep = make_endpoint t ~dom ~state:(Bound remote_ep) in
          remote_ep.state <- Bound local_ep;
          Ok local_ep.ep_port)

let set_handler t ~dom ~port f =
  match find t ~dom ~port with
  | None -> invalid_arg "Event_channel.set_handler: bad port"
  | Some ep -> ep.handler <- Some f

let set_waiter t ~dom ~port w =
  match find t ~dom ~port with
  | None -> invalid_arg "Event_channel.set_waiter: bad port"
  | Some ep -> ep.waiter <- Some w

let peer_endpoint t ~dom ~port =
  match find t ~dom ~port with
  | Some { state = Bound peer_ep; _ } -> Some peer_ep
  | Some _ | None -> None

let wake ep = match ep.waiter with Some w -> Sim.Engine.wake w | None -> ()

let deliver ?(extra = Sim.Time.span_zero) t ep =
  (* Level-triggered with coalescing: a delivery in flight is represented by
     the pending bit; it is cleared just before the handler runs so that
     events arriving during the handler schedule a fresh delivery. *)
  Sim.Engine.after t.engine
    (Sim.Time.span_add (t.delivery_latency ()) extra)
    (fun () ->
      if ep.pending && not ep.masked then begin
        ep.pending <- false;
        match ep.handler with None -> () | Some f -> f ()
      end)

let notify t ~dom ~port ~meter =
  Memory.Cost_meter.record meter (Memory.Cost_meter.Hypercall Evtchn_send);
  Memory.Cost_meter.record meter Memory.Cost_meter.Event_notify;
  match find t ~dom ~port with
  | None -> Error Bad_port
  | Some ep -> (
      match ep.state with
      | Closed -> Error Bad_port
      | Unbound _ -> Error Not_bound
      | Bound peer_ep -> (
          let fault =
            match t.fault_injector with
            | None -> Notify_deliver
            | Some f -> f ~dom ~port
          in
          match fault with
          | Notify_drop ->
              (* The hypercall happens (already metered) but the virtual IRQ
                 never reaches the peer — a lost doorbell.  The peer's
                 pending bit stays clear, so a later successful notify on
                 the same port recovers everything still in the ring. *)
              Ok ()
          | Notify_deliver | Notify_delay _ ->
              let extra =
                match fault with
                | Notify_delay d -> d
                | _ -> Sim.Time.span_zero
              in
              if not peer_ep.pending then begin
                peer_ep.pending <- true;
                if not peer_ep.masked then deliver ~extra t peer_ep
              end;
              Ok ()))

let mask t ~dom ~port =
  match find t ~dom ~port with None -> () | Some ep -> ep.masked <- true

let unmask t ~dom ~port =
  match find t ~dom ~port with
  | None -> ()
  | Some ep ->
      if ep.masked then begin
        ep.masked <- false;
        if ep.pending then deliver t ep
      end

let is_pending t ~dom ~port =
  match find t ~dom ~port with None -> false | Some ep -> ep.pending

let close t ~dom ~port =
  match find t ~dom ~port with
  | None -> ()
  | Some ep ->
      (match ep.state with
      | Bound peer_ep ->
          peer_ep.state <- Closed;
          Hashtbl.remove t.endpoints (peer_ep.ep_dom, peer_ep.ep_port)
      | Unbound _ | Closed -> ());
      ep.state <- Closed;
      Hashtbl.remove t.endpoints (dom, port)

let peer t ~dom ~port =
  match find t ~dom ~port with
  | Some { state = Bound peer_ep; _ } -> Some (peer_ep.ep_dom, peer_ep.ep_port)
  | Some _ | None -> None

let active_channels t = Hashtbl.length t.endpoints
