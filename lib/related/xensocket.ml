module Page = Memory.Page
module Gt = Memory.Grant_table
module Ec = Evtchn.Event_channel
module Domain = Hypervisor.Domain
module Machine = Hypervisor.Machine
module Params = Hypervisor.Params

type handle = { desc_gref : Gt.gref; port : Ec.port }

type side = {
  machine : Machine.t;
  domain : Domain.t;
  bs : Bytestream.t;
  my_port : Ec.port;
  wake : Sim.Condition.t;
  mutable closed : bool;
  mutable signals : int;
  cleanup : unit -> unit;
}

type reader = side
type writer = side

let params side = Machine.params side.machine
let cpu side = Domain.cpu side.domain

let notify_peer side =
  side.signals <- side.signals + 1;
  Sim.Resource.use (cpu side) (params side).Params.hypercall;
  ignore
    (Ec.notify (Machine.evtchn side.machine)
       ~dom:(Domain.domid side.domain)
       ~port:side.my_port
       ~meter:(Domain.meter side.domain))

let copy_cost side n = Params.xenloop_copy_cost (params side) n

let create_pipe ~machine ~owner ~writer_domid ?(size = 65536) () =
  let owner_id = Domain.domid owner in
  let gt =
    match Machine.grant_table machine owner_id with
    | Some gt -> gt
    | None -> invalid_arg "Xensocket.create_pipe: owner has no grant table"
  in
  let n = Bytestream.pages_for ~size in
  let frames = Machine.frame_allocator machine in
  let pool =
    match
      Memory.Frame_allocator.allocate_many frames ~owner:owner_id ~count:(n + 1)
    with
    | Ok pool -> pool
    | Error Memory.Frame_allocator.Out_of_frames ->
        invalid_arg "Xensocket.create_pipe: out of machine memory"
  in
  let desc = pool.(0) in
  let data = Array.sub pool 1 n in
  Bytestream.init ~desc ~data ~size;
  let desc_gref = Gt.grant_access gt ~to_dom:writer_domid ~page:desc ~writable:true in
  let data_grefs =
    Array.to_list
      (Array.map
         (fun page -> Gt.grant_access gt ~to_dom:writer_domid ~page ~writable:true)
         data)
  in
  (* Stash the data grefs in the descriptor page, XenLoop-FIFO style, at a
     fixed offset past the stream header. *)
  List.iteri
    (fun i gref -> Page.set_u32 desc (64 + (4 * i)) gref)
    data_grefs;
  Page.set_u32 desc 60 n;
  let ec = Machine.evtchn machine in
  let port = Ec.alloc_unbound ec ~dom:owner_id ~remote:writer_domid in
  let side =
    lazy
      {
        machine;
        domain = owner;
        bs = Bytestream.attach ~desc ~data;
        my_port = port;
        wake = Sim.Condition.create ();
        closed = false;
        signals = 0;
        cleanup =
          (fun () ->
            List.iter (fun gref -> ignore (Gt.end_access gt gref))
              (desc_gref :: data_grefs);
            Array.iter
              (fun page ->
                Memory.Frame_allocator.release frames ~owner:owner_id page)
              pool;
            Ec.close ec ~dom:owner_id ~port);
      }
  in
  let side = Lazy.force side in
  Ec.set_handler ec ~dom:owner_id ~port (fun () -> Sim.Condition.broadcast side.wake);
  (side, { desc_gref; port })

let connect ~machine ~domain ~reader_domid handle =
  let my_id = Domain.domid domain in
  match Machine.grant_table machine reader_domid with
  | None -> Error "reader domain has no grant table"
  | Some reader_gt -> (
      let meter = Domain.meter domain in
      match Gt.map reader_gt handle.desc_gref ~by:my_id ~meter with
      | Error e -> Error (Gt.error_to_string e)
      | Ok desc -> (
          let n = Page.get_u32 desc 60 in
          let data_grefs =
            List.init n (fun i -> Page.get_u32 desc (64 + (4 * i)))
          in
          let mapped = List.filter_map
              (fun gref ->
                match Gt.map reader_gt gref ~by:my_id ~meter with
                | Ok page -> Some page
                | Error _ -> None)
              data_grefs
          in
          if List.length mapped <> n then Error "failed to map data pages"
          else
            let ec = Machine.evtchn machine in
            match
              Ec.bind_interdomain ec ~dom:my_id ~remote:reader_domid
                ~remote_port:handle.port
            with
            | Error e -> Error (Format.asprintf "%a" Ec.pp_error e)
            | Ok my_port ->
                let side =
                  {
                    machine;
                    domain;
                    bs = Bytestream.attach ~desc ~data:(Array.of_list mapped);
                    my_port;
                    wake = Sim.Condition.create ();
                    closed = false;
                    signals = 0;
                    cleanup =
                      (fun () ->
                        List.iter
                          (fun gref ->
                            ignore (Gt.unmap reader_gt gref ~by:my_id ~meter))
                          (handle.desc_gref :: data_grefs);
                        Ec.close ec ~dom:my_id ~port:my_port);
                  }
                in
                Ec.set_handler ec ~dom:my_id ~port:my_port (fun () ->
                    Sim.Condition.broadcast side.wake);
                Ok side))

let send w data =
  if w.closed then invalid_arg "Xensocket.send: closed";
  let p = params w in
  Sim.Resource.use (cpu w) p.Params.syscall;
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    if not (Bytestream.is_active w.bs) then invalid_arg "Xensocket.send: peer gone";
    let was_empty = Bytestream.used w.bs = 0 in
    let n = Bytestream.write w.bs ~src:data ~off:!off ~len:(len - !off) in
    if n > 0 then begin
      Sim.Resource.use (cpu w) (copy_cost w n);
      off := !off + n;
      (* Signal only when the reader might be sleeping on empty. *)
      if was_empty then notify_peer w
    end
    else Sim.Condition.await w.wake
  done

let recv r ~max =
  if r.closed then invalid_arg "Xensocket.recv: closed";
  let p = params r in
  Sim.Resource.use (cpu r) p.Params.syscall;
  let buf = Bytes.create max in
  let n = ref 0 in
  let finished = ref false in
  while not !finished do
    let was_full = Bytestream.free r.bs = 0 in
    let got = Bytestream.read r.bs ~dst:buf ~off:0 ~len:max in
    if got > 0 then begin
      Sim.Resource.use (cpu r) (copy_cost r got);
      if was_full then notify_peer r;
      n := got;
      finished := true
    end
    else if not (Bytestream.is_active r.bs) then finished := true
    else Sim.Condition.await r.wake
  done;
  Bytes.sub buf 0 !n

let close_common side =
  if not side.closed then begin
    side.closed <- true;
    Bytestream.mark_inactive side.bs;
    (try notify_peer side with _ -> ());
    side.cleanup ()
  end

let close_writer = close_common

let signals_sent w = w.signals
