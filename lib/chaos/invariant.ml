module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain

type fit_watch = {
  mutable fw_tapped : Netstack.Netdevice.t list;
  mutable fw_misfits : string list;
}

let fit_watch () = { fw_tapped = []; fw_misfits = [] }

type ctx = {
  iv_machines : (string * Machine.t) list;
  iv_modules : (string * Xenloop.Guest_module.t) list;
  iv_netfronts : (string * Netstack.Stack.t) list;
  iv_fit : fit_watch;
}

let frame_conservation name machine acc =
  let frames = Machine.frame_allocator machine in
  let total = Memory.Frame_allocator.total_frames frames in
  let free = Memory.Frame_allocator.free_frames frames in
  let owned =
    List.fold_left (fun a (_, n) -> a + n) 0 (Memory.Frame_allocator.owners frames)
  in
  if free + owned <> total then
    Printf.sprintf "%s: frame pages unbalanced: free=%d + owned=%d <> total=%d" name
      free owned total
    :: acc
  else acc

(* A linger that expired with work nobody woke it for: a mutation that
   broke the wake contract, which would make parked polling diverge from
   polling every tick (DESIGN.md §5). *)
let missed_wakes name m acc =
  let missed = (Xenloop.Guest_module.stats m).Xenloop.Guest_module.poll_missed_wakes in
  if missed > 0 then
    Printf.sprintf "%s: %d linger(s) expired on work no wake announced" name missed
    :: acc
  else acc

(* Tap [name]'s netfront the first time a check sees it (a migrated
   guest gets a new one): a TCP frame wider than the device's budget, or
   a TCP fragment, left without {!Netstack.Stack.egress} (DESIGN.md §15). *)
let watch_fit fw (name, stack) =
  match Netstack.Stack.device stack with
  | Some dev when not (List.memq dev fw.fw_tapped) ->
      fw.fw_tapped <- dev :: fw.fw_tapped;
      let mtu = Netstack.Netdevice.mtu dev in
      let budget = Option.fold ~none:mtu ~some:(max mtu) (Netstack.Netdevice.gso_size dev) - 40 in
      let misfit what =
        let now = Sim.Time.instant_to_sec_f (Sim.Engine.now (Netstack.Stack.engine stack)) in
        fw.fw_misfits <-
          Printf.sprintf "%s: netfront sent %s (budget %d B) at %.3f ms" name what budget
            (now *. 1e3)
          :: fw.fw_misfits
      in
      Netstack.Netdevice.add_tap dev (fun direction packet ->
          match (direction, packet.Netcore.Packet.body) with
          | Tx, Ipv4_body { content = Full { transport = Tcp _; payload = { len; _ } }; _ }
            when len > budget ->
              misfit (Printf.sprintf "a %d B TCP payload" len)
          | Tx, Ipv4_body { header = { protocol = Tcp; _ }; content = Fragment _ } ->
              misfit "a TCP fragment"
          | _ -> ())
  | Some _ | None -> ()

let check_runtime ctx =
  List.iter (watch_fit ctx.iv_fit) ctx.iv_netfronts;
  let acc =
    List.fold_left
      (fun acc (name, machine) -> frame_conservation name machine acc)
      ctx.iv_fit.fw_misfits ctx.iv_machines
  in
  let acc =
    List.fold_left (fun acc (name, m) -> missed_wakes name m acc) acc ctx.iv_modules
  in
  let acc =
    List.fold_left
      (fun acc (name, m) ->
        List.fold_left
          (fun acc v -> Printf.sprintf "%s: %s" name v :: acc)
          acc
          (Xenloop.Guest_module.invariant_violations m))
      acc ctx.iv_modules
  in
  List.rev acc

let check_final ctx =
  let acc = List.rev (check_runtime ctx) in
  let acc =
    List.fold_left
      (fun acc (name, machine) ->
        let frames = Machine.frame_allocator machine in
        let acc =
          List.fold_left
            (fun acc (owner, count) ->
              if count > 0 then
                Printf.sprintf "%s: dom%d still owns %d frame(s) after unload" name
                  owner count
                :: acc
              else acc)
            acc
            (Memory.Frame_allocator.owners frames)
        in
        List.fold_left
          (fun acc domain ->
            let domid = Domain.domid domain in
            match Machine.grant_table machine domid with
            | None -> acc
            | Some gt ->
                let live = Memory.Grant_table.active_grants gt in
                if live > 0 then
                  Printf.sprintf "%s: dom%d still holds %d active grant(s)" name
                    domid live
                  :: acc
                else acc)
          acc (Machine.guests machine))
      acc ctx.iv_machines
  in
  let acc =
    List.fold_left
      (fun acc (name, m) ->
        let acc =
          match Xenloop.Guest_module.connected_peer_ids m with
          | [] -> acc
          | ids ->
              Printf.sprintf "%s: still connected to %d peer(s) after unload" name
                (List.length ids)
              :: acc
        in
        if Xenloop.Guest_module.is_loaded m then
          Printf.sprintf "%s: module still loaded at final check" name :: acc
        else acc)
      acc ctx.iv_modules
  in
  List.rev acc
