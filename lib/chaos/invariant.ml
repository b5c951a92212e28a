module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain

type ctx = {
  iv_machines : (string * Machine.t) list;
  iv_modules : (string * Xenloop.Guest_module.t) list;
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

let check_runtime ctx =
  let acc =
    List.fold_left
      (fun acc (name, machine) -> frame_conservation name machine acc)
      [] ctx.iv_machines
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
