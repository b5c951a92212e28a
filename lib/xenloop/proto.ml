type entry = {
  entry_domid : int;
  entry_mac : Netcore.Mac.t;
  entry_ip : Netcore.Ip.t;
  entry_queues : int;
  entry_rung : Hypervisor.Params.rung;
}

type queue_grant = {
  qg_lc_gref : Memory.Grant_table.gref;
  qg_cl_gref : Memory.Grant_table.gref;
  qg_port : Evtchn.Event_channel.port;
  qg_lc_pool : Memory.Grant_table.gref option;
  qg_cl_pool : Memory.Grant_table.gref option;
}

type t =
  | Delta_announce of {
      da_base : int;
      da_epoch : int;
      da_full : bool;
      da_joins : entry list;
      da_leaves : int list;
    }
  | Request_channel of {
      requester_domid : int;
      max_queues : int;
      rung : Hypervisor.Params.rung;
    }
  | Create_channel of { listener_domid : int; queues : queue_grant list }
  | Channel_ack of { connector_domid : int }
  | App_payload of {
      src_ip : Netcore.Ip.t;
      src_port : int;
      dst_port : int;
      payload : Bytes.t;
    }

(* One layout per message.  The tag numbers are those the layouts had
   when each was one of several per message; the others are retired. *)
let tag = function
  | Delta_announce _ -> 16
  | Request_channel _ -> 17
  | Create_channel _ -> 11
  | Channel_ack _ -> 4
  | App_payload _ -> 5

let w16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let w32 buf v =
  w16 buf (v lsr 16);
  w16 buf v

let wip buf ip =
  let v = Netcore.Ip.to_int32 ip in
  w16 buf (Int32.to_int (Int32.shift_right_logical v 16));
  w16 buf (Int32.to_int (Int32.logand v 0xFFFFl))

let wmac buf mac =
  let v = Netcore.Mac.to_int64 mac in
  for i = 5 downto 0 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

(* The rung as three capability bytes: at least [Zerocopy], [Loans],
   [Gso].  [Notify] needs no agreement between the ends, so it travels as
   [Paper]. *)
let wrung buf rung =
  let bit r = Buffer.add_char buf (Char.chr (Bool.to_int (rung >= r))) in
  bit Hypervisor.Params.Zerocopy;
  bit Hypervisor.Params.Loans;
  bit Hypervisor.Params.Gso

let encode msg =
  let buf = Buffer.create 32 in
  Buffer.add_char buf (Char.chr (tag msg));
  (match msg with
  | Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves } ->
      w32 buf da_base;
      w32 buf da_epoch;
      Buffer.add_char buf (Char.chr (Bool.to_int da_full));
      w16 buf (List.length da_joins);
      List.iter
        (fun e ->
          w16 buf e.entry_domid;
          wmac buf e.entry_mac;
          wip buf e.entry_ip;
          w16 buf e.entry_queues;
          wrung buf e.entry_rung)
        da_joins;
      w16 buf (List.length da_leaves);
      List.iter (fun d -> w16 buf d) da_leaves
  | Request_channel { requester_domid; max_queues; rung } ->
      w16 buf requester_domid;
      w16 buf max_queues;
      wrung buf rung
  | Create_channel { listener_domid; queues } ->
      w16 buf listener_domid;
      w16 buf (List.length queues);
      List.iter
        (fun q ->
          w32 buf q.qg_lc_gref;
          w32 buf q.qg_cl_gref;
          w16 buf q.qg_port;
          match (q.qg_lc_pool, q.qg_cl_pool) with
          | Some lc, Some cl ->
              Buffer.add_char buf '\001';
              w32 buf lc;
              w32 buf cl
          | _ -> Buffer.add_char buf '\000')
        queues
  | Channel_ack { connector_domid } -> w16 buf connector_domid
  | App_payload { src_ip; src_port; dst_port; payload } ->
      wip buf src_ip;
      w16 buf src_port;
      w16 buf dst_port;
      Buffer.add_bytes buf payload);
  Buffer.to_bytes buf

exception Short

let decode data =
  let pos = ref 0 in
  let r8 () =
    if !pos >= Bytes.length data then raise Short;
    let v = Char.code (Bytes.get data !pos) in
    incr pos;
    v
  in
  let r16 () =
    let hi = r8 () in
    (hi lsl 8) lor r8 ()
  in
  let r32 () =
    let hi = r16 () in
    (hi lsl 16) lor r16 ()
  in
  let rip () =
    let hi = r16 () in
    let lo = r16 () in
    Netcore.Ip.of_int32
      (Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo))
  in
  let rmac () =
    let v = ref 0L in
    for _ = 1 to 6 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (r8 ()))
    done;
    Netcore.Mac.of_int64 !v
  in
  (* A triple that is not monotone comes from outside this guest: read
     it as the highest rung every byte up to it agrees with. *)
  let rrung () =
    let zc = r8 () <> 0 in
    let loans = r8 () <> 0 in
    let gso = r8 () <> 0 in
    Hypervisor.Params.(
      if not zc then Paper else if not loans then Zerocopy else if not gso then Loans else Gso)
  in
  let rentry () =
    let entry_domid = r16 () in
    let entry_mac = rmac () in
    let entry_ip = rip () in
    let entry_queues = max 1 (r16 ()) in
    let entry_rung = rrung () in
    { entry_domid; entry_mac; entry_ip; entry_queues; entry_rung }
  in
  let rqueue () =
    let qg_lc_gref = r32 () in
    let qg_cl_gref = r32 () in
    let qg_port = r16 () in
    let qg_lc_pool, qg_cl_pool =
      if r8 () <> 0 then
        let lc = r32 () in
        let cl = r32 () in
        (Some lc, Some cl)
      else (None, None)
    in
    { qg_lc_gref; qg_cl_gref; qg_port; qg_lc_pool; qg_cl_pool }
  in
  try
    match r8 () with
    | 16 ->
        let da_base = r32 () in
        let da_epoch = r32 () in
        let da_full = r8 () <> 0 in
        let nj = r16 () in
        let da_joins = List.init nj (fun _ -> rentry ()) in
        let nl = r16 () in
        let da_leaves = List.init nl (fun _ -> r16 ()) in
        Ok (Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves })
    | 17 ->
        let requester_domid = r16 () in
        let max_queues = max 1 (r16 ()) in
        let rung = rrung () in
        Ok (Request_channel { requester_domid; max_queues; rung })
    | 11 ->
        let listener_domid = r16 () in
        let n = r16 () in
        if n < 1 then Error "create_channel with no queues"
        else Ok (Create_channel { listener_domid; queues = List.init n (fun _ -> rqueue ()) })
    | 4 -> Ok (Channel_ack { connector_domid = r16 () })
    | 5 ->
        let src_ip = rip () in
        let src_port = r16 () in
        let dst_port = r16 () in
        let payload = Bytes.sub data !pos (Bytes.length data - !pos) in
        Ok (App_payload { src_ip; src_port; dst_port; payload })
    | t -> Error (Printf.sprintf "unknown xenloop message tag %d" t)
  with Short -> Error "truncated xenloop message"

let equal a b = a = b

let pp fmt = function
  | Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves } ->
      Format.fprintf fmt "delta_announce(%d->%d%s +[%s] -[%s])" da_base da_epoch
        (if da_full then " full" else "")
        (String.concat ";"
           (List.map (fun e -> string_of_int e.entry_domid) da_joins))
        (String.concat ";" (List.map string_of_int da_leaves))
  | Request_channel { requester_domid; max_queues; rung } ->
      Format.fprintf fmt "request_channel(dom%d maxq=%d %s)" requester_domid max_queues
        (Hypervisor.Params.rung_name rung)
  | Create_channel { listener_domid; queues } ->
      Format.fprintf fmt "create_channel(dom%d %s)" listener_domid
        (String.concat ","
           (List.map
              (fun q ->
                Printf.sprintf "grefs=%d/%d port=%d%s" q.qg_lc_gref q.qg_cl_gref
                  q.qg_port
                  (match (q.qg_lc_pool, q.qg_cl_pool) with
                  | Some lc, Some cl -> Printf.sprintf " pools=%d/%d" lc cl
                  | _ -> ""))
              queues))
  | Channel_ack { connector_domid } ->
      Format.fprintf fmt "channel_ack(dom%d)" connector_domid
  | App_payload { src_ip; src_port; dst_port; payload } ->
      Format.fprintf fmt "app_payload(%a:%d -> :%d len=%d)" Netcore.Ip.pp src_ip
        src_port dst_port (Bytes.length payload)
