type entry = {
  entry_domid : int;
  entry_mac : Netcore.Mac.t;
  entry_ip : Netcore.Ip.t;
  entry_queues : int;
  entry_zc : bool;
  entry_loans : bool;
  entry_gso : bool;
}

type queue_grant = {
  qg_lc_gref : Memory.Grant_table.gref;
  qg_cl_gref : Memory.Grant_table.gref;
  qg_port : Evtchn.Event_channel.port;
  qg_lc_pool : Memory.Grant_table.gref option;
  qg_cl_pool : Memory.Grant_table.gref option;
}

type t =
  | Announce of entry list
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
      zerocopy : bool;
      loans : bool;
      gso : bool;
    }
  | Create_channel of { listener_domid : int; queues : queue_grant list }
  | Channel_ack of { connector_domid : int }
  | App_payload of {
      src_ip : Netcore.Ip.t;
      src_port : int;
      dst_port : int;
      payload : Bytes.t;
    }

(* Version gating: tags 1-5 are the original single-queue wire format, kept
   bit-for-bit so a queues=1 peer (or an old binary) interoperates
   unchanged.  The multi-queue variants (6-8) are only emitted when a
   queue count above 1 actually needs expressing, the zero-copy
   variants (9-11) only when a zero-copy capability or pool grant
   actually needs expressing, and the loan variants (12-13) only when a
   loaned-slot-receive capability actually needs expressing; a
   negotiated-down handshake therefore reproduces the earlier byte
   streams exactly.  Create_channel needs no loan variant: the loan
   credit rides as a stamp in the payload-pool control page, invisible
   to the wire format.  The delta-announcement variant (14) is what Dom0
   sends every guest; its entries always carry the full queues/zc/loans
   capability set — no per-list gating needed.  The full-list Announce
   tags (1/6/9/12) are still decoded as control input.  The gso variants (15 = Announce, 16 = Delta_announce, 17 =
   Request_channel) add one capability byte per entry and are only
   emitted when a segmentation-offload capability actually needs
   expressing; Create_channel again needs no variant because the
   negotiated gso ceiling rides as a payload-pool control-page stamp. *)

let has_pool q = q.qg_lc_pool <> None || q.qg_cl_pool <> None

let tag = function
  | Announce entries ->
      if List.exists (fun e -> e.entry_gso) entries then 15
      else if List.exists (fun e -> e.entry_loans) entries then 12
      else if List.exists (fun e -> e.entry_zc) entries then 9
      else if List.for_all (fun e -> e.entry_queues <= 1) entries then 1
      else 6
  | Delta_announce { da_joins; _ } ->
      if List.exists (fun e -> e.entry_gso) da_joins then 16 else 14
  | Request_channel { max_queues; zerocopy; loans; gso; _ } ->
      if gso then 17
      else if loans then 13
      else if zerocopy then 10
      else if max_queues <= 1 then 2
      else 7
  | Create_channel { queues; _ } ->
      if List.exists has_pool queues then 11
      else ( match queues with [ _ ] -> 3 | _ -> 8)
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

let encode msg =
  let buf = Buffer.create 32 in
  let t = tag msg in
  Buffer.add_char buf (Char.chr t);
  (match msg with
  | Announce entries ->
      w16 buf (List.length entries);
      List.iter
        (fun e ->
          w16 buf e.entry_domid;
          wmac buf e.entry_mac;
          wip buf e.entry_ip;
          if t = 6 || t = 9 || t = 12 || t = 15 then w16 buf e.entry_queues;
          if t = 9 || t = 12 || t = 15 then
            Buffer.add_char buf (Char.chr (Bool.to_int e.entry_zc));
          if t = 12 || t = 15 then
            Buffer.add_char buf (Char.chr (Bool.to_int e.entry_loans));
          if t = 15 then Buffer.add_char buf (Char.chr (Bool.to_int e.entry_gso)))
        entries
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
          Buffer.add_char buf (Char.chr (Bool.to_int e.entry_zc));
          Buffer.add_char buf (Char.chr (Bool.to_int e.entry_loans));
          if t = 16 then Buffer.add_char buf (Char.chr (Bool.to_int e.entry_gso)))
        da_joins;
      w16 buf (List.length da_leaves);
      List.iter (fun d -> w16 buf d) da_leaves
  | Request_channel { requester_domid; max_queues; zerocopy; loans; gso } ->
      w16 buf requester_domid;
      if t = 7 || t = 10 || t = 13 || t = 17 then w16 buf max_queues;
      if t = 10 || t = 13 || t = 17 then
        Buffer.add_char buf (Char.chr (Bool.to_int zerocopy));
      if t = 13 || t = 17 then
        Buffer.add_char buf (Char.chr (Bool.to_int loans));
      if t = 17 then Buffer.add_char buf (Char.chr (Bool.to_int gso))
  | Create_channel { listener_domid; queues } ->
      w16 buf listener_domid;
      if t = 8 || t = 11 then w16 buf (List.length queues);
      List.iter
        (fun q ->
          w32 buf q.qg_lc_gref;
          w32 buf q.qg_cl_gref;
          w16 buf q.qg_port;
          if t = 11 then
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
  let rentry ~queues ~zc ~loans ~gso () =
    let entry_domid = r16 () in
    let entry_mac = rmac () in
    let entry_ip = rip () in
    let entry_queues = if queues then max 1 (r16 ()) else 1 in
    let entry_zc = if zc then r8 () <> 0 else false in
    let entry_loans = if loans then r8 () <> 0 else false in
    let entry_gso = if gso then r8 () <> 0 else false in
    {
      entry_domid;
      entry_mac;
      entry_ip;
      entry_queues;
      entry_zc;
      entry_loans;
      entry_gso;
    }
  in
  let rqueue ~pools () =
    let qg_lc_gref = r32 () in
    let qg_cl_gref = r32 () in
    let qg_port = r16 () in
    let qg_lc_pool, qg_cl_pool =
      if pools && r8 () <> 0 then
        let lc = r32 () in
        let cl = r32 () in
        (Some lc, Some cl)
      else (None, None)
    in
    { qg_lc_gref; qg_cl_gref; qg_port; qg_lc_pool; qg_cl_pool }
  in
  try
    match r8 () with
    | 1 ->
        let n = r16 () in
        Ok
          (Announce
             (List.init n (fun _ ->
                  rentry ~queues:false ~zc:false ~loans:false ~gso:false ())))
    | 6 ->
        let n = r16 () in
        Ok
          (Announce
             (List.init n (fun _ ->
                  rentry ~queues:true ~zc:false ~loans:false ~gso:false ())))
    | 9 ->
        let n = r16 () in
        Ok
          (Announce
             (List.init n (fun _ ->
                  rentry ~queues:true ~zc:true ~loans:false ~gso:false ())))
    | 12 ->
        let n = r16 () in
        Ok
          (Announce
             (List.init n (fun _ ->
                  rentry ~queues:true ~zc:true ~loans:true ~gso:false ())))
    | 15 ->
        let n = r16 () in
        Ok
          (Announce
             (List.init n (fun _ ->
                  rentry ~queues:true ~zc:true ~loans:true ~gso:true ())))
    | (14 | 16) as t ->
        let da_base = r32 () in
        let da_epoch = r32 () in
        let da_full = r8 () <> 0 in
        let nj = r16 () in
        let da_joins =
          List.init nj (fun _ ->
              rentry ~queues:true ~zc:true ~loans:true ~gso:(t = 16) ())
        in
        let nl = r16 () in
        let da_leaves = List.init nl (fun _ -> r16 ()) in
        Ok (Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves })
    | 2 ->
        Ok
          (Request_channel
             {
               requester_domid = r16 ();
               max_queues = 1;
               zerocopy = false;
               loans = false;
               gso = false;
             })
    | 7 ->
        let requester_domid = r16 () in
        let max_queues = max 1 (r16 ()) in
        Ok
          (Request_channel
             {
               requester_domid;
               max_queues;
               zerocopy = false;
               loans = false;
               gso = false;
             })
    | 10 ->
        let requester_domid = r16 () in
        let max_queues = max 1 (r16 ()) in
        let zerocopy = r8 () <> 0 in
        Ok
          (Request_channel
             { requester_domid; max_queues; zerocopy; loans = false; gso = false })
    | (13 | 17) as t ->
        let requester_domid = r16 () in
        let max_queues = max 1 (r16 ()) in
        let zerocopy = r8 () <> 0 in
        let loans = r8 () <> 0 in
        let gso = if t = 17 then r8 () <> 0 else false in
        Ok (Request_channel { requester_domid; max_queues; zerocopy; loans; gso })
    | 3 ->
        let listener_domid = r16 () in
        Ok (Create_channel { listener_domid; queues = [ rqueue ~pools:false () ] })
    | 8 ->
        let listener_domid = r16 () in
        let n = r16 () in
        if n < 1 then Error "create_channel with no queues"
        else
          Ok
            (Create_channel
               { listener_domid; queues = List.init n (fun _ -> rqueue ~pools:false ()) })
    | 11 ->
        let listener_domid = r16 () in
        let n = r16 () in
        if n < 1 then Error "create_channel with no queues"
        else
          Ok
            (Create_channel
               { listener_domid; queues = List.init n (fun _ -> rqueue ~pools:true ()) })
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
  | Announce entries ->
      Format.fprintf fmt "announce[%s]"
        (String.concat "; "
           (List.map
              (fun e ->
                Printf.sprintf "dom%d=%s q%d%s%s%s" e.entry_domid
                  (Netcore.Mac.to_string e.entry_mac)
                  e.entry_queues
                  (if e.entry_zc then " zc" else "")
                  (if e.entry_loans then " ln" else "")
                  (if e.entry_gso then " gs" else ""))
              entries))
  | Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves } ->
      Format.fprintf fmt "delta_announce(%d->%d%s +[%s] -[%s])" da_base da_epoch
        (if da_full then " full" else "")
        (String.concat ";"
           (List.map (fun e -> string_of_int e.entry_domid) da_joins))
        (String.concat ";" (List.map string_of_int da_leaves))
  | Request_channel { requester_domid; max_queues; zerocopy; loans; gso } ->
      Format.fprintf fmt "request_channel(dom%d maxq=%d%s%s%s)" requester_domid
        max_queues
        (if zerocopy then " zc" else "")
        (if loans then " ln" else "")
        (if gso then " gs" else "")
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
