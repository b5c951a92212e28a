let advert_key = "xenloop"

let advert_path ~domid = Xenstore.domain_path domid ^ "/" ^ advert_key

(* The guest's acked-epoch node lives in its own subtree (so the guest may
   write it) under a key that does NOT end in "/xenloop" — the discovery
   watch suffix-matches advert writes only, so ack writes never trigger a
   scan storm. *)
let ack_key = "xenloop-ack"

let ack_path ~domid = Xenstore.domain_path domid ^ "/" ^ ack_key

(* How many epochs of joins/leaves Dom0 remembers.  A guest whose acked
   epoch fell out of the window gets a full resync instead of a delta. *)
let delta_log_window = 256

type t = {
  machine : Hypervisor.Machine.t;
  dom0_stack : Netstack.Stack.t;
  timer : Sim.Engine.timer;
  mutable watch : Xenstore.watch option;
  mutable scan_pending : bool;
  mutable last_scan : Proto.entry list;
  mutable sent : int;
  mutable announce_fault : (domid:int -> bool) option;
  (* Delta-announcement state (DESIGN.md §12). *)
  mutable epoch : int;
  mutable delta_log : (int * Proto.entry list * int list) list;
      (** newest first: (epoch, joins, leaves) *)
  last_sent : (int, Sim.Time.t) Hashtbl.t;
      (** when each recipient was last sent to, kept only while the guest
          is in the scan result *)
  mutable suppressed : int;
  mutable bytes_sent : int;
}

(* One scan returns each willing guest's announcement entry. *)
let scan t =
  let xs = Hypervisor.Machine.xenstore t.machine in
  let ids =
    match Xenstore.directory xs ~caller:Xenstore.dom0 ~path:"/local/domain" with
    | Ok ids -> List.filter_map int_of_string_opt ids
    | Error _ -> []
  in
  List.filter_map
    (fun domid ->
      if domid = 0 then None
      else
        match Xenstore.read xs ~caller:Xenstore.dom0 ~path:(advert_path ~domid) with
        | Error _ -> None
        | Ok advert -> (
            (* The advert value is the guest's queue count and its rung
               ("4 gso"); anything else reads as one queue at [Paper]. *)
            let queues, rung =
              match String.split_on_char ' ' (String.trim advert) with
              | [ count; token ] -> (
                  match (int_of_string_opt count, Hypervisor.Params.rung_of_name token) with
                  | Some q, Some r when q >= 1 -> (q, r)
                  | _ -> (1, Hypervisor.Params.Paper))
              | _ -> (1, Hypervisor.Params.Paper)
            in
            match
              ( Xenstore.read xs ~caller:Xenstore.dom0
                  ~path:(Xenstore.domain_path domid ^ "/mac"),
                Xenstore.read xs ~caller:Xenstore.dom0
                  ~path:(Xenstore.domain_path domid ^ "/ip") )
            with
            | Ok mac_str, Ok ip_str -> (
                match (Netcore.Mac.of_string mac_str, Netcore.Ip.of_string ip_str) with
                | Some mac, Some ip ->
                    Some
                      {
                        Proto.entry_domid = domid;
                        entry_mac = mac;
                        entry_ip = ip;
                        entry_queues = queues;
                        entry_rung = rung;
                      }
                | _ -> None)
            | _ -> None))
    (List.sort compare ids)

let deliver t ~dst_domid ~dst_mac message =
  let drop =
    match t.announce_fault with None -> false | Some f -> f ~domid:dst_domid
  in
  if not drop then begin
    t.sent <- t.sent + 1;
    t.bytes_sent <- t.bytes_sent + Bytes.length message;
    Netstack.Stack.send_ctrl t.dom0_stack ~dst_mac message
  end

let read_ack t domid =
  let xs = Hypervisor.Machine.xenstore t.machine in
  match Xenstore.read xs ~caller:Xenstore.dom0 ~path:(ack_path ~domid) with
  | Ok s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 && v <= t.epoch -> v
      | Some _ | None -> 0)
  | Error _ -> 0

(* Collapse the log entries (base, current] into one net (joins, leaves)
   pair, oldest first.  [None] when the base fell out of the bounded log.
   A guest that joined and left inside the window appears in neither
   list; one that left and rejoined appears as a plain join (the guest
   applies joins as replace-or-add). *)
let aggregate t ~base =
  if base >= t.epoch then Some ([], [])
  else begin
    let span = List.filter (fun (e, _, _) -> e > base) t.delta_log in
    if List.length span <> t.epoch - base then None
    else begin
      let span = List.rev span (* oldest first *) in
      let joins = Hashtbl.create 8 in
      let leaves = Hashtbl.create 8 in
      List.iter
        (fun (_, j, l) ->
          List.iter
            (fun d ->
              if Hashtbl.mem joins d then Hashtbl.remove joins d
              else Hashtbl.replace leaves d ())
            l;
          List.iter
            (fun e ->
              Hashtbl.remove leaves e.Proto.entry_domid;
              Hashtbl.replace joins e.Proto.entry_domid e)
            j)
        span;
      let js =
        Hashtbl.fold (fun _ e acc -> e :: acc) joins []
        |> List.sort (fun a b -> compare a.Proto.entry_domid b.Proto.entry_domid)
      in
      let ls = Hashtbl.fold (fun d () acc -> d :: acc) leaves [] |> List.sort compare in
      Some (js, ls)
    end
  end

(* Delta announcement round.  Recipients are grouped by the message they
   need — one encode per distinct base serves the whole group — and a
   recipient with nothing new to hear is skipped entirely until the
   refresh deadline, where it gets a tiny heartbeat to keep its
   soft-state TTL alive. *)
let announce_delta t scanned =
  let engine = Hypervisor.Machine.engine t.machine in
  let p = Hypervisor.Machine.params t.machine in
  let now = Sim.Engine.now engine in
  (* The heartbeat exists to keep guests' soft-state TTLs alive, so its
     deadline is clamped to half the TTL regardless of the configured
     refresh — a test world compressing the TTL to milliseconds must not
     be starved by a 10 s refresh default. *)
  let refresh =
    let r = p.Hypervisor.Params.xenloop_announce_refresh in
    let ttl = p.Hypervisor.Params.xenloop_softstate_ttl in
    if not (Sim.Time.span_is_positive ttl) then r
    else begin
      let half = Sim.Time.ns_int64 (Int64.div (Sim.Time.to_ns ttl) 2L) in
      if
        Sim.Time.span_is_positive r
        && Int64.compare (Sim.Time.to_ns r) (Sim.Time.to_ns half) < 0
      then r
      else half
    end
  in
  let encoded : (int, Bytes.t) Hashtbl.t = Hashtbl.create 4 in
  (* Message cache keys: base epoch for a delta, -1 full resync. *)
  let message key build =
    match Hashtbl.find_opt encoded key with
    | Some m -> m
    | None ->
        let m = Proto.encode (build ()) in
        Hashtbl.replace encoded key m;
        m
  in
  let full_resync () =
    message (-1) (fun () ->
        Proto.Delta_announce
          {
            da_base = 0;
            da_epoch = t.epoch;
            da_full = true;
            da_joins = t.last_scan;
            da_leaves = [];
          })
  in
  List.iter
    (fun e ->
      let domid = e.Proto.entry_domid in
      let due_refresh =
        match Hashtbl.find_opt t.last_sent domid with
        | None -> true
        | Some last ->
            (not (Sim.Time.span_is_positive refresh))
            || Sim.Time.(now >= Sim.Time.add last refresh)
      in
      let send m =
        Hashtbl.replace t.last_sent domid now;
        deliver t ~dst_domid:domid ~dst_mac:e.Proto.entry_mac m
      in
      let acked = read_ack t domid in
      if acked < t.epoch then
        match aggregate t ~base:acked with
        | Some (joins, leaves) ->
            (* A guest's own entry may ride along (it filters itself on
               receipt, like it does for full announcements); keeping the
               message recipient-independent is what lets one encode
               serve every guest acked at the same epoch. *)
            send
              (message acked (fun () ->
                   Proto.Delta_announce
                     {
                       da_base = acked;
                       da_epoch = t.epoch;
                       da_full = false;
                       da_joins = joins;
                       da_leaves = leaves;
                     }))
        | None -> send (full_resync ())
      else if due_refresh then
        (* Nothing new — a heartbeat only refreshes the TTL. *)
        send
          (message t.epoch (fun () ->
               Proto.Delta_announce
                 {
                   da_base = t.epoch;
                   da_epoch = t.epoch;
                   da_full = false;
                   da_joins = [];
                   da_leaves = [];
                 }))
      else t.suppressed <- t.suppressed + 1)
    scanned

let scan_now t =
  let entries = scan t in
  let prev = t.last_scan in
  let joins =
    List.filter
      (fun e ->
        match
          List.find_opt (fun o -> o.Proto.entry_domid = e.Proto.entry_domid) prev
        with
        | None -> true
        | Some o -> o <> e)
      entries
  in
  let leaves =
    List.filter_map
      (fun o ->
        if List.exists (fun e -> e.Proto.entry_domid = o.Proto.entry_domid) entries
        then None
        else Some o.Proto.entry_domid)
      prev
  in
  if joins <> [] || leaves <> [] then begin
    t.epoch <- t.epoch + 1;
    t.delta_log <- (t.epoch, joins, leaves) :: t.delta_log;
    (* Bound the log; a guest acked before the window resyncs in full. *)
    if List.length t.delta_log > delta_log_window then
      t.delta_log <- List.filteri (fun i _ -> i < delta_log_window) t.delta_log
  end;
  t.last_scan <- entries;
  (* Forget recipients that left; a rejoin starts afresh (with a fresh ack
     node, written by the guest's advertise). *)
  let present = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace present e.Proto.entry_domid ()) entries;
  let stale =
    Hashtbl.fold
      (fun d _ acc -> if Hashtbl.mem present d then acc else d :: acc)
      t.last_sent []
  in
  List.iter (Hashtbl.remove t.last_sent) stale;
  announce_delta t entries

(* React to xenbus traffic on the advert nodes: insmod/rmmod updates the
   mapping table within ~100us instead of waiting out a full period.  The
   periodic scan stays as the soft-state backstop — a lost watch event
   only delays convergence until the next round. *)
let on_store_event t path _event =
  let suffix = "/" ^ advert_key in
  let matches =
    String.length path >= String.length suffix
    && String.sub path
         (String.length path - String.length suffix)
         (String.length suffix)
       = suffix
  in
  if matches && not t.scan_pending then begin
    t.scan_pending <- true;
    Sim.Engine.after
      (Hypervisor.Machine.engine t.machine)
      (Sim.Time.us 100)
      (fun () ->
        t.scan_pending <- false;
        scan_now t)
  end

let start ~machine ~dom0_stack () =
  let period = (Hypervisor.Machine.params machine).Hypervisor.Params.discovery_period in
  let rec t =
    lazy
      {
        machine;
        dom0_stack;
        timer =
          Sim.Engine.every (Hypervisor.Machine.engine machine) period (fun () ->
              scan_now (Lazy.force t));
        watch = None;
        scan_pending = false;
        last_scan = [];
        sent = 0;
        announce_fault = None;
        epoch = 0;
        delta_log = [];
        last_sent = Hashtbl.create 16;
        suppressed = 0;
        bytes_sent = 0;
      }
  in
  let t = Lazy.force t in
  (match
     Xenstore.watch
       (Hypervisor.Machine.xenstore machine)
       ~caller:Xenstore.dom0 ~path:"/local/domain"
       (fun path event -> on_store_event t path event)
   with
  | Ok w -> t.watch <- Some w
  | Error _ -> ());
  t

let stop t =
  Sim.Engine.cancel t.timer;
  match t.watch with
  | Some w ->
      Xenstore.unwatch (Hypervisor.Machine.xenstore t.machine) w;
      t.watch <- None
  | None -> ()

let willing_guests t = t.last_scan
let announcements_sent t = t.sent
let announcements_suppressed t = t.suppressed
let announce_bytes t = t.bytes_sent
let current_epoch t = t.epoch

let set_announce_fault t f = t.announce_fault <- f
