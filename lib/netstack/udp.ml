module T = Netcore.Transport
module P = Netcore.Packet

let max_datagram = 65507
let receive_buffer_bytes = 212_992
let ephemeral_base = 32768
let ephemeral_limit = 61000

(* The port table: a monomorphic equality in place of the runtime's
   polymorphic compare.  The hash stays [Hashtbl.hash], the generic
   table's own: a congestion signal for every port iterates the table,
   and the order it visits sockets in must not change. *)
module Port_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* A queued datagram may be a borrowed view of a grant-mapped pool slot
   (loaned-slot receive, DESIGN.md §11): the release travels with it and
   fires when the datagram leaves the socket buffer. *)
type socket = {
  layer : t;
  sock_port : int;
  inbox :
    (Netcore.Ip.t * int * Bytes.t * (copied:bool -> unit) option) Sim.Mailbox.t;
  mutable buffered : int;
  mutable dropped : int;
  mutable closed : bool;
  (* QoS backpressure (DESIGN.md §14): while the channel below holds
     this socket's congestion signal raised, sends are charged against
     a sendspace budget — [sendto] blocks at the limit and [sendto_nb]
     refuses (EWOULDBLOCK).  The accounting resets on the clear edge.
     One flag per socket: a socket with several destinations is
     throttled as a whole while any of its flows is congested. *)
  mutable congested : bool;
  mutable send_accounted : int;
  send_avail : Sim.Condition.t;
}

and t = {
  stack : Stack.t;
  ports : socket Port_table.t;
  mutable next_ephemeral : int;
  mutable tx_shortcut :
    (dst:Netcore.Ip.t -> dst_port:int -> src_port:int -> Bytes.t -> bool) option;
}

type bind_error = Port_in_use | No_ports_left

let enqueue sock ~src ~src_port payload release =
  if sock.buffered + Bytes.length payload > receive_buffer_bytes then begin
    sock.dropped <- sock.dropped + 1;
    (* Dropped in place: the borrowed slot goes straight back, no copy. *)
    match release with Some r -> r ~copied:false | None -> ()
  end
  else begin
    sock.buffered <- sock.buffered + Bytes.length payload;
    Sim.Mailbox.send sock.inbox (src, src_port, payload, release)
  end

let handle_packet t (packet : P.t) =
  match packet.P.body with
  | P.Ipv4_body { header; content = P.Full { transport = T.Udp udp; payload } } -> (
      let release = Stack.take_rx_release t.stack in
      match Port_table.find_opt t.ports udp.T.udp_dst_port with
      | None -> (
          (* No receiver: the borrow ends here, untouched. *)
          match release with Some r -> r ~copied:false | None -> ())
      | Some sock ->
          let params = Stack.params t.stack in
          (* A borrowed payload stays in the pool slot until the app reads
             it — no socket-buffer copy to charge. *)
          Sim.Resource.use (Stack.cpu t.stack)
            (match release with
            | None ->
                Sim.Time.span_add params.Hypervisor.Params.udp_rx
                  (Hypervisor.Params.copy_cost params payload.Netcore.View.len)
            | Some _ -> params.Hypervisor.Params.udp_rx);
          enqueue sock ~src:header.Netcore.Ipv4.src ~src_port:udp.T.udp_src_port
            (Netcore.View.to_bytes payload) release)
  | _ -> ()

let attach stack =
  let t =
    {
      stack;
      ports = Port_table.create 16;
      next_ephemeral = ephemeral_base;
      tx_shortcut = None;
    }
  in
  Stack.set_protocol_handler stack Netcore.Ipv4.Udp (handle_packet t);
  Stack.set_congestion_handler stack ~proto:17
    (fun ~sport ~dst:_ ~dport:_ ~congested ->
      let apply sock =
        if sock.congested <> congested then begin
          sock.congested <- congested;
          if not congested then begin
            sock.send_accounted <- 0;
            Sim.Condition.broadcast sock.send_avail
          end
        end
      in
      if sport = 0 then Port_table.iter (fun _ sock -> apply sock) t.ports
      else
        match Port_table.find_opt t.ports sport with
        | Some sock -> apply sock
        | None -> ());
  t

let set_tx_shortcut t f = t.tx_shortcut <- Some f
let clear_tx_shortcut t = t.tx_shortcut <- None

let alloc_ephemeral t =
  let start = t.next_ephemeral in
  let rec scan port =
    if not (Port_table.mem t.ports port) then begin
      t.next_ephemeral <-
        (if port + 1 > ephemeral_limit then ephemeral_base else port + 1);
      Some port
    end
    else begin
      let next = if port + 1 > ephemeral_limit then ephemeral_base else port + 1 in
      if next = start then None else scan next
    end
  in
  scan start

let bind t ?port () =
  let chosen =
    match port with
    | Some p -> if Port_table.mem t.ports p then Error Port_in_use else Ok p
    | None -> ( match alloc_ephemeral t with Some p -> Ok p | None -> Error No_ports_left)
  in
  match chosen with
  | Error e -> Error e
  | Ok p ->
      let sock =
        {
          layer = t;
          sock_port = p;
          inbox = Sim.Mailbox.create ();
          buffered = 0;
          dropped = 0;
          closed = false;
          congested = false;
          send_accounted = 0;
          send_avail = Sim.Condition.create ();
        }
      in
      Port_table.replace t.ports p sock;
      Ok sock

let port sock = sock.sock_port

(* Bytes a congested socket may have outstanding before [sendto] blocks
   ([sendto_nb] refuses); accounting resets when the congestion clears. *)
let sendspace = 65536

(* Charge [len] bytes against the congested-socket sendspace budget.
   [block:true] waits for the clear edge (or a budget reset) like a
   blocking sendto; [block:false] reports refusal (EWOULDBLOCK). *)
let account_send sock ~block len =
  if not sock.congested then true
  else begin
    if block then begin
      while sock.congested && sock.send_accounted + len > sendspace do
        Sim.Condition.await sock.send_avail
      done;
      if sock.congested then sock.send_accounted <- sock.send_accounted + len;
      true
    end
    else if sock.send_accounted + len > sendspace then false
    else begin
      sock.send_accounted <- sock.send_accounted + len;
      true
    end
  end

let transmit_datagram sock ~dst ~dst_port payload =
  let stack = sock.layer.stack in
  let taken_by_shortcut =
    match sock.layer.tx_shortcut with
    | Some shortcut when not (Netcore.Ip.equal dst (Stack.ip_addr stack)) ->
        shortcut ~dst ~dst_port ~src_port:sock.sock_port payload
    | Some _ | None -> false
  in
  if not taken_by_shortcut then begin
    let transport =
      T.Udp { T.udp_src_port = sock.sock_port; udp_dst_port = dst_port }
    in
    Stack.ip_send stack ~dst ~transport ~payload:(Netcore.View.of_bytes payload)
  end

let check_sendable sock payload =
  if sock.closed then invalid_arg "Udp.sendto: socket closed";
  if Bytes.length payload > max_datagram then
    invalid_arg "Udp.sendto: datagram too large"

let sendto sock ~dst ~dst_port payload =
  check_sendable sock payload;
  let stack = sock.layer.stack in
  Sim.Resource.use (Stack.cpu stack) (Stack.params stack).Hypervisor.Params.syscall;
  ignore (account_send sock ~block:true (Bytes.length payload));
  transmit_datagram sock ~dst ~dst_port payload

let sendto_nb sock ~dst ~dst_port payload =
  check_sendable sock payload;
  let stack = sock.layer.stack in
  Sim.Resource.use (Stack.cpu stack) (Stack.params stack).Hypervisor.Params.syscall;
  if account_send sock ~block:false (Bytes.length payload) then begin
    transmit_datagram sock ~dst ~dst_port payload;
    true
  end
  else false

let recvfrom sock =
  let stack = sock.layer.stack in
  let params = Stack.params stack in
  Sim.Resource.use (Stack.cpu stack) params.Hypervisor.Params.syscall;
  let blocked = Sim.Mailbox.is_empty sock.inbox in
  let src, src_port, payload, release = Sim.Mailbox.recv sock.inbox in
  if blocked then
    Sim.Resource.use (Stack.cpu stack) params.Hypervisor.Params.app_wakeup;
  sock.buffered <- sock.buffered - Bytes.length payload;
  (* The app consumed the datagram straight out of the slot view (the
     syscall's user copy is the same one the private-buffer path pays) —
     the borrow ends without an extra kernel copy. *)
  (match release with Some r -> r ~copied:false | None -> ());
  (src, src_port, payload)

let recv_opt sock =
  match Sim.Mailbox.recv_opt sock.inbox with
  | None -> None
  | Some (src, src_port, payload, release) ->
      sock.buffered <- sock.buffered - Bytes.length payload;
      (match release with Some r -> r ~copied:false | None -> ());
      Some (src, src_port, payload)

let recvfrom_view sock =
  let stack = sock.layer.stack in
  let params = Stack.params stack in
  Sim.Resource.use (Stack.cpu stack) params.Hypervisor.Params.syscall;
  let blocked = Sim.Mailbox.is_empty sock.inbox in
  let src, src_port, payload, release = Sim.Mailbox.recv sock.inbox in
  if blocked then
    Sim.Resource.use (Stack.cpu stack) params.Hypervisor.Params.app_wakeup;
  sock.buffered <- sock.buffered - Bytes.length payload;
  let released = ref false in
  let release () =
    if not !released then begin
      released := true;
      match release with Some r -> r ~copied:false | None -> ()
    end
  in
  (src, src_port, payload, release)

let deliver_local t ~src ~src_port ~dst_port payload =
  match Port_table.find_opt t.ports dst_port with
  | None -> ()
  | Some sock ->
      let params = Stack.params t.stack in
      Sim.Resource.use (Stack.cpu t.stack)
        (Hypervisor.Params.copy_cost params (Bytes.length payload));
      enqueue sock ~src ~src_port payload None

let close sock =
  sock.closed <- true;
  (* Drain borrowed datagrams still parked in the buffer: their slots must
     not stay pinned behind a dead socket. *)
  let rec drain () =
    match Sim.Mailbox.recv_opt sock.inbox with
    | None -> ()
    | Some (_, _, payload, release) ->
        sock.buffered <- sock.buffered - Bytes.length payload;
        (match release with Some r -> r ~copied:false | None -> ());
        drain ()
  in
  drain ();
  Port_table.remove sock.layer.ports sock.sock_port

let drops sock = sock.dropped
