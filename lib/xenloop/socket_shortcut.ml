type t = {
  xl_module : Guest_module.t;
  udp : Netstack.Udp.t;
  mutable enabled : bool;
  mutable sent : int;
  mutable received : int;
  mutable received_views : int;
}

let enable ~xl_module ~udp () =
  let t =
    {
      xl_module;
      udp;
      enabled = true;
      sent = 0;
      received = 0;
      received_views = 0;
    }
  in
  Netstack.Udp.set_tx_shortcut udp (fun ~dst ~dst_port ~src_port payload ->
      if not t.enabled then false
      else if Guest_module.send_app_payload xl_module ~dst_ip:dst ~src_port ~dst_port
                payload
      then begin
        t.sent <- t.sent + 1;
        true
      end
      else false);
  Guest_module.set_app_payload_handler xl_module
    (fun ~src_ip ~src_port ~dst_port payload ->
      if t.enabled then begin
        t.received <- t.received + 1;
        Netstack.Udp.deliver_local udp ~src:src_ip ~src_port ~dst_port payload
      end);
  (* Loaned-slot receive (DESIGN.md §11): when the channel negotiated loan
     credit, the datagram arrives as a borrowed view of the pool slot and
     parks in the socket buffer copy-free; the borrow ends when the app
     reads it out.  A disabled shortcut hands the slot straight back. *)
  Guest_module.set_app_view_handler xl_module
    (fun ~src_ip ~src_port ~dst_port payload ~release ->
      if not t.enabled then release ~copied:false
      else begin
        t.received <- t.received + 1;
        t.received_views <- t.received_views + 1;
        Netstack.Udp.deliver_local_borrowed udp ~src:src_ip ~src_port ~dst_port
          payload ~release
      end);
  t

let disable t =
  t.enabled <- false;
  Netstack.Udp.clear_tx_shortcut t.udp

let sent_via_shortcut t = t.sent
let received_via_shortcut t = t.received
let received_as_view t = t.received_views
