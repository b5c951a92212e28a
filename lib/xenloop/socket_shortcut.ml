type t = {
  xl_module : Guest_module.t;
  udp : Netstack.Udp.t;
  mutable enabled : bool;
  mutable sent : int;
  mutable received : int;
}

let enable ~xl_module ~udp () =
  let t =
    {
      xl_module;
      udp;
      enabled = true;
      sent = 0;
      received = 0;
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
  t

let disable t =
  t.enabled <- false;
  Netstack.Udp.clear_tx_shortcut t.udp

let sent_via_shortcut t = t.sent
let received_via_shortcut t = t.received
