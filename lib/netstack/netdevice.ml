type direction = Tx | Rx

type t = {
  dev_name : string;
  dev_mtu : int;
  dev_gso : int option;
  dev_mac : Netcore.Mac.t;
  mutable xmit : (Netcore.Packet.t -> unit) option;
  mutable deliver : (Netcore.Packet.t -> unit) option;
  mutable taps : (direction -> Netcore.Packet.t -> unit) list;
  mutable tx_count : int;
}

let create ~name ~mtu ?gso_size ~mac () =
  {
    dev_name = name;
    dev_mtu = mtu;
    dev_gso = gso_size;
    dev_mac = mac;
    xmit = None;
    deliver = None;
    taps = [];
    tx_count = 0;
  }

let name t = t.dev_name
let mtu t = t.dev_mtu
let gso_size t = t.dev_gso
let mac t = t.dev_mac

let set_transmit t f = t.xmit <- Some f

let add_tap t f = t.taps <- t.taps @ [ f ]

let run_taps t direction packet =
  List.iter (fun f -> f direction packet) t.taps

let transmit t packet =
  match t.xmit with
  | None -> ()
  | Some f ->
      t.tx_count <- t.tx_count + 1;
      run_taps t Tx packet;
      f packet

let set_receive_handler t f = t.deliver <- Some f

let receive t packet =
  match t.deliver with
  | None -> ()
  | Some f ->
      run_taps t Rx packet;
      f packet

let tx_packets t = t.tx_count
