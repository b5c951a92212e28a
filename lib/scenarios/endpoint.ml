type t = {
  ep_name : string;
  cpu : Sim.Resource.t;
  stack : Netstack.Stack.t;
  udp : Netstack.Udp.t;
  tcp : Netstack.Tcp.t;
}

let make ~engine ~params ~cpu ~name ~ip ~mac =
  let stack = Netstack.Stack.create ~engine ~params ~cpu ~ip ~mac () in
  let udp = Netstack.Udp.attach stack in
  let tcp = Netstack.Tcp.attach stack in
  { ep_name = name; cpu; stack; udp; tcp }

let ip t = Netstack.Stack.ip_addr t.stack
