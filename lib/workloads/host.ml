type t = {
  stack : Netstack.Stack.t;
  udp : Netstack.Udp.t;
  tcp : Netstack.Tcp.t;
}

let engine t = Netstack.Stack.engine t.stack
