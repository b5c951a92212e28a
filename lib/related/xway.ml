module Tcp = Netstack.Tcp
module Domain = Hypervisor.Domain

type conn =
  | Shm of { rx : Xensocket.reader; tx : Xensocket.writer }
  | Plain of Tcp.conn

type listener = {
  l_t : t;
  l_port : int;
  tcp_listener : Tcp.listener;
  shm_queue : conn Sim.Mailbox.t;
}

and t = {
  machine : Hypervisor.Machine.t;
  domain : Domain.t;
  tcp : Tcp.t;
  peers : (Netcore.Ip.t, t) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
}

let attach ~machine ~domain ~tcp =
  { machine; domain; tcp; peers = Hashtbl.create 4; listeners = Hashtbl.create 4 }

let register_peer t ~peer_ip peer =
  if not (t.machine == peer.machine) then
    invalid_arg "Xway.register_peer: peers must be co-resident";
  Hashtbl.replace t.peers peer_ip peer

let listen t ~port =
  match Tcp.listen t.tcp ~port with
  | Error e -> Error e
  | Ok tcp_listener ->
      let listener = { l_t = t; l_port = port; tcp_listener; shm_queue = Sim.Mailbox.create () } in
      Hashtbl.replace t.listeners port listener;
      Ok listener

let accept listener =
  (* Whichever path delivers first: shared-memory handshakes arrive through
     the mailbox, TCP connections through the regular accept queue. *)
  let rec wait () =
    match Sim.Mailbox.recv_opt listener.shm_queue with
    | Some conn -> conn
    | None -> (
        match Tcp.accept_opt listener.tcp_listener with
        | Some tcp_conn -> Plain tcp_conn
        | None ->
            Sim.Engine.sleep (Sim.Time.us 100);
            wait ())
  in
  wait ()

(* Build the duplex pipe pair: one one-way pipe per direction, each owned
   by its receiver (so teardown responsibility is symmetric). *)
let establish_shm ~client ~server =
  let client_rx, handle_cs =
    Xensocket.create_pipe ~machine:client.machine ~owner:client.domain
      ~writer_domid:(Domain.domid server.domain) ()
  in
  let server_rx, handle_sc =
    Xensocket.create_pipe ~machine:server.machine ~owner:server.domain
      ~writer_domid:(Domain.domid client.domain) ()
  in
  match
    ( Xensocket.connect ~machine:client.machine ~domain:client.domain
        ~reader_domid:(Domain.domid server.domain) handle_sc,
      Xensocket.connect ~machine:server.machine ~domain:server.domain
        ~reader_domid:(Domain.domid client.domain) handle_cs )
  with
  | Ok client_tx, Ok server_tx ->
      Some
        ( Shm { rx = client_rx; tx = client_tx },
          Shm { rx = server_rx; tx = server_tx } )
  | _ -> None

let connect t ~dst ~dst_port =
  let shm =
    match Hashtbl.find_opt t.peers dst with
    | None -> None
    | Some peer -> (
        match Hashtbl.find_opt peer.listeners dst_port with
        | None -> None
        | Some listener -> (
            match establish_shm ~client:t ~server:peer with
            | None -> None
            | Some (client_conn, server_conn) ->
                Sim.Mailbox.send listener.shm_queue server_conn;
                Some client_conn))
  in
  match shm with
  | Some conn -> Ok conn
  | None -> (
      (* Not co-resident (or not configured): ordinary TCP. *)
      match Tcp.connect t.tcp ~dst ~dst_port () with
      | Ok c -> Ok (Plain c)
      | Error e -> Error e)

let send conn data =
  match conn with
  | Shm { tx; _ } -> Xensocket.send tx data
  | Plain c -> Tcp.send c data

let recv conn ~max =
  match conn with
  | Shm { rx; _ } -> Xensocket.recv rx ~max
  | Plain c -> Tcp.recv c ~max

let is_shared_memory = function Shm _ -> true | Plain _ -> false
