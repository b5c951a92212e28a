(* The benchmark's own applications: an open-loop UDP rpc generator with
   its servers, and a TCP bulk writer (closed loop or paced) with a
   receiver that checks every record it reads.  They use only socket
   calls; what they learn about the system is when each operation
   finished and whether its bytes were right. *)

module Udp = Netstack.Udp
module Tcp = Netstack.Tcp
module Endpoint = Scenarios.Endpoint

let rpc_port = 7000
let bulk_port = 8000

(* A request not answered within this much simulated time has failed. *)
let timeout_ns = 10_000_000

(* The byte every payload is filled with; checked at the receiver. *)
let fill i = Char.unsafe_chr (((i * 31) + 7) land 0xff)

let sleep_until engine t =
  let wait = t - World.now_ns engine in
  if wait > 0 then Sim.Engine.sleep (Sim.Time.ns wait)

let ok = function Ok v -> v | Error _ -> failwith "benchmark: socket bind failed"

(* --- rpc --- *)

type rpc = {
  plan : Inputs.rpc;
  expect_len : int array;  (** the receiver's check record *)
  t0 : int;  (** absolute ns at which the schedule starts *)
  call : int array;  (** generator called sendto (absolute ns) *)
  sent : int array;  (** sendto returned; traced runs only *)
  srv_rx : int array;  (** server received the request; traced only *)
  srv_tx : int array;  (** server's sendto returned; traced only *)
  answer : int array;  (** first response received; -1 = none *)
  bad : Bytes.t;  (** '\001' = duplicate, short, or corrupt response *)
  mutable resolved : int;
  mutable strays : int;  (** datagrams that name no request *)
  mutable sockets : Udp.socket list;
}

let start_rpc (w : World.t) (plan : Inputs.rpc) ~traced ~corrupt =
  let n = Array.length plan.Inputs.due in
  let engine = w.World.engine in
  let stamps () = Array.make (if traced then n else 0) (-1) in
  let expect_len = Array.copy plan.Inputs.len in
  if corrupt && n > 0 then expect_len.(0) <- expect_len.(0) + 1;
  let r =
    {
      plan;
      expect_len;
      t0 = World.now_ns engine;
      call = Array.make n (-1);
      sent = stamps ();
      srv_rx = stamps ();
      srv_tx = stamps ();
      answer = Array.make n (-1);
      bad = Bytes.make n '\000';
      resolved = 0;
      strays = 0;
      sockets = [];
    }
  in
  let guests = w.World.guests in
  let uses side g = Array.exists (( = ) g) side in
  Array.iteri
    (fun g (ep : Endpoint.t) ->
      if uses plan.Inputs.dst g then begin
        let sock = ok (Udp.bind ep.Endpoint.udp ~port:rpc_port ()) in
        r.sockets <- sock :: r.sockets;
        Sim.Engine.spawn engine (fun () ->
            while true do
              let src, sport, req = Udp.recvfrom sock in
              let id = Int32.to_int (Bytes.get_int32_le req 0) in
              if Bytes.length req <> Inputs.request_len || id < 0 || id >= n then
                r.strays <- r.strays + 1
              else begin
                if traced then r.srv_rx.(id) <- World.now_ns engine;
                let len = Int32.to_int (Bytes.get_int32_le req 4) in
                let resp = Bytes.make len (fill id) in
                Bytes.set_int32_le resp 0 (Int32.of_int id);
                Udp.sendto sock ~dst:src ~dst_port:sport resp;
                if traced then r.srv_tx.(id) <- World.now_ns engine
              end
            done)
      end;
      if uses plan.Inputs.src g then begin
        let sock = ok (Udp.bind ep.Endpoint.udp ()) in
        r.sockets <- sock :: r.sockets;
        Sim.Engine.spawn engine (fun () ->
            while true do
              let _, _, resp = Udp.recvfrom sock in
              let len = Bytes.length resp in
              let id = if len >= 4 then Int32.to_int (Bytes.get_int32_le resp 0) else -1 in
              if id < 0 || id >= n || r.call.(id) < 0 then r.strays <- r.strays + 1
              else begin
                let good =
                  r.answer.(id) < 0 && Bytes.get r.bad id = '\000'
                  && len = r.expect_len.(id)
                  && Bytes.get resp (len - 1) = fill id
                in
                if r.answer.(id) < 0 && Bytes.get r.bad id = '\000' then
                  r.resolved <- r.resolved + 1;
                if good then r.answer.(id) <- World.now_ns engine
                else Bytes.set r.bad id '\001'
              end
            done);
        (* The generator: this guest's requests, each sent when due. *)
        let mine = List.filter (fun i -> plan.Inputs.src.(i) = g) (List.init n Fun.id) in
        Sim.Engine.spawn engine (fun () ->
            List.iter
              (fun i ->
                sleep_until engine (r.t0 + plan.Inputs.due.(i));
                r.call.(i) <- World.now_ns engine;
                let req = Bytes.make Inputs.request_len 'q' in
                Bytes.set_int32_le req 0 (Int32.of_int i);
                Bytes.set_int32_le req 4 (Int32.of_int plan.Inputs.len.(i));
                Udp.sendto sock
                  ~dst:(Endpoint.ip guests.(plan.Inputs.dst.(i)))
                  ~dst_port:rpc_port req;
                if traced then r.sent.(i) <- World.now_ns engine)
              mine)
      end)
    guests;
  r

let rpc_count r = Array.length r.plan.Inputs.due
let last_due r = if rpc_count r = 0 then r.t0 else r.t0 + r.plan.Inputs.due.(rpc_count r - 1)
let rpc_finished r now = r.resolved = rpc_count r || now >= last_due r + timeout_ns

let rpc_ok r i =
  r.answer.(i) >= 0
  && Bytes.get r.bad i = '\000'
  && r.answer.(i) - (r.t0 + r.plan.Inputs.due.(i)) <= timeout_ns

(* Latency from the due time, so generator lag counts; a failed request
   reads as the timeout. *)
let rpc_latency_us r =
  Array.init (rpc_count r) (fun i ->
      float_of_int
        (if rpc_ok r i then r.answer.(i) - (r.t0 + r.plan.Inputs.due.(i)) else timeout_ns)
      /. 1e3)

let rpc_failed r =
  let f = ref 0 in
  for i = 0 to rpc_count r - 1 do
    if not (rpc_ok r i) then incr f
  done;
  !f + r.strays

let rpc_bytes r =
  let b = ref 0 in
  for i = 0 to rpc_count r - 1 do
    if rpc_ok r i then b := !b + Inputs.request_len + r.plan.Inputs.len.(i)
  done;
  !b

let rpc_lag_us r =
  Array.init (rpc_count r) (fun i ->
      float_of_int (max 0 (r.call.(i) - (r.t0 + r.plan.Inputs.due.(i)))) /. 1e3)

(* Requests due but not yet answered when the last one fell due: a
   backlog that grows with the run means the rate is above capacity. *)
let rpc_backlog r =
  let at = last_due r in
  let b = ref 0 in
  Array.iter (fun t -> if t < 0 || t > at then incr b) r.answer;
  !b

let rpc_drops r = List.fold_left (fun acc s -> acc + Udp.drops s) 0 r.sockets

let rpc_ops r =
  {
    Spans.op = "rpc";
    hops = [| "client.sendto"; "to_server"; "server.turn"; "to_client" |];
    stamps =
      [|
        Array.mapi (fun i d -> if r.call.(i) < 0 then -1 else r.t0 + d) r.plan.Inputs.due;
        r.sent;
        r.srv_rx;
        r.srv_tx;
        r.answer;
      |];
  }

(* --- bulk ---

   The stream is a sequence of records, one per write: a header
   {u32 index, u32 length}, then the fill byte of that index.  The
   receiver parses the headers in order and checks the fill bytes at
   both ends of every piece it reads, so a record that arrives out of
   order, short, or corrupted is caught. *)

type bulk = {
  wplan : Inputs.bulk;
  expect_wlen : int array;
  bt0 : int;
  total : int;
  issue : int array;  (** when the write was due (paced) or issued *)
  ret : int array;  (** Tcp.send returned; traced only *)
  wdone : int array;  (** record fully received; -1 = never *)
  wlag : int array;  (** paced only: how late the writer was *)
  hdr : Bytes.t;
  mutable received : int;
  mutable next : int;
  mutable pos : int;
  mutable cur_len : int;
  mutable broken : bool;
}

let consume b now chunk =
  let n = Bytes.length chunk in
  b.received <- b.received + n;
  let i = ref 0 in
  while !i < n && not b.broken do
    if b.pos < 8 then begin
      Bytes.set b.hdr b.pos (Bytes.get chunk !i);
      incr i;
      b.pos <- b.pos + 1;
      if b.pos = 8 then begin
        let idx = Int32.to_int (Bytes.get_int32_le b.hdr 0) in
        let len = Int32.to_int (Bytes.get_int32_le b.hdr 4) in
        if idx <> b.next || idx >= Array.length b.expect_wlen || len <> b.expect_wlen.(idx)
        then b.broken <- true
        else b.cur_len <- len
      end
    end
    else begin
      let take = min (n - !i) (b.cur_len - b.pos) in
      let f = fill b.next in
      if Bytes.get chunk !i <> f || Bytes.get chunk (!i + take - 1) <> f then
        b.broken <- true;
      i := !i + take;
      b.pos <- b.pos + take;
      if b.pos = b.cur_len then begin
        b.wdone.(b.next) <- now;
        b.next <- b.next + 1;
        b.pos <- 0
      end
    end
  done

let start_bulk (w : World.t) (plan : Inputs.bulk) ~traced ~corrupt =
  let n = Array.length plan.Inputs.wlen in
  let engine = w.World.engine in
  let client = w.World.guests.(0) and server = w.World.guests.(1) in
  let expect_wlen = Array.copy plan.Inputs.wlen in
  if corrupt && n > 0 then expect_wlen.(0) <- expect_wlen.(0) + 1;
  let b =
    {
      wplan = plan;
      expect_wlen;
      bt0 = World.now_ns engine;
      total = Array.fold_left ( + ) 0 plan.Inputs.wlen;
      issue = Array.make n (-1);
      ret = Array.make (if traced then n else 0) (-1);
      wdone = Array.make n (-1);
      wlag = Array.make n 0;
      hdr = Bytes.create 8;
      received = 0;
      next = 0;
      pos = 0;
      cur_len = 0;
      broken = false;
    }
  in
  if n > 0 then begin
    let listener =
      match Tcp.listen server.Endpoint.tcp ~port:bulk_port with
      | Ok l -> l
      | Error _ -> failwith "benchmark: listen failed"
    in
    Sim.Engine.spawn engine (fun () ->
        let conn = Tcp.accept listener in
        let rec loop () =
          if b.received < b.total then begin
            let chunk = Tcp.recv conn ~max:65536 in
            if Bytes.length chunk = 0 then b.broken <- true
            else begin
              consume b (World.now_ns engine) chunk;
              loop ()
            end
          end
        in
        loop ());
    Sim.Engine.spawn engine (fun () ->
        let conn =
          match Tcp.connect client.Endpoint.tcp ~dst:(Endpoint.ip server) ~dst_port:bulk_port () with
          | Ok c -> c
          | Error _ -> failwith "benchmark: connect failed"
        in
        Array.iteri
          (fun i len ->
            (match plan.Inputs.wdue with
            | Some due ->
                let t = b.bt0 + due.(i) in
                sleep_until engine t;
                b.issue.(i) <- t;
                b.wlag.(i) <- World.now_ns engine - t
            | None -> b.issue.(i) <- World.now_ns engine);
            let record = Bytes.make len (fill i) in
            Bytes.set_int32_le record 0 (Int32.of_int i);
            Bytes.set_int32_le record 4 (Int32.of_int len);
            Tcp.send conn record;
            if traced then b.ret.(i) <- World.now_ns engine)
          plan.Inputs.wlen;
        (* A finished transfer closes, which flushes a corked tail: left
           open, the last write's sub-MSS tail on a gso channel waits
           for the 200 ms retransmission timer. *)
        Tcp.close conn)
  end;
  b

let bulk_count b = Array.length b.wplan.Inputs.wlen
let bulk_finished b = b.received >= b.total

(* The latest instant the bulk phase may still be running: paced writes
   get two seconds past their schedule, a closed loop must sustain at
   least 50 Mbit/s. *)
let bulk_deadline b =
  match b.wplan.Inputs.wdue with
  | Some due when Array.length due > 0 -> b.bt0 + due.(Array.length due - 1) + 2_000_000_000
  | _ -> b.bt0 + 1_000_000_000 + int_of_float (float_of_int b.total *. 8.0 /. 50e6 *. 1e9)

let bulk_failed b = Array.fold_left (fun acc t -> if t < 0 then acc + 1 else acc) 0 b.wdone

let bulk_bytes b =
  let s = ref 0 in
  Array.iteri (fun i t -> if t >= 0 then s := !s + b.wplan.Inputs.wlen.(i)) b.wdone;
  !s

let bulk_latency_us b =
  Array.mapi
    (fun i t ->
      float_of_int (if t < 0 then timeout_ns else t - b.issue.(i)) /. 1e3)
    b.wdone

let bulk_ops b =
  {
    Spans.op = "write";
    hops = [| "client.send"; "deliver" |];
    stamps = [| b.issue; b.ret; b.wdone |];
  }
