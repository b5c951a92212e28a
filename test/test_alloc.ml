(* Allocation-regression tests: the simulator hot paths must not allocate
   on the minor heap in steady state.  Each test warms the path to steady
   state (pools populated, wheel slots touched), then measures
   [Gc.minor_words] across many iterations.

   The wheel and FIFO push paths are plain mutation and must be EXACTLY
   zero.
   The engine paths carry a documented slack that is the OCaml effects
   runtime, not engine bookkeeping:

   - a sleep/wake cycle is an [Effect.perform] + [Effect.Deep.continue]
     pair, which allocates the suspended continuation (10 minor words per
     event as of OCaml 5.1);
   - every callback entry is an [Effect.Deep.match_with], which allocates
     a fresh fiber (5 minor words per event).

   If either number creeps above the bound, engine bookkeeping has started
   allocating again — the regression these tests exist to catch.  An idle
   tick of a parked poller enters no fiber and captures no continuation,
   and a sleep whose wake-up is the next event continues inline under
   [run] without performing its effect, so both must be EXACTLY zero. *)

let minor_per_iter ~iters f =
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let check_words name ~bound per =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f minor words/iter (bound %.1f)" name per bound)
    true (per <= bound)

let test_wheel_cycle_zero_alloc () =
  let module W = Sim.Wheel in
  let w = W.create ~dummy:0 in
  let seq = ref 0 in
  Array.iter
    (fun c ->
      c.W.c_time <- 1_000;
      c.W.c_seq <- !seq;
      incr seq;
      W.insert w c)
    (Array.init 64 (fun i -> W.make_cell w i));
  let per =
    minor_per_iter ~iters:50_000 (fun () ->
        let c = W.pop w in
        c.W.c_time <- c.W.c_time + 5_000;
        c.W.c_seq <- !seq;
        incr seq;
        W.insert w c)
  in
  check_words "wheel pop+insert" ~bound:0.0 per

let test_fifo_push_entry_zero_alloc () =
  (* The producer's per-frame push.  Rewinding both indices to zero after
     each push keeps the ring from filling without running a consumer. *)
  let module Page = Memory.Page in
  let module Fifo = Xenloop.Fifo in
  let k = 8 in
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  let tx = Fifo.attach ~desc ~data in
  let payload = Bytes.make 1_400 'x' in
  let cycle () =
    if Fifo.push_entry tx ~pool:None ~inline_max:max_int ~proto_hint:0 payload
       <> Fifo.pushed_inline
    then Alcotest.fail "expected an inline push";
    Fifo.force_indices ~desc 0
  in
  (* Warm one cycle so first-touch effects are outside the window. *)
  cycle ();
  let per = minor_per_iter ~iters:50_000 cycle in
  check_words "fifo push_entry" ~bound:0.0 per

(* Every pool, FIFO and grant byte moves through [Page.write] and
   [Page.read]: two [@@noalloc] memcpy stubs behind the bounds checks. *)
let test_page_copy_zero_alloc () =
  let module Page = Memory.Page in
  let page = Page.create () and buf = Bytes.create Page.size in
  let per =
    minor_per_iter ~iters:50_000 (fun () ->
        Page.write page ~off:3 ~src:buf ~src_off:5 ~len:4000;
        Page.read page ~off:7 ~dst:buf ~dst_off:1 ~len:4000)
  in
  check_words "page write+read" ~bound:0.0 per

(* The per-frame accessors: a FIFO index or descriptor field is one
   load or store behind the bounds check, and a transport checksum one
   [@@noalloc] stub call behind its own. *)
let test_page_word_and_checksum_zero_alloc () =
  let module Page = Memory.Page in
  let page = Page.create () and frame = Bytes.make 1_500 '\x5a' in
  let off = ref 0 and acc = ref 0 in
  let per =
    minor_per_iter ~iters:50_000 (fun () ->
        off := (!off + 4) land 4092;
        Page.set_u32 page !off (!acc + 1);
        acc := !acc + Page.get_u32 page !off;
        acc := !acc + Netcore.Checksum.compute frame ~off:(!off land 7) ~len:1_400)
  in
  ignore (Sys.opaque_identity !acc);
  check_words "page get_u32+set_u32, checksum" ~bound:0.0 per

(* A process blocked on a condition queues its own continuation: a
   signal/await round trip pays the effects runtime (5.5 minor words per
   event as of OCaml 5.1) and nothing for the wait itself.  A resume
   closure and a queue cell per wait, as before, cost 23 words per
   event. *)
let test_condition_wait_slack () =
  let e = Sim.Engine.create () in
  let c = Sim.Condition.create () in
  Sim.Engine.spawn e (fun () ->
      while true do
        Sim.Condition.await c
      done);
  Sim.Engine.spawn e (fun () ->
      while true do
        Sim.Condition.signal c;
        Sim.Engine.sleep (Sim.Time.us 1)
      done);
  for _ = 1 to 100 do
    ignore (Sim.Engine.step e)
  done;
  let per = minor_per_iter ~iters:50_000 (fun () -> ignore (Sim.Engine.step e)) in
  check_words "engine step, condition await/signal" ~bound:6.0 per

let test_engine_sleep_wake_slack () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 1_000_000 do
        Sim.Engine.sleep (Sim.Time.us 1)
      done);
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 1_000_000 do
        Sim.Engine.sleep (Sim.Time.us 3)
      done);
  for _ = 1 to 100 do
    ignore (Sim.Engine.step e)
  done;
  let per = minor_per_iter ~iters:50_000 (fun () -> ignore (Sim.Engine.step e)) in
  (* 10 words = the perform/continue continuation; +2 headroom for future
     compiler versions, still far below one boxed closure per event. *)
  check_words "engine step, sleep/wake pair" ~bound:12.0 per

let test_engine_timer_fire_slack () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.every e (Sim.Time.us 1) (fun () -> ()));
  for _ = 1 to 100 do
    ignore (Sim.Engine.step e)
  done;
  let per = minor_per_iter ~iters:50_000 (fun () -> ignore (Sim.Engine.step e)) in
  (* 5 words = the match_with fiber; +1 headroom. *)
  check_words "engine step, periodic timer fire" ~bound:6.0 per

let test_engine_poll_tick_zero_alloc () =
  (* An idle tick of a parked poller: a wake moves the waiter's own cell
     to the next tick, which finds nothing and sends the cell back to the
     expiry.  No fiber, no continuation, no cell from the pool: EXACTLY
     zero. *)
  let e = Sim.Engine.create () in
  let w = Sim.Engine.waiter e in
  let ticks = ref 0 in
  let idle () =
    incr ticks;
    false
  in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.park w (Sim.Time.us 1) ~max_ticks:1_000_000 idle);
  ignore (Sim.Engine.step e);
  let cycle () =
    Sim.Engine.wake w;
    ignore (Sim.Engine.step e)
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let before = !ticks in
  let per = minor_per_iter ~iters:50_000 cycle in
  Alcotest.(check int) "every step was an idle tick" 50_000 (!ticks - before);
  check_words "engine wake + idle poll tick" ~bound:0.0 per

let test_engine_wake_resume_zero_alloc () =
  (* The steady-state cycle of a lingering receiver: a wake, the woken
     tick finding work and resuming the process in that event, and the
     process parking again.  Wake and resume allocate nothing; the only
     words are the re-park's [Effect.perform], the same continuation a
     sleep/wake pair pays. *)
  let e = Sim.Engine.create () in
  let w = Sim.Engine.waiter e in
  let work = ref false in
  let ready () = !work in
  let resumes = ref 0 in
  Sim.Engine.spawn e (fun () ->
      while true do
        Sim.Engine.park w (Sim.Time.us 1) ~max_ticks:1_000_000 ready;
        work := false;
        incr resumes
      done);
  ignore (Sim.Engine.step e);
  let cycle () =
    work := true;
    Sim.Engine.wake w;
    ignore (Sim.Engine.step e)
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let before = !resumes in
  let per = minor_per_iter ~iters:50_000 cycle in
  Alcotest.(check int) "every step resumed" 50_000 (!resumes - before);
  check_words "engine wake, resume and re-park" ~bound:12.0 per

let test_engine_inline_sleep_zero_alloc () =
  (* A lone process's sleep is always the next event, so under [run] it
     continues inline: no effect, no continuation, no cell.  EXACTLY
     zero, and still one event per sleep. *)
  let e = Sim.Engine.create () in
  let span = Sim.Time.us 1 in
  let sleep () = Sim.Engine.sleep span in
  let per = ref nan in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        sleep ()
      done;
      per := minor_per_iter ~iters:50_000 sleep);
  Sim.Engine.run e;
  Alcotest.(check int) "one event per sleep, plus the spawn" 50_101
    (Sim.Engine.events_executed e);
  check_words "engine inline sleep" ~bound:0.0 !per

let test_tcp_whole_chunk_recv_zero_alloc () =
  (* Chunks queued one segment each, then read whole: each read hands the
     queued buffer over, so the read path itself allocates nothing. *)
  let module Tcp = Netstack.Tcp in
  Test_netstack.run_sim (fun engine ->
      Test_netstack.with_tcp_pair engine (fun ~client ~server ~a:_ ~b:_ ->
          Tcp.set_nodelay client true;
          let chunks = 64 and len = 1_000 in
          let write = Bytes.make len 'r' in
          for _ = 1 to chunks do
            Tcp.send client write;
            Sim.Engine.sleep (Sim.Time.ms 1)
          done;
          let read () =
            if Bytes.length (Tcp.recv server ~max:len) <> len then
              Alcotest.fail "expected a whole chunk"
          in
          read ();
          check_words "tcp whole-chunk recv" ~bound:0.0
            (minor_per_iter ~iters:(chunks - 1) read)))

(* The receive path copies a frame's payload once, into the packet: the
   bytes a parse allocates are that copy plus the parsed headers' small
   records.  Averaged over many parses of a 64 KiB TCP jumbo, anything
   beyond payload + 512 B means a second copy (or a gathered frame) has
   crept back in.  [Gc.allocated_bytes] counts direct major-heap
   allocations too, which is where a payload this size goes. *)

let jumbo_payload_len = 65_535 - 40

let jumbo_tcp_packet () =
  let header =
    {
      Netcore.Transport.tcp_src_port = 5001;
      tcp_dst_port = 80;
      seq = 1l;
      ack_seq = 1l;
      flags = { Netcore.Transport.no_flags with ack = true; psh = true };
      window = 0xffff;
    }
  in
  Netcore.Packet.tcp
    ~src_mac:(Netcore.Mac.of_domid ~machine:0 ~domid:1)
    ~dst_mac:(Netcore.Mac.of_domid ~machine:0 ~domid:2)
    ~src_ip:(Netcore.Ip.make ~subnet:1 ~host:1)
    ~dst_ip:(Netcore.Ip.make ~subnet:1 ~host:2)
    ~header
    (Bytes.make jumbo_payload_len 'j')

let jumbo_tcp_frame () = Netcore.Codec.serialize (jumbo_tcp_packet ())

(* 20 KiB slots, as a jumbo descriptor's scatter vector uses them. *)
let jumbo_pool () =
  let slots = 8 and slot_pages = 5 in
  let ctrl = Memory.Page.create () in
  let data = Array.init (slots * slot_pages) (fun _ -> Memory.Page.create ()) in
  Xenloop.Payload_pool.init ~ctrl ~data ~slots ~slot_pages ~inline_max:256 ()

(* The runtime folds minor-heap words into [Gc.allocated_bytes] only at a
   minor collection, so one is forced at each end of the window. *)
let bytes_per_iter ~iters f =
  ignore (f ());
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int iters

let check_single_copy name per =
  let bound = float_of_int (jumbo_payload_len + 512) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f B/parse (bound %.0f)" name per bound)
    true (per <= bound)

let expect_ok = function
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %a" Netcore.Codec.pp_error e

let test_parse_jumbo_single_copy () =
  let raw = jumbo_tcp_frame () in
  check_single_copy "Codec.parse 64 KiB TCP"
    (bytes_per_iter ~iters:200 (fun () -> expect_ok (Netcore.Codec.parse raw)))

let test_pool_jumbo_receive_single_copy () =
  (* The frame scatter-written across 20 KiB slots, as a jumbo descriptor
     carries it, and parsed straight out of them. *)
  let module Pool = Xenloop.Payload_pool in
  let pool = jumbo_pool () in
  let raw = jumbo_tcp_frame () in
  let len = Bytes.length raw and sb = Pool.slot_bytes pool in
  let nchunks = (len + sb - 1) / sb in
  let lens = Array.init nchunks (fun i -> min sb (len - (i * sb))) in
  Pool.write_scatter pool ~off:0 ~slots:(Array.init nchunks Fun.id) ~lens
    ~pos:0 ~src:raw ~src_off:0 ~len;
  let chunks = Array.mapi (fun i l -> (i, l)) lens in
  check_single_copy "Payload_pool.parse_scatter 64 KiB TCP"
    (bytes_per_iter ~iters:200 (fun () ->
         expect_ok (Pool.parse_scatter pool ~off:0 ~len chunks)))

(* The transmit side writes a jumbo into its slots straight from the
   packet: the scatter vector is taken from the free ring, the headers
   are serialized into a reused head buffer and written with the payload
   behind them.  A push allocates the vector and the writer's cursor; a
   frame-sized buffer (or a payload copy) would put it past 1 KiB. *)
let test_pool_jumbo_transmit_no_frame_buffer () =
  let module Pool = Xenloop.Payload_pool in
  let pool = jumbo_pool () in
  let packet = jumbo_tcp_packet () in
  let head = Bytes.create Netcore.Codec.max_header_length in
  let len = Netcore.Packet.wire_length packet and sb = Pool.slot_bytes pool in
  let nchunks = (len + sb - 1) / sb in
  let push () =
    let slots = Array.make nchunks 0 and lens = Array.make nchunks sb in
    lens.(nchunks - 1) <- len - ((nchunks - 1) * sb);
    for i = 0 to nchunks - 1 do
      slots.(i) <- Pool.alloc_slot pool
    done;
    let head_len = Netcore.Codec.serialize_head packet head in
    let tail = Netcore.Codec.tail packet in
    Pool.write_scatter pool ~off:0 ~slots ~lens ~pos:0 ~src:head ~src_off:0 ~len:head_len;
    Pool.write_scatter pool ~off:0 ~slots ~lens ~pos:head_len ~src:tail.Netcore.View.buf
      ~src_off:tail.Netcore.View.off ~len:tail.Netcore.View.len;
    Array.iter (Pool.free pool) slots;
    slots
  in
  let per = bytes_per_iter ~iters:200 push in
  Alcotest.(check bool)
    (Printf.sprintf "jumbo push from a packet: %.0f B/push (bound 1024)" per)
    true (per <= 1024.);
  (* The slots hold the frame's bytes, transport checksum elided. *)
  let slots = push () in
  let chunks = Array.mapi (fun i slot -> (slot, min sb (len - (i * sb)))) slots in
  let got = Bytes.create len in
  Pool.read_scatter pool ~off:0 chunks ~pos:0 ~len ~dst:got ~dst_off:0;
  Alcotest.(check bool) "slots hold serialize ~csum:false" true
    (Bytes.equal got (Netcore.Codec.serialize ~csum:false packet))

(* Major-heap bytes allocated per delivered byte while a stream of
   writes of [lens] bytes crosses the default (gso, loaned) XenLoop duo,
   read [read_max] bytes at a time.  The writes are allocated before the
   measurement starts; they are the application's own bytes. *)
let xenloop_stream_bytes_per_byte ~port ~lens ~read_max =
  let module Setup = Scenarios.Setup in
  let module Tcp = Netstack.Tcp in
  let duo = Setup.build Setup.Xenloop_path in
  let total = Array.fold_left ( + ) 0 lens in
  let major_bytes () =
    let _, _, major = Gc.counters () in
    major *. float_of_int (Sys.word_size / 8)
  in
  Scenarios.Experiment.execute duo (fun () ->
      let engine = duo.Setup.engine in
      let listener =
        match Tcp.listen duo.Setup.server.Scenarios.Endpoint.tcp ~port with
        | Ok l -> l
        | Error _ -> Alcotest.fail "listen"
      in
      let received = ref 0 in
      Sim.Engine.spawn engine (fun () ->
          let conn = Tcp.accept listener in
          while !received < total do
            let got = Tcp.recv conn ~max:read_max in
            if Bytes.length got = 0 then Alcotest.fail "stream ended early";
            received := !received + Bytes.length got
          done);
      let conn =
        match
          Tcp.connect duo.Setup.client.Scenarios.Endpoint.tcp ~dst:duo.Setup.server_ip
            ~dst_port:port ()
        with
        | Ok c -> c
        | Error _ -> Alcotest.fail "connect"
      in
      let data = Array.mapi (fun i len -> Bytes.make len (Char.chr (65 + (i mod 26)))) lens in
      let before = major_bytes () in
      Array.iter (Tcp.send conn) data;
      while !received < total do
        Sim.Engine.sleep (Sim.Time.ms 1)
      done;
      (major_bytes () -. before) /. float_of_int total)

(* The bulk data path allocates one host copy per byte: the receive
   buffer a frame's payload is parsed into out of the pool.  The sender
   cuts segments as views of the application's write and the
   retransmission queue keeps the views, so a second, per-segment copy
   would show as about 2 allocated bytes per delivered byte.  Each write
   here is one jumbo segment (65495 B, the most an IPv4 length admits)
   and each read takes one, so no write leaves a corked tail and every
   read hands the received buffer over. *)
let test_xenloop_stream_jumbo_aligned_one_copy () =
  let per_byte =
    xenloop_stream_bytes_per_byte ~port:7100 ~lens:(Array.make 64 65_495) ~read_max:65_495
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "jumbo-aligned xenloop stream: %.2f major-heap bytes per delivered byte (bound 1.1)"
       per_byte)
    true (per_byte <= 1.1)

(* Writes of log-uniform size over 1 KiB .. 256 KiB, read 64 KiB at a
   time, as the bulk benchmark does.  Most writes end in a runt that the
   gso channel corks and tops up from the next write; the flush sends the
   two as one segment whose payload gathers views of both writes, so the
   stream still pays only the receive copy (about 1.02 bytes per
   delivered byte; a read that spans two chunks gathers them into a fresh
   buffer).  Copying the cork into a buffer of its own and out again, as
   [Tcp.send] once did, read 1.41. *)
let test_xenloop_stream_unaligned_one_copy () =
  let st = Random.State.make [| 23 |] in
  let log_uniform () =
    let lo = log 1024. and hi = log 262_144. in
    int_of_float (exp (lo +. Random.State.float st (hi -. lo)))
  in
  let rec draw acc sum =
    if sum >= 4 * 1024 * 1024 then Array.of_list (List.rev acc)
    else
      let n = log_uniform () in
      draw (n :: acc) (sum + n)
  in
  let per_byte =
    xenloop_stream_bytes_per_byte ~port:7101 ~lens:(draw [] 0) ~read_max:65_536
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "unaligned xenloop stream: %.2f major-heap bytes per delivered byte (bound 1.1)"
       per_byte)
    true (per_byte <= 1.1)

(* Host words allocated per granted page while a duo brings up its
   XenLoop channel: the listener allocates, formats and grants every FIFO
   and payload-pool page, and the connector maps each one.  The warmup
   around it (ARP, discovery, the handshake, the first pings) costs the
   same whatever the pool's size, so two bring-ups whose pools differ
   only in pages per slot isolate the cost of one more granted page.
   That page costs its own [Page.t], a boxed map result and a cell in
   each page and gref array that holds it; per-page list cells, option
   boxes or hash buckets would show here: hashed frame and grant
   bookkeeping with lists of [(gref, page)] pairs read 63.4 words per
   page, the lease-and-ring bookkeeping 26.8. *)
let bringup_words ~slot_pages =
  let module Setup = Scenarios.Setup in
  let params = { Hypervisor.Params.default with xenloop_pool_slot_pages = slot_pages } in
  let duo = Setup.build ~params Setup.Xenloop_path in
  let machine = Option.get duo.Setup.machine in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  Scenarios.Experiment.execute duo (fun () -> ());
  Gc.minor ();
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let granted =
    List.fold_left
      (fun acc d ->
        match Hypervisor.Machine.grant_table machine (Hypervisor.Domain.domid d) with
        | Some gt -> acc + Memory.Grant_table.active_grants gt
        | None -> acc)
      0 (Hypervisor.Machine.guests machine)
  in
  (words, granted)

let test_channel_bringup_words_per_page () =
  let w5, g5 = bringup_words ~slot_pages:5 and w10, g10 = bringup_words ~slot_pages:10 in
  Alcotest.(check bool) "the larger pool grants more pages" true (g10 > g5 && g5 > 2_000);
  let per = (w10 -. w5) /. float_of_int (g10 - g5) in
  Alcotest.(check bool)
    (Printf.sprintf "channel bring-up: %.1f words per granted page (bound %.0f)" per 32.)
    true (per <= 32.)

let suites =
  [
    ( "sim.alloc",
      [
        Alcotest.test_case "wheel cycle allocates nothing" `Quick test_wheel_cycle_zero_alloc;
        Alcotest.test_case "fifo push_entry allocates nothing" `Quick
          test_fifo_push_entry_zero_alloc;
        Alcotest.test_case "page write and read allocate nothing" `Quick
          test_page_copy_zero_alloc;
        Alcotest.test_case "page words and checksum allocate nothing" `Quick
          test_page_word_and_checksum_zero_alloc;
        Alcotest.test_case "condition wait within effect slack" `Quick
          test_condition_wait_slack;
        Alcotest.test_case "engine sleep/wake within effect slack" `Quick
          test_engine_sleep_wake_slack;
        Alcotest.test_case "engine timer fire within fiber slack" `Quick
          test_engine_timer_fire_slack;
        Alcotest.test_case "engine idle poll tick allocates nothing" `Quick
          test_engine_poll_tick_zero_alloc;
        Alcotest.test_case "engine wake/resume within effect slack" `Quick
          test_engine_wake_resume_zero_alloc;
        Alcotest.test_case "engine inline sleep allocates nothing" `Quick
          test_engine_inline_sleep_zero_alloc;
        Alcotest.test_case "tcp whole-chunk recv allocates nothing" `Quick
          test_tcp_whole_chunk_recv_zero_alloc;
        Alcotest.test_case "parse of a TCP jumbo copies the payload once" `Quick
          test_parse_jumbo_single_copy;
        Alcotest.test_case "pool jumbo receive copies the payload once" `Quick
          test_pool_jumbo_receive_single_copy;
        Alcotest.test_case "pool jumbo transmit builds no frame buffer" `Quick
          test_pool_jumbo_transmit_no_frame_buffer;
        Alcotest.test_case "xenloop tcp stream of jumbo-aligned writes copies each byte once"
          `Quick test_xenloop_stream_jumbo_aligned_one_copy;
        Alcotest.test_case "xenloop tcp stream of unaligned writes copies each byte once"
          `Quick test_xenloop_stream_unaligned_one_copy;
        Alcotest.test_case "channel bring-up words per granted page" `Quick
          test_channel_bringup_words_per_page;
      ] );
  ]
