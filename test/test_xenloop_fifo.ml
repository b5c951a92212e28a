(* Tests for the XenLoop lockless FIFO, the control protocol codec, and the
   mapping table. *)

module Fifo = Xenloop.Fifo
module Proto = Xenloop.Proto
module Mapping = Xenloop.Mapping_table
module Page = Memory.Page
module Mac = Netcore.Mac

let make_fifo ?(k = 6) () =
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  (desc, data, Fifo.attach ~desc ~data)

(* ------------------------------------------------------------------ *)
(* FIFO basics *)

let test_fifo_geometry () =
  let _, _, f = make_fifo ~k:6 () in
  Alcotest.(check int) "slots" 64 (Fifo.slots f);
  Alcotest.(check int) "max packet" (63 * 8) (Fifo.max_packet f);
  Alcotest.(check int) "free" 64 (Fifo.free_slots f);
  Alcotest.(check bool) "empty" true (Fifo.is_empty f);
  Alcotest.(check bool) "active" true (Fifo.is_active f);
  Alcotest.(check int) "default k is 64KiB" 8192 (1 lsl Fifo.default_k)

let test_fifo_push_pop_roundtrip () =
  let _, _, f = make_fifo () in
  let payload = Bytes.of_string "hello xenloop fifo" in
  Alcotest.(check bool) "pushed" true (Fifo.try_push f payload);
  Alcotest.(check bool) "not empty" false (Fifo.is_empty f);
  (match Fifo.pop f with
  | Some got -> Alcotest.(check bytes) "identical" payload got
  | None -> Alcotest.fail "pop returned nothing");
  Alcotest.(check bool) "empty again" true (Fifo.is_empty f);
  Alcotest.(check (option reject)) "pop on empty" None
    (Option.map ignore (Fifo.pop f))

let test_fifo_rejects_oversize () =
  let _, _, f = make_fifo ~k:6 () in
  Alcotest.(check bool) "max fits" true
    (Fifo.try_push f (Bytes.make (Fifo.max_packet f) 'x'));
  ignore (Fifo.pop f);
  Alcotest.(check bool) "over max rejected" false
    (Fifo.try_push f (Bytes.make (Fifo.max_packet f + 1) 'x'));
  Alcotest.(check bool) "empty payload rejected" false (Fifo.try_push f Bytes.empty)

let test_fifo_fills_and_frees () =
  let _, _, f = make_fifo ~k:6 () in
  (* Each 24-byte payload consumes 1 + 3 = 4 slots; 16 of them fill 64. *)
  let payload = Bytes.make 24 'f' in
  for i = 1 to 16 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Fifo.try_push f payload)
  done;
  Alcotest.(check int) "full" 0 (Fifo.free_slots f);
  Alcotest.(check bool) "17th rejected" false (Fifo.try_push f payload);
  (match Fifo.pop f with Some _ -> () | None -> Alcotest.fail "pop failed");
  Alcotest.(check int) "freed 4 slots" 4 (Fifo.free_slots f);
  Alcotest.(check bool) "push fits again" true (Fifo.try_push f payload)

let test_fifo_inactive_flag_shared () =
  let desc, data, f = make_fifo () in
  (* A second view over the same pages — like the peer's mapping. *)
  let peer_view = Fifo.attach ~desc ~data in
  Fifo.mark_inactive f;
  Alcotest.(check bool) "peer sees inactive" false (Fifo.is_active peer_view)

let test_fifo_data_visible_through_second_view () =
  let desc, data, f = make_fifo () in
  let peer_view = Fifo.attach ~desc ~data in
  Alcotest.(check bool) "push via producer view" true
    (Fifo.try_push f (Bytes.of_string "shared-memory"));
  match Fifo.pop peer_view with
  | Some got -> Alcotest.(check string) "consumer view reads it" "shared-memory"
      (Bytes.to_string got)
  | None -> Alcotest.fail "peer view saw nothing"

let test_fifo_wraparound_32bit_indices () =
  (* Force the free-running indices near 2^32: pushes and pops must keep
     working across the wrap (paper: m = 32, no boundary special case). *)
  let desc, _data, f = make_fifo ~k:6 () in
  Fifo.force_indices ~desc (0xFFFFFFFF - 7);
  let payload = Bytes.make 50 'w' in
  for round = 1 to 8 do
    Alcotest.(check bool) (Printf.sprintf "push round %d" round) true
      (Fifo.try_push f payload);
    match Fifo.pop f with
    | Some got ->
        Alcotest.(check bytes) (Printf.sprintf "pop round %d" round) payload got
    | None -> Alcotest.fail "pop failed across wrap"
  done;
  (* Indices really did wrap past zero. *)
  Alcotest.(check bool) "front wrapped" true (Fifo.front f < 100)

let test_fifo_init_validation () =
  let desc = Page.create () in
  let wrong = [| Page.create () |] in
  (* k = 10 needs two data pages; one is a mismatch. *)
  Alcotest.check_raises "wrong page count"
    (Invalid_argument "Fifo.init: wrong number of data pages") (fun () ->
      Fifo.init ~desc ~data:wrong ~k:10);
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Fifo.init: k out of range") (fun () ->
      Fifo.init ~desc ~data:wrong ~k:50)

let test_fifo_grefs_roundtrip () =
  let desc = Page.create () in
  let k = 6 in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  let grefs = [| 17 |] in
  Fifo.write_grefs ~desc grefs;
  Alcotest.(check (array int)) "grefs" grefs (Fifo.read_grefs ~desc)

let prop_fifo_order_and_content =
  QCheck.Test.make ~name:"fifo preserves order and content under random ops"
    ~count:100
    QCheck.(list (pair bool (string_of_size QCheck.Gen.(1 -- 300))))
    (fun ops ->
      let _, _, f = make_fifo ~k:8 () in
      let model = Queue.create () in
      List.for_all
        (fun (is_push, payload) ->
          if is_push then begin
            let b = Bytes.of_string payload in
            let pushed = Fifo.try_push f b in
            if pushed then Queue.push b model;
            true
          end
          else
            match (Fifo.pop f, Queue.take_opt model) with
            | None, None -> true
            | Some got, Some expected -> Bytes.equal got expected
            | Some _, None | None, Some _ -> false)
        ops
      && Fifo.used_slots f
         = Queue.fold (fun acc b -> acc + 1 + ((Bytes.length b + 7) / 8)) 0 model)

let prop_fifo_wrap_stream =
  QCheck.Test.make ~name:"fifo streams correctly across the 2^32 wrap" ~count:30
    QCheck.(list_of_size QCheck.Gen.(10 -- 40) (string_of_size QCheck.Gen.(1 -- 100)))
    (fun payloads ->
      let desc = Page.create () in
      let k = 7 in
      let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
      Fifo.init ~desc ~data ~k;
      Fifo.force_indices ~desc (0xFFFFFFFF - 63);
      let f = Fifo.attach ~desc ~data in
      List.for_all
        (fun payload ->
          let b = Bytes.of_string payload in
          Fifo.try_push f b
          && match Fifo.pop f with Some got -> Bytes.equal got b | None -> false)
        payloads)

(* ------------------------------------------------------------------ *)
(* Control protocol *)

let entry ?(queues = 4) ?(rung = Hypervisor.Params.Gso) domid =
  {
    Proto.entry_domid = domid;
    entry_mac = Mac.of_domid ~machine:0 ~domid;
    entry_ip = Netcore.Ip.make ~subnet:2 ~host:domid;
    entry_queues = queues;
    entry_rung = rung;
  }

let pooled_queue i =
  {
    Proto.qg_lc_gref = 100 + i;
    qg_cl_gref = 200 + i;
    qg_port = 3 + i;
    qg_lc_pool = Some (300 + i);
    qg_cl_pool = Some (400 + i);
  }

let sample_messages =
  [
    Proto.Delta_announce
      { da_base = 5; da_epoch = 5; da_full = false; da_joins = []; da_leaves = [] };
    Proto.Delta_announce
      {
        da_base = 0;
        da_epoch = 9;
        da_full = true;
        da_joins = [ entry ~queues:1 ~rung:Paper 1; entry 2 ];
        da_leaves = [];
      };
    Proto.Delta_announce
      {
        da_base = 3;
        da_epoch = 4;
        da_full = false;
        da_joins = [ entry ~rung:Loans 6 ];
        da_leaves = [ 2; 7 ];
      };
    Proto.Request_channel { requester_domid = 7; max_queues = 1; rung = Paper };
    Proto.Request_channel { requester_domid = 7; max_queues = 8; rung = Gso };
    Proto.Create_channel
      {
        listener_domid = 1;
        queues = [ { (pooled_queue 0) with qg_lc_pool = None; qg_cl_pool = None } ];
      };
    Proto.Create_channel { listener_domid = 1; queues = [ pooled_queue 0; pooled_queue 1 ] };
    Proto.Channel_ack { connector_domid = 9 };
    Proto.App_payload
      {
        src_ip = Netcore.Ip.make ~subnet:2 ~host:1;
        src_port = 4000;
        dst_port = 53;
        payload = Bytes.of_string "raw shortcut payload";
      };
    Proto.App_payload
      {
        src_ip = Netcore.Ip.make ~subnet:2 ~host:1;
        src_port = 1;
        dst_port = 2;
        payload = Bytes.empty;
      };
  ]

let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      match Proto.decode (Proto.encode msg) with
      | Ok got ->
          Alcotest.(check bool)
            (Format.asprintf "%a" Proto.pp msg)
            true (Proto.equal msg got)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_messages

let of_hex h =
  Bytes.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_proto_rejects_garbage () =
  (match Proto.decode (Bytes.of_string "\xFFgarbage") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage tag");
  (match Proto.decode (of_hex "0b0001") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded truncated message");
  (* Every tag a message layout no longer uses is an error, however much
     input follows it. *)
  List.iter
    (fun tag ->
      let msg = Bytes.make 64 '\001' in
      Bytes.set msg 0 (Char.chr tag);
      match Proto.decode msg with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "retired tag %d decoded as %a" tag Proto.pp m)
    [ 1; 2; 3; 6; 7; 8; 9; 10; 12; 13; 14; 15 ];
  (* Capability bytes that are not monotone read as the highest rung
     every byte up to it agrees with. *)
  List.iter
    (fun (caps, rung) ->
      match Proto.decode (of_hex ("1100070004" ^ caps)) with
      | Ok (Proto.Request_channel r) ->
          Alcotest.(check string) ("capabilities " ^ caps)
            (Hypervisor.Params.rung_name rung)
            (Hypervisor.Params.rung_name r.rung)
      | Ok _ | Error _ -> Alcotest.failf "capabilities %s did not decode" caps)
    Hypervisor.Params.
      [ ("000101", Paper); ("010001", Zerocopy); ("000001", Paper); ("010100", Loans) ]

(* The default configuration's control bytes, pinned: what the module and
   Dom0 emit at rung [Gso] with four queues.  The empty heartbeat changed
   tag when the delta announcement lost its second layout (14 -> 16, same
   length); every other message is byte-for-byte what it was when
   several layouts per message existed. *)
let test_proto_default_wire_bytes () =
  let check name hex msg =
    Alcotest.(check string) name hex
      (String.concat ""
         (List.map
            (fun c -> Printf.sprintf "%02x" (Char.code c))
            (List.of_seq (Bytes.to_seq (Proto.encode msg)))))
  in
  check "request_channel" "1100070004010101"
    (Proto.Request_channel { requester_domid = 7; max_queues = 4; rung = Gso });
  check "4-queue pooled create_channel"
    ("0b00010004"
    ^ "00000064000000c80003010000012c00000190"
    ^ "00000065000000c90004010000012d00000191"
    ^ "00000066000000ca0005010000012e00000192"
    ^ "00000067000000cb0006010000012f00000193")
    (Proto.Create_channel { listener_domid = 1; queues = List.init 4 pooled_queue });
  check "join delta_announce" "100000000300000004000001000200163e0000020a02000200040101010000"
    (Proto.Delta_announce
       { da_base = 3; da_epoch = 4; da_full = false; da_joins = [ entry 2 ]; da_leaves = [] });
  check "empty heartbeat (tag 14 -> 16)" "1000000005000000050000000000"
    (Proto.Delta_announce
       { da_base = 5; da_epoch = 5; da_full = false; da_joins = []; da_leaves = [] })

(* [Notify] is not on the wire: it decodes as [Paper]. *)
let wire_rung r = if r = Hypervisor.Params.Notify then Hypervisor.Params.Paper else r

let gen_message =
  let open QCheck.Gen in
  let rung = oneofl Hypervisor.Params.[ Paper; Notify; Zerocopy; Loans; Gso ] in
  let domid = int_bound 0xFFFF in
  let gen_entry =
    map3
      (fun d (m, q) rung ->
        {
          Proto.entry_domid = d;
          entry_mac = Mac.of_domid ~machine:m ~domid:d;
          entry_ip = Netcore.Ip.make ~subnet:(m land 0xff) ~host:(d land 0xff);
          entry_queues = q;
          entry_rung = rung;
        })
      domid
      (pair (int_bound 1000) (int_range 1 16))
      rung
  in
  let gen_queue =
    map3
      (fun (lc, cl) port pools ->
        {
          Proto.qg_lc_gref = lc;
          qg_cl_gref = cl;
          qg_port = port;
          qg_lc_pool = Option.map fst pools;
          qg_cl_pool = Option.map snd pools;
        })
      (pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
      (int_bound 0xFFFF)
      (opt (pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF)))
  in
  oneof
    [
      map3
        (fun (da_base, da_epoch) (da_full, da_joins) da_leaves ->
          Proto.Delta_announce { da_base; da_epoch; da_full; da_joins; da_leaves })
        (pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
        (pair bool (list_size (0 -- 20) gen_entry))
        (list_size (0 -- 10) domid);
      map3
        (fun requester_domid max_queues rung ->
          Proto.Request_channel { requester_domid; max_queues; rung })
        domid (int_range 1 16) rung;
      map2
        (fun listener_domid queues -> Proto.Create_channel { listener_domid; queues })
        domid
        (list_size (1 -- 8) gen_queue);
      map (fun connector_domid -> Proto.Channel_ack { connector_domid }) domid;
      map3
        (fun src_port dst_port payload ->
          Proto.App_payload
            {
              src_ip = Netcore.Ip.make ~subnet:2 ~host:1;
              src_port;
              dst_port;
              payload = Bytes.of_string payload;
            })
        domid domid
        (string_size (0 -- 64));
    ]

let prop_proto_roundtrip =
  QCheck.Test.make ~name:"every message roundtrips, at every rung" ~count:200
    (QCheck.make ~print:(Format.asprintf "%a" Proto.pp) gen_message)
    (fun msg ->
      let expected =
        match msg with
        | Proto.Delta_announce d ->
            Proto.Delta_announce
              {
                d with
                da_joins =
                  List.map
                    (fun e -> { e with Proto.entry_rung = wire_rung e.Proto.entry_rung })
                    d.da_joins;
              }
        | Proto.Request_channel r -> Proto.Request_channel { r with rung = wire_rung r.rung }
        | m -> m
      in
      match Proto.decode (Proto.encode msg) with
      | Ok got -> Proto.equal got expected
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Mapping table *)

let test_mapping_soft_state () =
  let t = Mapping.create () in
  let mac1 = Mac.of_domid ~machine:0 ~domid:1 in
  let mac2 = Mac.of_domid ~machine:0 ~domid:2 in
  let ip1 = Netcore.Ip.make ~subnet:2 ~host:1 in
  let ip2 = Netcore.Ip.make ~subnet:2 ~host:2 in
  Mapping.update t
    [
      {
        Proto.entry_domid = 1;
        entry_mac = mac1;
        entry_ip = ip1;
        entry_queues = 1;
        entry_rung = Hypervisor.Params.Paper;
      };
      {
        Proto.entry_domid = 2;
        entry_mac = mac2;
        entry_ip = ip2;
        entry_queues = 4;
        entry_rung = Hypervisor.Params.Paper;
      };
    ];
  Alcotest.(check (option int)) "lookup 1" (Some 1) (Mapping.lookup t mac1);
  Alcotest.(check (option int)) "lookup 2" (Some 2) (Mapping.lookup t mac2);
  (match Mapping.lookup_by_ip t ip1 with
  | Some e -> Alcotest.(check int) "lookup by ip" 1 e.Proto.entry_domid
  | None -> Alcotest.fail "ip lookup failed");
  Alcotest.(check bool) "mem" true (Mapping.mem_domid t 1);
  Alcotest.(check int) "size" 2 (Mapping.size t);
  (* Next announcement drops guest 1: soft state forgets it. *)
  Mapping.update t
    [
      {
        Proto.entry_domid = 2;
        entry_mac = mac2;
        entry_ip = ip2;
        entry_queues = 4;
        entry_rung = Hypervisor.Params.Paper;
      };
    ];
  Alcotest.(check (option int)) "1 gone" None (Mapping.lookup t mac1);
  Alcotest.(check bool) "1 not member" false (Mapping.mem_domid t 1);
  Mapping.clear t;
  Alcotest.(check int) "cleared" 0 (Mapping.size t)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "xenloop.fifo",
      [
        Alcotest.test_case "geometry" `Quick test_fifo_geometry;
        Alcotest.test_case "push/pop roundtrip" `Quick test_fifo_push_pop_roundtrip;
        Alcotest.test_case "rejects oversize and empty" `Quick test_fifo_rejects_oversize;
        Alcotest.test_case "fills and frees slots" `Quick test_fifo_fills_and_frees;
        Alcotest.test_case "inactive flag shared" `Quick test_fifo_inactive_flag_shared;
        Alcotest.test_case "two views share data" `Quick
          test_fifo_data_visible_through_second_view;
        Alcotest.test_case "32-bit index wraparound" `Quick
          test_fifo_wraparound_32bit_indices;
        Alcotest.test_case "init validation" `Quick test_fifo_init_validation;
        Alcotest.test_case "grefs in descriptor page" `Quick test_fifo_grefs_roundtrip;
      ]
      @ qsuite [ prop_fifo_order_and_content; prop_fifo_wrap_stream ] );
    ( "xenloop.proto",
      [
        Alcotest.test_case "roundtrip" `Quick test_proto_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_proto_rejects_garbage;
        Alcotest.test_case "default wire bytes" `Quick test_proto_default_wire_bytes;
      ]
      @ qsuite [ prop_proto_roundtrip ] );
    ( "xenloop.mapping",
      [ Alcotest.test_case "soft state semantics" `Quick test_mapping_soft_state ] );
  ]
