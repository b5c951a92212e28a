(* Tests for pages, grant tables and cost accounting. *)

module Gt = Memory.Grant_table
module Cm = Memory.Cost_meter
module Page = Memory.Page

let gt_error = Alcotest.testable Gt.pp_error ( = )

let check_gt msg expected actual =
  Alcotest.(check (result unit gt_error)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_roundtrip () =
  let p = Page.create () in
  let src = Bytes.of_string "hello page" in
  Page.write p ~off:100 ~src ~src_off:0 ~len:(Bytes.length src);
  let dst = Bytes.make (Bytes.length src) ' ' in
  Page.read p ~off:100 ~dst ~dst_off:0 ~len:(Bytes.length src);
  Alcotest.(check string) "roundtrip" "hello page" (Bytes.to_string dst)

let test_page_bounds () =
  let p = Page.create () in
  let src = Bytes.make 16 'x' in
  Alcotest.(check bool) "write past end raises" true
    (try
       Page.write p ~off:Page.size ~src ~src_off:0 ~len:1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative offset raises" true
    (try
       Page.write p ~off:(-1) ~src ~src_off:0 ~len:1;
       false
     with Invalid_argument _ -> true)

(* Every out-of-range argument of the memcpy-backed copies is refused
   before a byte moves: neither the page nor the buffer changes. *)
let test_page_copy_bounds_move_nothing () =
  let p = Page.create () in
  for i = 0 to Page.size - 1 do
    Page.set_u8 p i (i land 0xff)
  done;
  let snapshot () =
    let b = Bytes.create Page.size in
    Page.read p ~off:0 ~dst:b ~dst_off:0 ~len:Page.size;
    b
  in
  let before = snapshot () in
  let buf = Bytes.make 64 'b' in
  let cases =
    (* off, len, buffer offset *)
    [
      ("off < 0", -1, 8, 0);
      ("off past the page", Page.size, 1, 0);
      ("off + len past the page", Page.size - 4, 8, 0);
      ("len < 0", 0, -1, 0);
      ("buffer offset < 0", 0, 8, -1);
      ("buffer offset + len past the buffer", 0, 8, 60);
      ("buffer offset past the buffer", 0, 1, 64);
      ("len past the buffer", 0, 65, 0);
      ("off near max_int", max_int, 8, 0);
      ("buffer offset near max_int", 0, 8, max_int);
      ("len near max_int", 0, max_int, 0);
    ]
  in
  List.iter
    (fun (what, off, len, boff) ->
      let raises f = try f (); false with Invalid_argument _ -> true in
      Alcotest.(check bool) ("write, " ^ what) true
        (raises (fun () -> Page.write p ~off ~src:buf ~src_off:boff ~len));
      Alcotest.(check bool) ("read, " ^ what) true
        (raises (fun () -> Page.read p ~off ~dst:buf ~dst_off:boff ~len));
      Alcotest.(check bytes) ("page unchanged, " ^ what) before (snapshot ());
      Alcotest.(check bytes) ("buffer unchanged, " ^ what) (Bytes.make 64 'b') buf)
    cases

(* In-range copies agree with a byte-at-a-time reference, and touch no
   byte outside their range on either side. *)
let prop_page_copy_matches_byte_loop =
  QCheck.Test.make ~name:"page copies match a byte loop" ~count:500
    QCheck.(quad (int_range 0 Page.size) (int_range 0 Page.size) (int_range 0 64) small_nat)
    (fun (off, len, boff, seed) ->
      let off = min off (Page.size - 1) in
      let len = min len (Page.size - off) in
      let p = Page.create () in
      let st = Random.State.make [| seed |] in
      let src = Bytes.init (boff + len + 7) (fun _ -> Char.chr (Random.State.int st 256)) in
      let reference = Array.make Page.size 0 in
      Page.write p ~off ~src ~src_off:boff ~len;
      for i = 0 to len - 1 do
        reference.(off + i) <- Char.code (Bytes.get src (boff + i))
      done;
      let page_ok = ref true in
      for i = 0 to Page.size - 1 do
        if Page.get_u8 p i <> reference.(i) then page_ok := false
      done;
      let dst = Bytes.make (boff + len + 7) '.' in
      Page.read p ~off ~dst ~dst_off:boff ~len;
      let dst_ok = ref true in
      Bytes.iteri
        (fun i c ->
          let want =
            if i >= boff && i < boff + len then Char.chr reference.(off + i - boff) else '.'
          in
          if c <> want then dst_ok := false)
        dst;
      !page_ok && !dst_ok)

let test_page_integers () =
  let p = Page.create () in
  Page.set_u8 p 0 0x7f;
  Page.set_u32 p 4 0xdeadbeef;
  Page.set_u64 p 8 0x0123456789abcdefL;
  Alcotest.(check int) "u8" 0x7f (Page.get_u8 p 0);
  Alcotest.(check int) "u32" 0xdeadbeef (Page.get_u32 p 4);
  Alcotest.(check int64) "u64" 0x0123456789abcdefL (Page.get_u64 p 8)

(* Each multi-byte accessor is one native load or store behind the bounds
   check: at every offset it may take, the value is laid out
   little-endian, reads back what the bytes say, and leaves the
   neighbouring bytes alone; one offset further raises. *)
let test_page_le_layout_every_offset () =
  let p = Page.create () in
  let st = Random.State.make [| 7 |] in
  let widths =
    [
      (2, (fun off v -> Page.set_u16 p off v), fun off -> Page.get_u16 p off);
      (4, (fun off v -> Page.set_u32 p off v), fun off -> Page.get_u32 p off);
      ( 8,
        (fun off v -> Page.set_u64 p off (Int64.of_int v)),
        fun off -> Int64.to_int (Page.get_u64 p off) );
    ]
  in
  List.iter
    (fun (width, set, get) ->
      let mask = if width = 8 then -1 else (1 lsl (8 * width)) - 1 in
      for off = 0 to Page.size - width do
        Page.zero p;
        let v = Random.State.bits st lor (Random.State.bits st lsl 30) lor (Random.State.bits st lsl 60) in
        set off v;
        let from_bytes = ref 0 in
        for i = width - 1 downto 0 do
          from_bytes := (!from_bytes lsl 8) lor Page.get_u8 p (off + i)
        done;
        if !from_bytes land mask <> v land mask then
          Alcotest.failf "u%d at %d: stored %x, bytes say %x" (8 * width) off (v land mask) !from_bytes;
        if off > 0 && Page.get_u8 p (off - 1) <> 0 then
          Alcotest.failf "u%d at %d wrote the byte before" (8 * width) off;
        if off + width < Page.size && Page.get_u8 p (off + width) <> 0 then
          Alcotest.failf "u%d at %d wrote the byte after" (8 * width) off;
        for i = 0 to width - 1 do
          Page.set_u8 p (off + i) ((v lsr (8 * ((i + 3) mod width))) land 0xff)
        done;
        let want = ref 0 in
        for i = width - 1 downto 0 do
          want := (!want lsl 8) lor Page.get_u8 p (off + i)
        done;
        if get off land mask <> !want land mask then
          Alcotest.failf "u%d at %d reads %x, bytes say %x" (8 * width) off (get off) !want
      done;
      List.iter
        (fun off ->
          match get off with
          | _ -> Alcotest.failf "u%d at %d did not raise" (8 * width) off
          | exception Invalid_argument _ -> ())
        [ Page.size - width + 1; -1; max_int ])
    widths

(* Pages are windows of one arena chunk: writes, stores and zeroing of
   one never reach its neighbours, up to the last byte of each. *)
let test_page_chunk_neighbours_apart () =
  (* Four consecutive pages: at most one chunk boundary falls among
     them, so at least two neighbouring pairs share a chunk. *)
  let pages = Array.init 4 (fun _ -> Page.create ()) in
  let fill i = Char.chr (0xa0 + i) in
  Array.iteri
    (fun i p -> Page.write p ~off:0 ~src:(Bytes.make Page.size (fill i)) ~src_off:0 ~len:Page.size)
    pages;
  let expect i =
    let b = Bytes.make Page.size (fill i) in
    if i = 1 then begin
      Bytes.set_int32_le b 0 0x01020304l;
      Bytes.set_int32_le b (Page.size - 4) 0x05060708l
    end;
    if i = 2 then Bytes.fill b 0 Page.size '\000';
    b
  in
  Page.set_u32 pages.(1) 0 0x01020304;
  Page.set_u32 pages.(1) (Page.size - 4) 0x05060708;
  Page.zero pages.(2);
  Array.iteri
    (fun i p ->
      let b = Bytes.create Page.size in
      Page.read p ~off:0 ~dst:b ~dst_off:0 ~len:Page.size;
      Alcotest.(check bytes) (Printf.sprintf "page %d" i) (expect i) b)
    pages;
  Alcotest.(check bool) "zeroed page reads zero" true (Page.is_zeroed pages.(2));
  Alcotest.(check bool) "its neighbours do not" false
    (Page.is_zeroed pages.(1) || Page.is_zeroed pages.(3))

let test_page_zero () =
  let p = Page.create () in
  Alcotest.(check bool) "fresh page zeroed" true (Page.is_zeroed p);
  Page.set_u8 p 2048 1;
  Alcotest.(check bool) "dirty" false (Page.is_zeroed p);
  Page.zero p;
  Alcotest.(check bool) "zeroed again" true (Page.is_zeroed p)

let test_page_ids_unique () =
  let a = Page.create () and b = Page.create () in
  Alcotest.(check bool) "distinct ids" true (Page.id a <> Page.id b)

(* ------------------------------------------------------------------ *)
(* Grant table: access grants *)

let test_grant_map_shares_memory () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let page = Page.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page ~writable:true in
  match Gt.map table gref ~by:2 ~meter with
  | Error e -> Alcotest.failf "map failed: %s" (Gt.error_to_string e)
  | Ok mapped ->
      (* Writing through the mapping is visible to the granter: it is the
         same page. *)
      Page.set_u8 mapped 0 42;
      Alcotest.(check int) "shared write visible" 42 (Page.get_u8 page 0);
      Alcotest.(check int) "map cost one hypercall" 1 (Cm.hypercalls meter)

let test_grant_wrong_domain_rejected () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true in
  (match Gt.map table gref ~by:3 ~meter with
  | Error Gt.Wrong_domain -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Gt.error_to_string e)
  | Ok _ -> Alcotest.fail "domain 3 mapped a grant for domain 2")

let test_grant_bad_ref () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  match Gt.map table 999 ~by:2 ~meter with
  | Error Gt.Bad_ref -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Gt.error_to_string e)
  | Ok _ -> Alcotest.fail "mapped a nonexistent grant"

let test_grant_end_while_mapped () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:false in
  (match Gt.map table gref ~by:2 ~meter with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "map failed: %s" (Gt.error_to_string e));
  check_gt "end while mapped" (Error Gt.Still_mapped) (Gt.end_access table gref);
  check_gt "unmap" (Ok ()) (Gt.unmap table gref ~by:2 ~meter);
  check_gt "end after unmap" (Ok ()) (Gt.end_access table gref);
  Alcotest.(check int) "no grants left" 0 (Gt.active_grants table)

let test_grant_unmap_not_mapped () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:false in
  check_gt "unmap unmapped" (Error Gt.Not_mapped) (Gt.unmap table gref ~by:2 ~meter)

let test_grant_copy () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let page = Page.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page ~writable:true in
  let src = Bytes.of_string "payload!" in
  check_gt "copy_to" (Ok ())
    (Gt.copy_to table gref ~by:2 ~meter ~src ~src_off:0 ~dst_off:64
       ~len:(Bytes.length src));
  let dst = Bytes.make 8 ' ' in
  check_gt "copy_from" (Ok ())
    (Gt.copy_from table gref ~by:2 ~meter ~src_off:64 ~dst ~dst_off:0 ~len:8);
  Alcotest.(check string) "copied data" "payload!" (Bytes.to_string dst);
  Alcotest.(check int) "bytes accounted" 16 (Cm.bytes_copied meter);
  Alcotest.(check int) "two gnttab_copy hypercalls" 2
    (Cm.hypercall_count meter "gnttab_copy")

let test_grant_copy_readonly () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:false in
  let src = Bytes.of_string "x" in
  check_gt "copy_to read-only" (Error Gt.Read_only)
    (Gt.copy_to table gref ~by:2 ~meter ~src ~src_off:0 ~dst_off:0 ~len:1)

let test_grant_no_sender_hypercall () =
  (* Per the paper: granting and revoking are not hypercalls for the
     granter. *)
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true in
  check_gt "end" (Ok ()) (Gt.end_access table gref);
  Alcotest.(check int) "no hypercalls recorded anywhere" 0 (Cm.hypercalls meter)

(* ------------------------------------------------------------------ *)
(* Grant table: transfer grants *)

let test_grant_transfer_roundtrip () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_transfer table ~to_dom:2 in
  let page = Page.create () in
  Page.set_u8 page 0 99;
  (match Gt.transfer table gref ~by:2 ~meter ~page with
  | Error e -> Alcotest.failf "transfer failed: %s" (Gt.error_to_string e)
  | Ok exchange ->
      Alcotest.(check bool) "exchange page zeroed" true (Page.is_zeroed exchange));
  (match Gt.take_transferred table gref with
  | Error e -> Alcotest.failf "take failed: %s" (Gt.error_to_string e)
  | Ok received -> Alcotest.(check int) "content moved" 99 (Page.get_u8 received 0));
  Alcotest.(check int) "zeroing accounted" 1 (Cm.page_zeroes meter);
  Alcotest.(check int) "transfer hypercall" 1 (Cm.hypercall_count meter "gnttab_transfer")

let test_grant_transfer_empty () =
  let table = Gt.create ~owner:1 in
  let gref = Gt.grant_transfer table ~to_dom:2 in
  match Gt.take_transferred table gref with
  | Error Gt.Nothing_transferred -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Gt.error_to_string e)
  | Ok _ -> Alcotest.fail "took a page that was never transferred"

let test_grant_kind_mismatch () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let access_ref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true in
  let transfer_ref = Gt.grant_transfer table ~to_dom:2 in
  (match Gt.map table transfer_ref ~by:2 ~meter with
  | Error Gt.Wrong_kind -> ()
  | _ -> Alcotest.fail "mapped a transfer grant");
  match Gt.transfer table access_ref ~by:2 ~meter ~page:(Page.create ()) with
  | Error Gt.Wrong_kind -> ()
  | _ -> Alcotest.fail "transferred into an access grant"

let prop_grant_refs_unique =
  QCheck.Test.make ~name:"grant refs are unique" ~count:50
    QCheck.(int_range 1 100)
    (fun n ->
      let table = Gt.create ~owner:1 in
      let refs =
        List.init n (fun _ ->
            Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true)
      in
      List.length (List.sort_uniq compare refs) = n)

(* ------------------------------------------------------------------ *)
(* Frame allocator *)

module Fa = Memory.Frame_allocator

let test_frames_allocate_release () =
  let fa = Fa.create ~total_frames:4 in
  Alcotest.(check int) "free" 4 (Fa.free_frames fa);
  let p1 = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  let _p2 = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  let _p3 = match Fa.allocate fa ~owner:2 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Alcotest.(check int) "owner 1 has two" 2 (Fa.owned_by fa 1);
  Alcotest.(check int) "owner 2 has one" 1 (Fa.owned_by fa 2);
  Alcotest.(check int) "one left" 1 (Fa.free_frames fa);
  Fa.release fa ~owner:1 p1;
  Alcotest.(check int) "returned" 2 (Fa.free_frames fa);
  Alcotest.(check int) "owner 1 down to one" 1 (Fa.owned_by fa 1)

let test_frames_exhaustion () =
  let fa = Fa.create ~total_frames:2 in
  ignore (Fa.allocate fa ~owner:1);
  ignore (Fa.allocate fa ~owner:1);
  (match Fa.allocate fa ~owner:2 with
  | Error Fa.Out_of_frames -> ()
  | Ok _ -> Alcotest.fail "allocated beyond the machine");
  (* all-or-nothing batch *)
  let fa2 = Fa.create ~total_frames:3 in
  (match Fa.allocate_many fa2 ~owner:1 ~count:4 with
  | Error Fa.Out_of_frames -> ()
  | Ok _ -> Alcotest.fail "partial batch accepted");
  Alcotest.(check int) "nothing leaked by failed batch" 3 (Fa.free_frames fa2);
  match Fa.allocate_many fa2 ~owner:1 ~count:3 with
  | Ok pages -> Alcotest.(check int) "batch size" 3 (Array.length pages)
  | Error _ -> Alcotest.fail "batch should fit"

let test_frames_double_free_rejected () =
  let fa = Fa.create ~total_frames:2 in
  let p = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Fa.release fa ~owner:1 p;
  Alcotest.(check bool) "double free rejected" true
    (try
       Fa.release fa ~owner:1 p;
       false
     with Invalid_argument _ -> true);
  let q = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Alcotest.(check bool) "cross-owner release rejected" true
    (try
       Fa.release fa ~owner:2 q;
       false
     with Invalid_argument _ -> true)

let test_frames_release_all () =
  let fa = Fa.create ~total_frames:8 in
  for _ = 1 to 5 do
    ignore (Fa.allocate fa ~owner:3)
  done;
  ignore (Fa.allocate fa ~owner:4);
  Fa.release_all fa ~owner:3;
  Alcotest.(check int) "owner 3 cleared" 0 (Fa.owned_by fa 3);
  Alcotest.(check int) "owner 4 untouched" 1 (Fa.owned_by fa 4);
  Alcotest.(check int) "frames back" 7 (Fa.free_frames fa)

(* ------------------------------------------------------------------ *)
(* Cost meter *)

let test_meter_counts () =
  let m = Cm.create () in
  Cm.record m (Cm.Hypercall "a");
  Cm.record m (Cm.Hypercall "a");
  Cm.record m (Cm.Hypercall "b");
  Cm.record m (Cm.Page_copy 100);
  Cm.record m (Cm.Page_copy 50);
  Cm.record m Cm.Page_zero;
  Cm.record m Cm.Event_notify;
  Cm.record m Cm.Domain_switch;
  Alcotest.(check int) "hypercalls" 3 (Cm.hypercalls m);
  Alcotest.(check int) "by name" 2 (Cm.hypercall_count m "a");
  Alcotest.(check int) "bytes" 150 (Cm.bytes_copied m);
  Alcotest.(check int) "zeroes" 1 (Cm.page_zeroes m);
  Alcotest.(check int) "notifies" 1 (Cm.event_notifies m);
  Alcotest.(check int) "switches" 1 (Cm.domain_switches m)

let test_meter_reset_merge () =
  let a = Cm.create () and b = Cm.create () in
  Cm.record a (Cm.Hypercall "x");
  Cm.record b (Cm.Hypercall "x");
  Cm.record b (Cm.Page_copy 10);
  Cm.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "merged hypercalls" 2 (Cm.hypercalls b);
  Cm.reset b;
  Alcotest.(check int) "reset" 0 (Cm.hypercalls b);
  Alcotest.(check int) "reset bytes" 0 (Cm.bytes_copied b)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "memory.page",
      [
        Alcotest.test_case "read/write roundtrip" `Quick test_page_roundtrip;
        Alcotest.test_case "bounds checked" `Quick test_page_bounds;
        Alcotest.test_case "out-of-range copies move nothing" `Quick
          test_page_copy_bounds_move_nothing;
        Alcotest.test_case "integer accessors" `Quick test_page_integers;
        Alcotest.test_case "zeroing" `Quick test_page_zero;
        Alcotest.test_case "little-endian at every offset" `Quick
          test_page_le_layout_every_offset;
        Alcotest.test_case "pages of one chunk never alias" `Quick
          test_page_chunk_neighbours_apart;
        Alcotest.test_case "unique ids" `Quick test_page_ids_unique;
      ]
      @ qsuite [ prop_page_copy_matches_byte_loop ] );
    ( "memory.grant",
      [
        Alcotest.test_case "map shares memory" `Quick test_grant_map_shares_memory;
        Alcotest.test_case "wrong domain rejected" `Quick test_grant_wrong_domain_rejected;
        Alcotest.test_case "bad ref rejected" `Quick test_grant_bad_ref;
        Alcotest.test_case "revoke blocked while mapped" `Quick test_grant_end_while_mapped;
        Alcotest.test_case "unmap requires mapping" `Quick test_grant_unmap_not_mapped;
        Alcotest.test_case "gnttab copy" `Quick test_grant_copy;
        Alcotest.test_case "copy_to needs writable grant" `Quick test_grant_copy_readonly;
        Alcotest.test_case "granter pays no hypercall" `Quick test_grant_no_sender_hypercall;
        Alcotest.test_case "transfer roundtrip" `Quick test_grant_transfer_roundtrip;
        Alcotest.test_case "take before transfer" `Quick test_grant_transfer_empty;
        Alcotest.test_case "kind mismatch" `Quick test_grant_kind_mismatch;
      ]
      @ qsuite [ prop_grant_refs_unique ] );
    ( "memory.frames",
      [
        Alcotest.test_case "allocate and release" `Quick test_frames_allocate_release;
        Alcotest.test_case "exhaustion and batches" `Quick test_frames_exhaustion;
        Alcotest.test_case "double free rejected" `Quick test_frames_double_free_rejected;
        Alcotest.test_case "release_all on destruction" `Quick test_frames_release_all;
      ] );
    ( "memory.cost_meter",
      [
        Alcotest.test_case "counts operations" `Quick test_meter_counts;
        Alcotest.test_case "reset and merge" `Quick test_meter_reset_merge;
      ] );
  ]
