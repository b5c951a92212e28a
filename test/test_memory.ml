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
    (Cm.hypercall_count meter Gnttab_copy)

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
  Alcotest.(check int) "transfer hypercall" 1 (Cm.hypercall_count meter Gnttab_transfer)

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

(* A model of the grant table: a map from gref to the grant, against
   which random sequences of every granter and foreign operation must give
   the same results, the same errors and the same live count. *)
module Gmodel = struct
  module M = Map.Make (Int)

  type kind =
    | M_access of { page : int; writable : bool; mapped : bool }
    | M_transfer of int option  (* id of the page transferred in *)

  type t = { grants : (int * kind) M.t; next : int }

  let empty = { grants = M.empty; next = 0 }
end

type gop =
  | G_access of int * bool  (* to_dom, writable *)
  | G_transfer_grant of int
  | G_end of int  (* gref offset, see [gref_of] *)
  | G_map of int * int  (* gref offset, by *)
  | G_unmap of int * int
  | G_transfer of int * int
  | G_take of int
  | G_revoke of int

let show_gop = function
  | G_access (d, w) -> Printf.sprintf "access(to=%d,w=%b)" d w
  | G_transfer_grant d -> Printf.sprintf "transfer_grant(to=%d)" d
  | G_end r -> Printf.sprintf "end(%d)" r
  | G_map (r, d) -> Printf.sprintf "map(%d,by=%d)" r d
  | G_unmap (r, d) -> Printf.sprintf "unmap(%d,by=%d)" r d
  | G_transfer (r, d) -> Printf.sprintf "transfer(%d,by=%d)" r d
  | G_take r -> Printf.sprintf "take(%d)" r
  | G_revoke d -> Printf.sprintf "revoke(%d)" d

let gen_gop =
  let open QCheck.Gen in
  let dom = int_range 2 4 and r = int_range (-2) 40 in
  frequency
    [
      (6, map2 (fun d w -> G_access (d, w)) dom bool);
      (2, map (fun d -> G_transfer_grant d) dom);
      (5, map (fun r -> G_end r) r);
      (5, map2 (fun r d -> G_map (r, d)) r dom);
      (3, map2 (fun r d -> G_unmap (r, d)) r dom);
      (2, map2 (fun r d -> G_transfer (r, d)) r dom);
      (2, map (fun r -> G_take r) r);
      (1, map (fun d -> G_revoke d) dom);
    ]

(* Operations name a gref by its distance back from the newest one, so a
   sequence keeps hitting live, ended, never-issued and negative grefs. *)
let gref_of ~next off = next - 1 - off

let prop_grant_table_matches_model =
  QCheck.Test.make ~name:"grant table matches a map model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_gop ops))
       QCheck.Gen.(list_size (int_range 1 200) gen_gop))
    (fun ops ->
      let module M = Gmodel.M in
      let table = Gt.create ~owner:1 in
      let meter = Cm.create () in
      let pages = Hashtbl.create 64 in
      let model = ref Gmodel.empty in
      let fail op what =
        QCheck.Test.fail_reportf "%s: %s" (show_gop op) what
      in
      let same op got want =
        if got <> want then
          fail op
            (Printf.sprintf "got %s, model %s"
               (match got with Ok i -> string_of_int i | Error e -> Gt.error_to_string e)
               (match want with Ok i -> string_of_int i | Error e -> Gt.error_to_string e))
      in
      let find gref ~by =
        match M.find_opt gref !model.grants with
        | None -> Error Gt.Bad_ref
        | Some (to_dom, k) -> if to_dom <> by then Error Gt.Wrong_domain else Ok (to_dom, k)
      in
      let set gref v = model := { !model with grants = M.add gref v !model.grants } in
      let drop gref = model := { !model with grants = M.remove gref !model.grants } in
      let unit_res = Result.map (fun () -> 0) in
      List.iter
        (fun op ->
          let next = !model.next in
          let gref off = gref_of ~next off in
          (match op with
          | G_access (to_dom, writable) ->
              let page = Page.create () in
              Hashtbl.replace pages (Page.id page) page;
              let r = Gt.grant_access table ~to_dom ~page ~writable in
              same op (Ok r) (Ok next);
              set next (to_dom, Gmodel.M_access { page = Page.id page; writable; mapped = false });
              model := { !model with next = next + 1 }
          | G_transfer_grant to_dom ->
              let r = Gt.grant_transfer table ~to_dom in
              same op (Ok r) (Ok next);
              set next (to_dom, Gmodel.M_transfer None);
              model := { !model with next = next + 1 }
          | G_end off ->
              let g = gref off in
              let want =
                match M.find_opt g !model.grants with
                | None -> Error Gt.Bad_ref
                | Some (_, Gmodel.M_transfer _) -> Error Gt.Wrong_kind
                | Some (_, Gmodel.M_access { mapped = true; _ }) -> Error Gt.Still_mapped
                | Some (_, Gmodel.M_access _) -> drop g; Ok 0
              in
              same op (unit_res (Gt.end_access table g)) want
          | G_map (off, by) ->
              let g = gref off in
              let want =
                match find g ~by with
                | Error e -> Error e
                | Ok (_, Gmodel.M_transfer _) -> Error Gt.Wrong_kind
                | Ok (d, Gmodel.M_access a) ->
                    set g (d, Gmodel.M_access { a with mapped = true });
                    Ok a.page
              in
              same op (Result.map Page.id (Gt.map table g ~by ~meter)) want
          | G_unmap (off, by) ->
              let g = gref off in
              let want =
                match find g ~by with
                | Error e -> Error e
                | Ok (_, Gmodel.M_transfer _) -> Error Gt.Wrong_kind
                | Ok (_, Gmodel.M_access { mapped = false; _ }) -> Error Gt.Not_mapped
                | Ok (d, Gmodel.M_access a) ->
                    set g (d, Gmodel.M_access { a with mapped = false });
                    Ok 0
              in
              same op (unit_res (Gt.unmap table g ~by ~meter)) want
          | G_transfer (off, by) ->
              let g = gref off in
              let page = Page.create () in
              Hashtbl.replace pages (Page.id page) page;
              let want =
                match find g ~by with
                | Error e -> Error e
                | Ok (_, Gmodel.M_access _) -> Error Gt.Wrong_kind
                | Ok (d, Gmodel.M_transfer _) ->
                    set g (d, Gmodel.M_transfer (Some (Page.id page)));
                    Ok 0
              in
              let got =
                Result.map
                  (fun ex ->
                    if not (Page.is_zeroed ex) then fail op "exchange page not zeroed";
                    0)
                  (Gt.transfer table g ~by ~meter ~page)
              in
              same op got want
          | G_take off ->
              let g = gref off in
              let want =
                match M.find_opt g !model.grants with
                | None -> Error Gt.Bad_ref
                | Some (_, Gmodel.M_access _) -> Error Gt.Wrong_kind
                | Some (_, Gmodel.M_transfer None) -> Error Gt.Nothing_transferred
                | Some (_, Gmodel.M_transfer (Some id)) -> drop g; Ok id
              in
              same op (Result.map Page.id (Gt.take_transferred table g)) want
          | G_revoke dom ->
              let n = ref 0 in
              M.iter
                (fun g (d, k) ->
                  match k with
                  | Gmodel.M_access ({ mapped = true; _ } as a) when d = dom ->
                      incr n;
                      set g (d, Gmodel.M_access { a with mapped = false })
                  | _ -> ())
                !model.grants;
              same op (Ok (Gt.revoke_mappings_for table ~dom)) (Ok !n));
          same op (Ok (Gt.active_grants table)) (Ok (M.cardinal !model.grants)))
        ops;
      true)

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

(* A page handed out by one machine's allocator is not the other's to
   take back, whatever owner the caller names. *)
let test_frames_foreign_allocator_rejected () =
  let fa1 = Fa.create ~total_frames:4 and fa2 = Fa.create ~total_frames:4 in
  let p = match Fa.allocate fa1 ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  ignore (Fa.allocate fa2 ~owner:1);
  Alcotest.(check bool) "release on the other machine rejected" true
    (try
       Fa.release fa2 ~owner:1 p;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "other machine's balance untouched" 1 (Fa.owned_by fa2 1);
  Alcotest.(check int) "other machine's free frames untouched" 3 (Fa.free_frames fa2);
  Fa.release fa1 ~owner:1 p;
  Alcotest.(check int) "owner's own machine takes it back" 4 (Fa.free_frames fa1)

(* [release_all] returns a dead domain's frames wholesale: a late release
   of one of them is a double free, and the owner's next allocation
   starts from a clean balance. *)
let test_frames_release_after_release_all () =
  let fa = Fa.create ~total_frames:8 in
  let pages =
    match Fa.allocate_many fa ~owner:3 ~count:3 with
    | Ok ps -> ps
    | Error _ -> Alcotest.fail "alloc"
  in
  Fa.release_all fa ~owner:3;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "release after release_all rejected" true
        (try
           Fa.release fa ~owner:3 p;
           false
         with Invalid_argument _ -> true))
    pages;
  Alcotest.(check int) "frames all free" 8 (Fa.free_frames fa);
  let q = match Fa.allocate fa ~owner:3 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Alcotest.(check bool) "old page still rejected" true
    (try
       Fa.release fa ~owner:3 pages.(0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "new balance" 1 (Fa.owned_by fa 3);
  Fa.release fa ~owner:3 q;
  Alcotest.(check (list (pair int int))) "nothing owned" [] (Fa.owners fa)

type fop = F_alloc of int | F_many of int * int | F_release of int * int | F_release_all of int

let show_fop = function
  | F_alloc o -> Printf.sprintf "alloc(%d)" o
  | F_many (o, n) -> Printf.sprintf "many(%d,%d)" o n
  | F_release (o, i) -> Printf.sprintf "release(%d,#%d)" o i
  | F_release_all o -> Printf.sprintf "release_all(%d)" o

(* Interleaved allocations, releases (some by the wrong owner, some of
   pages already returned) and [release_all]s, against a model that
   remembers every page ever handed out and its owner while it is
   live. *)
let prop_frames_match_model =
  let gen =
    let open QCheck.Gen in
    let owner = int_range 1 4 in
    frequency
      [
        (4, map (fun o -> F_alloc o) owner);
        (2, map2 (fun o n -> F_many (o, n)) owner (int_range 0 6));
        (6, map2 (fun o i -> F_release (o, i)) owner small_nat);
        (1, map (fun o -> F_release_all o) owner);
      ]
  in
  QCheck.Test.make ~name:"frame ownership matches a model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_fop ops))
       QCheck.Gen.(list_size (int_range 1 150) gen))
    (fun ops ->
      let total = 24 in
      let fa = Fa.create ~total_frames:total in
      (* every page ever handed out, and its owner while it is live *)
      let issued = ref [||] and live = Hashtbl.create 32 in
      let add owner p =
        issued := Array.append !issued [| p |];
        Hashtbl.replace live (Page.id p) owner
      in
      List.iter
        (fun op ->
          (match op with
          | F_alloc owner -> (
              match Fa.allocate fa ~owner with
              | Ok p -> add owner p
              | Error Fa.Out_of_frames ->
                  if Hashtbl.length live < total then
                    QCheck.Test.fail_reportf "%s: refused with frames free" (show_fop op))
          | F_many (owner, count) -> (
              match Fa.allocate_many fa ~owner ~count with
              | Ok ps -> Array.iter (add owner) ps
              | Error Fa.Out_of_frames ->
                  if Hashtbl.length live + count <= total then
                    QCheck.Test.fail_reportf "%s: refused with frames free" (show_fop op))
          | F_release (owner, i) ->
              if Array.length !issued > 0 then begin
                let p = !issued.(i mod Array.length !issued) in
                let expect_ok = Hashtbl.find_opt live (Page.id p) = Some owner in
                let ok =
                  match Fa.release fa ~owner p with
                  | () -> true
                  | exception Invalid_argument _ -> false
                in
                if ok <> expect_ok then
                  QCheck.Test.fail_reportf "%s: release %s, model %s" (show_fop op)
                    (if ok then "accepted" else "refused")
                    (if expect_ok then "accepts" else "refuses");
                if ok then Hashtbl.remove live (Page.id p)
              end
          | F_release_all owner ->
              Fa.release_all fa ~owner;
              Hashtbl.filter_map_inplace
                (fun _ o -> if o = owner then None else Some o)
                live);
          let want =
            Hashtbl.fold
              (fun _ o acc ->
                let n = Option.value ~default:0 (List.assoc_opt o acc) in
                (o, n + 1) :: List.remove_assoc o acc)
              live []
            |> List.sort compare
          in
          if Fa.owners fa <> want then
            QCheck.Test.fail_reportf "%s: owners differ from the model" (show_fop op);
          List.iter
            (fun o ->
              let n = Option.value ~default:0 (List.assoc_opt o want) in
              if Fa.owned_by fa o <> n then
                QCheck.Test.fail_reportf "%s: owned_by %d differs" (show_fop op) o)
            [ 1; 2; 3; 4 ];
          if Fa.free_frames fa <> total - Hashtbl.length live then
            QCheck.Test.fail_reportf "%s: free frames differ" (show_fop op))
        ops;
      true)

(* Host memory follows what is live, not what was ever issued: after 200
   rounds of handing out and taking back a batch, the allocator and a
   grant table reach no more than twice what they reached after one.  A
   table indexed by every page id or gref ever issued grows each round. *)
let test_footprint_bounded_under_churn () =
  let fa = Fa.create ~total_frames:1_024 and gt = Gt.create ~owner:1 in
  let round () =
    (match Fa.allocate_many fa ~owner:1 ~count:512 with
    | Ok pages -> Array.iter (Fa.release fa ~owner:1) pages
    | Error _ -> Alcotest.fail "alloc");
    let page = Page.create () in
    let grefs = Array.init 512 (fun _ -> Gt.grant_access gt ~to_dom:2 ~page ~writable:true) in
    Array.iter (fun g -> check_gt "end" (Ok ()) (Gt.end_access gt g)) grefs
  in
  round ();
  let fa1 = Obj.reachable_words (Obj.repr fa) and gt1 = Obj.reachable_words (Obj.repr gt) in
  for _ = 2 to 200 do
    round ()
  done;
  let fa200 = Obj.reachable_words (Obj.repr fa) and gt200 = Obj.reachable_words (Obj.repr gt) in
  Alcotest.(check bool)
    (Printf.sprintf "allocator: %d words after 200 rounds, %d after one" fa200 fa1)
    true (fa200 <= 2 * fa1);
  Alcotest.(check bool)
    (Printf.sprintf "grant table: %d words after 200 rounds, %d after one" gt200 gt1)
    true (gt200 <= 2 * gt1)

(* ------------------------------------------------------------------ *)
(* Cost meter *)

let test_meter_counts () =
  let m = Cm.create () in
  Cm.record m (Cm.Hypercall Gnttab_map_grant_ref);
  Cm.record m (Cm.Hypercall Gnttab_map_grant_ref);
  Cm.record m (Cm.Hypercall Evtchn_send);
  Cm.record m (Cm.Page_copy 100);
  Cm.record m (Cm.Page_copy 50);
  Cm.record m Cm.Page_zero;
  Cm.record m Cm.Event_notify;
  Cm.record m Cm.Domain_switch;
  Alcotest.(check int) "hypercalls" 3 (Cm.hypercalls m);
  Alcotest.(check int) "by name" 2 (Cm.hypercall_count m Gnttab_map_grant_ref);
  Alcotest.(check int) "other names apart" 1 (Cm.hypercall_count m Evtchn_send);
  Alcotest.(check int) "unused name" 0 (Cm.hypercall_count m Gnttab_copy);
  Alcotest.(check int) "bytes" 150 (Cm.bytes_copied m);
  Alcotest.(check int) "zeroes" 1 (Cm.page_zeroes m);
  Alcotest.(check int) "notifies" 1 (Cm.event_notifies m);
  Alcotest.(check int) "switches" 1 (Cm.domain_switches m)

let test_meter_reset_merge () =
  let a = Cm.create () and b = Cm.create () in
  Cm.record a (Cm.Hypercall Gnttab_copy);
  Cm.record b (Cm.Hypercall Gnttab_copy);
  Cm.record b (Cm.Page_copy 10);
  Cm.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "merged hypercalls" 2 (Cm.hypercalls b);
  Alcotest.(check int) "merged by name" 2 (Cm.hypercall_count b Gnttab_copy);
  Cm.reset b;
  Alcotest.(check int) "reset" 0 (Cm.hypercalls b);
  Alcotest.(check int) "reset by name" 0 (Cm.hypercall_count b Gnttab_copy);
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
      @ qsuite [ prop_grant_refs_unique; prop_grant_table_matches_model ] );
    ( "memory.frames",
      [
        Alcotest.test_case "allocate and release" `Quick test_frames_allocate_release;
        Alcotest.test_case "exhaustion and batches" `Quick test_frames_exhaustion;
        Alcotest.test_case "double free rejected" `Quick test_frames_double_free_rejected;
        Alcotest.test_case "release_all on destruction" `Quick test_frames_release_all;
        Alcotest.test_case "another allocator's page rejected" `Quick
          test_frames_foreign_allocator_rejected;
        Alcotest.test_case "release after release_all rejected" `Quick
          test_frames_release_after_release_all;
        Alcotest.test_case "footprint bounded under churn" `Quick
          test_footprint_bounded_under_churn;
      ]
      @ qsuite [ prop_frames_match_model ] );
    ( "memory.cost_meter",
      [
        Alcotest.test_case "counts operations" `Quick test_meter_counts;
        Alcotest.test_case "reset and merge" `Quick test_meter_reset_merge;
      ] );
  ]
