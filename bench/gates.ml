(* The bench document's measured plan and its gate table.

   [bench/main.exe --json] and [--json-smoke] measure the points below,
   write them as one JSON document, and check every simulated claim the
   document carries as one row of [rows]: a path into the document, a
   comparator and a bound.  Every value a row reads is simulated, so the
   table is deterministic: a row fails only when the model's behaviour
   changed. *)

(* ------------------------------------------------------------------ *)
(* The measured plan.  Every point a row reads is in both plans. *)

let workloads = [ "udp_stream"; "tcp_stream"; "udp_rr"; "tcp_rr" ]
let queue_counts ~smoke = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ]

(* UDP datagrams cap below 64 KiB; netperf's traditional large send is
   60 KiB.  TCP has no such limit, so it sweeps to the full 64 KiB. *)
let zerocopy_sizes ~smoke =
  [
    ( "udp_stream",
      if smoke then [ 64; 4096; 61440 ] else [ 64; 256; 1024; 4096; 16384; 61440 ] );
    ( "tcp_stream",
      if smoke then [ 64; 4096; 16384; 65536 ]
      else [ 64; 256; 1024; 4096; 16384; 65536 ] );
  ]

let gso_sizes ~smoke = if smoke then [ 16384; 65536 ] else [ 4096; 16384; 65536 ]

(* The gso size whose gso-off point is also measured at wire MSS. *)
let gso_wire_size = 65536

(* (guests, hosts).  Single host up to 128 guests — per-host population
   is what a full-list rebroadcast would be linear in — then 512 guests
   over 4 hosts, the cluster-scale point the cap is sized against. *)
let mesh_points ~smoke =
  if smoke then [ (8, 1); (32, 1); (128, 1) ] else [ (8, 1); (32, 1); (128, 1); (512, 4) ]

let mesh_channel_cap = 8

(* ------------------------------------------------------------------ *)
(* Paths into the document *)

type step =
  | Key of string
  | Where of (string * Json.t) list
      (** the array element whose keys hold these values *)

let num n = Json.Num (float_of_int n)
let at key n = Where [ (key, num n) ]
let named name = Where [ ("name", Json.Str name) ]

let render path =
  String.concat ""
    (List.mapi
       (fun i -> function
         | Key k -> if i = 0 then k else "." ^ k
         | Where sel ->
             "["
             ^ String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) sel)
             ^ "]")
       path)

let rec find path v =
  match path with
  | [] -> v
  | Key k :: rest -> find rest (Json.member k v)
  | Where sel :: rest -> (
      let hit e = List.for_all (fun (k, x) -> Json.member_opt k e = Some x) sel in
      match List.find_opt hit (Json.to_list v) with
      | Some e -> find rest e
      | None -> raise (Json.Error ("no element " ^ render [ Where sel ])))

let number path doc = Json.to_num (find path doc)

(* ------------------------------------------------------------------ *)
(* The table *)

type bound =
  | Const of float
  | Doc of step list * float  (** factor x a value of the same document *)
  | Recorded of step list * float
      (** factor x a value of the recorded BENCH_results.json *)

type cmp = Eq | Le | Ge | Gt
type row = { name : string; path : step list; cmp : cmp; bound : bound }

let rows ~smoke =
  let row name path cmp bound = { name; path; cmp; bound } in
  (* Delivery invariance: the fast path may change timing, never what
     the application receives. *)
  let same name path other = row name path Eq (Doc (other, 1.0)) in
  let side w s = [ Key "workloads"; named w; Key s; Key "delivered_app" ] in
  let zc w size s =
    [ Key "zerocopy_sweep"; named w; Key "points"; at "size" size; Key s ]
  in
  let gso size s = [ Key "gso_sweep"; at "size" size; Key s ] in
  let mixed q k = [ Key "mixed_queue_sweep"; at "queues" q; Key k ] in
  let mesh k = [ Key "mesh_sweep"; at "guests" 128; Key k ] in
  let victim_p99 s =
    [ Key "fairness_sweep"; Key "elephant_mice"; Key s; Key "victim_rr"; Key "p99_us" ]
  in
  let chaos k = row ("chaos " ^ k) [ Key "chaos"; Key k ] Eq (Const 0.0) in
  List.map
    (fun w -> same ("delivery " ^ w) (side w "optimized") (side w "baseline"))
    workloads
  @ List.concat_map
      (fun (w, sizes) ->
        List.map
          (fun size ->
            same
              (Printf.sprintf "delivery zerocopy %s %d" w size)
              (zc w size "zerocopy" @ [ Key "delivered_app" ])
              (zc w size "inline" @ [ Key "delivered_app" ]))
          sizes)
      (zerocopy_sizes ~smoke)
  @ List.map
      (fun size ->
        same
          (Printf.sprintf "delivery gso %d" size)
          (gso size "gso" @ [ Key "delivered_app" ])
          (gso size "gso_off" @ [ Key "delivered_app" ]))
      (gso_sizes ~smoke)
  @ (match queue_counts ~smoke with
    | first :: rest ->
        List.concat_map
          (fun q ->
            List.map
              (fun k ->
                same
                  (Printf.sprintf "delivery queues=%d %s" q k)
                  (mixed q k) (mixed first k))
              [ "stream_bytes"; "rr_transactions" ])
          rest
    | [] -> [])
  @ [
      (* Chaos.Soak.ok: no invariant violation, loss or duplicate. *)
      chaos "violation_runs";
      chaos "datagrams_lost";
      chaos "datagrams_duplicated";
      (* Loaned receive: above 0.1 copies/byte the borrow degenerated
         into copy-out.  TCP, since large UDP datagrams fragment and the
         reassembly merge is an honest copy. *)
      row "copies/byte, 16 KiB loaned tcp_stream"
        (zc "tcp_stream" 16384 "zerocopy" @ [ Key "copies_per_byte" ])
        Le (Const 0.10);
      (* Offload must pay against gso off with netfront TSO kept ... *)
      row "gso speedup, 64 KiB"
        (gso gso_wire_size "gso" @ [ Key "mbps" ])
        Ge
        (Doc (gso gso_wire_size "gso_off" @ [ Key "mbps" ], 1.2));
      (* ... and collapse descriptors 10x against the per-MSS wire path. *)
      row "gso descriptors/MiB vs wire MSS"
        (gso gso_wire_size "gso" @ [ Key "descriptors_per_mib" ])
        Le
        (Doc (gso gso_wire_size "gso_off_wire" @ [ Key "descriptors_per_mib" ], 0.1));
      row "gso jumbo descriptors moved"
        (gso gso_wire_size "gso" @ [ Key "jumbo_tx" ])
        Gt (Const 0.0);
    ]
  (* With gso off no jumbo descriptor moves, whatever the TSO budget. *)
  @ List.concat_map
      (fun size ->
        let off side =
          row
            (Printf.sprintf "gso off moves no jumbo, %s %d" side size)
            (gso size side @ [ Key "jumbo_tx" ])
            Eq (Const 0.0)
        in
        off "gso_off" :: (if size = gso_wire_size then [ off "gso_off_wire" ] else []))
      (gso_sizes ~smoke)
  @ [
      (* O(churn): a churn-free window costs heartbeats only. *)
      row "mesh N=128 announce bytes/guest"
        (mesh "steady_announce_bytes_per_guest")
        Le (Const 1024.0);
      row "mesh N=128 channels/sec vs recorded" (mesh "channels_per_sec") Ge
        (Recorded (mesh "channels_per_sec", 0.75));
      row "mesh N=128 live channels within cap" (mesh "live_channels") Le
        (Const (float_of_int (128 * mesh_channel_cap)));
      row "qos incast jain"
        [ Key "fairness_sweep"; Key "incast"; Key "qos_on"; Key "jain" ]
        Ge (Const 0.95);
      row "qos victim p99 improvement" (victim_p99 "qos_off") Ge
        (Doc (victim_p99 "qos_on", 5.0));
    ]

let limit ~recorded doc r =
  match r.bound with
  | Const c -> c
  | Doc (p, f) -> f *. number p doc
  | Recorded (p, f) -> f *. number p recorded

let holds cmp v l =
  match cmp with Eq -> v = l | Le -> v <= l | Ge -> v >= l | Gt -> v > l

(* [Ok line] or [Error line]; the line names the row, its value and
   what it needs. *)
let check ~recorded doc r =
  match (number r.path doc, limit ~recorded doc r) with
  | exception Json.Error e -> Error (Printf.sprintf "%s: %s" r.name e)
  | v, l ->
      let op = match r.cmp with Eq -> "=" | Le -> "<=" | Ge -> ">=" | Gt -> ">" in
      let times f = if f = 1.0 then "" else Printf.sprintf "%g x " f in
      let bound =
        match r.bound with
        | Const _ -> ""
        | Doc (p, f) -> Printf.sprintf " (%s%s)" (times f) (render p)
        | Recorded (p, f) -> Printf.sprintf " (%srecorded %s)" (times f) (render p)
      in
      let line =
        Printf.sprintf "%s: %s = %s, needs %s %s%s" r.name (render r.path)
          (Json.number v) op
          (Json.number (Float.round (l *. 1e4) /. 1e4))
          bound
      in
      if holds r.cmp v l then Ok line else Error line

(* ------------------------------------------------------------------ *)
(* Layout: one top-level key per line, and one element per line inside
   each section, so a diff of two documents names the point that moved. *)

let layout doc =
  let lines indent l = String.concat ",\n" (List.map (fun s -> indent ^ s) l) in
  let entry (k, v) = Json.escape k ^ ": " ^ v in
  let section = function
    | Json.Arr (_ :: _ as l) -> "[\n" ^ lines "    " (List.map Json.to_string l) ^ "\n  ]"
    | Json.Obj (_ :: _ as l) ->
        "{\n"
        ^ lines "    " (List.map (fun (k, v) -> entry (k, Json.to_string v)) l)
        ^ "\n  }"
    | v -> Json.to_string v
  in
  "{\n"
  ^ lines "  " (List.map (fun (k, v) -> entry (k, section v)) (Json.to_obj doc))
  ^ "\n}\n"
