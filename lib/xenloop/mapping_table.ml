(* The announcement list is kept verbatim (for [entries]/[size] and the
   soft-state wholesale replacement), with MAC-, IP- and domid-keyed
   hashtable indices alongside: [lookup]/[lookup_by_ip]/[mem_domid] run
   once per outgoing packet, so they must not scan the list.  On duplicate
   keys within one announcement the first entry wins, matching the old
   [List.find]-based scans. *)

type t = {
  mutable current : Proto.entry list;
  by_mac : (Netcore.Mac.t, Proto.entry) Hashtbl.t;
  by_ip : (Netcore.Ip.t, Proto.entry) Hashtbl.t;
  by_domid : (int, Proto.entry) Hashtbl.t;
}

let create () =
  {
    current = [];
    by_mac = Hashtbl.create 16;
    by_ip = Hashtbl.create 16;
    by_domid = Hashtbl.create 16;
  }

let add_if_absent tbl key entry =
  if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key entry

let reindex t =
  Hashtbl.reset t.by_mac;
  Hashtbl.reset t.by_ip;
  Hashtbl.reset t.by_domid;
  List.iter
    (fun e ->
      add_if_absent t.by_mac e.Proto.entry_mac e;
      add_if_absent t.by_ip e.Proto.entry_ip e;
      add_if_absent t.by_domid e.Proto.entry_domid e)
    t.current

let update t entries =
  t.current <- entries;
  reindex t

(* Delta application (DESIGN.md §12): remove the left guests and any
   older incarnation of the joining ones, then append the joins.  One
   rebuild of the indices per delta keeps the per-packet lookups O(1)
   without a per-join O(n) reindex. *)
let apply_delta t ~joins ~leaves =
  let gone d =
    List.mem d leaves
    || List.exists (fun e -> e.Proto.entry_domid = d) joins
  in
  t.current <-
    List.filter (fun e -> not (gone e.Proto.entry_domid)) t.current @ joins;
  reindex t

let lookup t mac =
  Option.map (fun e -> e.Proto.entry_domid) (Hashtbl.find_opt t.by_mac mac)

let lookup_by_ip t ip = Hashtbl.find_opt t.by_ip ip

let mem_domid t domid = Hashtbl.mem t.by_domid domid
let find_domid t domid = Hashtbl.find_opt t.by_domid domid

let size t = List.length t.current

let clear t =
  t.current <- [];
  reindex t
