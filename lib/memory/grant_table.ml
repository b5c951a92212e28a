type domid = int
type gref = int

type error =
  | Bad_ref
  | Wrong_domain
  | Still_mapped
  | Not_mapped
  | Read_only
  | Wrong_kind
  | Nothing_transferred

let error_to_string = function
  | Bad_ref -> "bad grant reference"
  | Wrong_domain -> "grant issued to a different domain"
  | Still_mapped -> "grant still mapped by foreign domain"
  | Not_mapped -> "grant not mapped"
  | Read_only -> "write through read-only grant"
  | Wrong_kind -> "operation does not match grant kind"
  | Nothing_transferred -> "no page has been transferred yet"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type kind =
  | Access of { page : Page.t; writable : bool; mutable mapped : bool }
  | Transfer of { mutable incoming : Page.t option }

type entry = { to_dom : domid; kind : kind }

type t = {
  table_owner : domid;
  entries : (gref, entry) Hashtbl.t;
  mutable next_ref : gref;
  mutable map_fault_injector : (by:domid -> gref -> bool) option;
}

let create ~owner =
  { table_owner = owner; entries = Hashtbl.create 64; next_ref = 0;
    map_fault_injector = None }

let set_map_fault_injector t f = t.map_fault_injector <- f

let fresh_ref t =
  let r = t.next_ref in
  t.next_ref <- r + 1;
  r

let grant_access t ~to_dom ~page ~writable =
  let r = fresh_ref t in
  Hashtbl.replace t.entries r
    { to_dom; kind = Access { page; writable; mapped = false } };
  r

let grant_transfer t ~to_dom =
  let r = fresh_ref t in
  Hashtbl.replace t.entries r { to_dom; kind = Transfer { incoming = None } };
  r

let end_access t gref =
  match Hashtbl.find_opt t.entries gref with
  | None -> Error Bad_ref
  | Some { kind = Transfer _; _ } -> Error Wrong_kind
  | Some { kind = Access a; _ } ->
      if a.mapped then Error Still_mapped
      else begin
        Hashtbl.remove t.entries gref;
        Ok ()
      end

let take_transferred t gref =
  match Hashtbl.find_opt t.entries gref with
  | None -> Error Bad_ref
  | Some { kind = Access _; _ } -> Error Wrong_kind
  | Some { kind = Transfer tr; _ } -> (
      match tr.incoming with
      | None -> Error Nothing_transferred
      | Some page ->
          Hashtbl.remove t.entries gref;
          Ok page)

let active_grants t = Hashtbl.length t.entries

let revoke_mappings_for t ~dom =
  let revoked = ref 0 in
  Hashtbl.iter
    (fun _ entry ->
      match entry.kind with
      | Access a when entry.to_dom = dom && a.mapped ->
          a.mapped <- false;
          incr revoked
      | Access _ | Transfer _ -> ())
    t.entries;
  !revoked

let lookup_for t gref ~by =
  match Hashtbl.find_opt t.entries gref with
  | None -> Error Bad_ref
  | Some entry -> if entry.to_dom <> by then Error Wrong_domain else Ok entry

let hypercall meter name = Cost_meter.record meter (Cost_meter.Hypercall name)

let map t gref ~by ~meter =
  hypercall meter "gnttab_map_grant_ref";
  let faulted =
    match t.map_fault_injector with
    | None -> false
    | Some f -> f ~by gref
  in
  if faulted then Error Bad_ref
  else
  match lookup_for t gref ~by with
  | Error e -> Error e
  | Ok { kind = Transfer _; _ } -> Error Wrong_kind
  | Ok { kind = Access a; _ } ->
      a.mapped <- true;
      Cost_meter.record meter Cost_meter.Grant_map;
      Ok a.page

let unmap t gref ~by ~meter =
  hypercall meter "gnttab_unmap_grant_ref";
  match lookup_for t gref ~by with
  | Error e -> Error e
  | Ok { kind = Transfer _; _ } -> Error Wrong_kind
  | Ok { kind = Access a; _ } ->
      if not a.mapped then Error Not_mapped
      else begin
        a.mapped <- false;
        Cost_meter.record meter Cost_meter.Grant_unmap;
        Ok ()
      end

let copy_from t gref ~by ~meter ~src_off ~dst ~dst_off ~len =
  hypercall meter "gnttab_copy";
  match lookup_for t gref ~by with
  | Error e -> Error e
  | Ok { kind = Transfer _; _ } -> Error Wrong_kind
  | Ok { kind = Access a; _ } ->
      Page.read a.page ~off:src_off ~dst ~dst_off ~len;
      Cost_meter.record meter (Cost_meter.Page_copy len);
      Ok ()

let copy_to t gref ~by ~meter ~src ~src_off ~dst_off ~len =
  hypercall meter "gnttab_copy";
  match lookup_for t gref ~by with
  | Error e -> Error e
  | Ok { kind = Transfer _; _ } -> Error Wrong_kind
  | Ok { kind = Access a; _ } ->
      if not a.writable then Error Read_only
      else begin
        Page.write a.page ~off:dst_off ~src ~src_off ~len;
        Cost_meter.record meter (Cost_meter.Page_copy len);
        Ok ()
      end

let transfer t gref ~by ~meter ~page =
  hypercall meter "gnttab_transfer";
  match lookup_for t gref ~by with
  | Error e -> Error e
  | Ok { kind = Access _; _ } -> Error Wrong_kind
  | Ok { kind = Transfer tr; _ } ->
      tr.incoming <- Some page;
      (* The exchange page handed back must not leak data. *)
      let exchange = Page.create () in
      Cost_meter.record meter Cost_meter.Page_zero;
      Ok exchange
