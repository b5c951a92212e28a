type category = Discovery | Bootstrap | Channel | Migration | Teardown | Custom of string

let category_label = function
  | Discovery -> "discovery"
  | Bootstrap -> "bootstrap"
  | Channel -> "channel"
  | Migration -> "migration"
  | Teardown -> "teardown"
  | Custom s -> s

type record = { at : Time.t; cat : category; message : string }

type t = {
  capacity : int;
  ring : record option array;
  mutable next : int;
  mutable emitted : int;
  enabled_cats : (string, unit) Hashtbl.t;
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    ring = Array.make capacity None;
    next = 0;
    emitted = 0;
    enabled_cats = Hashtbl.create 8;
  }

let enable t cat = Hashtbl.replace t.enabled_cats (category_label cat) ()

let enable_all t =
  List.iter (enable t) [ Discovery; Bootstrap; Channel; Migration; Teardown ]

let disable t cat = Hashtbl.remove t.enabled_cats (category_label cat)
let enabled t cat = Hashtbl.mem t.enabled_cats (category_label cat)

let emit t cat ~time message =
  if enabled t cat then begin
    t.ring.(t.next mod t.capacity) <- Some { at = time; cat; message };
    t.next <- t.next + 1;
    t.emitted <- t.emitted + 1
  end

let emitf t cat ~time fmt =
  if enabled t cat then Format.kasprintf (fun message -> emit t cat ~time message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let records t =
  let len = min t.next t.capacity in
  let start = t.next - len in
  List.init len (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some r -> r
      | None -> assert false)

let count t = min t.next t.capacity
let total_emitted t = t.emitted

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.emitted <- 0
