type op =
  | Hypercall of string
  | Page_copy of int
  | Page_zero
  | Event_notify
  | Domain_switch
  | Grant_map
  | Grant_unmap

type t = {
  by_hypercall : (string, int) Hashtbl.t;
  mutable total_hypercalls : int;
  mutable copied : int;
  mutable zeroes : int;
  mutable notifies : int;
  mutable switches : int;
  mutable maps : int;
  mutable unmaps : int;
}

let create () =
  {
    by_hypercall = Hashtbl.create 16;
    total_hypercalls = 0;
    copied = 0;
    zeroes = 0;
    notifies = 0;
    switches = 0;
    maps = 0;
    unmaps = 0;
  }

let record t = function
  | Hypercall name ->
      t.total_hypercalls <- t.total_hypercalls + 1;
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.by_hypercall name) in
      Hashtbl.replace t.by_hypercall name (cur + 1)
  | Page_copy bytes -> t.copied <- t.copied + bytes
  | Page_zero -> t.zeroes <- t.zeroes + 1
  | Event_notify -> t.notifies <- t.notifies + 1
  | Domain_switch -> t.switches <- t.switches + 1
  | Grant_map -> t.maps <- t.maps + 1
  | Grant_unmap -> t.unmaps <- t.unmaps + 1

let hypercalls t = t.total_hypercalls

let hypercall_count t name =
  Option.value ~default:0 (Hashtbl.find_opt t.by_hypercall name)

let bytes_copied t = t.copied
let page_zeroes t = t.zeroes
let event_notifies t = t.notifies
let domain_switches t = t.switches
let grant_maps t = t.maps

let reset t =
  Hashtbl.reset t.by_hypercall;
  t.total_hypercalls <- 0;
  t.copied <- 0;
  t.zeroes <- 0;
  t.notifies <- 0;
  t.switches <- 0;
  t.maps <- 0;
  t.unmaps <- 0

let merge_into ~src ~dst =
  Hashtbl.iter
    (fun name n ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt dst.by_hypercall name) in
      Hashtbl.replace dst.by_hypercall name (cur + n))
    src.by_hypercall;
  dst.total_hypercalls <- dst.total_hypercalls + src.total_hypercalls;
  dst.copied <- dst.copied + src.copied;
  dst.zeroes <- dst.zeroes + src.zeroes;
  dst.notifies <- dst.notifies + src.notifies;
  dst.switches <- dst.switches + src.switches;
  dst.maps <- dst.maps + src.maps;
  dst.unmaps <- dst.unmaps + src.unmaps
