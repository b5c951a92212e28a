type hypercall =
  | Gnttab_map_grant_ref
  | Gnttab_unmap_grant_ref
  | Gnttab_copy
  | Gnttab_transfer
  | Evtchn_send

let slot = function
  | Gnttab_map_grant_ref -> 0
  | Gnttab_unmap_grant_ref -> 1
  | Gnttab_copy -> 2
  | Gnttab_transfer -> 3
  | Evtchn_send -> 4

let hypercall_kinds = 5

type op =
  | Hypercall of hypercall
  | Page_copy of int
  | Page_zero
  | Event_notify
  | Domain_switch
  | Grant_map
  | Grant_unmap

type t = {
  by_hypercall : int array;  (* [slot] -> count *)
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
    by_hypercall = Array.make hypercall_kinds 0;
    total_hypercalls = 0;
    copied = 0;
    zeroes = 0;
    notifies = 0;
    switches = 0;
    maps = 0;
    unmaps = 0;
  }

let record t = function
  | Hypercall h ->
      t.total_hypercalls <- t.total_hypercalls + 1;
      let i = slot h in
      t.by_hypercall.(i) <- t.by_hypercall.(i) + 1
  | Page_copy bytes -> t.copied <- t.copied + bytes
  | Page_zero -> t.zeroes <- t.zeroes + 1
  | Event_notify -> t.notifies <- t.notifies + 1
  | Domain_switch -> t.switches <- t.switches + 1
  | Grant_map -> t.maps <- t.maps + 1
  | Grant_unmap -> t.unmaps <- t.unmaps + 1

let hypercalls t = t.total_hypercalls

let hypercall_count t h = t.by_hypercall.(slot h)

let bytes_copied t = t.copied
let page_zeroes t = t.zeroes
let event_notifies t = t.notifies
let domain_switches t = t.switches
let grant_maps t = t.maps

let reset t =
  Array.fill t.by_hypercall 0 hypercall_kinds 0;
  t.total_hypercalls <- 0;
  t.copied <- 0;
  t.zeroes <- 0;
  t.notifies <- 0;
  t.switches <- 0;
  t.maps <- 0;
  t.unmaps <- 0

let merge_into ~src ~dst =
  Array.iteri (fun i n -> dst.by_hypercall.(i) <- dst.by_hypercall.(i) + n) src.by_hypercall;
  dst.total_hypercalls <- dst.total_hypercalls + src.total_hypercalls;
  dst.copied <- dst.copied + src.copied;
  dst.zeroes <- dst.zeroes + src.zeroes;
  dst.notifies <- dst.notifies + src.notifies;
  dst.switches <- dst.switches + src.switches;
  dst.maps <- dst.maps + src.maps;
  dst.unmaps <- dst.unmaps + src.unmaps
