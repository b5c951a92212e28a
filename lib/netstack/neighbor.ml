(* Both tables are keyed on the address's int32, with a monomorphic
   equality and an int hash: a generic [Hashtbl] would compare and hash
   the boxed int32 through the runtime on every lookup.  Neither table
   is iterated, so the hash decides nothing but speed. *)
module Ip_table = Hashtbl.Make (struct
  type t = int32

  let equal = Int32.equal

  let hash v =
    let h = (Int32.to_int v land 0xFFFF_FFFF) * 0x1E37_79B9_7F4A_7C15 in
    (h lxor (h lsr 32)) land max_int
end)

type t = {
  cache : Netcore.Mac.t Ip_table.t;
  waiters : (Netcore.Mac.t -> unit) list Ip_table.t;
}

let create () = { cache = Ip_table.create 16; waiters = Ip_table.create 4 }

let key = Netcore.Ip.to_int32
let lookup t ip = Ip_table.find_opt t.cache (key ip)
let insert t ip mac = Ip_table.replace t.cache (key ip) mac

let add_waiter t ip f =
  let existing = Option.value ~default:[] (Ip_table.find_opt t.waiters (key ip)) in
  Ip_table.replace t.waiters (key ip) (f :: existing)

let resolved t ip mac =
  insert t ip mac;
  match Ip_table.find_opt t.waiters (key ip) with
  | None -> ()
  | Some fs ->
      Ip_table.remove t.waiters (key ip);
      List.iter (fun f -> f mac) (List.rev fs)
