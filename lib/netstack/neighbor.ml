type t = {
  cache : (Netcore.Ip.t, Netcore.Mac.t) Hashtbl.t;
  waiters : (Netcore.Ip.t, (Netcore.Mac.t -> unit) list) Hashtbl.t;
}

let create () = { cache = Hashtbl.create 16; waiters = Hashtbl.create 4 }

let lookup t ip = Hashtbl.find_opt t.cache ip
let insert t ip mac = Hashtbl.replace t.cache ip mac

let add_waiter t ip f =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.waiters ip) in
  Hashtbl.replace t.waiters ip (f :: existing)

let resolved t ip mac =
  insert t ip mac;
  match Hashtbl.find_opt t.waiters ip with
  | None -> ()
  | Some fs ->
      Hashtbl.remove t.waiters ip;
      List.iter (fun f -> f mac) (List.rev fs)
