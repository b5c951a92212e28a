(* Per-flow accounting keyed by the caller's flow key (XenLoop uses
   the steering tuple).  Flows are created on first lookup; each flow
   carries its own congestion watermark so backpressure is per-flow,
   not per-channel.

   The table is bounded like the steering flow cache: when it fills,
   it is reset wholesale rather than evicted piecemeal — accounting
   restarts but no frame is ever dropped on reset. *)

type 'k flow = {
  f_key : 'k;
  f_label : string;
  f_seq : int;
  mutable f_bytes : int;
  mutable f_frames : int;
  mutable f_descs : int;
  mutable f_overflows : int;
  f_mark : Watermark.t;
}

type 'k t = {
  flows : ('k, 'k flow) Hashtbl.t;
  label_of : 'k -> string;
  mutable next_seq : int;
}

(* Table bound, and the watermark fractions of a flow's sub-queue bound
   at which its congestion signal is raised and cleared; the gap gives a
   hovering producer one edge per genuine crossing. *)
let max_flows = 4096
let high_watermark = 0.75
let low_watermark = 0.25

let create ~label_of () = { flows = Hashtbl.create 64; label_of; next_seq = 0 }

let lookup t key =
  match Hashtbl.find_opt t.flows key with
  | Some f -> f
  | None ->
      if Hashtbl.length t.flows >= max_flows then Hashtbl.reset t.flows;
      let f =
        {
          f_key = key;
          f_label = t.label_of key;
          f_seq = t.next_seq;
          f_bytes = 0;
          f_frames = 0;
          f_descs = 0;
          f_overflows = 0;
          f_mark = Watermark.create ~high:high_watermark ~low:low_watermark;
        }
      in
      t.next_seq <- t.next_seq + 1;
      Hashtbl.replace t.flows key f;
      f

let flows t =
  let all = Hashtbl.fold (fun _ f acc -> f :: acc) t.flows [] in
  List.sort (fun a b -> compare a.f_seq b.f_seq) all
