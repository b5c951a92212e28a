type verdict = Accept | Steal

type hook_handle = int

type hook =
  | Single of (Netcore.Packet.t -> verdict)
  | Batch of (Netcore.Packet.t list -> verdict list)

type t = {
  mutable hooks : (hook_handle * hook) list;
  mutable next_handle : int;
}

let create () = { hooks = []; next_handle = 0 }

let add t hook =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  t.hooks <- t.hooks @ [ (h, hook) ];
  h

let register t f = add t (Single f)
let register_batch t f = add t (Batch f)

let unregister t handle = t.hooks <- List.filter (fun (h, _) -> h <> handle) t.hooks

let pad_verdicts packets vs =
  (* The general path treats a short verdict list as Accept for the rest;
     the single-hook fast path must agree. *)
  let rec go packets vs acc =
    match (packets, vs) with
    | [], _ -> List.rev acc
    | _ :: ps, v :: vs' -> go ps vs' (v :: acc)
    | _ :: ps, [] -> go ps [] (Accept :: acc)
  in
  go packets vs []

let rec run_batch t packets =
  match t.hooks with
  | [] -> List.map (fun _ -> Accept) packets
  | [ (_, Single f) ] -> List.map (fun p -> f p) packets
  | [ (_, Batch f) ] -> pad_verdicts packets (f packets)
  | _ -> run_batch_general t packets

and run_batch_general t packets =
  (* Hooks run in registration order over the whole burst; a packet stolen
     by an earlier hook is not shown to later ones.  Relative order within
     the burst is preserved for every hook. *)
  let n = List.length packets in
  let verdicts = Array.make n Accept in
  let indexed = List.mapi (fun i p -> (i, p)) packets in
  let (_ : (int * Netcore.Packet.t) list) =
    List.fold_left
      (fun remaining (_, hook) ->
        match remaining with
        | [] -> []
        | _ -> (
            match hook with
            | Single f ->
                List.filter
                  (fun (i, p) ->
                    match f p with
                    | Steal ->
                        verdicts.(i) <- Steal;
                        false
                    | Accept -> true)
                  remaining
            | Batch f ->
                let vs = f (List.map snd remaining) in
                let rec keep rem vs acc =
                  match (rem, vs) with
                  | [], _ -> List.rev acc
                  | rem, [] -> List.rev_append acc rem
                  | (i, p) :: rem', v :: vs' -> (
                      match v with
                      | Steal ->
                          verdicts.(i) <- Steal;
                          keep rem' vs' acc
                      | Accept -> keep rem' vs' ((i, p) :: acc))
                in
                keep remaining vs []))
      indexed t.hooks
  in
  Array.to_list verdicts

let hook_count t = List.length t.hooks
