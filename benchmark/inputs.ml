(* Seeded inputs.  Every number the simulator is given — when each request
   is due, how large each response is, which guest pair carries it, how
   large each bulk write is and when it is due — is drawn here from
   [--seed], one independent [Random.State] per stream.  The same seed
   gives the same inputs, bit for bit. *)

type rpc = {
  src : int array;  (** client guest index *)
  dst : int array;  (** server guest index *)
  due : int array;  (** ns after the measured phase starts; nondecreasing *)
  len : int array;  (** response payload bytes *)
}

type bulk = {
  wlen : int array;  (** write sizes, bytes *)
  wdue : int array option;
      (** paced writes: ns after the phase starts; [None] = closed loop *)
}

let no_rpc = { src = [||]; dst = [||]; due = [||]; len = [||] }
let no_bulk = { wlen = [||]; wdue = None }

let stream seed k = Random.State.make [| seed; k |]

let request_len = 64

(* Poisson arrivals: exponential gaps at [rate] per second. *)
let poisson st ~rate ~count =
  let t = ref 0.0 in
  Array.init count (fun _ ->
      let u = 1.0 -. Random.State.float st 1.0 in
      t := !t -. (log u /. rate);
      int_of_float (!t *. 1e9))

let log_uniform st ~lo ~hi =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  int_of_float (Float.round (exp (l +. Random.State.float st (h -. l))))

(* [pairs] are the (client, server) guest pairs; each request picks one
   uniformly.  Response sizes are uniform over [64, 1024] B, so they
   straddle the channel's 256 B inline threshold. *)
let rpc ~seed ~rate ~count ~pairs =
  let st_due = stream seed 1 and st_len = stream seed 2 and st_pair = stream seed 3 in
  let due = poisson st_due ~rate ~count in
  let len = Array.init count (fun _ -> 64 + Random.State.int st_len (1024 - 64 + 1)) in
  let pick = Array.init count (fun _ -> Random.State.int st_pair (Array.length pairs)) in
  {
    src = Array.map (fun p -> fst pairs.(p)) pick;
    dst = Array.map (fun p -> snd pairs.(p)) pick;
    due;
    len;
  }

(* Closed-loop bulk: write sizes log-uniform over [lo, hi] until [total]
   bytes. *)
let bulk_closed ~seed ~lo ~hi ~total =
  let st = stream seed 4 in
  let rec go acc sum =
    if sum >= total then Array.of_list (List.rev acc)
    else
      let n = log_uniform st ~lo ~hi in
      go (n :: acc) (sum + n)
  in
  { wlen = go [] 0; wdue = None }

(* Paced bulk: the same size law, each write due when the offered
   [bits_per_s] would have sent the bytes before it, for [span_ns] of
   simulated time. *)
let bulk_paced ~seed ~lo ~hi ~bits_per_s ~span_ns =
  let st = stream seed 4 in
  let rec go lens dues sent =
    let due = int_of_float (float_of_int sent *. 8.0 /. bits_per_s *. 1e9) in
    if due >= span_ns then (Array.of_list (List.rev lens), Array.of_list (List.rev dues))
    else
      let n = log_uniform st ~lo ~hi in
      go (n :: lens) (due :: dues) (sent + n)
  in
  let wlen, wdue = go [] [] 0 in
  { wlen; wdue = Some wdue }

let digest (r : rpc) (b : bulk) = Digest.to_hex (Digest.string (Marshal.to_string (r, b) []))
