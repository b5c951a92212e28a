(* Spans for the traced run, recorded from the benchmark's own code around
   its calls into the libraries.  Nothing inside lib/ is instrumented.

   Two clocks, kept apart:
   - host spans time the benchmark's calls (scenario build and warmup,
     each 1 ms engine slice, each replay batch) on the host clock;
   - simulated spans follow one operation (an rpc or a bulk write)
     through its hops on the simulated clock.  Spans of one operation
     share its id, so the hops form a tree under the operation.

   Everything is held in arrays and written once, at exit, as Chrome
   trace-event JSON (Perfetto and chrome://tracing open it). *)

type host = {
  origin : float;
  mutable names : string array;
  mutable starts : float array;
  mutable durs : float array;
  mutable events : int array;  (* engine events inside the span; -1 if n/a *)
  mutable n : int;
}

(* One operation kind: [stamps.(k).(i)] is the simulated instant (ns) at
   which operation [i] crossed boundary [k]; hop [k] runs from stamp [k]
   to stamp [k+1], and the operation itself from the first stamp to the
   last.  A stamp of -1 means the boundary was never crossed. *)
type ops = { op : string; hops : string array; stamps : int array array }

type t = { host : host; mutable sim : ops list }

let create () =
  let cap = 4096 in
  {
    host =
      {
        origin = Unix.gettimeofday ();
        names = Array.make cap "";
        starts = Array.make cap 0.0;
        durs = Array.make cap 0.0;
        events = Array.make cap 0;
        n = 0;
      };
    sim = [];
  }

let grow h =
  let cap = 2 * Array.length h.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 h.n;
    b
  in
  h.names <- extend h.names "";
  h.starts <- extend h.starts 0.0;
  h.durs <- extend h.durs 0.0;
  h.events <- extend h.events 0

let record_host t name ~start ~events =
  let h = t.host in
  let stop = Unix.gettimeofday () in
  if h.n = Array.length h.names then grow h;
  h.names.(h.n) <- name;
  h.starts.(h.n) <- start -. h.origin;
  h.durs.(h.n) <- stop -. start;
  h.events.(h.n) <- events;
  h.n <- h.n + 1

(* [host_span tr name f] runs [f], recording a host span when tracing. *)
let host_span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let start = Unix.gettimeofday () in
      let r = f () in
      record_host t name ~start ~events:(-1);
      r

let add_ops t ops = t.sim <- t.sim @ [ ops ]

(* Durations (us) of hop [k] over every operation that crossed both of
   its boundaries. *)
let hop_us ops k =
  let a = ops.stamps.(k) and b = ops.stamps.(k + 1) in
  let out = ref [] in
  Array.iteri
    (fun i s -> if s >= 0 && b.(i) >= 0 then out := float_of_int (b.(i) - s) /. 1e3 :: !out)
    a;
  Array.of_list !out

(* At most this many operations per kind go to the file: the statistics
   above use all of them, but a full rpc run would write hundreds of MB. *)
let max_ops_written = 2000

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let first = ref true in
      let emit fields =
        if not !first then output_string oc ",\n";
        first := false;
        output_string oc (Json.to_string (Json.Obj fields))
      in
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
      let meta pid name =
        emit
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num (float_of_int pid));
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ]
      in
      meta 1 "host clock";
      meta 2 "simulated clock";
      let h = t.host in
      for i = 0 to h.n - 1 do
        emit
          ([
             ("name", Json.Str h.names.(i));
             ("cat", Json.Str "host");
             ("ph", Json.Str "X");
             ("pid", Json.Num 1.0);
             ("tid", Json.Num 1.0);
             ("ts", Json.Num (h.starts.(i) *. 1e6));
             ("dur", Json.Num (h.durs.(i) *. 1e6));
           ]
          @
          if h.events.(i) >= 0 then
            [ ("args", Json.Obj [ ("events", Json.Num (float_of_int h.events.(i))) ]) ]
          else [])
      done;
      List.iter
        (fun ops ->
          let last = Array.length ops.stamps - 1 in
          let n = min max_ops_written (Array.length ops.stamps.(0)) in
          let ev name ph id ns =
            emit
              [
                ("name", Json.Str name);
                ("cat", Json.Str ops.op);
                ("ph", Json.Str ph);
                ("id", Json.Num (float_of_int id));
                ("pid", Json.Num 2.0);
                ("tid", Json.Num 1.0);
                ("ts", Json.Num (float_of_int ns /. 1e3));
              ]
          in
          for i = 0 to n - 1 do
            let s = ops.stamps.(0).(i) and e = ops.stamps.(last).(i) in
            if s >= 0 && e >= 0 then begin
              ev ops.op "b" i s;
              for k = 0 to last - 1 do
                let a = ops.stamps.(k).(i) and b = ops.stamps.(k + 1).(i) in
                if a >= 0 && b >= 0 then begin
                  ev ops.hops.(k) "b" i a;
                  ev ops.hops.(k) "e" i b
                end
              done;
              ev ops.op "e" i e
            end
          done)
        t.sim;
      output_string oc "\n]}\n")
