(* A memory-latency probe for scaling host times.

   On a shared host, other tenants' use of the last-level cache and of
   memory bandwidth slows the simulator by tens of percent for minutes at
   a time, and by much less from one pass to the next.  The probe is a
   chase of dependent loads around one pseudo-random cycle through a
   64 MiB array the GC never scans; its time rises and falls with that same
   contention, independently of any code in this repository.  Dividing a
   pass's time by the probe's, measured around the pass, leaves the
   simulator's own cost. *)

let slots = 8 * 1024 * 1024
let steps = 400_000

(* One dependent load takes this long on the reference host the scaled
   times are expressed for. *)
let reference_load_s = 100e-9

(* Slot i holds the next slot of a full-period linear congruential
   sequence modulo the (power-of-two) size, so the chase is one cycle
   through every slot with no stride a prefetcher could follow. *)
let cycle =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots in
     for i = 0 to slots - 1 do
       a.{i} <- ((1103515245 * i) + 12345) land (slots - 1)
     done;
     a)

(* Seconds per dependent load, now. *)
let load_s () =
  let a = Lazy.force cycle in
  let start = Unix.gettimeofday () in
  let j = ref 0 in
  for _ = 1 to steps do
    j := Bigarray.Array1.unsafe_get a !j
  done;
  ignore (Sys.opaque_identity !j);
  (Unix.gettimeofday () -. start) /. float_of_int steps
