(* Order statistics used for latency percentiles and run-to-run spread. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Percentile [p] in [0, 100] of an already sorted array, interpolating
   linearly between closest ranks; 0 on an empty sample. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else if n = 1 then s.(0)
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = min (int_of_float r) (n - 2) in
    let frac = r -. float_of_int i in
    s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median a = percentile (sorted a) 50.0

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] gives
   them (the default "exclusive" method), so spreads read the same here
   and in any tool that checks this benchmark's runs. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (s.(0), s.(0), s.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (i * m / 4) (n - 1)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
