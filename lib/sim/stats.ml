type t = {
  mutable data : float array;
  mutable size : int;
  (* Welford running moments keep mean/variance O(1) even with many
     observations. *)
  mutable mean_acc : float;
  mutable m2 : float;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

let create () =
  {
    data = [||];
    size = 0;
    mean_acc = 0.0;
    m2 = 0.0;
    sum = 0.0;
    lo = infinity;
    hi = neg_infinity;
  }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ndata = Array.make ncap 0.0 in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean_acc in
  t.mean_acc <- t.mean_acc +. (delta /. float_of_int t.size);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.size
let total t = t.sum
let mean t = if t.size = 0 then 0.0 else t.mean_acc

let variance t = if t.size < 2 then 0.0 else t.m2 /. float_of_int t.size
let stddev t = sqrt (variance t)

let min t =
  if t.size = 0 then invalid_arg "Stats.min: empty";
  t.lo

let max t =
  if t.size = 0 then invalid_arg "Stats.max: empty";
  t.hi

let percentile t p =
  if t.size = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.sub t.data 0 t.size in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (t.size - 1) in
  let lo_idx = int_of_float (floor rank) in
  let hi_idx = int_of_float (ceil rank) in
  if lo_idx = hi_idx then sorted.(lo_idx)
  else begin
    let frac = rank -. float_of_int lo_idx in
    sorted.(lo_idx) +. (frac *. (sorted.(hi_idx) -. sorted.(lo_idx)))
  end

let median t = percentile t 50.0
