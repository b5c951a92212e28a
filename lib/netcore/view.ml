type kind = Plain | Fresh | Gather of t array
and t = { buf : Bytes.t; off : int; len : int; kind : kind }

(* A gather is the bytes [off, off + len) of its runs laid end to end;
   its [buf] is unused.  Runs are never gathers themselves, and a gather
   has at least two of them. *)

let empty = { buf = Bytes.empty; off = 0; len = 0; kind = Plain }
let of_bytes buf = { buf; off = 0; len = Bytes.length buf; kind = Plain }
let of_fresh buf = { buf; off = 0; len = Bytes.length buf; kind = Fresh }

(* Call [f buf off len] on each contiguous piece of the [len] bytes of
   [v] from [pos], in order. *)
let iter_range v ~pos ~len f =
  match v.kind with
  | Plain | Fresh -> if len > 0 then f v.buf (v.off + pos) len
  | Gather runs ->
      let skip = ref (v.off + pos) and left = ref len and i = ref 0 in
      while !left > 0 do
        let r = runs.(!i) in
        if !skip >= r.len then skip := !skip - r.len
        else begin
          let n = Int.min !left (r.len - !skip) in
          f r.buf (r.off + !skip) n;
          skip := 0;
          left := !left - n
        end;
        incr i
      done

let iter v f = iter_range v ~pos:0 ~len:v.len f

let concat views =
  match views with
  | [||] -> empty
  | [| v |] -> v
  | _ ->
      Array.iter
        (fun v -> match v.kind with Gather _ -> invalid_arg "View.concat" | Plain | Fresh -> ())
        views;
      let len = Array.fold_left (fun n v -> n + v.len) 0 views in
      { buf = Bytes.empty; off = 0; len; kind = Gather (Array.copy views) }

(* A range that lies inside one run of a gather is that run's own view,
   so whatever reads it next takes the contiguous path. *)
let sub v ~off ~len =
  if off < 0 || len < 0 || off + len > v.len then invalid_arg "View.sub";
  match v.kind with
  | Plain | Fresh -> { v with off = v.off + off; len }
  | Gather runs ->
      let start = v.off + off in
      let rec find i at =
        let r = runs.(i) in
        if start >= at + r.len then find (i + 1) (at + r.len)
        else if start + len <= at + r.len then
          { r with off = r.off + (start - at); len }
        else { v with off = start; len }
      in
      if len = 0 then empty else find 0 0

let is_whole v =
  match v.kind with
  | Plain | Fresh -> v.off = 0 && v.len = Bytes.length v.buf
  | Gather _ -> false

let is_owned v = v.kind = Fresh && is_whole v

let blit v ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > v.len then invalid_arg "View.blit";
  if dst_off < 0 || dst_off + len > Bytes.length dst then invalid_arg "View.blit";
  match v.kind with
  | Plain | Fresh -> Bytes.blit v.buf (v.off + src_off) dst dst_off len
  | Gather _ ->
      let d = ref dst_off in
      iter_range v ~pos:src_off ~len (fun buf off n ->
          Bytes.blit buf off dst !d n;
          d := !d + n)

let to_bytes v =
  if is_whole v then v.buf
  else
    match v.kind with
    | Plain | Fresh -> Bytes.sub v.buf v.off v.len
    | Gather _ ->
        let b = Bytes.create v.len in
        blit v ~src_off:0 b ~dst_off:0 ~len:v.len;
        b

let get v i =
  match v.kind with
  | Plain | Fresh -> Bytes.unsafe_get v.buf (v.off + i)
  | Gather runs ->
      let rec go j at =
        let r = runs.(j) in
        if at < r.len then Bytes.unsafe_get r.buf (r.off + at) else go (j + 1) (at - r.len)
      in
      go 0 (v.off + i)

let equal a b =
  a.len = b.len
  &&
  let rec go i = i >= a.len || (get a i = get b i && go (i + 1)) in
  go 0
