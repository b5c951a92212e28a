type t = { series_name : string; mutable rev_points : (float * float) list }

let create ~name = { series_name = name; rev_points = [] }

let record t ~x ~y = t.rev_points <- (x, y) :: t.rev_points

let points t = List.rev t.rev_points

let bucketize ~width pts =
  if width <= 0.0 then invalid_arg "Series.bucketize: width must be positive";
  let table = Hashtbl.create 16 in
  let bucket_of x = int_of_float (floor (x /. width)) in
  List.iter
    (fun (x, y) ->
      let b = bucket_of x in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt table b) in
      Hashtbl.replace table b (cur +. y))
    pts;
  Hashtbl.fold (fun b total acc -> (b, total) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (b, total) -> ((float_of_int b +. 0.5) *. width, total))
