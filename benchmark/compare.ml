(* Judging runs.  A runs file is what [--json PATH] appends to — one JSON
   record per line — or a summary written by [--summarize], which keeps
   its records under "runs".

   [compare] takes two such files, a parent's runs and a change's, ideally
   ten or more of each made in alternating order, and marks every
   end-to-end metric of every workload:
   - unresolved: either side's quartile spread is wider than the bound,
     and not every run of the change beats every run of the parent;
   - worse: the change's median is worse than the parent's by more than
     the bound in BENCHMARK.json;
   - better: the change wins at least 9 of every 10 pairs, and the
     medians differ by more than the parent's own quartile spread;
   - unchanged: anything else. *)

let load path =
  let text = Json.read_file path in
  let records =
    match Json.parse text with
    | o -> (
        match Json.member_opt "runs" o with Some runs -> Json.to_list runs | None -> [ o ])
    | exception Json.Error _ ->
        List.filter_map
          (fun line -> if String.trim line = "" then None else Some (Json.parse line))
          (String.split_on_char '\n' text)
  in
  List.map (fun r -> (Json.to_str (Json.member "workload" r), r)) records

let workloads runs =
  List.fold_left (fun acc (w, _) -> if List.mem w acc then acc else acc @ [ w ]) [] runs

let values runs workload metric =
  Array.of_list
    (List.filter_map
       (fun (w, r) ->
         if w <> workload then None
         else
           Option.map
             (fun m -> Json.to_num (Json.member "value" m))
             (Json.member_opt metric (Json.member "metrics" (Json.member "result" r))))
       runs)

type verdict = Better | Worse | Unchanged | Unresolved | Missing

let label = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

let judge ~lower ~bound parent child =
  if Array.length parent = 0 || Array.length child = 0 then Missing
  else
    (* Express everything as "how much better the child is": positive is
       an improvement whichever way the metric points. *)
    let gain p c = if lower then p -. c else c -. p in
    let mp = Quantile.median parent and mc = Quantile.median child in
    let rel = if mp = 0.0 then 0.0 else gain mp mc /. Float.abs mp in
    let all_better =
      Array.for_all (fun c -> Array.for_all (fun p -> gain p c > 0.0) parent) child
    in
    let wins = ref 0 and pairs = min (Array.length parent) (Array.length child) in
    for i = 0 to pairs - 1 do
      if gain parent.(i) child.(i) > 0.0 then incr wins
    done;
    let q1, _, q3 = Quantile.quartiles parent in
    if Float.max (Quantile.spread parent) (Quantile.spread child) > bound && not all_better then
      Unresolved
    else if rel < -.bound then Worse
    else if 10 * !wins >= 9 * pairs && Float.abs (mc -. mp) > q3 -. q1 && rel > 0.0 then Better
    else Unchanged

let compare ~spec parent_path child_path =
  let bench = Json.parse (Json.read_file spec) in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m) = "lower",
          Json.to_num (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let parent = load parent_path and child = load child_path in
  let worse = ref 0 in
  List.iter
    (fun w ->
      let cells =
        List.map
          (fun (name, lower, bound) ->
            let p = values parent w name and c = values child w name in
            let v = judge ~lower ~bound p c in
            if v = Worse then incr worse;
            (name, v, p, c))
          metrics
      in
      Printf.printf "%s: %s\n" w
        (String.concat " " (List.map (fun (n, v, _, _) -> n ^ "=" ^ label v) cells));
      List.iter
        (fun (name, v, p, c) ->
          if v <> Missing then
            let show a =
              let q1, q2, q3 = Quantile.quartiles a in
              Printf.sprintf "%.5g [%.5g, %.5g] n=%d" q2 q1 q3 (Array.length a)
            in
            Printf.printf "  %-26s parent %s  child %s  %s\n" name (show p) (show c) (label v))
        cells)
    (workloads parent);
  if !worse > 0 then 1 else 0

(* Median and quartiles of every metric, per workload, plus the records
   themselves; this is how baseline.json is made. *)
let summarize path =
  let runs = load path in
  let num k r = match Json.member_opt k r with Some (Json.Num f) -> f | _ -> 0.0 in
  let summary =
    List.map
      (fun w ->
        let first = List.assoc w runs in
        let names =
          List.map fst (Json.to_obj (Json.member "metrics" (Json.member "result" first)))
        in
        ( w,
          Json.Obj
            (List.map
               (fun name ->
                 let v = values runs w name in
                 let q1, q2, q3 = Quantile.quartiles v in
                 ( name,
                   Json.Obj
                     [
                       ("median", Json.Num q2);
                       ("q1", Json.Num q1);
                       ("q3", Json.Num q3);
                       ("spread", Json.Num (Quantile.spread v));
                       ("n", Json.Num (float_of_int (Array.length v)));
                     ] ))
               names) ))
      (workloads runs)
  in
  let out =
    Json.Obj
      [
        ("nproc", Json.Num (List.fold_left (fun acc (_, r) -> Float.max acc (num "nproc" r)) 0.0 runs));
        ("total_run_s", Json.Num (List.fold_left (fun acc (_, r) -> acc +. num "host_s" r) 0.0 runs));
        ("summary", Json.Obj summary);
        ("runs", Json.Arr (List.map snd runs));
      ]
  in
  print_endline (Json.to_string out);
  0
