(* sim-same: do two sets of benchmark runs agree on every simulated value?

   Reads two files of run records, as `benchmark/run.exe --json PATH`
   appends them, one JSON object per line.  For every (workload, seed)
   in either file, both files must hold a record, and every end-to-end
   metric whose name starts with "sim_" must be exactly equal in the
   two.  Host-clock metrics (set-up and wall seconds, peak RSS) are not
   compared.  A change that claims to leave the simulation alone runs
   this on the parent's and its own records (`make sim-same`).

   Usage: sim_same.exe PARENT.jsonl CHILD.jsonl
   Prints one line per workload and exits 1 on any difference. *)

let records path =
  Json.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let r = Json.parse line in
         let key =
           (Json.to_str (Json.member "workload" r), int_of_float (Json.to_num (Json.member "seed" r)))
         in
         let sim =
           Json.to_obj (Json.member "metrics" (Json.member "result" r))
           |> List.filter (fun (k, _) -> String.starts_with ~prefix:"sim_" k)
           |> List.map (fun (k, m) -> (k, Json.to_num (Json.member "value" m)))
         in
         (key, sim))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ parent; child ] ->
      let a = records parent and b = records child in
      let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
      let findings = ref [] in
      let note workload fmt =
        Printf.ksprintf (fun s -> findings := (workload, s) :: !findings) fmt
      in
      List.iter
        (fun ((workload, seed) as key) ->
          match (List.assoc_opt key a, List.assoc_opt key b) with
          | Some pa, Some pb ->
              List.iter
                (fun (k, va) ->
                  match List.assoc_opt k pb with
                  | Some vb when Float.equal va vb -> ()
                  | Some vb ->
                      note workload "seed %d %s: %s -> %s" seed k (Json.number va)
                        (Json.number vb)
                  | None -> note workload "seed %d %s missing in %s" seed k child)
                pa;
              List.iter
                (fun (k, _) ->
                  if not (List.mem_assoc k pa) then
                    note workload "seed %d %s missing in %s" seed k parent)
                pb
          | None, _ -> note workload "seed %d has no record in %s" seed parent
          | _, None -> note workload "seed %d has no record in %s" seed child)
        keys;
      let workloads = List.sort_uniq compare (List.map fst keys) in
      List.iter
        (fun w ->
          let seeds = List.length (List.filter (fun (w', _) -> w' = w) keys) in
          match List.filter (fun (w', _) -> w' = w) (List.rev !findings) with
          | [] -> Printf.printf "same  %-9s every sim_* value equal at %d seed(s)\n" w seeds
          | fs -> List.iter (fun (_, s) -> Printf.printf "DIFF  %-9s %s\n" w s) fs)
        workloads;
      if keys = [] then begin
        prerr_endline "sim_same: no run records";
        exit 1
      end;
      if !findings <> [] then exit 1
  | _ ->
      prerr_endline "usage: sim_same.exe PARENT.jsonl CHILD.jsonl";
      exit 2
