(* Smoke and determinism test of the benchmark, run by [dune runtest]:

     smoke_test.exe RUN_EXE BENCHMARK_JSON

   Every run uses --smoke (about 1/50 of the full sizes).  It checks that
   - every metric BENCHMARK.json names is printed for every workload, and
     no operation failed;
   - two seed-1 runs print identical simulated values;
   - seed 2 generates different inputs;
   - the traced run reproduces the untraced simulated values exactly and
     writes a readable Chrome trace;
   - a corrupted receive-side check record makes the command fail. *)

let run_exe =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let spec = Json.parse (Json.read_file Sys.argv.(2))

let names key =
  List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key spec))

let workloads =
  List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member "workloads" spec))

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

(* Run the benchmark; returns its exit code and standard output lines. *)
let run args =
  let out = Filename.temp_file ~temp_dir:"." "smoke" ".out" in
  let cmd =
    String.concat " " (List.map Filename.quote (run_exe :: "--smoke" :: "--seconds" :: "0" :: args))
    ^ " > " ^ Filename.quote out
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove out;
  (code, lines)

(* "<workload> <metric> <value> <unit>" lines, and "# <workload> inputs <digest>" notes. *)
let metrics lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ w; m; v; _ ] when l.[0] <> '#' && l.[0] <> '{' -> Some ((w, m), v)
      | _ -> None)
    lines

let digests lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; w; "inputs"; d ] -> Some (w, d)
      | _ -> None)
    lines

let results lines =
  List.filter_map
    (fun l -> if l <> "" && l.[0] = '{' then Some (Json.parse l) else None)
    lines

let is_sim (_, m) = String.length m > 4 && String.sub m 0 4 = "sim_"
let sim_values lines = List.filter (fun (k, _) -> is_sim k) (metrics lines)

let check_all_ok what (code, lines) =
  if code <> 0 then fail "%s: exit code %d" what code;
  let rs = results lines in
  if List.length rs <> List.length workloads then
    fail "%s: %d result lines for %d workloads" what (List.length rs) (List.length workloads);
  List.iter
    (fun r ->
      if not (Json.to_bool (Json.member "correct" r)) then fail "%s: a result is not correct" what;
      if Json.to_num (Json.member "failed" r) <> 0.0 then fail "%s: failed operations" what)
    rs

let check_printed what lines key =
  let printed = metrics lines in
  List.iter
    (fun w ->
      List.iter
        (fun m -> if not (List.mem_assoc (w, m) printed) then fail "%s: %s %s not printed" what w m)
        (names key))
    workloads

let () =
  let ((_, a) as run_a) = run [ "--seed"; "1" ] in
  check_all_ok "seed 1" run_a;
  check_printed "seed 1" a "end_to_end";
  let ((_, b) as run_b) = run [ "--seed"; "1" ] in
  check_all_ok "seed 1 again" run_b;
  if sim_values a <> sim_values b then fail "two seed-1 runs print different simulated values";
  if sim_values a = [] then fail "no simulated values printed";
  let run_c = run [ "--seed"; "2" ] in
  check_all_ok "seed 2" run_c;
  List.iter
    (fun (w, d) ->
      if List.assoc_opt w (digests (snd run_c)) = Some d then
        fail "seed 2 gave %s the same inputs as seed 1" w)
    (digests a);
  let trace = "smoke-trace" in
  let ((_, t) as run_t) = run [ "--seed"; "1"; "--trace"; "1"; "--trace-out"; trace ] in
  check_all_ok "traced" run_t;
  check_printed "traced" t "per_layer";
  if sim_values t <> sim_values a then fail "the traced run changed a simulated value";
  List.iter
    (fun w ->
      let path = Printf.sprintf "%s.%s.json" trace w in
      (match Json.member "traceEvents" (Json.parse (Json.read_file path)) with
      | Json.Arr (_ :: _) -> ()
      | _ | (exception _) -> fail "%s is not a Chrome trace" path);
      if Sys.file_exists path then Sys.remove path)
    workloads;
  List.iter
    (fun w ->
      let code, lines = run [ "--workload"; w; "--self-test-corrupt" ] in
      if code = 0 then fail "a corrupted %s check record went unnoticed" w;
      if List.exists (fun r -> Json.to_bool (Json.member "correct" r)) (results lines) then
        fail "a corrupted %s check record still reads correct" w)
    [ "rpc"; "bulk" ];
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke: ok"
