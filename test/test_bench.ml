(* The bench gate table (bench/gates.ml) against the committed
   BENCH_results.json: the document passes every row, each row catches
   its own value pushed past its bound, and the committed chaos section
   is what the soak measures today. *)

module Json = Bench_gates.Json
module Gates = Bench_gates.Gates

let committed = lazy (Json.parse (Json.read_file "../BENCH_results.json"))
let rows = Gates.rows ~smoke:false

let failing doc =
  let recorded = Lazy.force committed in
  List.filter_map
    (fun r ->
      match Gates.check ~recorded doc r with Ok _ -> None | Error _ -> Some r.Gates.name)
    rows

let test_committed_passes () =
  Alcotest.(check (list string)) "failed rows" [] (failing (Lazy.force committed))

let test_smoke_rows_are_full_rows () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Gates.name ^ " is a full-plan row") true (List.mem r rows))
    (Gates.rows ~smoke:true)

(* A copy of [doc] with the value at [path] replaced by [v]. *)
let rec set path v doc =
  match (path, doc) with
  | [], _ -> v
  | Gates.Key k :: rest, Json.Obj l ->
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) l)
  | Gates.Where sel :: rest, Json.Arr l ->
      let hit e = List.for_all (fun (k, x) -> Json.member_opt k e = Some x) sel in
      Json.Arr (List.map (fun e -> if hit e then set rest v e else e) l)
  | _ -> Alcotest.fail ("path does not fit the document: " ^ Gates.render path)

let test_sabotage r () =
  let doc = Lazy.force committed in
  let l = Gates.limit ~recorded:doc doc r in
  let past =
    match r.Gates.cmp with
    | Gates.Eq | Le -> l +. 1.0 +. Float.abs l
    | Ge -> l -. 1.0 -. Float.abs l
    | Gt -> l
  in
  Alcotest.(check (list string))
    "failed rows" [ r.Gates.name ]
    (failing (set r.Gates.path (Json.Num past) doc))

let test_chaos_record () =
  let fresh = Bench_gates.Chaos_doc.of_summary (Chaos.Soak.run ~seed:42 ()) in
  let recorded = Json.member "chaos" (Lazy.force committed) in
  Alcotest.(check (list string))
    "keys" (List.map fst (Json.to_obj fresh)) (List.map fst (Json.to_obj recorded));
  List.iter
    (fun (k, v) ->
      Alcotest.(check string) ("chaos." ^ k) (Json.to_string v)
        (Json.to_string (Json.member k recorded)))
    (Json.to_obj fresh)

let suites =
  [
    ( "bench.gates",
      [
        Alcotest.test_case "committed document passes every row" `Quick
          test_committed_passes;
        Alcotest.test_case "every smoke row is a full-plan row" `Quick
          test_smoke_rows_are_full_rows;
        Alcotest.test_case "committed chaos section matches a fresh soak" `Quick
          test_chaos_record;
      ]
      @ List.map
          (fun r ->
            Alcotest.test_case ("sabotage: " ^ r.Gates.name) `Quick (test_sabotage r))
          rows );
  ]
