(* surface-check: keep the public surface of lib/ to what something runs.

   Two checks, both by reading source text (nothing is compiled):

   - Dead exports.  Every [val] in lib/*/*.mli needs a caller outside its
     own module, counted over lib/, bench/, benchmark/, bin/ and
     examples/.  Tests do not count: a value that only tests call is a
     test seam and must be listed, with its reason, in
     tools/surface_allowlist.  An allowlist entry that names no [val], or
     that a production caller now uses, fails too, so the list stays
     exact.
   - Doc references.  Every backticked [`Module.value`] in DESIGN.md,
     EXPERIMENTS.md and README.md must name a compilation unit of lib/
     and a value, type or record field its .mli declares (standard
     library modules are skipped).  Every backticked span that starts
     with a [xenloop_] or [qos_] name must name a record field or value
     of lib/ (a field of [Params.t], a [let] in an implementation), so a
     retired knob cannot linger in the docs.

   A caller is a qualified use ([Fifo.pop], [Xenloop.Fifo.pop], or
   [Gm.stats] through a [module Gm = Xenloop.Guest_module] alias), or any
   mention of the name in a file that opens the module.  Comments and
   string literals are blanked first, so a mention in a doc comment or a
   format string is not a caller.

   Usage (from the repository root):
     surface_check.exe [ROOT]              both checks; exit 1 on a finding
     surface_check.exe --list [ROOT]       also list every export without a
                                           production caller and whether a
                                           test calls it
     surface_check.exe --self-test [ROOT]  copy the checked files to a
                                           temporary tree, add one unused
                                           [val], one stale doc
                                           reference and one retired knob
                                           name, and fail unless the check
                                           catches each *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower_start c = (c >= 'a' && c <= 'z') || c = '_'
let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Files *)

let files_in dir ~ext =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> List.mem (Filename.extension f) ext)
    |> List.map (Filename.concat dir)
  else []

let lib_dirs root =
  files_in (Filename.concat root "lib") ~ext:[ "" ]
  |> List.filter Sys.is_directory

let interfaces root = List.concat_map (files_in ~ext:[ ".mli" ]) (lib_dirs root)

(* Where production callers live, and where test callers live. *)
let production_sources root =
  List.concat_map (files_in ~ext:[ ".ml"; ".mli" ]) (lib_dirs root)
  @ List.concat_map
      (fun d -> files_in (Filename.concat root d) ~ext:[ ".ml" ])
      [ "bench"; "benchmark"; "bin"; "examples" ]

let test_sources root = files_in (Filename.concat root "test") ~ext:[ ".ml" ]
let docs = [ "DESIGN.md"; "EXPERIMENTS.md"; "README.md" ]
let allowlist_file = Filename.concat "tools" "surface_allowlist"

(* ------------------------------------------------------------------ *)
(* Lexing, just enough for names *)

(* [s] with comments and string literals blanked (newlines kept). *)
let strip_code s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let blank i = if i < n && s.[i] <> '\n' then Bytes.set b i ' ' in
  let depth = ref 0 and i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '(' && !i + 1 < n && s.[!i + 1] = '*' then begin
      incr depth;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if !depth > 0 && c = '*' && !i + 1 < n && s.[!i + 1] = ')' then begin
      decr depth;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      incr i;
      while !i < n && s.[!i] <> '"' do
        if s.[!i] = '\\' then begin
          blank !i;
          incr i
        end;
        blank !i;
        incr i
      done;
      blank !i;
      incr i
    end
    else if c = '\'' && !i + 3 < n && s.[!i + 1] = '\\' && s.[!i + 3] = '\'' then begin
      for j = !i to !i + 3 do blank j done;
      i := !i + 4
    end
    else if c = '\'' && !i + 2 < n && s.[!i + 2] = '\'' then begin
      for j = !i to !i + 2 do blank j done;
      i := !i + 3
    end
    else begin
      if !depth > 0 then blank !i;
      incr i
    end
  done;
  Bytes.to_string b

(* A token is a long identifier, split at its dots ([Xenloop.Fifo.pop]
   is [["Xenloop"; "Fifo"; "pop"]]), or one punctuation character. *)
type token = Id of string list | P of char

let tokens s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if is_ident c && not (c >= '0' && c <= '9') then begin
      let parts = ref [] in
      let continue = ref true in
      while !continue do
        let start = !i in
        while !i < n && is_ident s.[!i] do incr i done;
        parts := String.sub s start (!i - start) :: !parts;
        if !i + 1 < n && s.[!i] = '.' && is_ident s.[!i + 1]
           && not (s.[!i + 1] >= '0' && s.[!i + 1] <= '9')
        then incr i
        else continue := false
      done;
      out := Id (List.rev !parts) :: !out
    end
    else if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c >= '0' && c <= '9' then begin
      while !i < n && (is_ident s.[!i] || s.[!i] = '.') do incr i done
    end
    else begin
      out := P c :: !out;
      incr i
    end
  done;
  List.rev !out

let all_upper path = path <> [] && List.for_all (fun p -> is_upper p.[0]) path

(* ------------------------------------------------------------------ *)
(* Interfaces *)

type unit_info = {
  u_name : string;
  u_mli : string;
  u_vals : string list;  (** in declaration order, operators left out *)
  u_names : string list;  (** vals, types and record fields *)
}

let read_interface path =
  let toks = Array.of_list (tokens (strip_code (read_file path))) in
  let vals = ref [] and names = ref [] in
  let n = Array.length toks in
  let lower_at i =
    if i >= n then None
    else match toks.(i) with Id [ x ] when is_lower_start x.[0] -> Some x | _ -> None
  in
  for i = 0 to n - 1 do
    match toks.(i) with
    | Id [ ("val" | "external") ] -> (
        match lower_at (i + 1) with
        | Some x ->
            vals := x :: !vals;
            names := x :: !names
        | None -> ())
    | Id [ ("type" | "and") ] ->
        (* skip type parameters: 'a, or ('a, 'b) *)
        let j = ref (i + 1) in
        (match if !j < n then Some toks.(!j) else None with
        | Some (Id [ x ]) when x.[0] = '\'' -> incr j
        | Some (P '(') ->
            while !j < n && toks.(!j) <> P ')' do incr j done;
            incr j
        | _ -> ());
        Option.iter (fun x -> names := x :: !names) (lower_at !j)
    | Id [ x ] when is_lower_start x.[0] && i + 1 < n && toks.(i + 1) = P ':' -> (
        match if i > 0 then Some toks.(i - 1) else None with
        | Some (P '{' | P ';' | Id [ "mutable" ]) -> names := x :: !names
        | _ -> ())
    | _ -> ()
  done;
  {
    u_name = module_of_file path;
    u_mli = path;
    u_vals = List.rev !vals;
    u_names = !names;
  }

(* ------------------------------------------------------------------ *)
(* Callers *)

(* [module A = P] aliases in a token stream. *)
let aliases toks =
  let rec go acc = function
    | Id [ "module" ] :: Id [ a ] :: P '=' :: Id p :: rest when all_upper p ->
        go ((a, p) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> acc
  in
  go [] toks

(* The unit a module path names: expand a leading alias, then take the
   rightmost component that is a unit of lib/. *)
let resolve ~units ~aliases path =
  let rec expand depth = function
    | a :: rest when depth < 4 -> (
        match List.assoc_opt a aliases with
        | Some p -> expand (depth + 1) (p @ rest)
        | None -> a :: rest)
    | p -> p
  in
  List.fold_left
    (fun acc m -> if Hashtbl.mem units m then Some m else acc)
    None (expand 0 path)

(* Per file: the (unit, value) pairs it names qualified, the units it
   opens, and every lowercase word in it. *)
type uses = {
  qualified : (string * string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  words : (string, unit) Hashtbl.t;
}

let file_uses ~units path =
  let toks = tokens (strip_code (read_file path)) in
  let aliases = aliases toks in
  let u =
    {
      qualified = Hashtbl.create 64;
      opened = Hashtbl.create 4;
      words = Hashtbl.create 256;
    }
  in
  let open_path p =
    match resolve ~units ~aliases p with
    | Some m -> Hashtbl.replace u.opened m ()
    | None -> ()
  in
  let rec go = function
    | Id [ ("open" | "include") ] :: (P '!' :: Id p :: rest | Id p :: rest)
      when all_upper p ->
        open_path p;
        go rest
    | Id p :: P '.' :: P ('(' | '[' | '{') :: rest when all_upper p ->
        open_path p;
        go rest
    | Id parts :: rest ->
        List.iter
          (fun w -> if is_lower_start w.[0] then Hashtbl.replace u.words w ())
          parts;
        (* every Module.path.value run inside the long identifier *)
        let rec runs prefix = function
          | x :: more when is_upper x.[0] -> runs (x :: prefix) more
          | x :: more ->
              (if prefix <> [] then
                 match resolve ~units ~aliases (List.rev prefix) with
                 | Some m -> Hashtbl.replace u.qualified (m, x) ()
                 | None -> ());
              runs [] more
          | [] -> ()
        in
        runs [] parts;
        go rest
    | P _ :: rest -> go rest
    | [] -> ()
  in
  go toks;
  u

let calls (m, v) (file, u) =
  module_of_file file <> m
  && (Hashtbl.mem u.qualified (m, v) || (Hashtbl.mem u.opened m && Hashtbl.mem u.words v))

(* ------------------------------------------------------------------ *)
(* The checks *)

let load_units root =
  let units = Hashtbl.create 128 in
  List.iter
    (fun mli ->
      let info = read_interface mli in
      Hashtbl.replace units info.u_name info)
    (interfaces root);
  units

(* Exports with no production caller, in unit then declaration order. *)
let dead_exports ~units sources =
  let uses = List.map (fun f -> (f, file_uses ~units f)) sources in
  Hashtbl.fold (fun _ info acc -> info :: acc) units []
  |> List.sort (fun a b -> compare a.u_mli b.u_mli)
  |> List.concat_map (fun info ->
         List.filter_map
           (fun v ->
             if List.exists (calls (info.u_name, v)) uses then None
             else Some (info.u_name, v))
           info.u_vals)

let read_allowlist root =
  let path = Filename.concat root allowlist_file in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             let entry =
               match String.index_opt line ' ' with
               | Some i -> String.sub line 0 i
               | None -> line
             in
             match String.rindex_opt entry '.' with
             | Some i ->
                 let n = String.length entry in
                 Some (String.sub entry 0 i, String.sub entry (i + 1) (n - i - 1))
             | None -> Some (entry, ""))

(* Modules a doc may name that are not ours. *)
let external_modules =
  [ "Array"; "Array1"; "Bigarray"; "Buffer"; "Bytes"; "Char"; "Effect";
    "Filename"; "Float"; "Format"; "Fun"; "Gc"; "Hashtbl"; "In_channel"; "Int";
    "Int32"; "Int64"; "List"; "Map"; "Option"; "Out_channel"; "Printf"; "Queue";
    "Random"; "Result"; "Seq"; "Set"; "String"; "Sys"; "Unix"; "Cstruct";
    "Alcotest"; "QCheck"; "Stdlib" ]

let file_extensions = [ "json"; "md"; "ml"; "mli"; "sh"; "exe"; "txt"; "opam" ]

(* Backticked spans outside fenced code blocks, with their line. *)
let doc_spans text =
  let spans = ref [] and fenced = ref false in
  List.iteri
    (fun lineno line ->
      let t = String.trim line in
      if String.length t >= 3 && String.sub t 0 3 = "```" then fenced := not !fenced
      else if not !fenced then
        let parts = String.split_on_char '`' line in
        let last = List.length parts - 1 in
        List.iteri
          (fun k s -> if k mod 2 = 1 && k < last then spans := (lineno + 1, s) :: !spans)
          parts)
    (String.split_on_char '\n' text);
  List.rev !spans

(* A span that is exactly a qualified value path: [Module(.Module)*.value]. *)
let qualified_value span =
  match String.split_on_char '.' span with
  | _ :: _ :: _ as parts
    when List.for_all (fun p -> p <> "" && String.for_all is_ident p) parts ->
      let rev = List.rev parts in
      let v = List.hd rev and path = List.rev (List.tl rev) in
      if is_lower_start v.[0] && all_upper path then Some (path, v) else None
  | _ -> None

let stale_doc_refs ~units root =
  List.concat_map
    (fun doc ->
      let path = Filename.concat root doc in
      if not (Sys.file_exists path) then []
      else
        List.filter_map
          (fun (line, span) ->
            match qualified_value span with
            | None -> None
            | Some (_, v) when List.mem v file_extensions -> None
            | Some (path, v) -> (
                match resolve ~units ~aliases:[] path with
                | Some m ->
                    let info = Hashtbl.find units m in
                    if List.mem v info.u_names then None
                    else
                      Some
                        (Printf.sprintf "%s:%d: `%s`: %s.mli declares no %s" doc
                           line span m v)
                | None ->
                    if List.mem (List.hd path) external_modules then None
                    else
                      Some
                        (Printf.sprintf "%s:%d: `%s`: no compilation unit named %s"
                           doc line span (String.concat "." path))))
          (doc_spans (read_file path)))
    docs

(* Every lowercase name lib/ defines: what its interfaces declare and
   what its implementations bind. *)
let lib_names ~units root =
  let names = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _ info -> List.iter (fun n -> Hashtbl.replace names n ()) info.u_names)
    units;
  let rec bound = function
    | Id [ ("let" | "and") ] :: Id [ "rec" ] :: Id [ x ] :: rest
    | Id [ ("let" | "and") ] :: Id [ x ] :: rest ->
        Hashtbl.replace names x ();
        bound rest
    | _ :: rest -> bound rest
    | [] -> ()
  in
  List.iter
    (fun ml -> bound (tokens (strip_code (read_file ml))))
    (List.concat_map (files_in ~ext:[ ".ml" ]) (lib_dirs root));
  names

(* Knob spans: [`xenloop_queues`], [`qos_enabled = false`]. *)
let knob_name span =
  if String.starts_with ~prefix:"xenloop_" span || String.starts_with ~prefix:"qos_" span
  then begin
    let n = String.length span in
    let i = ref 0 in
    while !i < n && is_ident span.[!i] do incr i done;
    Some (String.sub span 0 !i)
  end
  else None

let stale_knob_refs ~units root =
  let names = lib_names ~units root in
  List.concat_map
    (fun doc ->
      let path = Filename.concat root doc in
      if not (Sys.file_exists path) then []
      else
        List.filter_map
          (fun (line, span) ->
            match knob_name span with
            | Some k when not (Hashtbl.mem names k) ->
                Some
                  (Printf.sprintf "%s:%d: `%s`: lib/ defines no field or value %s" doc
                     line span k)
            | Some _ | None -> None)
          (doc_spans (read_file path)))
    docs

(* Every finding, as one line each. *)
let findings root =
  let units = load_units root in
  let dead = dead_exports ~units (production_sources root) in
  let allow = read_allowlist root in
  let unlisted =
    List.filter_map
      (fun ((m, v) as mv) ->
        if List.mem mv allow then None
        else
          Some
            (Printf.sprintf "%s: %s.%s is exported but nothing outside %s calls it"
               (Hashtbl.find units m).u_mli m v m))
      dead
  in
  let stale_allow =
    List.filter_map
      (fun ((m, v) as mv) ->
        match Hashtbl.find_opt units m with
        | Some info when List.mem v info.u_vals ->
            if List.mem mv dead then None
            else
              Some
                (Printf.sprintf
                   "%s: %s.%s has a production caller now; drop it from the list"
                   allowlist_file m v)
        | _ ->
            Some
              (Printf.sprintf "%s: %s.%s names no exported value" allowlist_file m v))
      allow
  in
  unlisted @ stale_allow @ stale_doc_refs ~units root @ stale_knob_refs ~units root

(* Every export without a production caller, and whether a test calls it. *)
let list_dead root =
  let units = load_units root in
  let allow = read_allowlist root in
  let test_uses = List.map (fun f -> (f, file_uses ~units f)) (test_sources root) in
  List.iter
    (fun ((m, v) as mv) ->
      Printf.printf "%s.%s\t%s%s\n" m v
        (if List.exists (calls mv) test_uses then "test-only" else "no caller")
        (if List.mem mv allow then "\tallowlisted" else ""))
    (dead_exports ~units (production_sources root))

let report root =
  match findings root with
  | [] ->
      print_endline
        "surface-check: every export has a caller; every doc reference resolves";
      true
  | fs ->
      List.iter (fun f -> Printf.printf "surface-check: %s\n" f) fs;
      false

(* ------------------------------------------------------------------ *)
(* Self-test *)

let contains needle s =
  let n = String.length needle and l = String.length s in
  let rec at i = i + n <= l && (String.sub s i n = needle || at (i + 1)) in
  at 0

let rec copy_tree ~src ~dst ~keep =
  if Sys.is_directory src then begin
    if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
    Array.iter
      (fun f ->
        if f <> "_build" && f.[0] <> '.' then
          copy_tree ~src:(Filename.concat src f) ~dst:(Filename.concat dst f) ~keep)
      (Sys.readdir src)
  end
  else if keep src then write_file dst (read_file src)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let self_test root =
  let tmp = Filename.temp_dir "surface-check" "" in
  let keep path =
    List.mem (Filename.extension path) [ ".ml"; ".mli" ]
    || List.mem (Filename.basename path) (Filename.basename allowlist_file :: docs)
  in
  Fun.protect
    ~finally:(fun () -> remove_tree tmp)
    (fun () ->
      List.iter
        (fun d ->
          let src = Filename.concat root d in
          if Sys.file_exists src then copy_tree ~src ~dst:(Filename.concat tmp d) ~keep)
        ([ "lib"; "bench"; "benchmark"; "bin"; "examples"; "test"; "tools" ] @ docs);
      let caught name ~path ~append ~needle =
        let before = read_file path in
        write_file path (before ^ append);
        let fs = findings tmp in
        write_file path before;
        let hit = List.exists (contains needle) fs in
        Printf.printf "surface-check self-test: %s %s\n" name
          (if hit then "caught" else "MISSED");
        hit
      in
      let clean = findings tmp = [] in
      if not clean then
        print_endline "surface-check self-test: the unmodified copy is not clean";
      let dead =
        caught "unused val" ~path:(List.hd (interfaces tmp))
          ~append:"\nval surface_sabotage : unit -> unit\n" ~needle:"surface_sabotage"
      in
      let stale =
        caught "stale doc reference" ~path:(Filename.concat tmp "DESIGN.md")
          ~append:"\nSee `Fifo.surface_sabotage`.\n" ~needle:"Fifo.surface_sabotage"
      in
      let knob =
        caught "retired knob in a doc" ~path:(Filename.concat tmp "DESIGN.md")
          ~append:"\nSet `xenloop_zerocopy` to false.\n" ~needle:"xenloop_zerocopy"
      in
      clean && dead && stale && knob)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, rest =
    List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") args
  in
  let root = match rest with r :: _ -> r | [] -> "." in
  let ok =
    if List.mem "--self-test" flags then self_test root
    else if List.mem "--list" flags then begin
      list_dead root;
      true
    end
    else report root
  in
  exit (if ok then 0 else 1)
