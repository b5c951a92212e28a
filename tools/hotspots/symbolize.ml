(* symbolize: turn the samples of sampler.so into a flat profile.

   Usage: symbolize.exe [--callers SYMBOL]... EXE SAMPLES...

   EXE is the profiled executable; each SAMPLES file is one process's
   output of sampler.so (HOTSPOTS_OUT.<pid>).  Program counters inside
   EXE are named with `nm -n`; counters in a shared object are charged
   to that object as a whole.  Prints:

   - the top 25 symbols by self samples, with their share of all samples;
   - for the write barrier (caml_modify, caml_darken), for polymorphic
     comparison and hashing (compare_val, caml_compare, caml_equal,
     caml_hash, ...) and for the generic application functions
     (caml_applyN, caml_curryN, paid by a call through a closure whose
     arity is unknown), their share of all samples and the OCaml
     functions that called them; [--callers Memory.Page.get_u32] adds
     the same list for one more symbol, named as the profile prints it.
     The caller of a sample is the first of its recorded stack words
     that points into OCaml code: the return address of the call into
     the runtime, or one a few frames further up; when that is a stdlib
     function, the next OCaml function found is shown after it.  The
     words at the current stack pointer come first; a function called
     through caml_c_call runs on the system stack, and its caller's
     return address is then found among the words at the saved OCaml
     stack pointer. *)

type obj = { name : string; base : int; lo : int; hi : int }

(* [words] from the current stack pointer, then from the saved OCaml one *)
type sample = { pc : int; words : int array }

(* Stack words are any 64-bit value; code addresses all fit an [int]. *)
let hex s = Int64.to_int (Int64.of_string ("0x" ^ s))

let read_samples path =
  let ic = open_in path in
  let objs = ref [] and samples = ref [] and dropped = ref 0 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "hotspots"; "2"; _; _ ] -> ()
       | [ "object"; base; lo; hi; name ] ->
           objs := { name; base = hex base; lo = hex lo; hi = hex hi } :: !objs
       | [ "dropped"; n ] -> dropped := int_of_string n
       | pc :: words ->
           samples := { pc = hex pc; words = Array.of_list (List.map hex words) } :: !samples
       | [] -> ()
     done
   with End_of_file -> close_in ic);
  (List.rev !objs, !samples, !dropped)

(* Text symbols of [exe], sorted by address. *)
let text_symbols exe =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; "--defined-only"; exe |] in
  let syms = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ addr; ("T" | "t" | "W" | "w"); name ] -> syms := (hex addr, name) :: !syms
       | _ -> ()
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("symbolize: nm failed on " ^ exe));
  let a = Array.of_list (List.rev !syms) in
  Array.stable_sort (fun (x, _) (y, _) -> compare x y) a;
  a

(* The last symbol at or below [addr], if any. *)
let lookup syms addr =
  let lo = ref 0 and hi = ref (Array.length syms - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if fst syms.(mid) <= addr then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found < 0 then None else Some (snd syms.(!found))

let replace_all s ~sub ~by =
  let b = Buffer.create (String.length s) and n = String.length sub in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* camlSim__Engine.alloc_cell_519 -> Sim.Engine.alloc_cell *)
let demangle name =
  let n = String.length name in
  if n > 5 && String.sub name 0 4 = "caml" && Char.uppercase_ascii name.[4] = name.[4]
     && name.[4] <> '_'
  then begin
    let s = String.sub name 4 (n - 4) in
    let s = replace_all s ~sub:"__" ~by:"." in
    match String.rindex_opt s '_' with
    | Some i
      when i < String.length s - 1
           && String.for_all (fun c -> c >= '0' && c <= '9')
                (String.sub s (i + 1) (String.length s - i - 1)) ->
        String.sub s 0 i
    | _ -> s
  end
  else name

let is_ocaml name =
  String.length name > 4 && String.sub name 0 4 = "caml"
  && name.[4] >= 'A' && name.[4] <= 'Z'

let barrier = [ "caml_modify"; "caml_darken" ]

let polymorphic =
  [ "compare_val"; "caml_compare"; "caml_equal"; "caml_notequal"; "caml_lessthan";
    "caml_lessequal"; "caml_greaterthan"; "caml_greaterequal"; "caml_hash" ]

let is_apply name =
  List.exists (fun p -> String.starts_with ~prefix:p name) [ "caml_apply"; "caml_curry" ]

(* The groups whose callers are listed: label, and whether a symbol
   (raw name) belongs to the group. *)
let default_groups =
  [
    ("caml_modify + caml_darken", fun n -> List.mem n barrier);
    ("polymorphic compare/hash", fun n -> List.mem n polymorphic);
    ("caml_applyN/caml_curryN", is_apply);
  ]

let rec parse_args groups = function
  | "--callers" :: sym :: rest ->
      parse_args (groups @ [ (sym, fun n -> demangle n = sym) ]) rest
  | rest -> (groups, rest)

let top = 25

let () =
  let groups, args = parse_args default_groups (List.tl (Array.to_list Sys.argv)) in
  match args with
  | exe :: (_ :: _ as files) ->
      let syms = text_symbols exe in
      let self = Hashtbl.create 256 in
      let callers = Hashtbl.create 16 in
      let total = ref 0 and dropped = ref 0 in
      let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
      List.iter
        (fun file ->
          let objs, samples, d = read_samples file in
          dropped := !dropped + d;
          let name_of addr =
            match List.find_opt (fun o -> addr >= o.lo && addr < o.hi) objs with
            | Some o when o.name = "[exe]" -> lookup syms (addr - o.base)
            | Some o -> Some ("[" ^ Filename.basename o.name ^ "]")
            | None -> None
          in
          List.iter
            (fun s ->
              incr total;
              let name = Option.value ~default:"[unknown]" (name_of s.pc) in
              bump self name;
              List.iter
                (fun (g, member) ->
                  if member name then begin
                    (* The caller, and the caller's caller when the first
                       is the stdlib's (a generic [min], [Hashtbl.add]). *)
                    let frames =
                      Array.to_list s.words
                      |> List.filter_map (fun w ->
                             match name_of w with
                             | Some n when is_ocaml n && n <> name -> Some (demangle n)
                             | _ -> None)
                    in
                    let caller =
                      match frames with
                      | [] -> "[no OCaml caller]"
                      | f :: rest when String.starts_with ~prefix:"Stdlib." f -> (
                          match List.find_opt (fun g -> g <> f) rest with
                          | Some g -> f ^ " < " ^ g
                          | None -> f)
                      | f :: _ -> f
                    in
                    bump callers (g, caller)
                  end)
                groups)
            samples)
        files;
      let total = !total in
      if total = 0 then (prerr_endline "symbolize: no samples"; exit 1);
      let pct n = 100. *. float n /. float total in
      let sorted tbl = List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
      Printf.printf "%d samples (%d dropped)\n\nself%%  samples  symbol\n" total !dropped;
      List.iteri
        (fun i (name, n) -> if i < top then Printf.printf "%5.1f  %7d  %s\n" (pct n) n (demangle name))
        (sorted self);
      let sum p = Hashtbl.fold (fun k v acc -> if p k then acc + v else acc) self 0 in
      List.iter
        (fun (g, member) ->
          Printf.printf "\n%s: %.2f%% of samples; OCaml callers:\n" g (pct (sum member));
          List.iteri
            (fun i ((_, caller), n) -> if i < 12 then Printf.printf "%5.1f  %7d  %s\n" (pct n) n caller)
            (List.filter (fun ((g', _), _) -> g' = g) (sorted callers)))
        groups
  | _ ->
      prerr_endline "usage: symbolize.exe [--callers SYMBOL]... EXE SAMPLES...";
      exit 2
