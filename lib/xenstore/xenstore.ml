type domid = int

type error = Noent | Eacces | Einval

let pp_error fmt = function
  | Noent -> Format.pp_print_string fmt "no such node"
  | Eacces -> Format.pp_print_string fmt "permission denied"
  | Einval -> Format.pp_print_string fmt "invalid path"

type node = {
  mutable value : string option;
  children : (string, node) Hashtbl.t;
}

type event = Written of string | Removed

type watch_entry = {
  watch_id : int;
  prefix : string list;
  callback : string -> event -> unit;
}

type watch = { id : int }

type fault = Pass | Lost_watch | Stale_read

type t = {
  root : node;
  mutable watches : watch_entry list;
  mutable next_watch : int;
  (* Last value each node held before its most recent write — what a stale
     read returns.  Keyed by canonical path string. *)
  prev_values : (string, string) Hashtbl.t;
  mutable fault_injector : (op:[ `Read | `Watch ] -> path:string -> fault) option;
}

let dom0 = 0

let domain_path dom = Printf.sprintf "/local/domain/%d" dom

let make_node () = { value = None; children = Hashtbl.create 4 }

let create () =
  { root = make_node (); watches = []; next_watch = 0;
    prev_values = Hashtbl.create 32; fault_injector = None }

let set_fault_injector t f = t.fault_injector <- f

let consult t ~op ~path =
  match t.fault_injector with None -> Pass | Some f -> f ~op ~path

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else begin
    let segments =
      String.split_on_char '/' path |> List.filter (fun s -> s <> "")
    in
    if List.exists (fun s -> String.contains s ' ') segments then None
    else Some segments
  end

(* A guest may touch only its own subtree; Dom0 may touch everything. *)
let permitted ~caller segments =
  caller = dom0
  ||
  match segments with
  | "local" :: "domain" :: id :: _ -> id = string_of_int caller
  | _ -> false

let rec find_node node = function
  | [] -> Some node
  | seg :: rest -> (
      match Hashtbl.find_opt node.children seg with
      | None -> None
      | Some child -> find_node child rest)

let rec ensure_node node = function
  | [] -> node
  | seg :: rest ->
      let child =
        match Hashtbl.find_opt node.children seg with
        | Some c -> c
        | None ->
            let c = make_node () in
            Hashtbl.replace node.children seg c;
            c
      in
      ensure_node child rest

let is_prefix prefix segments =
  let rec go p s =
    match (p, s) with
    | [], _ -> true
    | _, [] -> false
    | ph :: pt, sh :: st -> ph = sh && go pt st
  in
  go prefix segments

let fire_watches t segments event =
  let path = "/" ^ String.concat "/" segments in
  List.iter
    (fun w ->
      if is_prefix w.prefix segments then
        match consult t ~op:`Watch ~path with
        | Lost_watch -> (* The event evaporates for this watcher. *) ()
        | Pass | Stale_read -> w.callback path event)
    t.watches

let with_path path f =
  match split_path path with None -> Error Einval | Some segments -> f segments

let write t ~caller ~path ~value =
  with_path path (fun segments ->
      if not (permitted ~caller segments) then Error Eacces
      else begin
        let node = ensure_node t.root segments in
        (match node.value with
        | Some old -> Hashtbl.replace t.prev_values ("/" ^ String.concat "/" segments) old
        | None -> ());
        node.value <- Some value;
        fire_watches t segments (Written value);
        Ok ()
      end)

let read t ~caller ~path =
  with_path path (fun segments ->
      if not (permitted ~caller segments) then Error Eacces
      else
        let path = "/" ^ String.concat "/" segments in
        let stale =
          match consult t ~op:`Read ~path with
          | Stale_read ->
              Hashtbl.find_opt t.prev_values path
          | Pass | Lost_watch -> None
        in
        match stale with
        | Some v -> Ok v
        | None -> (
            match find_node t.root segments with
            | None -> Error Noent
            | Some { value = None; _ } -> Error Noent
            | Some { value = Some v; _ } -> Ok v))

let rm t ~caller ~path =
  with_path path (fun segments ->
      if not (permitted ~caller segments) then Error Eacces
      else
        match List.rev segments with
        | [] -> Error Einval
        | last :: rev_parent -> (
            let parent_segments = List.rev rev_parent in
            match find_node t.root parent_segments with
            | None -> Error Noent
            | Some parent ->
                if Hashtbl.mem parent.children last then begin
                  Hashtbl.remove parent.children last;
                  fire_watches t segments Removed;
                  Ok ()
                end
                else Error Noent))

let exists t ~caller ~path =
  match read t ~caller ~path with
  | Ok _ -> true
  | Error _ -> (
      (* A node can exist with no value but with children. *)
      match split_path path with
      | None -> false
      | Some segments ->
          permitted ~caller segments && Option.is_some (find_node t.root segments))

let directory t ~caller ~path =
  with_path path (fun segments ->
      if not (permitted ~caller segments) then Error Eacces
      else
        match find_node t.root segments with
        | None -> Error Noent
        | Some node ->
            Ok (Hashtbl.fold (fun k _ acc -> k :: acc) node.children []
                |> List.sort compare))

let watch t ~caller ~path callback =
  match split_path path with
  | None -> Error Einval
  | Some segments ->
      if not (permitted ~caller segments) then Error Eacces
      else begin
        let watch_id = t.next_watch in
        t.next_watch <- watch_id + 1;
        t.watches <- { watch_id; prefix = segments; callback } :: t.watches;
        Ok { id = watch_id }
      end

let unwatch t w =
  t.watches <- List.filter (fun entry -> entry.watch_id <> w.id) t.watches

let node_count t =
  let rec count node =
    Hashtbl.fold (fun _ child acc -> acc + count child) node.children 1
  in
  count t.root - 1
