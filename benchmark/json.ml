(* Just enough JSON for the benchmark's own files: BENCHMARK.json, the
   result line, run records and baseline.json.  No library in the
   toolchain provides it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Shortest decimal that reads back as the same float: every digit the
   measurement has, and no noise digits beyond it. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: not finite";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | Str s -> Buffer.add_string b (escape s)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (escape k);
          Buffer.add_string b ": ";
          to_buffer b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* --- Parsing --- *)

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Accessors (raise [Error] on a shape mismatch) --- *)

let member k = function
  | Obj l -> (
      match List.assoc_opt k l with
      | Some v -> v
      | None -> raise (Error ("missing key " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let member_opt k = function Obj l -> List.assoc_opt k l | _ -> None
let to_list = function Arr l -> l | _ -> raise (Error "not an array")
let to_num = function Num f -> f | _ -> raise (Error "not a number")
let to_str = function Str s -> s | _ -> raise (Error "not a string")
let to_bool = function Bool b -> b | _ -> raise (Error "not a boolean")
let to_obj = function Obj l -> l | _ -> raise (Error "not an object")
