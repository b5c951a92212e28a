type t = int32

let of_int32 v = v
let to_int32 t = t

let of_octets a b c d =
  let f x = Int32.of_int (x land 0xFF) in
  Int32.logor
    (Int32.shift_left (f a) 24)
    (Int32.logor (Int32.shift_left (f b) 16) (Int32.logor (Int32.shift_left (f c) 8) (f d)))

let octet t i = Int32.to_int (Int32.logand (Int32.shift_right_logical t (8 * (3 - i))) 0xFFl)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 0) (octet t 1) (octet t 2) (octet t 3)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let parse x =
          let v = int_of_string x in
          if v < 0 || v > 255 then raise Exit;
          v
        in
        Some (of_octets (parse a) (parse b) (parse c) (parse d))
      with Exit | Failure _ -> None)
  | _ -> None

let localhost = of_octets 127 0 0 1

let make ~subnet ~host = of_octets 10 subnet 0 host

let equal = Int32.equal
let pp fmt t = Format.pp_print_string fmt (to_string t)
