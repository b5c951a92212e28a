type t = int64

let mask48 = 0xFFFF_FFFF_FFFFL

let of_int64 v = Int64.logand v mask48
let to_int64 t = t

let of_bytes b off =
  Int64.of_int
    ((Bytes.get_uint16_be b off lsl 32)
    lor (Bytes.get_uint16_be b (off + 2) lsl 16)
    lor Bytes.get_uint16_be b (off + 4))

let broadcast = mask48

let byte t i = Int64.to_int (Int64.logand (Int64.shift_right_logical t (8 * (5 - i))) 0xFFL)

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (byte t 0) (byte t 1) (byte t 2)
    (byte t 3) (byte t 4) (byte t 5)

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then None
  else begin
    try
      let v =
        List.fold_left
          (fun acc p ->
            if String.length p <> 2 then raise Exit;
            Int64.logor (Int64.shift_left acc 8) (Int64.of_int (int_of_string ("0x" ^ p))))
          0L parts
      in
      Some v
    with Exit | Failure _ -> None
  end

let of_domid ~machine ~domid =
  (* Xen's OUI prefix 00:16:3e, then machine and domain ids. *)
  let prefix = 0x00163EL in
  of_int64
    (Int64.logor
       (Int64.shift_left prefix 24)
       (Int64.of_int (((machine land 0xFF) lsl 16) lor (domid land 0xFFFF))))

let is_broadcast t = Int64.equal t broadcast
let equal = Int64.equal
let pp fmt t = Format.pp_print_string fmt (to_string t)
