type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;
  target_ip : Ip.t;
}

let request ~sender_mac ~sender_ip ~target_ip =
  { op = Request; sender_mac; sender_ip; target_mac = Mac.of_int64 0L; target_ip }

let reply ~sender_mac ~sender_ip ~target_mac ~target_ip =
  { op = Reply; sender_mac; sender_ip; target_mac; target_ip }

let length = 28

let pp fmt t =
  match t.op with
  | Request ->
      Format.fprintf fmt "arp who-has %a tell %a" Ip.pp t.target_ip Ip.pp t.sender_ip
  | Reply -> Format.fprintf fmt "arp %a is-at %a" Ip.pp t.sender_ip Mac.pp t.sender_mac
