(** A view of [len] bytes of a buffer, starting at [off] — the Cstruct
    idiom of Mirage's netfront [xmit buf off len].

    Packet payloads are views so that the TCP sender cuts segments out of
    the application's buffer, and the IP fragmenter cuts fragments out of
    the serialized transport blob, without copying either.  The bytes a
    view covers are shared, never copied, so whoever made the buffer must
    not change it while a view of it is alive. *)

type t = private { buf : Bytes.t; off : int; len : int; fresh : bool }
(** [fresh] marks a view of a buffer made by {!of_fresh}. *)

val empty : t

val of_bytes : Bytes.t -> t
(** The view of the whole buffer, which its maker keeps (a sender's
    write, a retransmitted segment). *)

val of_fresh : Bytes.t -> t
(** The view of the whole of a buffer just allocated for it, which no
    one else holds: the bytes a receive path parsed a frame into. *)

val sub : t -> off:int -> len:int -> t
(** [sub v ~off ~len] is the [len] bytes of [v] from [off] (relative to
    [v]).  @raise Invalid_argument if they are not all inside [v]. *)

val is_owned : t -> bool
(** The view covers the entire buffer of a {!of_fresh} view: whoever
    holds it may hand the buffer on as its own. *)

val to_bytes : t -> Bytes.t
(** The buffer itself when the view covers it whole, else a fresh copy
    of the view's bytes. *)

val blit : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** [blit v ~src_off dst ~dst_off ~len] copies [len] bytes of [v] from
    [src_off] (relative to [v]) into [dst] at [dst_off]. *)

val equal : t -> t -> bool
(** Same bytes; where they live does not matter. *)
