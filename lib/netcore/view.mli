(** A view of [len] bytes of a buffer, starting at [off] — the Cstruct
    idiom of Mirage's netfront [xmit buf off len].

    Packet payloads are views so that the TCP sender cuts segments out of
    the application's buffer, and the IP fragmenter cuts fragments out of
    the serialized transport blob, without copying either.  The bytes a
    view covers are shared, never copied, so whoever made the buffer must
    not change it while a view of it is alive.

    A view may also gather several such runs, laid end to end: the TCP
    sender sends a corked runt and the bytes that top it up as one
    segment whose payload is a gather of views of the two writes.
    Whatever reads a view's bytes goes through {!blit}, {!iter},
    {!to_bytes} or {!equal}, which walk the runs; [buf] and [off] are the
    bytes themselves only for a [Plain] or [Fresh] view. *)

type kind =
  | Plain  (** one run of a buffer its maker keeps *)
  | Fresh  (** one run of a buffer made by {!of_fresh} *)
  | Gather of t array
      (** the view is bytes [off .. off + len - 1] of these runs laid end
          to end, each a one-run view; [buf] is unused *)

and t = private { buf : Bytes.t; off : int; len : int; kind : kind }

val empty : t

val of_bytes : Bytes.t -> t
(** The view of the whole buffer, which its maker keeps (a sender's
    write, a retransmitted segment). *)

val of_fresh : Bytes.t -> t
(** The view of the whole of a buffer just allocated for it, which no
    one else holds: the bytes a receive path parsed a frame into. *)

val concat : t array -> t
(** The bytes of one-run views one after another, without copying them:
    a gather of them, or the view itself when there is one.
    @raise Invalid_argument if one of them is a gather. *)

val sub : t -> off:int -> len:int -> t
(** [sub v ~off ~len] is the [len] bytes of [v] from [off] (relative to
    [v]); a range inside one run of a gather is that run's own view.
    @raise Invalid_argument if they are not all inside [v]. *)

val is_owned : t -> bool
(** The view covers the entire buffer of a {!of_fresh} view: whoever
    holds it may hand the buffer on as its own. *)

val to_bytes : t -> Bytes.t
(** The buffer itself when a one-run view covers it whole, else a fresh
    copy of the view's bytes. *)

val blit : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** [blit v ~src_off dst ~dst_off ~len] copies [len] bytes of [v] from
    [src_off] (relative to [v]) into [dst] at [dst_off].
    @raise Invalid_argument if either range is out of bounds. *)

val iter : t -> (Bytes.t -> int -> int -> unit) -> unit
(** [iter v f] calls [f buf off len] on each contiguous run of [v]'s
    bytes, in order: once for a one-run view. *)

val equal : t -> t -> bool
(** Same bytes; where they live does not matter. *)
