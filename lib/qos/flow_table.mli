(** Bounded per-flow accounting table.

    Each flow records bytes/frames/descriptors sent and overflow
    reroutes, plus its own {!Watermark} so congestion is signalled per
    flow.  Every flow has DRR weight 1. *)

type 'k flow = {
  f_key : 'k;
  f_label : string;  (** human-readable key, fixed at creation *)
  f_seq : int;  (** creation order, for deterministic listings *)
  mutable f_bytes : int;
  mutable f_frames : int;
  mutable f_descs : int;
  mutable f_overflows : int;
  f_mark : Watermark.t;
      (** raised at 3/4 of the flow's sub-queue bound, cleared at 1/4 *)
}

type 'k t

(** [create ~label_of ()]: an empty table.  When it holds 4096 flows the
    next miss resets it wholesale (accounting restarts; no frames are
    lost). *)
val create : label_of:('k -> string) -> unit -> 'k t

(** Find or create the flow for [key]. *)
val lookup : 'k t -> 'k -> 'k flow

(** All flows in creation order. *)
val flows : 'k t -> 'k flow list
