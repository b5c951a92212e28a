(** XenLoop control-plane messages.

    These travel as a distinct layer-3 protocol type (paper Sect. 3.2/3.3):
    discovery announcements from Dom0, and the out-of-band channel
    bootstrap handshake between guests, carried over the standard
    netfront–netback path while the fast channel does not exist yet.

    {b Negotiation.}  Each guest advertises its queue count and its rung
    of the feature ladder ({!Hypervisor.Params.rung}) in its XenStore
    advert; Dom0 relays both in its {!Delta_announce} entries, and the
    connector repeats its own in {!Request_channel}.  The listener
    allocates [min(own, peer's)] queue pairs and sets the channel up at
    the lower of the two rungs: payload pools from [Zerocopy], and on
    the pools' control pages a loan credit from [Loans] and a jumbo
    ceiling from [Gso], so {!Create_channel} needs no capability of its
    own.

    {b Wire format.}  Each message has one layout, named by its first
    byte: 16 {!Delta_announce}, 17 {!Request_channel}, 11
    {!Create_channel}, 4 {!Channel_ack}, 5 {!App_payload}; any other tag
    decodes to [Error].  A rung travels as three capability bytes (rung at
    least [Zerocopy], [Loans], [Gso]); [Notify] needs no agreement and
    travels as [Paper].  A triple that is not monotone decodes to the
    highest rung all of its bytes up to that rung claim. *)

type entry = {
  entry_domid : int;
  entry_mac : Netcore.Mac.t;
  entry_ip : Netcore.Ip.t;
  entry_queues : int;  (** queue pairs this guest advertises per channel *)
  entry_rung : Hypervisor.Params.rung;  (** the rung this guest advertises *)
}

type queue_grant = {
  qg_lc_gref : Memory.Grant_table.gref;
      (** descriptor page of this queue's listener→connector FIFO *)
  qg_cl_gref : Memory.Grant_table.gref;
      (** descriptor page of this queue's connector→listener FIFO *)
  qg_port : Evtchn.Event_channel.port;
      (** this queue's dedicated event channel *)
  qg_lc_pool : Memory.Grant_table.gref option;
      (** control page of this queue's listener→connector payload pool
          (present only on a zero-copy channel; both directions together) *)
  qg_cl_pool : Memory.Grant_table.gref option;
}

type t =
  | Delta_announce of {
      da_base : int;
          (** the epoch this delta starts from — the recipient's acked
              epoch as Dom0 last read it (0 together with [da_full]) *)
      da_epoch : int;  (** the epoch this message brings the recipient to *)
      da_full : bool;
          (** [da_joins] is the complete willing-guest list (resync);
              [da_leaves] is empty *)
      da_joins : entry list;
      da_leaves : int list;  (** domids gone since [da_base] *)
    }
      (** Versioned delta announcement (DESIGN.md §12), what Dom0 sends
          every guest, so steady-state announce bytes per guest are
          O(churn), not O(cluster size).  An empty
          delta ([da_base = da_epoch], no joins/leaves) is the keep-alive
          heartbeat that refreshes the recipient's soft-state TTL. *)
  | Request_channel of {
      requester_domid : int;
      max_queues : int;
      rung : Hypervisor.Params.rung;
    }
      (** Sent by the higher-ID guest to ask the lower-ID guest (the
          listener) to create the channel resources; carries the
          requester's advertised queue count and rung. *)
  | Create_channel of { listener_domid : int; queues : queue_grant list }
      (** One grant/port triple per negotiated queue (never empty). *)
  | Channel_ack of { connector_domid : int }
  | App_payload of {
      src_ip : Netcore.Ip.t;
      src_port : int;
      dst_port : int;
      payload : Bytes.t;
    }
      (** Transport-level shortcut datagram (the paper's future-work
          direction, Sect. 6): an application payload carried over the
          channel with socket addressing only — no IP or UDP processing on
          either side. *)

val encode : t -> Bytes.t
val decode : Bytes.t -> (t, string) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
