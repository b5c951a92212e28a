(** XenLoop control-plane messages.

    These travel as a distinct layer-3 protocol type (paper Sect. 3.2/3.3):
    discovery announcements from Dom0, and the out-of-band channel
    bootstrap handshake between guests, carried over the standard
    netfront–netback path while the fast channel does not exist yet.

    {b Queue-count negotiation.}  Multi-queue channels (an engineering
    extension over the paper's single FIFO pair) negotiate their queue
    count through this protocol: each guest advertises its
    {!Hypervisor.Params.t.xenloop_queues} in its XenStore advert, Dom0
    relays it in the {!Announce} entries, and the listener allocates
    [min(own, peer's advertised)] queue pairs.  The wire format is
    version-gated: the original single-queue tags are emitted bit-for-bit
    whenever a count of 1 is being expressed, so a queues=1 peer
    interoperates unchanged and a negotiated-to-1 handshake is exactly the
    paper-faithful byte stream.

    {b Zero-copy negotiation} (DESIGN.md §7) gates the same way: the
    zero-copy capability bit and the payload-pool grants ride dedicated
    tags emitted only when the capability is actually being expressed, so
    a [xenloop_zerocopy=off] guest — or an old binary — keeps producing
    and consuming the earlier byte streams unchanged and the channel
    falls back to the inline copy path.

    {b Loan negotiation} (DESIGN.md §11) adds one more rung: the
    loaned-slot-receive capability bit rides tags emitted only when a
    guest actually advertises it ([xenloop_loans] and zero-copy both on),
    so every earlier configuration keeps its exact byte streams.
    [Create_channel] needs no loan variant — the negotiated loan credit is
    stamped into the payload-pool control page, not the wire format.

    {b Segmentation-offload negotiation} (DESIGN.md §15) is the next
    rung: the gso capability bit rides tags emitted only when a guest
    actually advertises it ([xenloop_gso] on top of zero-copy), and —
    like the loan credit — the negotiated jumbo ceiling travels as a
    payload-pool control-page stamp, so [Create_channel] again needs no
    variant and every gso-off configuration keeps its exact byte
    streams. *)

type entry = {
  entry_domid : int;
  entry_mac : Netcore.Mac.t;
  entry_ip : Netcore.Ip.t;
  entry_queues : int;
      (** queue pairs this guest advertises per channel (1 for a
          single-queue peer, and when decoded from the legacy format) *)
  entry_zc : bool;
      (** the guest advertises the zero-copy descriptor channel (false
          when decoded from any pre-zero-copy format) *)
  entry_loans : bool;
      (** the guest advertises loaned-slot receive on top of zero-copy
          (false when decoded from any pre-loan format) *)
  entry_gso : bool;
      (** the guest advertises jumbo-descriptor segmentation offload on
          top of zero-copy (false when decoded from any pre-gso format) *)
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
  | Announce of entry list
      (** Dom0's collated [guest-ID, MAC, queues, zc] list of willing
          guests. *)
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
      zerocopy : bool;
      loans : bool;
      gso : bool;
    }
      (** Sent by the higher-ID guest to ask the lower-ID guest (the
          listener) to create the channel resources; carries the
          requester's advertised queue count and zero-copy/loan/gso
          capabilities. *)
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
