(** Xen-style grant tables.

    Each domain owns a grant table through which it can give other domains
    access to individual pages of its memory.  Two mechanisms exist, as in
    Xen: {e access} grants (the foreign domain maps or copies through the
    page) and {e transfer} grants (page ownership moves between domains).

    Cost accounting follows the paper's description (Sect. 2 and 3.3):
    issuing and revoking a grant is {e not} a hypercall for the granting
    domain (its grant table is mapped into its address space), whereas
    map/unmap/copy/transfer performed by the foreign domain each cost one
    hypercall, recorded against the foreign domain's {!Cost_meter}. *)

type t

type domid = int
type gref = int

type error =
  | Bad_ref
  | Wrong_domain  (** caller is not the domain the grant was issued to *)
  | Still_mapped  (** cannot revoke while a foreign mapping exists *)
  | Not_mapped
  | Read_only  (** write attempted through a read-only grant *)
  | Wrong_kind  (** access op on a transfer grant or vice versa *)
  | Nothing_transferred

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val create : owner:domid -> t

(** {1 Granter-side operations (no hypercall)} *)

val grant_access : t -> to_dom:domid -> page:Page.t -> writable:bool -> gref
val end_access : t -> gref -> (unit, error) result
val grant_transfer : t -> to_dom:domid -> gref
val take_transferred : t -> gref -> (Page.t, error) result
(** Collect the page a foreign domain transferred into a transfer grant;
    ends the grant. *)

val active_grants : t -> int

val revoke_mappings_for : t -> dom:domid -> int
(** Forget every live mapping held by [dom], returning how many were
    revoked.  This is the hypervisor's domain-destruction path: when a
    domain dies — cleanly or by crashing — Xen tears down its foreign
    mappings so granters are not wedged in [Still_mapped] forever.  Only
    the hypervisor ({!remove_domain} in the machine) may call this. *)

(** {1 Foreign-domain operations (one hypercall each)} *)

val map :
  t -> gref -> by:domid -> meter:Cost_meter.t -> (Page.t, error) result
(** Map a shared page into the foreign domain's address space.  The
    returned page aliases the granter's memory: writes through it are
    shared-memory writes. *)

val unmap : t -> gref -> by:domid -> meter:Cost_meter.t -> (unit, error) result

val copy_from :
  t ->
  gref ->
  by:domid ->
  meter:Cost_meter.t ->
  src_off:int ->
  dst:Bytes.t ->
  dst_off:int ->
  len:int ->
  (unit, error) result
(** GNTTABOP_copy out of the granted page. *)

val copy_to :
  t ->
  gref ->
  by:domid ->
  meter:Cost_meter.t ->
  src:Bytes.t ->
  src_off:int ->
  dst_off:int ->
  len:int ->
  (unit, error) result
(** GNTTABOP_copy into the granted page (requires a writable grant). *)

val transfer :
  t ->
  gref ->
  by:domid ->
  meter:Cost_meter.t ->
  page:Page.t ->
  (Page.t, error) result
(** Transfer [page] into the granter's transfer slot.  Returns a fresh,
    zeroed exchange page for the transferring domain (the zeroing cost is
    recorded, matching the security argument in the paper). *)

(** {1 Fault injection}

    Chaos-harness hook: the injector is consulted on every {!map}
    hypercall; returning [true] fails the map with [Bad_ref], modelling a
    transient GNTST_general_error.  The grant itself is untouched, so a
    retried map can succeed. *)

val set_map_fault_injector : t -> (by:domid -> gref -> bool) option -> unit
