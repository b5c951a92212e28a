(** XenStore: the hierarchical key-value store maintained by Dom0.

    Permission model, after the paper (Sect. 3.2): Dom0 (domain id 0) can
    read and write everything; an unprivileged guest can read and modify
    only its own subtree [/local/domain/<id>], and in particular cannot read
    other guests' entries — which is exactly why XenLoop needs a discovery
    module in Dom0. *)

type t

type domid = int

type error = Noent | Eacces | Einval

val pp_error : Format.formatter -> error -> unit

val create : unit -> t

val dom0 : domid

val domain_path : domid -> string
(** ["/local/domain/<id>"]. *)

(** {1 Store operations}

    Paths are ['/']-separated, absolute ("/local/domain/3/xenloop").
    Writing creates intermediate nodes.  [rm] removes a whole subtree. *)

val write : t -> caller:domid -> path:string -> value:string -> (unit, error) result
val read : t -> caller:domid -> path:string -> (string, error) result
val rm : t -> caller:domid -> path:string -> (unit, error) result
val exists : t -> caller:domid -> path:string -> bool
(** [false] also when the caller lacks read permission. *)

val directory : t -> caller:domid -> path:string -> (string list, error) result
(** Child node names, sorted. *)

(** {1 Watches} *)

type event = Written of string | Removed
type watch

val watch :
  t -> caller:domid -> path:string -> (string -> event -> unit) -> (watch, error) result
(** Fire the callback for every change at or below [path] (the callback
    receives the affected path).  The caller must be able to read [path]. *)

val unwatch : t -> watch -> unit

(** {1 Introspection} *)

val node_count : t -> int

(** {1 Fault injection}

    Chaos-harness hooks.  The injector is consulted per watch delivery
    ([`Watch], once per matching watcher) and per [read] ([`Read]).
    [Lost_watch] silently swallows the watch event for that watcher;
    [Stale_read] makes the read return the value the node held before its
    most recent write (a torn view of the store) — if the node was never
    overwritten the read proceeds normally.  Soft-state protocols built on
    periodic scans (the paper's discovery module) must converge despite
    both. *)

type fault = Pass | Lost_watch | Stale_read

val set_fault_injector :
  t -> (op:[ `Read | `Watch ] -> path:string -> fault) option -> unit
