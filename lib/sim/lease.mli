(** Lease bookkeeping: contiguous path-id ranges granted to path
    generators — worker processes under [--distribute], worker domains
    (and the collecting domain itself) in a parallel {!Campaign} — with
    their results banked per range until the collector consumes them in
    path order.

    Ranges are carved sequentially, so the lease queue is also the
    consumption order; each lease banks one verdict-class byte per path
    offset, a side table of the divergence and error details the
    accounting needs, and a per-range payload ['p] sized at carving
    (nothing for worker processes, the unboxed goal-crossing costs for
    domains).  A lease tracks the contiguous prefix banked so far.
    Results only ever come from a lease's current owner (a failed owner
    is dead before its lease returns to the pending pool), so the prefix
    only grows forward; anything at or below it is a duplicate — a
    reassigned range being regenerated, or a chaos-duplicated frame —
    and is counted and dropped, never double-fed.  That single rule is
    the whole duplicate-suppression argument: the collector feeds the
    statistical generator exactly once per path id, in path order.

    The table is not synchronised; in-process sessions guard it with
    one lock taken per range, not per path. *)

type outcome = (Path.verdict, Path.error) Result.t

(** Side-table payload for diverged/errored paths. *)
type detail = Div of Path.divergence | Err of Path.error

type 'p lease = private {
  id : int;
  lo : int;
  hi : int;  (** exclusive *)
  codes : Bytes.t;  (** class char per path offset; '\000' = missing *)
  payload : 'p;  (** per-range payload, written by the owner *)
  details : (int, detail) Hashtbl.t;  (** absolute path id -> detail *)
  mutable filled : int;  (** contiguous results banked from [lo] *)
  mutable owner : int option;  (** generator currently filling it *)
  mutable grants : int;  (** times granted; > 1 means reassigned *)
}

type 'p t

val range_size : remaining:int option -> workers:int -> cap:int -> int
(** The one range-size rule of both topologies:
    [clamp (ceil (remaining / (4 * workers))) 1 cap], and [cap] when the
    stopping rule has no plan ([remaining = None]).  Four ranges per
    generator balance the tail of a planned campaign; the cap bounds how
    far a generator runs ahead, and with it the work a sequential rule
    wastes past its stop. *)

val create : base:int -> size:int -> payload:(int -> 'p) -> 'p t
(** Ranges are carved from [base] (the resume cursor) in [size]-path
    slabs; [payload size] makes each fresh range's payload. *)

val grant : 'p t -> owner:int -> limit:int -> 'p lease
(** Hand out the lowest pending lease (a range lost by a failed owner)
    if any, else carve a fresh range, ended at [limit] (a {!carve_limit})
    when that comes first.  Re-granting an existing range
    counts as a reassignment; its banked prefix is kept. *)

val resize : 'p t -> int -> unit
(** Fresh ranges carved from now on have this many paths; ranges
    already carved keep theirs. *)

val pending : 'p t -> int
(** Ranges waiting to be (re)granted. *)

val find : 'p t -> int -> 'p lease option
(** Look up an unconsumed lease by id. *)

val frontier : 'p t -> int
(** First path id no carved range covers yet; [frontier - cursor] is
    the speculation depth (carved but unconsumed paths). *)

val carve_limit : cursor:int -> remaining:int option -> int
(** The end of the plan: the path id past the [remaining] samples a
    fixed-size stopping rule can still ask for at consumption cursor
    [cursor] ([max_int] for a sequential rule).  No fresh range should
    start at or past it, and {!grant} ends the last one there. *)

val outstanding : 'p t -> (int * int * int) list
(** [(id, lo, hi)] of every granted-but-not-fully-banked lease, in path
    order — the checkpoint's lease bookkeeping. *)

val held : 'p t -> owner:int -> int
(** Unconsumed leases [owner] currently owns. *)

val fail_owner : 'p t -> int -> int
(** Return every incomplete lease owned by this generator to the
    pending pool; banked results are kept (the replacement continues or
    regenerates the range bit-identically and any overlap is suppressed
    as duplicates).  Returns how many leases were taken back. *)

val head : 'p t -> cursor:int -> 'p lease option
(** Forget every fully consumed lease (those ending at or before
    [cursor]; this bounds the table's memory) and return the lowest
    unconsumed one — the lease holding [cursor] — if it has been
    carved.  The next fresh range of the same size reuses the buffers
    (codes, payload, details) of the last lease forgotten, so nothing
    may keep reading a lease once it is consumed. *)

val banked : 'p t -> cursor:int -> int
(** Banked results at or past [cursor] not yet consumed. *)

(** {1 Results} *)

val code : outcome -> char
(** The verdict class of one path, as banked and as sent on the wire. *)

val store : 'p lease -> int -> outcome -> unit
(** Bank path [path]'s class (and detail) into its owner's lease; the
    owner publishes the prefix with {!publish}. *)

val outcome : 'p lease -> int -> (outcome, string) result
(** The banked outcome of path [path], rebuilt from its class and its
    side-table entry as far as the collector's accounting needs. *)

val publish : 'p lease -> upto:int -> unit
(** Results for [[lo, upto)] are banked. *)

val record :
  'p t ->
  lease_id:int ->
  start:int ->
  string ->
  (int * detail) list ->
  [ `New of int * int | `Duplicate | `Unknown | `Gap ]
(** Bank one batch of verdict classes from a worker process, starting
    at absolute path id [start].  [`New (fresh, dup)]: [fresh] paths
    extended the prefix, [dup] were overlap.  [`Duplicate]: nothing new
    (whole batch at or below the prefix).  [`Unknown]: the lease is
    already fully consumed and forgotten (a late duplicate).  [`Gap]:
    the batch starts beyond the prefix — a protocol violation from a
    live owner. *)
