(** Campaign metrics: counters, log-bucketed histograms and timers.

    Every series (name + labels) is a single mutable cell owned by one
    domain by construction — workers record into their own labeled
    children (e.g. [~labels:["worker", "3"]]), so instrumentation never
    synchronizes across domains.  Cells are merged only at collection
    points ({!render} / {!write_file}); a mid-run exposition reads
    worker cells with plain loads, which in OCaml can be stale but never
    torn, so mid-run snapshots are approximate for in-flight series and
    exact once the owning domains have been joined.

    The whole subsystem is gated by a global flag (default off), the
    only switch its callers need: every recording entry point is one
    atomic load and a branch when disabled, and a series is registered
    (and so rendered) only when it is first requested while enabled.
    Callers therefore request their cells unconditionally.  Verdict
    streams are bit-identical either way — instrumentation performs no
    RNG draws and never touches simulation state. *)

type counter
type gauge
type histogram

val n_buckets : int
(** Number of histogram buckets (64): bucket 0 holds observations
    [<= 0], bucket [i] in 1..62 holds [(2^(i-33), 2^(i-32)]], bucket 63
    is the overflow. *)

val bucket_of : float -> int
(** The bucket index an observation lands in.  Bucket upper bounds are
    inclusive: an exact power of two [2^k] lands in the bucket whose
    {!bucket_upper} is [2^k].  [infinity] and NaN land in the overflow
    bucket.  Allocation-free. *)

val bucket_upper : int -> string
(** Upper bound (inclusive) of bucket [i], formatted as a Prometheus
    [le] label value ("0", "%g", or "+Inf"). *)

val set_enabled : bool -> unit
(** Master switch, default [false].  Enable before the campaign starts:
    its cells are requested, and so registered or not, when it is
    created and when its workers spawn. *)

val enabled : unit -> bool

val counter : ?labels:(string * string) list -> string -> help:string -> counter
(** Find or create the series [name{labels}]; the same arguments return
    the same cell, so a respawned worker keeps its counts.  A series
    first requested while metrics are disabled is not registered: the
    call returns a fresh cell that no exposition renders (and that stays
    at zero); one registered while enabled is found again after they
    are disabled.  The same holds for {!gauge} and {!histogram}. *)

val incr : counter -> unit
val add : counter -> int -> unit

val gauge : ?labels:(string * string) list -> string -> help:string -> gauge
(** A current-level series (campaigns running, cache entries, queue
    depth): set rather than accumulated, exposed with [# TYPE gauge]. *)

val set_gauge : gauge -> int -> unit

val histogram : ?labels:(string * string) list -> string -> help:string -> histogram
(** Log2-bucketed: bucket 0 holds observations [<= 0], then one bucket
    per power of two from [2^-32] to [2^31], plus overflow. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in seconds; when
    disabled, calls the thunk with no clock reads. *)

val counter_value : counter -> int
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val reset : unit -> unit
(** Zero every registered cell (tests, or a fresh campaign in-process). *)

val render : unit -> string
(** Prometheus text exposition (0.0.4): [# HELP]/[# TYPE] per family,
    cumulative [_bucket{le=...}] lines with empty buckets elided, and
    [_sum]/[_count] per histogram series. *)

val write_file : string -> unit
(** Atomically (tmp + rename) write {!render} to a file; nothing is
    written while metrics are disabled. *)
