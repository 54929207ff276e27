(** Finite unions of real intervals with open/closed endpoints.

    This is the workhorse of delay-window computation: with constant
    derivatives, the set of delays at which a linear guard holds is a
    finite union of intervals, and Boolean structure maps to set algebra.
    Values are kept normalized: intervals are sorted, pairwise disjoint,
    and maximal (touching intervals whose union is connected are merged). *)

type bound =
  | Neg_inf
  | Fin of float * bool  (** value, [true] iff the endpoint is included *)
  | Pos_inf

type interval = private {
  lo : bound;  (** [Neg_inf] or [Fin _]; never [Pos_inf] *)
  hi : bound;  (** [Pos_inf] or [Fin _]; never [Neg_inf] *)
}

type t
(** A normalized finite union of non-empty intervals. *)

(** {1 Constructors} *)

val empty : t
val full : t

val point : float -> t
(** [point x] is the singleton [{x}]. *)

val make : bound -> bound -> t
(** [make lo hi] is the interval from [lo] to [hi]; empty if degenerate. *)

val closed : float -> float -> t
(** [closed a b] = [[a, b]]; empty when [a > b]. *)

val open_ : float -> float -> t
(** [open_ a b] = [(a, b)]. *)

val at_least : float -> t
(** [at_least a] = [[a, +inf)]. *)

val greater_than : float -> t
(** [greater_than a] = [(a, +inf)]. *)

val at_most : float -> t
(** [at_most b] = [(-inf, b]]. *)

val less_than : float -> t
(** [less_than b] = [(-inf, b)]. *)

val of_intervals : (bound * bound) list -> t
(** Union of arbitrary (possibly overlapping, unsorted) intervals. *)

(** {1 Set algebra} *)

val union : t -> t -> t
val inter : t -> t -> t
val complement : t -> t
val diff : t -> t -> t

(** {1 Queries} *)

val is_empty : t -> bool
val equal : t -> t -> bool
val mem : float -> t -> bool

val intervals : t -> interval list
(** The normalized components, in increasing order. *)

val inf : t -> bound
(** Greatest lower bound of the set; [Pos_inf] when empty. *)

val sup : t -> bound
(** Least upper bound of the set; [Neg_inf] when empty. *)

val measure : t -> float
(** Lebesgue measure; [infinity] for unbounded sets. *)

val is_bounded : t -> bool

val component_at : float -> t -> interval option
(** [component_at x s] is the connected component of [s] containing [x],
    if any.  Used for "invariant holds throughout [0,d]": the admissible
    delays are the component of the invariant's satisfaction set at 0. *)

val first_point : eps:float -> t -> float option
(** The earliest element of the set, nudging into the interior by [eps]
    (never past the component's end) when the infimum is not attained.
    This realizes the ASAP strategy on left-open windows. *)

val last_point_below : eps:float -> float -> t -> float option
(** [last_point_below ~eps cap s]: the latest element of [s ∩ (-inf,cap]],
    nudged inward by [eps] when the supremum is not attained.  Realizes
    the MaxTime strategy. *)

val sample_uniform : (float -> float) -> t -> float option
(** [sample_uniform u01 s] draws uniformly (w.r.t. Lebesgue measure) from
    a bounded set [s], given [u01 x] returning a uniform draw in [[0,x)].
    When the measure is zero but the set is non-empty, returns the
    earliest attained point (or the infimum of the first component).
    Returns [None] when empty or unbounded. *)

val clamp_above : float -> t -> t
(** [clamp_above cap s] = [s ∩ (-inf, cap]]. *)

(** {1 Set arithmetic}

    Over-approximating arithmetic for the lint abstract interpreter
    ({!Slimsim_analyze}): each result contains the exact image
    [{f x y | x ∈ s1, y ∈ s2}] but may be larger — [mul],
    [pointwise_min] and [pointwise_max] return a single hull interval,
    and endpoint closedness may be widened. *)

val neg : t -> t
(** Exact pointwise negation. *)

val add : t -> t -> t
(** Minkowski sum; exact up to merging of touching components. *)

val sub : t -> t -> t
(** [sub s1 s2] = [add s1 (neg s2)]. *)

val mul : t -> t -> t
(** Hull of the pointwise product; [full] when either factor is
    unbounded (and both are non-empty). *)

val pointwise_min : t -> t -> t
val pointwise_max : t -> t -> t

val as_point : t -> float option
(** [Some x] iff the set is exactly the closed singleton [{x}]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
