(** Statistical "generators" (§III-A): the component that consumes path
    verdicts and decides whether more simulation is required.

    The paper implements the Chernoff–Hoeffding generator and names
    Chow–Robbins and Gauss as planned extensions; all three are provided.
    Sequential generators are exactly why bias-free buffered collection
    (§III-C, [22]) matters: their stopping decision must see samples in a
    schedule-independent order. *)

type kind =
  | Chernoff  (** fixed N from the paper's CH formula *)
  | Hoeffding  (** fixed N from the tight Hoeffding formula *)
  | Gauss  (** fixed N from the CLT with worst-case variance *)
  | Chow_robbins
      (** sequential: stop once the CLT interval half-width is at most
          eps (with a small minimum sample count) *)
  | Mlmc
      (** multilevel Monte Carlo: coupled coarse/fine path pairs with
          per-level accumulators (see {!Mlmc} and the simulation-layer
          driver).  As a plain generator — the degenerate single-level
          case — it is the sequential CLT rule. *)

type t

val all_kinds : kind list
(** Every generator kind, in the order they are documented. *)

val min_sequential_samples : int
(** The fewest samples after which a sequential (CLT) rule may stop:
    below it the interval's half-width means nothing.  {!needs_more}
    applies it to trials; the E[cost] rule to sat paths. *)

val check : delta:float -> eps:float -> (unit, string) result
(** The parameters every generator accepts: [delta] in (0, 1), [eps]
    positive and finite.  The error names the offending one. *)

val create : kind -> delta:float -> eps:float -> t
(** Raises [Invalid_argument] on parameters {!check} rejects. *)

val planned_samples : t -> int option
(** [Some n] for fixed-size generators, [None] for sequential ones. *)

val remaining_samples : t -> int option
(** [Some (planned - trials)] for fixed-size generators, [None] for
    sequential ones.  A sizing hint for work hand-off (how many more
    kept samples the rule will ask for): under a [`Drop] divergence
    policy more paths than this may be consumed, so callers planning
    path-id ranges should treat it as a lower bound and keep consulting
    {!needs_more}. *)

val feed : t -> bool -> unit
(** Record one path verdict. *)

val needs_more : t -> bool
(** Whether further simulation is required. *)

val estimator : t -> Estimator.t
val kind : t -> kind
val delta : t -> float
val eps : t -> float

val z : t -> float
(** The normal quantile [z_{1-delta/2}] of the CLT intervals, computed
    once at {!create}. *)

val restore : t -> trials:int -> successes:int -> unit
(** Overwrite the underlying estimator state from a checkpoint.  Both
    the fixed-size rules and the sequential Chow–Robbins rule are pure
    functions of the restored counts (plus the immutable [delta]/[eps]),
    so a resumed campaign makes the same stopping decision as an
    uninterrupted one. *)

val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result
(** Inverse of {!kind_to_string}; the error message enumerates the valid
    names, so a CLI typo is self-explaining. *)
