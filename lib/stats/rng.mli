(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Simulation paths draw from an RNG derived from [(seed, path_index)],
    so the result of a Monte Carlo run is bit-identical no matter how the
    paths are scheduled across workers — a stronger guarantee than the
    bias-freedom of buffered collection, and one we test for. *)

type t

val create : int64 -> t
(** Fresh generator from a 64-bit seed. *)

val for_path : seed:int64 -> path:int -> t
(** Independent stream for path number [path] of a run seeded [seed]. *)

val for_path_level : seed:int64 -> level:int -> path:int -> t
(** Independent stream for path [path] at multilevel-Monte-Carlo level
    [level]: the derivation key is [(seed, level, path)], so coupled
    coarse/fine pairs and distributed runs stay bit-identical no matter
    how levels are scheduled.  [for_path_level ~seed ~level:0 ~path] is
    exactly [for_path ~seed ~path] — a degenerate one-level MLMC run
    replays the classic stream.  Raises [Invalid_argument] on a negative
    level. *)

val split : t -> t
(** A statistically independent generator; advances the parent. *)

val bits64 : t -> int64
(** Next 64 pseudo-random bits; advances the state. *)

val float : t -> float
(** Uniform draw in [[0, 1)]. *)

val float_into : t -> float array -> int -> unit
(** [float_into t cell i] writes the next {!float} draw into [cell.(i)]
    without boxing it. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [[lo, hi)]; requires [lo <= hi]. *)

val below : t -> float -> float
(** [below t x] is a uniform draw in [[0, x)]. *)

val int : t -> int -> int
(** [int t n] is a uniform draw in [[0, n)]; requires [n > 0]. *)

val bool : t -> bool

val copy : t -> t
(** Snapshot of the current state. *)
