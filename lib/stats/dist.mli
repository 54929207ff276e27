(** Samplers for the distributions used by the simulator. *)

val exponential : Rng.t -> rate:float -> float
(** Draw from Exp(rate); requires [rate > 0]. *)

val bernoulli : Rng.t -> p:float -> bool

val categorical : Rng.t -> weights:float array -> int
(** Index drawn with probability proportional to its weight.  Raises
    [Invalid_argument] on any negative weight (a negative entry makes
    the cumulative scan non-monotone and would silently bias the
    selection) and when the total weight is not positive. *)

val uniform_choice : Rng.t -> 'a list -> 'a
(** Equiprobable pick from a non-empty list — the paper's resolution of
    underspecified discrete choice (§III-B).  Consumes exactly one
    [Rng.int] draw for lists of two or more elements and none otherwise:
    the element at {!uniform_index} of the list's length. *)

val uniform_index : Rng.t -> int -> int
(** [uniform_index rng n] is the index {!uniform_choice} picks from a
    list of [n] elements, with the same draws: one [Rng.int] for
    [n >= 2], none for [n = 1].  Raises [Invalid_argument] on [n <= 0]. *)

val exponential_race : Rng.t -> rates:float array -> (int * float) option
(** Winner of a race between independent exponentials: samples the
    holding time [Exp(sum rates)] and picks entry [i] with probability
    [rates.(i) / sum].  [None] when every rate is zero or the array is
    empty; raises [Invalid_argument] on a negative rate. *)

val exponential_race_n :
  Rng.t -> rates:float array -> n:int -> delay:float array -> int
(** [exponential_race] restricted to the first [n] entries of a (reused)
    buffer, without the allocation: returns the winner's index and
    writes the holding time into [delay.(0)], or returns [-1] (and
    leaves [delay] alone) when [exponential_race] gives [None].
    Draw-for-draw identical to [exponential_race] on
    [Array.sub rates 0 n].  Raises [Invalid_argument] on a negative rate
    among the first [n]. *)
