(** Rare-event estimation by importance sampling (the technique family
    surveyed in the paper's related work, §VI).

    Ordinary Monte Carlo needs on the order of [1/p] paths to see a
    single success when [P(<> [0,u] goal) = p] is tiny.  Failure biasing
    multiplies every exponential rate by a factor [bias > 1], making
    faults (and so the goal) frequent under the biased measure; each
    path is weighted by its likelihood ratio so the weighted indicator
    remains unbiased.  Confidence intervals come from the CLT (the
    Chernoff–Hoeffding bound does not apply to unbounded weights), so
    a fixed number of paths is drawn and the achieved relative error is
    reported instead of being prescribed.

    [bias_of proc tr] biases transitions selectively (and then [bias] is
    ignored for transitions it covers) — bias the failure/arrival rates
    up and leave repair/service rates alone; scaling everything by the
    same factor leaves the embedded jump chain unchanged and only blows
    up the weight variance. *)

open Slimsim_sta

type result = {
  probability : float;
  ci_low : float;
  ci_high : float;  (** CLT interval at the requested confidence *)
  paths : int;
  hits : int;  (** paths that reached the goal under the biased measure *)
  relative_error : float;  (** CI half-width / probability *)
  bias : float;
  wall_seconds : float;
}

val estimate :
  ?seed:int64 ->
  ?config:Path.config ->
  ?hold:Expr.t ->
  ?bias_of:(int -> int -> float) ->
  Network.t ->
  goal:Expr.t ->
  horizon:float ->
  strategy:Strategy.t ->
  bias:float ->
  paths:int ->
  delta:float ->
  unit ->
  (result, Path.error) Result.t
(** Draw [paths] paths of [Path.generate] with failure biasing, path [i]
    from the RNG of [(seed, i)], on one staged network and one scratch.
    Raises [Invalid_argument] unless [paths > 0] and [bias > 0]. *)

val pp_result : Format.formatter -> result -> unit
