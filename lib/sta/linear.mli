(** Symbolic evaluation of expressions as functions of a delay [d].

    In a location with constant derivatives, a continuous variable [v]
    evolves as [v + rate(v)·d], so every numeric subexpression of a
    (linear-hybrid) guard is an affine function [a + b·d] and every
    Boolean expression denotes a finite union of intervals of delays.
    Non-linear combinations (products of two delay-dependent terms,
    [mod]/[min]/[max] of delay-dependent terms, delay-dependent [if]
    conditions under numeric context) raise [Nonlinear]; the SLIM
    front-end restricts models to the linear fragment, this is the
    backstop. *)

exception Nonlinear of string

type lin = { a : float; b : float }  (** the affine function [a + b·d] *)

type sval = Num of lin | Disc of Value.t
(** A symbolic result: either an affine function of the delay or a
    delay-invariant value.  Exposed so that the staged compiler
    ({!Compiled}) shares the exact semantics of this interpreter. *)

val promote : sval -> lin
(** Coerce to affine form; [Value.Type_error] on a Boolean. *)

val const_lin : float -> lin

val solve_cmp : Expr.binop -> lin -> Slimsim_intervals.Interval_set.t
(** [solve_cmp op l] is the solution set of [l.a + l.b·d ⋈ 0] for the
    comparison [op] ([Eq]/[Neq]/[Lt]/[Le]/[Gt]/[Ge] only). *)

val sat_set :
  env:(int -> Value.t) ->
  rate:(int -> float) ->
  at_loc:(int -> int -> bool) ->
  Expr.t ->
  Slimsim_intervals.Interval_set.t
(** [{d | expr holds after delaying d}] — over all of ℝ; callers
    intersect with [[0, +inf)]. *)
