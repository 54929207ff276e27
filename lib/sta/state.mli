(** Global states of a network: one location per process, a valuation of
    all variables, and the elapsed global time.  States are immutable;
    transitions produce fresh states. *)

type t = {
  locs : int array;
  vals : Value.t array;
  time : float;
}

val initial : Network.t -> t
(** Initial locations and initial values, with data flows applied. *)

val env : t -> int -> Value.t
val at_loc : t -> int -> int -> bool
val eval : t -> Expr.t -> Value.t
val eval_bool : t -> Expr.t -> bool

val proc_active : Network.t -> t -> int -> bool
(** Dynamic reconfiguration: whether the process's activation condition
    holds in this state. *)

val apply_flows : Network.t -> t -> t
(** Recompute all data-port flows (already in dependency order). *)

val equal_timeless : t -> t -> bool
(** Same locations and values, ignoring time.  Values are compared with
    [compare], so [Real 0.0] equals [Real (-0.0)] and NaN equals NaN. *)

val pp : Network.t -> Format.formatter -> t -> unit
