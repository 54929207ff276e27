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

val rate_array : Network.t -> t -> float array
(** Current derivative of every variable: clocks tick at 1 and continuous
    variables follow their location's derivative while the owning process
    is active; everything else (and every variable of an inactive
    process) has derivative 0. *)

val advance : Network.t -> ?rates:float array -> t -> float -> t
(** Timed transition: let [d] time units pass. *)

val apply_updates : t -> (int * Expr.t) list -> t
(** Discrete effects, applied left-to-right. *)

val apply_flows : Network.t -> t -> t
(** Recompute all data-port flows (already in dependency order). *)

val set_loc : t -> proc:int -> loc:int -> t

val restart_proc : Network.t -> t -> int -> t
(** Reset a process to its initial location and its owned variables to
    their initial values (used by [Restart] reactivation and [reset]
    effects). *)

val equal_timeless : t -> t -> bool
(** Same locations and values, ignoring time.  Values are compared with
    [compare], so [Real 0.0] equals [Real (-0.0)] and NaN equals NaN. *)

val hash_timeless : t -> int
(** A hash of every location and value, consistent with
    {!equal_timeless}. *)

(** Tables keyed on the timeless state ({!equal_timeless},
    {!hash_timeless}): the state store of every explicit-state walk. *)
module Tbl : Hashtbl.S with type key = t

val pp : Network.t -> Format.formatter -> t -> unit
