(** Continuous-time Markov chains with Boolean goal labelling — the
    output of the explicit-state baseline pipeline (§IV), standing in
    for the NuSMV → Sigref → MRMC tool-chain.

    The initial condition is a distribution: eliminating immediate
    (interactive) transitions from the initial state can split the
    probability mass over several stable states. *)

type t = {
  n_states : int;
  initial : (int * float) array;  (** initial distribution *)
  rows : (int * float) array array;
      (** [rows.(s)] are the outgoing rate entries [(target, rate)];
          at most one entry per target *)
  goal : bool array;
  bad : bool array;
      (** "hold violated" states for bounded-until properties: absorbing
          failures in the transient analysis; all-false for plain
          reachability *)
}

val merge_row : (int * float) array -> (int * float) array
(** One entry per target, sorted by target: the rates of a target add up
    in row order, each as [r +. sum].  A row already sorted with distinct
    targets is returned as it is. *)

val of_rows :
  initial:(int * float) list -> rows:(int * float) array array -> goal:bool array -> t
(** The chain with [Array.length rows] states and each row passed
    through {!merge_row}.  Validates indices, rate positivity (of every
    entry, before merging), the goal length and that the initial
    distribution sums to 1 (within 1e-9).  The [bad] labelling starts
    out all-false; see {!with_bad}. *)

val make :
  n_states:int ->
  initial:(int * float) list ->
  transitions:(int * int * float) list ->
  goal:bool array ->
  t
(** {!of_rows} on the transitions grouped by source, each row in the
    reverse of the list's order, so parallel edges ([s -> t] rates) add
    up from the last one listed. *)

val with_bad : t -> bool array -> t
(** Attach a "hold violated" labelling (for bounded-until analysis). *)

val exit_rate : t -> int -> float
val max_exit_rate : t -> float
val n_transitions : t -> int

val uniformized_dtmc : t -> q:float -> (int * float) array array
(** Embedded uniformized DTMC: [P = I + R/q]; rows sum to 1. *)

val pp_summary : Format.formatter -> t -> unit
