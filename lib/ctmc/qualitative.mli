(** Qualitative correctness analysis (§II-C): exhaustive invariant
    checking on the untimed abstraction, standing in for COMPASS's
    BDD/SAT model-checking path (NuSMV).

    The reachable state space is explored exhaustively over immediate
    (guarded) and Markovian transitions, abstracting from rates and
    delays, on the state-graph walker ({!Slimsim_sta.Walker}); an
    invariant violation comes with a counterexample trace. *)

type outcome =
  | Holds of { states : int }
  | Violated of {
      trace : string list;
          (** transition descriptions of the counterexample suffix
              (at most [max_trace] steps, ending at the violation) *)
      truncated : int;
          (** number of steps dropped from the front of the trace *)
      locs : string list;
          (** the violating state's location vector, one ["proc=loc"]
              entry per process *)
      states : int;
    }

val check_invariant :
  ?max_states:int ->
  ?max_trace:int ->
  Slimsim_sta.Network.t ->
  prop:Slimsim_sta.Expr.t ->
  (outcome, string) result
(** Does [prop] hold in every reachable (stable or vanishing) state of
    the untimed abstraction?  [max_states] defaults to 1_000_000;
    counterexample traces keep at most [max_trace] (default 40) steps,
    the suffix closest to the violation. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Almost-sure reachability}

    The P=1 side of the static pre-pass ({!Slimsim_analyze}): a
    conservative closure over the {e delay-free} fragment.  A state is
    surely-hitting when the goal holds, or when (a) time cannot elapse
    (the invariant window is exactly [{0}]), (b) no exponential race is
    pending, (c) at least one discrete move is enabled and {e every}
    enabled move lands in a surely-hitting state, and (d) the optional
    hold condition is true.  Any goal-free cycle, deadlock, or state
    where time can pass makes the answer [Not_sure].  [Sure] therefore
    transfers to probability exactly 1 for the simulator's
    time-bounded until at any horizon — all runs reach the goal after
    at most [depth] moves at elapsed time 0, under any strategy. *)

type certainty =
  | Sure of { states : int; depth : int; witness : string list }
      (** all paths hit the goal within [depth] delay-free moves;
          [witness] describes one of them *)
  | Not_sure of { reason : string }

val certain_reachability :
  ?max_states:int ->
  ?hold:Slimsim_sta.Expr.t ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  (certainty, string) result
(** Conservative almost-sure reachability of [goal] from the initial
    state; [hold] must be true at every non-goal state en route
    (the left operand of an until).  [max_states] defaults to
    100_000. *)
