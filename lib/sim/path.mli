(** Generation of a single random path and evaluation of a timed
    reachability property [P(<> [0, horizon] goal)] along it.

    A path alternates timed and discrete transitions.  The strategy
    proposes a schedule for the guarded moves; Markovian transitions race
    against it with an exponentially distributed firing time (winner
    chosen with probability rate/total, per the race semantics of
    CTMCs); the earlier of the two fires.  The goal is also checked
    {e during} delays — with linear dynamics the set of goal-satisfying
    delays is computed exactly, so a goal crossed mid-delay is never
    missed. *)

module I = Slimsim_intervals.Interval_set
open Slimsim_sta

(** Which watchdog classified a path as runaway.  [Step_budget] and
    [Time_budget] are deterministic functions of the path; [Wall_budget]
    depends on machine speed, so wall budgets trade reproducibility for
    liveness. *)
type divergence =
  | Step_budget of int  (** the step watchdog fired after this many steps *)
  | Time_budget of float
      (** simulated time exceeded [max_sim_time] at this instant *)
  | Wall_budget of float
      (** the path burned this many wall-clock seconds *)

type verdict =
  | Sat of float  (** the goal held at this time *)
  | Unsat_horizon  (** the time bound elapsed without reaching the goal *)
  | Unsat_deadlock  (** no move will ever be enabled (deadlock counts as ¬goal) *)
  | Unsat_timelock
      (** an invariant forces time to stop with no enabled move *)
  | Unsat_violated of float
      (** until properties only: the hold condition failed at this time,
          before the goal was reached *)
  | Diverged of divergence
      (** a watchdog budget ran out before any other verdict.  Budgets
          are checked {e before} the goal test on every step, so a path
          that runs out of budget on the step that reaches the goal is
          divergent.  How a diverged path counts toward the estimate is
          the supervisor's divergence policy, not the path generator's
          concern. *)

type error =
  | Deadlock_error of string
      (** a dead/timelock under the [`Error] policy (§III-D) *)
  | Aborted
  | Model_error of string
  | Worker_crash of string
      (** a worker domain died repeatedly and its restart budget ran out *)
  | Diverged_path of divergence
      (** a path diverged under the [`Abort] divergence policy *)
  | Refused of string
      (** the driver does not support the request and ran nothing; the
          message is the whole report *)

type config = {
  horizon : float;  (** upper time bound of the property *)
  max_steps : int;  (** step watchdog against non-progress cycles *)
  max_sim_time : float option;
      (** optional budget on simulated time, independent of (and usually
          below) the horizon *)
  max_wall_per_path : float option;
      (** optional wall-clock budget per path, in seconds; the clock is
          only read every 128 steps and the budget is measured from the
          first such read, so short paths pay nothing and are never
          wall-interrupted *)
  on_deadlock : [ `Error | `Falsify ];
  eps_nudge : float;  (** interior nudge for open interval endpoints *)
}

val make_config :
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  on_deadlock:[ `Error | `Falsify ] ->
  horizon:float ->
  unit ->
  config
(** [max_steps] defaults to 1_000_000, the simulated-time and wall
    budgets to none; [eps_nudge = 1e-9]. *)

val default_config : horizon:float -> config
(** [make_config ~on_deadlock:`Falsify ~horizon ()]. *)

val check_budgets :
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  unit ->
  (unit, string) result
(** The watchdog budgets every front-end accepts: [max_steps] at least
    1, the two times positive and not NaN ([infinity] sets no budget).
    The error names the offending budget by its CLI flag. *)

type step_record = {
  at_time : float;
  chose_delay : float;
  description : string;
}

type obs
(** A per-worker bundle of metric series (steps per path, simulated time
    reached, firing counters by kind, pure advances, moves fired on
    trial, added once per path).  Each worker domain
    owns its cell exclusively — series are merged only at exposition — so
    recording is synchronization-free.  Instrumented generation performs
    exactly the same RNG draws and float operations as uninstrumented
    generation: verdict streams are bit-identical whether or not an [obs]
    is supplied. *)

val obs_cell : worker:int -> obs
(** Find-or-create the cell for worker [worker] (labels every series with
    [worker="<n>"]).  Takes the registry lock; call once at worker spawn,
    not per path.  A respawned worker finds its predecessor's cell and
    keeps counting. *)

type compiled_query
(** A goal/hold pair compiled against a network. *)

val compile_query : ?hold:Expr.t -> Compiled.t -> goal:Expr.t -> compiled_query
(** With the default [hold = true] the query checks timed reachability
    [<> [0,u] goal]; a non-trivial [hold] checks the bounded until
    [hold U [0,u] goal] (the goal must be reached while [hold] stays
    true — the CSL extension named as future work in §VII). *)

val generate :
  ?weight:(int -> int -> float) * float ref ->
  ?record:step_record list ref ->
  ?obs:obs ->
  ?cost:int * float ref ->
  Compiled.t ->
  Compiled.cstate ->
  compiled_query ->
  config ->
  Strategy.t ->
  Slimsim_stats.Rng.t ->
  (verdict, error) result
(** Run one path from the initial state on the scratch state (reset
    first; the caller owns the scratch and may reuse it across paths of
    one worker).  The loop runs on the staged tables of
    {!Slimsim_sta.Compiled}: expressions are closures, move candidates
    come from per-location tables, and the state is mutable.

    [Scripted] strategies see each step as the interpreter shows it (an
    immutable [State.t], the move and rate lists, unscaled rates); the
    exponential race is drawn before the script runs.  A script that
    picks an invalid move or rate index, a negative delay or a delay
    outside the move's window gets a [Model_error]; [Abort] gives
    [Aborted].

    [weight = (factor, ratio)] turns on importance sampling by failure
    biasing (§VI): every exponential rate is multiplied by
    [factor proc tr], and on an [Ok] verdict [ratio] receives the path's
    likelihood ratio w.r.t. the unbiased measure, so that
    [ratio · 1{Sat}] is an unbiased estimate of the reachability
    probability.

    [record] is reset, then receives the path's firings and advances in
    order, each stamped with its step-start time and described by
    [Moves.describe] (or ["advance"], ["advance (missed)"]).

    [cost = (v, cell)] designates variable [v] as a cost observer: on a
    [Sat t] verdict, [cell] receives the exact value of [v] at the
    crossing instant [t] (step-start value plus rate × dt under the
    linear semantics, the interpreter's linear-advance rule).

    [record], [cost] and [obs] draw nothing from the RNG and change no
    control flow, so the verdict stream is the same with or without
    them. *)

val divergence_to_string : divergence -> string
val verdict_to_string : verdict -> string
val error_to_string : error -> string
