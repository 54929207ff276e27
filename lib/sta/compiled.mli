(** Staged compilation of an STA network into a closure-based
    run-time representation (the UPPAAL-style "compiled
    network").  [compile] runs once per network; simulation then
    operates on a mutable per-worker {!cstate} scratch.

    Semantic contract: every operation mirrors the reference
    interpreter ([Expr.eval], [Linear.sat_set], [State], and the move
    semantics of the test oracle [test/moves_oracle.ml]) float-op for
    float-op, so a compiled simulation produces a bit-identical verdict
    stream for a fixed seed.  The cross-check tests in
    [test/test_compiled.ml] enforce this.  Production code steps only
    here: the simulator through [Path], the untimed analyses through
    {!Walker}.

    Ownership rules for {!cstate} (see [docs/PERFORMANCE.md]):
    - a scratch state belongs to exactly one worker; never share one
      across domains;
    - [rates] is refreshed by {!set_rates} and read by {!advance},
      {!discrete} (through guards) and the symbolic closures; discrete
      application never writes it;
    - trial execution ({!enabled_after}, {!eval_bool_after}) runs on a
      double buffer and restores the committed state before returning,
      even on exceptions;
    - the move buffer filled by {!discrete} and {!markovian} belongs to
      the state the scratch held when they ran. *)

module I := Slimsim_intervals.Interval_set

type cstate
(** Mutable per-worker simulation state: location vector, value store
    with an unboxed float cache, current rate vector and model time. *)

type cvalue = cstate -> Value.t
type cbool = cstate -> bool
type cfloat = cstate -> float
type csat = cstate -> I.t
(** A compiled guard: the delay sat-set [{d | guard holds after d}],
    evaluated against the current rate vector (cf. [Linear.sat_set]). *)

type t
(** A compiled network: per-(process, location) tables of invariants,
    derivatives and outgoing transitions indexed by event label, plus
    compiled flows and activation conditions. *)

val compile : Network.t -> t
val network : t -> Network.t

(** {1 Expression compilation}

    These are exposed for the property tests; [compile] uses them
    internally.  Each mirrors the corresponding interpreter entry
    point: [compile_value] ≡ [Expr.eval], [compile_bool] its Boolean
    specialization, [compile_float] its numeric specialization
    (integer division/modulo semantics preserved), [compile_sat] ≡
    [Linear.sat_set]. *)

val compile_value : Expr.t -> cvalue
val compile_bool : Expr.t -> cbool
val compile_float : Expr.t -> cfloat
val compile_sat : Expr.t -> csat

val compile_window : Expr.t -> csat
(** [compile_sat] through the in-place window evaluator that guards and
    invariants use; equal to [compile_sat] on every input.  The scratch
    must come from {!cstate_of} or {!scratch}. *)

(** {1 Scratch states} *)

val scratch : t -> cstate
(** A fresh scratch state for one worker, in the initial configuration
    modulo {!reset} (call {!reset} before the first path). *)

val reset : t -> cstate -> unit
(** Reinitialize to the network's initial state ([State.initial]):
    initial locations, initial values, flows applied, time 0. *)

val cstate_of :
  locs:int array -> vals:Value.t array -> rates:float array -> time:float -> cstate
(** Build a standalone scratch from explicit contents — for tests that
    evaluate compiled expressions against synthetic states. *)

val time : cstate -> float

val var_float : cstate -> int -> float
(** Current numeric value of a variable, reading the unboxed cache when
    it is authoritative (≡ [Value.as_float (State.env _ v)]). *)

val rate : cstate -> int -> float
(** Current derivative of a variable, as last refreshed by
    {!set_rates}. *)

val to_state : t -> cstate -> State.t
val of_state : t -> cstate -> State.t -> unit

(** {1 Per-step operations} — each mirrors its [State]/[Moves_oracle]
    counterpart exactly.  Move enumeration fills a buffer in the scratch
    state instead of returning lists: windows that are one interval are
    stored unboxed, so a step over clock guards allocates next to
    nothing. *)

val set_rates : t -> cstate -> unit
(** Refresh the rate vector for the current discrete state
    ([Moves_oracle.rate_array]). *)

val advance : t -> cstate -> float -> unit
(** Delay by [d] under the current rate vector ([Moves_oracle.advance],
    which it also follows in leaving data flows alone: the flows a delay
    can change are marked dirty and re-evaluated by the next move);
    requires {!set_rates} to have run since the last discrete change. *)

val invariant_window : t -> cstate -> unit
(** [Moves_oracle.invariant_window], kept in the scratch: {!discrete}
    reads it there, and so do the [inv_*] readers below, until the next
    [invariant_window]. *)

val inv_window : cstate -> I.t
(** The window {!invariant_window} computed, as a set (allocates; for
    tests and cold paths). *)

val inv_is_empty : cstate -> bool
val inv_mem : cstate -> float -> bool

val inv_unbounded : cstate -> bool
(** [Interval_set.sup (inv_window s) = Pos_inf]. *)

val inv_sup : cstate -> float
(** The window's supremum when it is finite, [infinity] otherwise. *)

val discrete : t -> cstate -> int
(** [Moves_oracle.discrete] within the window of the last
    {!invariant_window}: fills the move buffer with every enabled
    τ/sync move and its delay window, in the interpreter's order, and
    returns their number.  Moves are addressed by their index in the
    buffer, which stays valid until the next [discrete]. *)

val move : t -> cstate -> int -> Moves.move
(** The [i]-th buffered move. *)

val window_mem : cstate -> int -> float -> bool
(** [window_mem s i d]: does the [i]-th buffered move's window contain
    [d] ([Interval_set.mem]). *)

val timed_moves : t -> cstate -> Moves.timed list
(** The buffer as [Moves_oracle.discrete]'s list (allocates; for tests
    and cold paths). *)

val moves_first_point : cstate -> eps:float -> float
(** The least [Interval_set.first_point ~eps] over the buffered
    windows, [infinity] when none has one. *)

val moves_sample_uniform : cstate -> cap:float -> (float -> float) -> float option
(** [Interval_set.sample_uniform u01] over the union of the buffered
    windows (folded in buffer order), clamped to [(-inf, cap]] when the
    union is unbounded: the progressive strategy's delay. *)

val markovian : t -> cstate -> int
(** [Moves_oracle.markovian]: writes the rates of the enabled rate transitions
    into {!markov_buf}, in the interpreter's order, and returns their
    number; {!markov_proc} and {!markov_tr} name the [i]-th. *)

val markov_proc : cstate -> int -> int
val markov_tr : cstate -> int -> int

val markov_buf : cstate -> float array
(** Worker-local scratch for the exponential race over the markovian
    rates; sized to the network's largest possible race. *)

val apply : t -> cstate -> ?delay:float -> Moves.move -> unit
(** [Moves_oracle.apply], in place.  The rate vector must describe the
    pre-[apply] state (it is read by the advance but never written). *)

val apply_move : t -> cstate -> delay:float -> int -> unit
(** [apply] of the [i]-th buffered move. *)

val apply_local : t -> cstate -> delay:float -> int -> int -> unit
(** [apply_local c s ~delay p tr] is
    [apply c s ~delay (Moves.Local { proc = p; tr })]. *)

val enabled_after : t -> cstate -> float -> int
(** [Moves_oracle.enabled_after] over the buffered moves: tries each move
    whose window contains the delay on the trial buffer and returns the
    number of moves after which every invariant holds; {!enabled} names
    them, in buffer order. *)

val enabled : cstate -> int -> int
(** [enabled s k] is the buffer index of the [k]-th enabled move. *)

val eval_bool_after : t -> cstate -> cap:float -> cbool -> bool
(** Evaluate a predicate in the state reached by delaying [cap],
    without committing the delay (trial buffer). *)

(** {1 Data flows}

    Every flow target equals its expression unless the flow is marked
    dirty.  Writes that can change a flow's value mark it: a delay, a
    transition's updates and location switch, a restart, and the
    re-evaluation of an earlier flow it reads.  {!apply} re-evaluates
    only the dirty flows; {!reset} and {!of_state} mark every flow. *)

val dirty_flows : t -> cstate -> int list
(** Indices of the flows currently marked dirty (for tests). *)

(** {1 Formulas} *)

type formula = private {
  f_expr : Expr.t;
  f_trivial : bool;  (** the formula is literally [true] *)
  f_bool : cbool;
  f_win : cstate -> unit;
      (** its delay set ([compile_sat]) into an evaluator slot of the
          scratch, for {!until_points} *)
  f_top : int;  (** the highest evaluator slot [f_win] uses *)
}

val compile_formula : t -> Expr.t -> formula

val until_points :
  t -> cstate -> goal:formula -> hold:formula -> eps:float -> cap:float ->
  float array -> unit
(** The until property [hold U goal] along a delay of [cap >= 0] under
    the current rate vector: writes into [out.(0)] the
    [Interval_set.first_point ~eps] of the goal's delay set within
    [[0, cap]], and into [out.(1)] that of the delays in [[0, cap]]
    where a non-trivial hold fails, outside the goal's set.  Such points
    are never negative; [-1.] stands for none (and always for a trivial
    hold).  Exact for linear expressions; a formula that is not
    ([Linear.Nonlinear]) counts as the point [cap] when it holds after
    delaying [cap] ({!eval_bool_after}), as the empty set otherwise.
    Overwrites every evaluator slot but the invariant window's. *)
