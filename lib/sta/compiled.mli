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
    {!Walker}, which walks the state graph on one scratch with the
    snapshot stack below.  A {!State.t} is read from a scratch
    ({!to_state}) but never loaded into one: states come in through
    {!reset} and {!load}.

    Ownership rules for {!cstate} (see [docs/PERFORMANCE.md]):
    - a scratch state belongs to exactly one worker; never share one
      across domains;
    - [rates] is refreshed by {!set_rates} and read by {!advance},
      {!discrete} (through guards) and the symbolic closures; discrete
      application never writes it;
    - every write to a location, a value (in either store) or a dirty
      flag while a snapshot is in force goes on one
      undo journal, the field and what it held; {!save} records the
      journal's length, the time and the dirty count and copies
      nothing, and {!restore} undoes the journal down to that length,
      so both cost what was written under the level;
    - {!equal_saved} reads only the fields journaled since its level,
      and {!written} lists those journaled since a {!load}: the journal
      also runs at depth 0 from a {!load} on, until it would have to
      grow there or a {!reset} or another {!load} ends it;
    - trial execution ({!enabled_after}, a predicate after a delay) is a
      snapshot on top of the stack, undone and dropped before
      returning, even on exceptions;
    - the move buffer filled by {!discrete} and {!markovian} belongs to
      the state the scratch held when they ran. *)

module I := Slimsim_intervals.Interval_set

type cstate
(** Mutable per-worker simulation state: location vector, an int store
    and a float store for the values (below), current rate vector and
    model time. *)

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

(** {1 Stores by declared type}

    Each variable lives in the store of its declared type, the type of
    its initial value ({!Network.var_type}): an [Int] in the int store,
    a [Bool] there as 0 or 1, and a [Real] (a real, a clock, a
    continuous variable) in the float store.  {!Network.make} has
    checked that every update and flow writes its target's type, so no
    write moves a variable to another store.  An expression with a
    static type ({!Expr.static_type}) compiles to native ints, floats
    and Booleans over the stores and computes what [Expr.eval] computes,
    bit for bit and error for error; one without is evaluated by
    [Expr.eval] itself, over {!value}.  A variable is boxed only when it
    is read back as a [Value.t] ({!value}, {!to_state}, such an
    evaluation). *)

(** {1 Expression compilation}

    These are exposed for the property tests; [compile] uses them
    internally.  Each mirrors the corresponding interpreter entry
    point: [compile_value] ≡ [Expr.eval], [compile_bool] its Boolean
    specialization, [compile_float] its numeric specialization
    (integer division/modulo semantics preserved), [compile_sat] ≡
    [Linear.sat_set].  Compiled against [~types], one declared type per
    variable (none by default), they read each variable from the store
    of its type, so the closures may run only on scratches whose
    variables have those types ({!cstate_of}).  Compiled without, they
    run on any scratch. *)

val compile_value : ?types:Value.ty array -> Expr.t -> cvalue
val compile_bool : ?types:Value.ty array -> Expr.t -> cbool
val compile_float : ?types:Value.ty array -> Expr.t -> cfloat
val compile_sat : ?types:Value.ty array -> Expr.t -> csat

val compile_int : ?types:Value.ty array -> Expr.t -> (cstate -> int) option
(** The expression on ints when it is [Int]-typed over [~types], [None]
    otherwise: [Expr.eval]'s [Int] unboxed, its [Value.Type_error]s
    included. *)

val compile_real : ?types:Value.ty array -> Expr.t -> (cstate -> float) option
(** The expression on floats when it is [Real]-typed over [~types],
    [None] otherwise: the payload of the [Real] that [Expr.eval] gives,
    bit for bit, and a [Value.Type_error] where it raises one. *)

val compile_window : ?types:Value.ty array -> Expr.t -> csat
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
  locs:int array -> vals:Value.t array -> rates:float array -> time:float -> unit -> cstate
(** Build a standalone scratch from explicit contents — for tests that
    evaluate compiled expressions against synthetic states.  Each
    variable's declared type is its value's, and only a [Real] one may
    have a non-zero rate ([Invalid_argument] otherwise). *)

val time : cstate -> float

val time_cell : cstate -> float array
(** The model time's own cell, at index 0: read-only.  Reading it costs
    no boxed float, as a call to {!time} does. *)

val var_float : cstate -> int -> float
(** Current numeric value of a variable, unboxed
    (≡ [Value.as_float (State.env _ v)]). *)

val rate : cstate -> int -> float
(** Current derivative of a variable, as last refreshed by
    {!set_rates}. *)

val to_state : t -> cstate -> State.t
(** A fresh {!State.t} of the scratch's state: for the interpreter's
    cross-checks and [Path]'s scripted branch. *)

val loc : cstate -> int -> int
(** The location of a process. *)

val value : cstate -> int -> Value.t
(** The value of a variable, as {!to_state} reads it: boxed afresh from
    its store. *)

val locs : cstate -> int array
(** The location vector itself, process [p] at index [p]: read-only. *)

val ints : cstate -> int array
(** The int store itself: the value of an [Int] variable [v] at index
    [v], a [Bool] one's as 0 or 1 (other indices hold nothing):
    read-only. *)

val floats : cstate -> float array
(** The float store itself, the value of a [Real] variable [v] at index
    [v] (other indices hold nothing): read-only. *)

val load :
  t -> cstate -> locs:int array -> ints:int array -> floats:float array -> time:float -> unit
(** [load c s ~locs ~ints ~floats ~time] overwrites the state from
    stores in the scratch's own layout ({!locs}, {!ints}, {!floats}):
    process [p]'s location [locs.(p)], and each variable [v]'s value
    [floats.(v)] if it is declared [Real], else [ints.(v)] (a [Bool] as
    0 or 1).  No flow is marked dirty: the state must satisfy its flows,
    as every state a move or {!reset} leaves does.  At depth 0 the load
    is the origin {!written} counts from. *)

val copy : t -> src:cstate -> dst:cstate -> unit
(** Overwrite [dst] with [src]'s state, exactly: one {!load} from
    [src]'s stores, then its dirty flows.  [dst]'s snapshots stay, and
    the writes are undone by its next {!restore} like any other. *)

(** {1 Snapshots}

    A stack of saved states on the scratch, for walks that branch: save
    before the moves, restore before each.  Level [k] is the [k]-th
    {!save} still in force, counted from 0.  Level 0 comes with the
    scratch; deeper levels are allocated the first time they are
    used. *)

val save : cstate -> unit
(** Push the current state (locations, values, time, dirty flows): one
    mark on the journal. *)

val restore : cstate -> unit
(** Return to the top level, which stays saved, by undoing the writes
    journaled since it was pushed. *)

val drop : cstate -> unit
(** Forget the top level; the current state is kept. *)

val depth : cstate -> int
(** The number of levels saved. *)

val equal_saved : cstate -> int -> bool
(** [equal_saved s k]: {!State.equal_timeless} between the current
    state and level [k], over the fields written since level [k] was
    pushed. *)

val origin : cstate -> int
(** A number that identifies the last {!load}, on any scratch, while
    every write since it is on the journal, [-1] otherwise: a caller
    that records it at a load knows, when it reads it again unchanged,
    that {!written} still counts from that load. *)

val written : cstate -> int
(** The number of journal entries since the {!origin} load, 0 without
    one.  Entries undone by {!restore} are gone. *)

val written_field : cstate -> int -> int
(** [written_field s e] is the field the [e]-th of them wrote: [p] for
    the location of process [p], [n_procs + v] for variable [v], [-1]
    for a dirty flag.  A field may appear
    more than once, and may hold what it held at the load. *)

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

val apply_local : t -> cstate -> float array -> int -> int -> unit
(** [apply_local c s cell p tr] is
    [apply c s ~delay:cell.(0) (Moves.Local { proc = p; tr })]: the delay
    is read from the caller's cell (the race's), so it is not boxed. *)

val copy_move : cstate -> int -> int array -> int array -> int -> int
(** [copy_move s i procs trs k] copies the participants of the [i]-th
    buffered move, processes into [procs] and transitions into [trs]
    from index [k] on, and returns their number (at most the number of
    processes). *)

val apply_parts : t -> cstate -> int array -> int array -> int -> int -> unit
(** [apply_parts c s procs trs off len] applies, with no delay, the
    move whose participants {!copy_move} wrote at [off]. *)

val enabled_after : t -> cstate -> float -> int
(** [Moves_oracle.enabled_after] over the buffered moves: the number of
    moves whose window contains the delay and after which every
    invariant holds; {!enabled} names them, in buffer order.  A move of
    a {!trial_free} transition is decided by one check all of them
    share (the delay and its flows, under a snapshot); every other move
    is fired on trial, under a snapshot undone before the next. *)

val trial_free : t -> proc:int -> tr:int -> bool
(** Whether {!enabled_after} decides the local move of this transition
    without firing it: a guarded τ transition none of whose updates (or
    the flows they mark) can raise, that writes nothing a non-trivial
    activation condition or another process's invariant reads, and
    whose destination invariant is trivial or holds at the constants
    the transition sets. *)

val trials : cstate -> int
(** Moves {!enabled_after} has fired on trial on this scratch so far. *)

val enabled : cstate -> int -> int
(** [enabled s k] is the buffer index of the [k]-th enabled move. *)

(** {1 Data flows}

    Every flow target equals its expression unless the flow is marked
    dirty.  Writes that can change a flow's value mark it: a delay, a
    transition's updates and location switch, a restart, and the
    re-evaluation of an earlier flow it reads.  {!apply} re-evaluates
    only the dirty flows; {!reset} marks every flow, {!load} none. *)

val dirty_flows : t -> cstate -> int list
(** Indices of the flows currently marked dirty (for tests). *)

(** {1 Formulas} *)

type formula = private {
  f_expr : Expr.t;
  f_trivial : bool;  (** the formula is literally [true] *)
  f_static : bool;
      (** it reads no clock and no variable with a derivative (a flow
          target counts as read at its stored value), so no delay
          changes its value: it holds along a delay exactly when it
          holds at its start *)
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
    a trial delay of [cap], as the empty set otherwise.
    Overwrites every evaluator slot but the invariant window's. *)
