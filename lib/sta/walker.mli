(** The untimed state graph on the compiled engine, for [verify], the
    P=1 pre-pass, [cutsets], [fmea], [fdir], [diagnosability] and the
    CTMC explorer (DESIGN.md, "State-graph walker").  A walker owns one
    compiled network and one scratch ({!Compiled.cstate}) and steps only
    there, without building a {!State.t}: a closure keeps one snapshot
    of the scratch per vanishing state on the branch and restores it
    before each move, {!trial} brackets a caller's own steps the same
    way, and {!Table} packs keys from the scratch and loads them back
    into it.  {!Table.state} builds a {!State.t} for a reported
    witness.  The closure's immediate moves and {!delay_free}'s moves
    are the two notions of "fires now" and must stay distinct. *)

type t

val create : budget:int -> Network.t -> t
(** [budget] bounds {!close}, {!witness}, {!asap} and {!charge}: one
    unit per visited state, step or charge.  Cheap: snapshot levels
    beyond the first, the move stack and {!witness}'s copy of the
    scratch are allocated when a walk first needs them. *)

exception Exhausted of { in_closure : bool }

val charge : t -> unit
(** Spend one unit of the budget on the caller's own work. *)

(** {1 The scratch}

    Every operation reads or steps the state the scratch holds: the
    initial state after {!reset}, state [i] after {!Table.load}, the
    successor inside a fold. *)

val reset : t -> unit
(** Load the network's initial state. *)

val predicate : t -> Expr.t -> unit -> bool
(** A compiled Boolean expression, evaluated in the scratch's state. *)

val loc : t -> int -> int
(** The location of a process. *)

val value : t -> int -> Value.t
(** The value of a variable, exactly ([-0.0] and NaN payloads kept). *)

val time : t -> float

val apply : t -> Moves.move -> unit
(** Fire a move with no delay, whether or not it is enabled. *)

val trial : t -> (unit -> 'a) -> 'a
(** [trial w f] runs [f] and puts the scratch back in the state it held
    before.  [f] may step the scratch but must leave its snapshots as
    it found them. *)

val close : t -> on_cycle:(unit -> unit) -> (float -> 'a -> 'a) -> 'a -> 'a
(** [close w ~on_cycle leaf acc] folds [leaf] over the stable states
    reached by immediate moves, all branches, depth first, each with its
    weight under the equiprobable resolution (§III-B); the scratch holds
    the stable state while [leaf] runs.  A state with immediate moves
    that is already on the branch is a cycle: [on_cycle ()] runs, and if
    it returns the branch is cut. *)

val witness : t -> (unit -> unit) -> unit
(** {!close} with cycles cut, [leaf ()] run at each stable state, and
    the scratch left holding the last one reached: the witness the
    safety analyses report.  When every branch cycles the scratch keeps
    the state it started from. *)

val fold_rates : t -> (int -> 'a -> 'a) -> 'a -> 'a
(** Fire each rate transition of the scratch's state, in the
    interpreter's order, and fold [f m] with the scratch holding the
    successor.  While [f] runs, [m] names the transition: its rate is
    [(rates w).(m)], its process [rate_proc w m] and its transition
    [rate_tr w m].  The fold builds no closure and boxes no rate. *)

val rates : t -> float array
(** The walker's own buffer of rates, read in place. *)

val rate_proc : t -> int -> int
val rate_tr : t -> int -> int

val fold_successors : t -> ('a -> 'a) -> 'a -> 'a
(** The untimed abstraction's successor relation from the scratch's
    state: the immediate moves, then the rate transitions with their
    rates abstracted, [f] folded with the scratch holding each
    successor. *)

val moves : t -> Moves.move list
(** The moves {!fold_successors} fires, in its order. *)

val vanishing_visits : t -> int
(** States with immediate moves that {!close} has expanded. *)

val delay_free : t -> [ `Race | `Time_can_elapse | `Moves of Moves.move list ]
(** The P=1 step: [`Race] when a rate transition is available,
    [`Time_can_elapse] when the invariant window is not exactly [{0}],
    else the moves enabled after delay 0 into states satisfying every
    invariant. *)

val asap : t -> horizon:float -> unit
(** The one timed walk (FDIR's settling): follow the deterministic ASAP
    schedule of guarded moves, rate transitions suppressed, until
    quiescence, [horizon] or 10_000 moves, one unit of budget a step. *)

(** {1 Interning} *)

(** Timeless states numbered densely in insertion order, each with the
    index of the state it was first reached from.  A state is stored as
    one packed key: its locations, then its values, each laid out by its
    variable's declared type, reals canonical ([-0.0] as [0.0], every
    NaN as one NaN), so two states get the same number exactly when
    {!State.equal_timeless} holds.  Keys are written straight from a
    walker's scratch ({!add}), or from a {!State.t} ({!intern}) with the
    same bytes, and hashed and compared a word at a time; a {!State.t}
    is rebuilt only when {!state} asks for one.  {!add} patches the key
    and hash of the state last {!load}ed with the fields written since,
    when it can.  The keys (in arena chunks, which no key straddles) and
    each state's key span, parent and time are kept in chunks
    ({!Chunked}) of up to 64 KiB and 1024 entries: a large table grows
    without copying them, and only its index of state numbers doubles.
    The first chunks are small, so a small table stays small.  Parents
    and times are stored only when some state has a parent other than
    -1 or a time other than [+0.0]: a caller that interns only roots at
    time 0 keeps neither. *)
type walker := t

module Table : sig
  type t

  val create : Network.t -> t
  (** A table for the states of this network (its process and variable
      counts). *)

  val length : t -> int

  val intern : t -> State.t -> parent:int -> int
  (** The state's number, adding it (with [parent], [-1] for a root)
      when it is new.  [Invalid_argument] when the state has other
      process or variable counts than the network, or a value not of
      its variable's declared type (the message names the variable). *)

  val add : t -> walker -> parent:int -> int
  (** {!intern} of the state the walker's scratch holds, read in place:
      the key of the state last {!load}ed into this walker with the
      fields its scratch journaled since patched in
      ({!Compiled.written}), or packed afresh when there is no such
      state or a field would change its packed length.  The walker must
      walk this table's network. *)

  val state : t -> int -> State.t
  (** A fresh state, {!State.equal_timeless} to the one first interned
      at this number and with its time. *)

  val load : t -> int -> walker -> unit
  (** Load state [i] into the walker's scratch, its reals canonical and
      with the time it had when first interned.  Its flows are taken to
      hold, as in every state a walk reaches ({!Compiled.load}). *)

  val parent : t -> int -> int

  val next : t -> int option
  (** The breadth-first FIFO: the first state not yet returned by
      [next]. *)
end

val protect : (unit -> ('a, string) result) -> ('a, string) result
(** Report [Value.Type_error] and [Linear.Nonlinear] as errors, with
    [verify]'s messages. *)
