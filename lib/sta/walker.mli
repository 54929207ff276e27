(** The untimed state graph on the compiled engine, for [verify], the
    P=1 pre-pass, [cutsets], [fmea], [fdir], [diagnosability] and the
    CTMC explorer (DESIGN.md, "State-graph walker").  A walker owns one
    compiled network and one scratch; each operation loads a {!State.t}
    into the scratch (unless it holds that state already), steps there
    and reads the result back.  {!immediate} and {!delay_free} are the
    two notions of "fires now" and must stay distinct. *)

type t

val create : budget:int -> Network.t -> t
(** [budget] bounds {!closure} and {!charge}: one unit per visited state
    or charge. *)

(** {1 Successors} *)

val immediate : t -> State.t -> Moves.move list
(** The guarded moves whose window holds 0, in the interpreter's
    order. *)

val markovian : t -> State.t -> (int * int * float) list
(** The rate transitions available: (process, transition, rate). *)

val successor : t -> State.t -> Moves.move -> State.t
(** Fire a move with no delay. *)

val successors : t -> State.t -> (Moves.move -> State.t -> unit) -> unit
(** The untimed abstraction's successor relation: the immediate moves,
    then the rate transitions with their rates abstracted, each with its
    successor. *)

val delay_free :
  t -> State.t -> [ `Race | `Time_can_elapse | `Moves of Moves.move list ]
(** The P=1 step: [`Race] when a rate transition is available,
    [`Time_can_elapse] when the invariant window is not exactly [{0}],
    else the moves enabled after delay 0 into states satisfying every
    invariant. *)

(** {1 Budgeted walks} *)

exception Exhausted of { in_closure : bool }

val charge : t -> unit
(** Spend one unit of the budget on the caller's own work. *)

val closure :
  t -> on_cycle:(unit -> unit) -> (State.t -> float -> 'a -> 'a) -> State.t -> 'a -> 'a
(** [closure w ~on_cycle leaf s acc] folds [leaf] over the stable states
    reached from [s] by immediate moves, all branches, depth first, each
    with its weight under the equiprobable resolution (§III-B).  A state
    with immediate moves that is already on the branch is a cycle:
    [on_cycle ()] runs, and if it returns the branch is cut. *)

val vanishing_visits : t -> int
(** States with immediate moves that {!closure} has expanded. *)

val asap : t -> horizon:float -> State.t -> State.t
(** The one timed walk (FDIR's settling): follow the deterministic ASAP
    schedule of guarded moves, rate transitions suppressed, until
    quiescence, [horizon] or 10_000 moves, one unit of budget a step. *)

(** {1 Interning} *)

(** Timeless states ({!State.Tbl}) numbered densely in insertion order,
    each with the index of the state it was first reached from. *)
module Table : sig
  type t

  val create : unit -> t
  val length : t -> int

  val intern : t -> State.t -> parent:int -> int
  (** The state's number, adding it (with [parent], [-1] for a root)
      when it is new. *)

  val state : t -> int -> State.t
  val parent : t -> int -> int

  val next : t -> int option
  (** The breadth-first FIFO: the first state not yet returned by
      [next]. *)
end

val protect : (unit -> ('a, string) result) -> ('a, string) result
(** Report [Value.Type_error] and [Linear.Nonlinear] as errors, with
    [verify]'s messages. *)
