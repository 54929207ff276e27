(** The global moves of a network (§II-E): internal (τ) moves of a
    single process, multiway synchronizations on shared events, and
    Markovian (rate) moves.  {!Compiled} enumerates and executes them,
    {!Walker} walks the untimed state graph they span, and the
    interpreter they mirror is a test oracle ([test/moves_oracle.ml]). *)

type move =
  | Local of { proc : int; tr : int }
      (** a τ-labelled guarded transition, or a rate transition *)
  | Sync of { event : int; parts : (int * int) list }
      (** one (process, transition) pair per synchronizing participant *)

type timed = { move : move; window : Slimsim_intervals.Interval_set.t }
(** A guarded move and the delays [d >= 0] at which it can fire: the
    guard(s) hold after [d] and all invariants hold throughout [[0, d]]. *)

val describe : Network.t -> move -> string
