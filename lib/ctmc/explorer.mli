(** Explicit-state exploration of an untimed network into a CTMC.

    This stands in for the paper's NuSMV reachable-state-space
    construction plus the Sigref weak-bisimulation step that removes
    interactive (immediate) transitions: immediate moves are eliminated
    on the fly with the simulator's equiprobable resolution, so the
    baseline and the simulator agree on the underlying probability
    measure (which is what Table I compares).

    Exploration steps on the compiled engine ({!Slimsim_sta.Compiled}),
    which mirrors [Moves] float-op for float-op, through one scratch
    state per call, and interns stable states in a
    {!Slimsim_sta.State.Tbl} hashed over every location and value.  The
    test suite checks the result, state numbering included, bit for bit
    against an interpreter-based reference explorer. *)

exception Not_untimed of string
(** The network has clocks or continuous variables; the CTMC pipeline
    only treats untimed models (§IV). *)

exception Immediate_cycle of string
(** A cycle of immediate moves: no stable state is ever reached. *)

exception Too_many_states of int

type stats = {
  stable_states : int;
  transitions : int;
  vanishing_visits : int;
      (** immediate-closure expansions performed (vanishing states are
          revisited per predecessor, they are never stored) *)
  explore_seconds : float;
}

val explore :
  ?max_states:int ->
  ?hold:Slimsim_sta.Expr.t ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  Ctmc.t * stats
(** [max_states] defaults to 2_000_000.  With [hold], stable states
    violating it (and not satisfying the goal) are labelled bad, which
    makes the transient analysis compute the bounded until
    [P(hold U [0,u] goal)]. *)
