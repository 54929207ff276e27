(** Safety analysis (the COMPASS capability of §II-C): fault-tree
    generation as minimal cut sets, with probabilistic evaluation.

    Basic events are the exponential (rate) transitions of the network —
    in an extended model these are exactly the error models' occurrence
    events.  A cut set is a set of basic events whose occurrence *can*
    drive the system into the top-level event (the goal expression);
    a minimal cut set has no proper subset with that property.

    The computation works on the untimed abstraction of the model: after
    each injected fault, immediately enabled guarded moves are closed
    over exhaustively (all branches), but timed guards that need a delay
    to open are not awaited.  For untimed models the abstraction is
    exact; for timed models it is the standard possibilistic fault-tree
    reading. *)

type basic_event = {
  be_proc : int;  (** process carrying the rate transition *)
  be_tr : int;  (** transition index within the process *)
  be_label : string;  (** e.g. ["gps#GPSFail: ok -> transient"] *)
  be_rate : float;
}

type cut_set = basic_event list
(** Sorted by (process, transition); treated as a set. *)

type fault_tree = {
  top : string;  (** description of the top-level event *)
  cut_sets : cut_set list;  (** minimal cut sets, shortest first *)
  max_order : int;  (** the search bound that produced them *)
}

val basic_events : Slimsim_sta.Network.t -> basic_event list
(** All rate transitions of the network, in (process, transition)
    order. *)

val stable_states :
  Slimsim_sta.Walker.t -> Slimsim_sta.State.t -> Slimsim_sta.State.t list
(** The stable states reached by immediate moves, all branches, the
    last one first; a branch that cycles is cut. *)

val minimal_cut_sets :
  ?max_order:int ->
  ?max_expansions:int ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  (cut_set list, string) result
(** Minimal cut sets of order up to [max_order] (default 3).
    [max_expansions] (default 200_000) bounds the search.  An error is
    returned when the immediate closure diverges or the bound is hit. *)

val fault_tree :
  ?max_order:int ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  top:string ->
  (fault_tree, string) result

val cut_set_probability : cut_set -> horizon:float -> float
(** [Π (1 - e^{-λ·horizon})] over the set's events: the probability that
    every event of the (independent-fault) set occurs within the
    horizon. *)

val top_probability : cut_set list -> horizon:float -> float
(** The Esary–Proschan upper approximation
    [1 - Π (1 - P(CSᵢ))]; exact when the cut sets are disjoint, an
    upper bound (to first order) otherwise. *)

val pp_fault_tree : Format.formatter -> fault_tree -> unit
(** Render as top = OR of ANDs. *)

val to_dot : fault_tree -> string
(** Graphviz rendering of the fault tree. *)
