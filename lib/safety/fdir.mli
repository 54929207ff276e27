(** FDIR analysis (§II-C): can fault conditions be Detected, Isolated
    and Recovered from?

    COMPASS bases this on *observables* — Boolean elements of the model
    visible to the FDIR logic.  Here the observables are a user-chosen
    set of variables (typically the observed [#inj] views of output
    ports).  For each failure mode (basic event):

    - {b detected}: some observable differs from its nominal value after
      the fault (and the immediate reactions to it);
    - {b isolated}: the failure's observable signature differs from
      every other failure mode's signature, so the FDIR logic can tell
      which fault occurred;
    - {b recovered}: resetting the subtree that hosts the failed error
      automaton (the model's own @activation machinery) restores every
      observable to its nominal value.

    The analysis works on the untimed abstraction, like fault-tree
    generation. *)

type verdict = {
  event : Cutsets.basic_event;
  detected : bool;
  isolated : bool;
  recovered : bool;
  signature : (string * string) list;
      (** observables that deviate, with their deviant values *)
}

val resolve_observables :
  Slimsim_sta.Network.t -> string list -> ((string * int) list, string) result
(** Each name with its variable: the observed [#inj] view when it
    exists, the variable itself otherwise; an unknown name is an
    error. *)

val analyze :
  ?max_expansions:int ->
  ?settle_time:float ->
  Slimsim_sta.Network.t ->
  observables:string list ->
  (verdict list, string) result
(** [observables] are variable names (the observed [#inj] view is
    substituted automatically when it exists); unknown names are an
    error.  [settle_time] (default 0) lets the fault-free model run
    its deterministic ASAP schedule for that long before the baseline
    is taken, and again after the recovery reset — so timed
    initialization (signal acquisition) and timed self-repairs count. *)

val pp_table : Format.formatter -> verdict list -> unit
