(** FMEA (Failure Mode and Effects Analysis) table generation — the
    second safety-analysis artifact of COMPASS (§II-C).

    For every basic event (failure mode) of the model that is enabled in
    the initial configuration, after its immediate closure, the analysis
    injects just that event there, closes over the immediately enabled
    reactions, and reports the observable effects: which variables
    changed, and whether the system-level failure condition holds.  An
    event that is not enabled there (a second step of an error chain,
    say) keeps its row, marked as such, with no effects. *)

type row = {
  component : string;  (** process carrying the failure mode *)
  failure_mode : string;  (** transition description *)
  rate : float;
  local_effects : (string * string * string) list;
      (** (variable, before, after); only changed variables *)
  leads_to_failure : bool;
      (** the goal holds in some immediate consequence state *)
  enabled : bool;
      (** the event is enabled in the initial configuration; when it is
          not, it was not injected: no effects, no failure *)
}

val analyze :
  ?max_expansions:int ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  (row list, string) result

val pp_table : Format.formatter -> row list -> unit
