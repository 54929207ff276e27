(** The complete baseline analysis pipeline of §IV:
    explore (NuSMV) → lump (Sigref) → transient analysis (MRMC). *)

type report = {
  probability : float;
  stable_states : int;
  transitions : int;
  lumped_states : int;
  explore_seconds : float;
  lump_seconds : float;
  transient_seconds : float;
  transient_steps : int;  (** uniformisation steps run *)
  steady_state : bool;
      (** the transient analysis stopped early because the undecided
          mass fell within its error budget (see {!Transient.reach}) *)
  total_seconds : float;
}

val check :
  ?max_states:int ->
  ?hold:Slimsim_sta.Expr.t ->
  ?lump:bool ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  horizon:float ->
  (report, string) result
(** [lump] defaults to [true]; disabling it measures the value of the
    reduction step (ablation X3 in DESIGN.md).  The steps run as the
    observability phases [explore], [lump] (when it runs) and
    [transient] ({!Slimsim_obs.Phase.run}).  A model that is not
    untimed, an immediate cycle, the state cap, and a run-time type
    error or non-linear guard met during exploration are all reported
    as [Error]. *)
