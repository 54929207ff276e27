(** Multilevel Monte Carlo campaigns: coupled coarse/fine path pairs
    over a horizon-truncation fidelity hierarchy, driven by the
    {!Slimsim_stats.Mlmc} accumulator.

    With [levels = L], level [l] simulates at horizon [H/2^(L-1-l)]; the
    top level is the full-fidelity estimator.  A level-[l] sample runs a
    fine path at level [l] and a coarse path at level [l-1] from the
    same RNG stream ([Rng.for_path_level ~seed ~level:l ~path:id],
    copied), and feeds the indicator difference to the accumulator.  The
    per-path model cost [h_l/H] drives allocation, so the sample
    schedule — hence the verdict stream and the estimate — is a
    deterministic function of [(model, property, strategy, seed,
    levels)]: checkpoint resume is bit-identical, and a one-level run
    replays the classic single-level generator path for path. *)

type result = {
  probability : float;
  ci_low : float;
  ci_high : float;
  samples_per_level : int array;
  paths : int;
      (** simulations run; a coupled pair counts one path at each of its
          two levels *)
  sat_paths : int;  (** [Sat] verdicts across all simulated paths *)
  model_cost : float;
      (** total model cost in full-resolution-path units — the
          [paths × per-path cost] figure benchmarks compare against a
          single-level campaign's sample count *)
  deadlock_paths : int;
  violated_paths : int;
  errors : int;
  diverged_paths : int;
  dropped_samples : int;
      (** whole samples (pairs) discarded under the [`Drop] divergence
          policy *)
  stopped : Campaign.stop_reason;
  wall_seconds : float;
}

type t = result Campaign.campaign
(** A {!Campaign} whose samples are coupled pairs; sequential (the pair
    shares mutable scratch, and the greedy allocator is consulted
    between samples).  Park, snapshot and checkpoint it with the
    {!Campaign} functions. *)

val create :
  ?seed:int64 ->
  ?config:Path.config ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?hold:Slimsim_sta.Expr.t ->
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?levels:int ->
  ?warmup:int ->
  ?compiled:Slimsim_sta.Compiled.t ->
  Slimsim_sta.Network.t ->
  goal:Slimsim_sta.Expr.t ->
  horizon:float ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (t, Path.error) Result.t
(** [levels] defaults to 4 (1 to 16; 1 degenerates to the classic
    single-level campaign).  Scripted strategies are rejected: they are
    stateful callbacks and cannot be replayed as coupled pairs.  If the
    supervisor requests [resume] and the checkpoint file exists, the
    per-level accumulators and cursors are restored after validating
    seed, generator kind, delta/eps and level count. *)

val drive : t -> (result, Path.error) Result.t
(** {!Campaign.drive}. *)
