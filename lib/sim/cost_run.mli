(** The priced-campaign accumulator: expected cost and empirical cost
    distributions over reachability paths.

    For a query [E[c ; phi]] or [D[c ; phi]] the campaign runs the same
    verdict stream as the classic campaign for [phi] — same per-path
    RNG streams, same step loop, same error/divergence policies — and
    additionally observes the exact value of the cost variable [c] (a
    clock or continuous variable with piecewise-constant derivative) at
    the instant each sat path first reaches the goal.  The sat-path
    costs feed a Welford accumulator (mean and CLT confidence interval
    at the generator's [delta]) and a 64-bucket log2 histogram (the
    {!Slimsim_obs.Metrics.bucket_of} convention) backing the quantile
    table and the distribution rendering.

    Stopping: fixed-size generators (chernoff / hoeffding / gauss) run
    their planned path count, so the reachability probability keeps its
    usual guarantee and the cost interval reflects the sat paths that
    bought.  The chow-robbins rule re-targets the CLT half-width at the
    cost mean: stop once it is at most [eps] (after a minimum sample
    count).  The multilevel generator is rejected — it estimates a
    probability over coupled horizons, not a cost.

    Determinism: cost extraction runs after each verdict is decided and
    performs no RNG draws, so the verdict stream is bit-identical to
    the classic campaign's for the same [(model, property, strategy,
    seed)]; the cost accumulator is a fold over it in path order, so
    the result is the same on any number of worker domains, and
    checkpoint / resume reproduce both exactly. *)

open Slimsim_sta

type result = {
  query : string;  (** canonical query string, as [Pattern.query_to_string] *)
  reach : Campaign.result;
      (** the underlying reachability estimate and verdict tallies *)
  cost_samples : int;  (** sat paths folded into the accumulator *)
  cost_mean : float;  (** [nan] when no path reached the goal *)
  cost_ci_low : float;
  cost_ci_high : float;
  cost_min : float;  (** [+inf] when no sat paths *)
  cost_max : float;  (** [-inf] when no sat paths *)
  cost_buckets : int array;
      (** per-bucket sat-path counts, {!Slimsim_obs.Metrics.bucket_of}
          convention ([Metrics.n_buckets] entries) *)
}

type 'r state = 'r Campaign.state =
  | Running
  | Done of 'r
  | Failed of Path.error

type status = result state

type t = result Campaign.campaign
(** A {!Campaign} over the cost accumulator: step, park, drive and
    snapshot it with the {!Campaign} functions. *)

val create :
  ?workers:int ->
  ?seed:int64 ->
  ?config:Path.config ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?hold:Expr.t ->
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?compiled:Compiled.t ->
  Network.t ->
  goal:Expr.t ->
  horizon:float ->
  strategy:Strategy.t ->
  cost_var:int ->
  query:string ->
  kind:Slimsim_stats.Generator.kind ->
  delta:float ->
  eps:float ->
  unit ->
  (t, Path.error) Result.t
(** Same parameters as {!Campaign.create}, plus [cost_var] (the index
    of the clock or continuous variable to observe, from
    {!Slimsim_props.Pattern.resolve_cost}) and [query] (the canonical
    query string, pinned into checkpoints so a resume with a different
    query is rejected).  Scripted strategies downgrade to the
    interpreter on one worker; [kind = Mlmc] is an error.  [Error] is
    returned when [supervisor.resume] is set and the checkpoint is
    unreadable, incompatible, or was taken for a different query. *)

val step : ?quota:int -> t -> status
(** {!Campaign.step}. *)

val drive : t -> (result, Path.error) Result.t
(** {!Campaign.drive}. *)

val pp_result : Format.formatter -> result -> unit
(** One-line summary: cost mean and interval, then the underlying
    reachability estimate with its tallies.  Includes wall-clock time —
    not suitable for golden tests; see {!pp_distribution}. *)

val pp_distribution : Format.formatter -> result -> unit
(** The empirical distribution: mean / interval / range, a quantile
    table (p10 … p99 as bucket upper bounds) and an ASCII histogram of
    the non-empty buckets.  A deterministic function of the result's
    counts — byte-identical across runs at a fixed seed. *)
