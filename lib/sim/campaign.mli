(** A statistical reachability campaign as a first-class, resumable
    value.

    A campaign is created from [(network, goal, strategy, accumulator,
    supervisor config)] and then {e driven}: each {!step} consumes up to
    a quota of samples in deterministic path order and returns control
    to the caller, so a scheduler can time-slice many campaigns over one
    process.  {!park} halts any worker domains (their unconsumed
    buffered samples are discarded) and leaves the campaign as plain
    data — the same [(seed, path cursor, estimator counters, tallies)]
    tuple the atomic {!Supervisor.Checkpoint} persists; the next {!step}
    respawns workers at the cursor and, because path [i] always draws
    from an RNG derived from [(seed, i)] alone, regenerates any
    discarded sample bit-identically.  A campaign stepped, parked and
    resumed at arbitrary points therefore produces the same verdict
    stream, the same estimate and the same checkpoints as one driven to
    completion in a single call — the property the one-shot
    {!Engine.run} wrapper and the campaign service both build on.

    The lifecycle — policy routing, the slice loop, checkpoints,
    park/resume, worker sessions, wall-clock accounting — lives here
    once.  What is estimated is an {!accumulator}: the Bernoulli
    generator ({!create}), the priced-query fold ({!Cost_run}) or the
    multilevel estimator ({!Mlmc_run}). *)

open Slimsim_sta

type stop_reason =
  | Converged  (** the statistical stopping rule was satisfied *)
  | Interrupted
      (** the supervisor's stop flag was raised; the estimate is partial
          and the interval reflects the achieved, not the requested,
          confidence *)

type result = {
  probability : float;
  ci_low : float;
  ci_high : float;
  paths : int;
  successes : int;
  deadlock_paths : int;
  violated_paths : int;
  errors : int;
  diverged_paths : int;
  dropped_paths : int;
  worker_restarts : int;
  stopped : stop_reason;
  wall_seconds : float;
      (** wall-clock time spent actively stepping (parked time is not
          billed) *)
}

(** Verdict-class tallies kept by the kernel (read-only outside it). *)
type tally = private {
  mutable deadlocks : int;  (** deadlocked and timelocked paths *)
  mutable violated : int;  (** paths whose [hold] condition broke *)
  mutable errors : int;  (** errored paths kept under [`Unsat] *)
  mutable diverged : int;
  mutable dropped : int;  (** samples discarded under [`Drop] *)
  mutable restarts : int;  (** worker restarts *)
  mutable consec_dropped : int;
}

(** {1 Accumulators} *)

(** A consumed sample, as the policy router classifies it. *)
type sample =
  | Sat of float
      (** one path reached the goal; the cost observed at the crossing
          ([nan] when the campaign is not priced) *)
  | Unsat
      (** one path kept as a failure — including errored or diverged
          paths under the [`Unsat] policies *)
  | Pair of { level : int; diff : float }
      (** a coupled multilevel sample: [Y_level - Y_(level-1)] *)
  | Dropped  (** discarded under the [`Drop] divergence policy *)

type 'r accumulator = {
  feed : sample -> unit;
      (** fold one sample, in path order (also called on [Dropped]) *)
  stop : unit -> [ `Continue | `Converged | `Fail of Path.error ];
      (** consulted before every sample *)
  summary : tally -> stopped:stop_reason -> wall:float -> 'r;
      (** close the books (and emit the end-of-campaign events) *)
  save : tally -> seed:int64 -> next_path:int -> Supervisor.Checkpoint.state;
      (** the checkpoint state at cursor [next_path]: the generator header
          and counters, the tallies, and the accumulator's trailing block *)
  restore : Supervisor.Checkpoint.state -> (unit, string) Result.t;
      (** check a loaded checkpoint's trailing block and restore from it;
          [Error msg] rejects the resume.  Called after the kernel has
          validated the header *)
  estimate : unit -> float * float * float * int;
      (** the running [(mean, ci_low, ci_high, samples)] — for the
          heartbeat and {!snapshot} *)
}

val bernoulli : Slimsim_stats.Generator.t -> result accumulator
(** The classic accumulator: the generator's estimator and stopping
    rule over sat/unsat verdicts. *)

(** {1 Campaigns} *)

type 'r campaign

type t = result campaign

type 'r state =
  | Running  (** the quota ran out before the stopping rule fired *)
  | Done of 'r
  | Failed of Path.error

type status = result state

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
  generator:Slimsim_stats.Generator.t ->
  unit ->
  (t, Path.error) Result.t
(** Same parameters and semantics as {!Engine.run} (which is now a
    [create]-then-{!drive}), with one addition: [compiled] supplies an
    already-staged network so a resident service can amortize
    compilation across campaigns (it must be [Compiled.compile] of
    [net]; ignored by the interpreted engine).  Scripted strategies
    downgrade to the interpreter on one worker, with a warning when
    more were requested.  [Error] is returned when [supervisor.resume]
    is set and the checkpoint file is unreadable or incompatible. *)

val create_with :
  ?workers:int ->
  ?seed:int64 ->
  ?config:Path.config ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?hold:Expr.t ->
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?compiled:Compiled.t ->
  ?cost_var:int ->
  Network.t ->
  goal:Expr.t ->
  horizon:float ->
  strategy:Strategy.t ->
  'r accumulator ->
  ('r campaign, Path.error) Result.t
(** {!create} for any accumulator over one-path samples, sequential or
    on [workers] domains.  With [cost_var], each [Sat] sample carries
    the exact value of that clock or continuous variable at the goal
    crossing. *)

val create_sequential :
  seed:int64 ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  draw:('r campaign -> (sample, Path.error) Result.t) ->
  'r accumulator ->
  ('r campaign, Path.error) Result.t
(** A campaign whose samples come from [draw] (called once per sample at
    cursor {!consumed}, after the stop test) instead of one path per
    id; always sequential, with the same loop, policies, checkpoints and
    resume validation.  [draw] runs its paths itself and classifies
    them with {!route}. *)

val route :
  'r campaign ->
  ?level:int ->
  path:int ->
  (Path.verdict, Path.error) Result.t ->
  [ `Sat | `Unsat | `Drop | `Abort of Path.error ]
(** The campaign's error/divergence policies applied to one path's
    outcome: tallies, verdict counters and [divergence]/[path_error]
    events (tagged with [level] when given). *)

val step : ?quota:int -> 'r campaign -> 'r state
(** Consume up to [quota] samples (default: run until the stopping rule
    or stop flag fires), spawning worker domains on demand.  [Running]
    means the quota ran out; workers are left running ahead into their
    bounded buffers, so an immediate next [step] pays no respawn —
    call {!park} to quiesce instead.  Once [Done] or [Failed], further
    calls return the same status without simulating. *)

val park : 'r campaign -> unit
(** Halt worker domains (discarding their buffered, unconsumed samples)
    and write a checkpoint when the supervisor configures one.  A parked
    campaign holds no threads and no scratch state; the next {!step}
    resumes it bit-identically.  No-op on finished campaigns. *)

val drive : 'r campaign -> ('r, Path.error) Result.t
(** Step to completion: the one-shot behaviour of the historical
    engine.  An [Interrupted] stop reason is an [Ok] result. *)

val status : 'r campaign -> 'r state
(** Last known status; never simulates. *)

val consumed : 'r campaign -> int
(** Samples consumed so far (the cursor the next sample is drawn at). *)

val snapshot : 'r campaign -> float * float * float * int
(** [(mean, ci_low, ci_high, samples)] of the running estimate — safe
    to call between steps (the collector is not running). *)

val pp_result : Format.formatter -> result -> unit

(** {1 Collection hooks}

    The pieces of the campaign loop the distributed coordinator
    ({!Slimsim_dist}) reuses verbatim, so that a coordinator merging
    verdict batches from worker processes applies byte-for-byte the
    same error/divergence policies, tallies, checkpoint states and
    summaries as the in-process loop — the accounting half of the
    bit-identity guarantee. *)

val new_tally : unit -> tally

val note_restart : tally -> unit
(** Count one worker restart (surfaces as [result.worker_restarts]). *)

(** Collector-side metric cells ([slimsim_verdicts_total] and friends);
    [None] when metrics are disabled. *)
type run_obs

val make_run_obs : unit -> run_obs option

val consume :
  ?robs:run_obs ->
  on_error:[ `Abort | `Unsat ] ->
  on_divergence:[ `Abort | `Unsat | `Drop ] ->
  drop_stall_limit:int ->
  path:int ->
  'r accumulator ->
  tally ->
  (Path.verdict, Path.error) Result.t ->
  (unit, Path.error) Result.t
(** Route one sample (for path id [path]) through the error and
    divergence policies, update the tallies and feed the accumulator
    (or drop); [Error] asks the caller to abort.  Samples must be
    presented in strictly increasing path order for the estimate to be
    schedule-independent. *)

val write_checkpoint :
  ?robs:run_obs -> Supervisor.t -> file:string -> Supervisor.Checkpoint.state -> unit
(** One atomic checkpoint write, observed (counted, timed, metrics
    re-exported per [supervisor.metrics_file]) when observability is
    on. *)

val resume :
  Supervisor.t -> 'r accumulator -> tally -> seed:int64 -> (int, Path.error) Result.t
(** When [supervisor.resume] is set, validate the checkpoint file
    against the accumulator (seed, generator kind, delta/eps, trailing
    block), restore accumulator and tallies, and return the resume
    cursor (0 on a fresh start; [Error] on an incompatible or unreadable
    checkpoint). *)

val path_runner :
  ?engine:[ `Compiled | `Interpreted ] ->
  ?hold:Expr.t ->
  ?compiled:Compiled.t ->
  ?cost_var:int ->
  Network.t ->
  goal:Expr.t ->
  strategy:Strategy.t ->
  worker:int ->
  unit ->
  Path.config ->
  Slimsim_stats.Rng.t ->
  (Path.verdict, Path.error) Result.t * float
(** The runner factory: stage the network (unless [compiled] is
    supplied; once, before [worker] is applied), then build one worker's
    path generator, observed per worker when metrics are on.  The float
    is the [cost_var] value at the goal crossing of a [Sat] path, [nan]
    otherwise. *)

val make_runner :
  ?engine:[ `Compiled | `Interpreted ] ->
  seed:int64 ->
  ?hold:Expr.t ->
  ?compiled:Compiled.t ->
  ?cost_var:int ->
  Path.config ->
  Network.t ->
  goal:Expr.t ->
  strategy:Strategy.t ->
  worker:int ->
  unit ->
  int ->
  (Path.verdict, Path.error) Result.t * float
(** {!path_runner} keyed by path id: path [i] draws from an RNG derived
    from [(seed, i)] alone, so a worker process handed any range of path
    ids — including a range a dead worker lost — generates it
    bit-identically to the in-process engine. *)
