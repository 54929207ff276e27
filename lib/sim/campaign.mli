(** A statistical reachability campaign as a first-class, resumable
    value.

    A campaign is created from [(network, goal, strategy, accumulator,
    supervisor config)] and then {e driven}: each {!step} consumes up to
    a quota of samples in deterministic path order and returns control
    to the caller, so a scheduler can time-slice many campaigns over one
    process.  {!park} halts any worker domains (their banked, unconsumed
    path ranges are discarded) and leaves the campaign as plain
    data — the same [(seed, path cursor, estimator counters, tallies)]
    tuple the atomic {!Supervisor.Checkpoint} persists; the next {!step}
    respawns workers at the cursor and, because path [i] always draws
    from an RNG derived from [(seed, i)] alone, regenerates any
    discarded sample bit-identically.  A campaign stepped, parked and
    resumed at arbitrary points therefore produces the same verdict
    stream, the same estimate and the same checkpoints as one driven to
    completion in a single call — the property {!drive} and the
    campaign service both build on.

    The lifecycle — policy routing, the slice loop, checkpoints,
    park/resume, worker sessions, the heartbeat, wall-clock accounting
    — lives here once, for every topology.  What is estimated is an
    {!accumulator}: the Bernoulli generator ({!create}), the
    priced-query fold ({!Cost_run}) or the multilevel estimator
    ({!Mlmc_run}).  Where samples come from is the campaign's source:
    one path per id, from a session of one or more generator domains
    ({!create_with}), or a [draw] function ({!create_sequential}) — the coupled multilevel
    sampler, or the distributed coordinator's pool of worker processes
    ([Slimsim_dist.Coordinator]), which banks their verdict batches and
    hands the kernel the path at its cursor.  Checkpoints, their cadence
    and the heartbeat are therefore the same under every topology. *)

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
  remaining : unit -> int option;
      (** how many more samples a fixed-size rule will ask for, [None]
          for a sequential one — sizes the path-id ranges of a parallel
          session ({!Lease.range_size}) *)
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

val create :
  ?workers:int ->
  ?seed:int64 ->
  ?config:Path.config ->
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
(** Create the Monte Carlo campaign of the statistical generator
    (§III-A) for [P(<> [0, horizon] goal)]; {!drive} runs it to
    completion, on [workers] domains (§III-C, default 1).  Path [i]
    draws from an RNG derived from [(seed, i)] alone and samples are
    consumed in path order, so the estimate is a function of [(model,
    property, strategy, generator, seed)]: independent of the worker
    count, of crashed workers (regenerated from their per-path seeds),
    of park/resume and of observability, which draws nothing.

    Scripted strategies are stateful callbacks: more than one worker is
    downgraded to one, with a warning.  [on_error] decides what a
    path-level error does: [`Abort] (default) fails the campaign,
    [`Unsat] counts the path in [result.errors] as a failure.
    [supervisor] carries the divergence policy, the restart budget,
    checkpoint/resume and the stop flag (default: abort on divergence,
    three restarts, no checkpoints).  [progress] is ticked once per
    consumed sample.  [compiled] supplies an already-staged network
    ([Compiled.compile net]) so a resident service can amortize staging
    across campaigns.  [Error] is returned when [supervisor.resume] is
    set and the checkpoint file is unreadable or incompatible. *)

val create_with :
  ?workers:int ->
  ?seed:int64 ->
  ?config:Path.config ->
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
(** {!create} for any accumulator over one-path samples, on [workers]
    domains.  With [cost_var], each [Sat] sample carries
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
    id; always sequential in consumption, with the same loop, policies,
    checkpoints and resume validation.  [draw] produces its paths
    itself — running them, or waiting for other processes to — and
    classifies them with {!route}; it may raise {!Stopped} while it
    waits. *)

exception Stopped
(** Raised by a [draw] source waiting for the sample at the cursor when
    a stop request arrives or every generator feeding it is lost; {!step}
    ends the slice as [Interrupted] without consuming that sample, and
    writes the final checkpoint and summary as on any other stop. *)

val note_restart : 'r campaign -> unit
(** Count one restart of a [draw] source's generator (a respawned
    worker process, say): [result.worker_restarts] and
    [slimsim_worker_restarts_total], as for in-process workers. *)

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
    or stop flag fires), opening a session of [workers] path generators
    on demand: the calling domain is one of them and spawns the other
    [workers - 1] domains (none at [workers = 1]).  Every generator
    claims contiguous path-id ranges ({!Lease}, sized by
    {!Lease.range_size} from the plan's remaining samples capped by
    [quota], with the supervisor's [max_buffer] as cap) and the caller
    consumes them in path order, running the range at the cursor
    itself, path by path, when no live worker holds it — at
    [workers = 1], every range.
    A stop request is seen before every sample and by every worker
    before every path.  [Running] means the quota ran out; workers are
    left running ahead by at most two ranges each, so an immediate next
    [step] pays no respawn — call {!park} to quiesce instead.  Once
    [Done] or [Failed], further calls return the same status without
    simulating. *)

val park : 'r campaign -> unit
(** Halt worker domains (discarding their banked, unconsumed ranges)
    and write a checkpoint when the supervisor configures one.  A parked
    campaign holds no threads and no scratch state; the next {!step}
    resumes it bit-identically.  No-op on finished campaigns. *)

val drive : 'r campaign -> ('r, Path.error) Result.t
(** Step to completion.  An [Interrupted] stop reason is an [Ok]
    result. *)

val status : 'r campaign -> 'r state
(** Last known status; never simulates. *)

val consumed : 'r campaign -> int
(** Samples consumed so far (the cursor the next sample is drawn at). *)

val snapshot : 'r campaign -> float * float * float * int
(** [(mean, ci_low, ci_high, samples)] of the running estimate — safe
    to call between steps (the collector is not running). *)

val pp_result : Format.formatter -> result -> unit

val path_runner :
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
    bit-identically to an in-process campaign. *)
