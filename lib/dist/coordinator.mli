(** The coordinator half of a distributed campaign: shard path-id
    leases across worker processes, merge their verdict batches in path
    order, and survive any of them dying.

    Determinism under failure is the design invariant: path [i] draws
    from an RNG derived from [(seed, i)] alone, batches are banked per
    lease and fed to the statistical generator in strictly increasing
    path order ({!Lease}), and duplicates from reassigned ranges are
    suppressed by the banked prefix — so the estimate is a function of
    [(model, property, strategy, generator, seed)] and bit-identical to
    a single-process run, under any worker count and any failure
    schedule.

    The robustness policies mirror {!Slimsim_sim.Supervisor}: a worker
    that goes silent past the liveness deadline, EOFs, corrupts a frame
    or violates the protocol is killed, its leases return to the pending
    pool, and a replacement is spawned after
    {!Slimsim_sim.Supervisor.backoff_delay}; a worker that exhausts the
    supervisor's [max_restarts] budget is quarantined and the campaign
    degrades to the remaining workers.  When every worker is
    quarantined the campaign aborts cleanly with the partial estimate
    and [all_lost] set (the CLI maps it to its own exit code). *)

open Slimsim_sim

type config = {
  workers : int;  (** worker process count, [>= 1] *)
  worker_cmd : string array;
      (** argv spawning one worker, e.g. [[| "slimsim"; "work" |]] — or
          any command line that ends up running [slimsim work], such as
          [ssh host slimsim work] *)
  lease_size : int option;
      (** paths per granted range; [None] derives it from the plan with
          {!Slimsim_sim.Lease.range_size}, capped at 1024 *)
  batch : int;  (** verdicts per batch frame *)
  heartbeat : float;  (** worker heartbeat interval, seconds *)
  liveness : float;
      (** a worker silent for this long is declared dead; must
          comfortably exceed [heartbeat] plus the longest single path *)
  chaos : string;  (** {!Chaos} spec shipped to workers, [""] for none *)
}

val config :
  ?lease_size:int ->
  ?batch:int ->
  ?heartbeat:float ->
  ?liveness:float ->
  ?chaos:string ->
  workers:int ->
  worker_cmd:string array ->
  unit ->
  config
(** Defaults: a derived [lease_size], [batch = 256], [heartbeat = 1.0],
    [liveness = 10.0], no chaos.  Raises [Invalid_argument] on
    nonsensical values. *)

(** Everything the verdict stream is a function of, in the wire's
    (string) vocabulary; workers parse and validate, and a handshake
    they reject aborts the campaign with their message. *)
type job = {
  model_source : string;
  property : string;
  strategy : string;
  engine : string;
      (** must be ["compiled"], the one path generator; any other value
          is an [Error] from {!run}.  The field stays so that existing
          callers that build a job record keep compiling. *)
  seed : int64;
  on_error : [ `Abort | `Unsat ];
  max_steps : int;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_deadlock : string;  (** ["error"] or ["falsify"] *)
}

type outcome = {
  result : Campaign.result;
  all_lost : bool;
      (** every worker quarantined; [result] is the partial estimate
          consumed before the last one died *)
  leases_granted : int;
  leases_reassigned : int;  (** re-grants of ranges lost to failures *)
  duplicate_paths : int;  (** suppressed, never double-fed *)
  frames_rejected : int;  (** corrupt or protocol-violating frames *)
  heartbeats_missed : int;  (** liveness deadlines expired *)
  quarantined : int;  (** workers that exhausted their restart budget *)
}

val run :
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  config ->
  job ->
  generator:Slimsim_stats.Generator.t ->
  (outcome, Path.error) Result.t
(** Drive the campaign to convergence, interruption (the supervisor's
    stop flag) or collapse.  The supervisor supplies the restart budget
    and backoff, divergence/checkpoint/resume policies and the stop
    flag; [supervisor.checkpoint] persists the {!Supervisor.Checkpoint}
    state extended with outstanding leases, and [supervisor.resume]
    continues from it.  [Error] on a job whose [engine] is not
    ["compiled"], an unreadable checkpoint, a rejected handshake, or an
    aborting path error — same contract as {!Campaign.drive}.  An [Mlmc]
    generator is [Refused] before any worker is spawned: the coupled
    sampler is sequential. *)
