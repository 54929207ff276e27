(** Campaign supervision: the robustness policies wrapped around a long
    SMC run — what to do with runaway paths, how to survive worker
    crashes, how to persist progress, and how to stop gracefully.

    A supervisor is plain data consulted by {!Campaign}; it owns no
    threads of its own.  The default supervisor preserves the historical
    behaviour: divergent paths abort the campaign, crashes are retried a
    few times, nothing is checkpointed, and no stop flag is observed. *)

type checkpoint_cfg = {
  file : string;  (** checkpoint path; written via tmp-file + rename *)
  every : int;  (** save after every [every] consumed paths *)
}

type t = {
  on_divergence : [ `Abort | `Unsat | `Drop ];
      (** What a {!Path.Diverged} verdict does to the campaign:
          [`Abort] stops it with {!Path.Diverged_path}; [`Unsat] feeds
          the path to the generator as a failure (conservative — the
          estimate can only drop); [`Drop] discards the sample and lets
          the stopping rule re-plan, so the campaign still consumes the
          planned number of {e kept} samples.  A campaign whose paths
          (almost) all diverge cannot converge under [`Drop]; after
          [drop_stall_limit] consecutive dropped samples it aborts with
          {!Path.Model_error} instead of spinning forever. *)
  checkpoint : checkpoint_cfg option;
  resume : bool;
      (** Restore generator state and path cursor from [checkpoint]
          before simulating.  A missing checkpoint file is a fresh
          start, not an error; an incompatible one (different seed,
          generator, delta or eps) is. *)
  max_restarts : int;
      (** Per-worker crash budget; one more crash aborts the campaign
          with {!Path.Worker_crash}. *)
  restart_backoff : float;
      (** Base delay in seconds before a restart; doubled per
          consecutive restart of the same worker, capped at 1s. *)
  stop : bool Atomic.t;
      (** Cooperative interruption flag, shared with signal handlers
          (and with tests).  Once set, the engine stops consuming new
          samples and reports a partial estimate. *)
  chaos : (worker:int -> path:int -> unit) option;
      (** Test-only fault injection: called in the worker's domain
          right before each path is simulated; raising simulates a
          worker crash at exactly that path. *)
  metrics_file : string option;
      (** Where the engine re-exports the metric registry (Prometheus
          text format, tmp-file + rename) at every checkpoint, so a
          long campaign's metrics survive a crash along with its
          progress.  Only written when metrics collection is enabled
          ({!Slimsim_obs.Metrics.set_enabled}); the CLI also writes it
          once at exit. *)
  max_buffer : int;
      (** Parallel collection only: the largest path-id range a
          generator claims at once ({!Lease.range_size}'s cap).  A
          generator holds at most two unconsumed ranges, so this bounds
          how far it runs ahead of the collector; the verdict stream is
          independent of the value. *)
  drop_stall_limit : int;
      (** Under the [`Drop] divergence policy, abort after this many
          {e consecutive} dropped samples — a campaign whose paths
          (almost) all diverge can never converge, only spin. *)
}

val create :
  ?on_divergence:[ `Abort | `Unsat | `Drop ] ->
  ?checkpoint:checkpoint_cfg ->
  ?resume:bool ->
  ?max_restarts:int ->
  ?restart_backoff:float ->
  ?stop:bool Atomic.t ->
  ?chaos:(worker:int -> path:int -> unit) ->
  ?metrics_file:string ->
  ?max_buffer:int ->
  ?drop_stall_limit:int ->
  unit ->
  t
(** Defaults: [`Abort], no checkpoint, no resume, [max_restarts = 3],
    [restart_backoff = 0.05], a fresh stop flag, no chaos, no metrics
    file, [max_buffer = 256], [drop_stall_limit = 10_000]. *)

val default : unit -> t

val request_stop : t -> unit
val stop_requested : t -> bool

val backoff_delay : t -> attempt:int -> float
(** Delay before restart number [attempt] (0-based) of one worker. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!request_stop}.  Interruption is
    cooperative: it takes effect at the next consumed sample, and the
    watchdog budgets are what bound how long a single path can defer
    that. *)

val divergence_policy_to_string : [ `Abort | `Unsat | `Drop ] -> string

val divergence_policy_of_string :
  string -> ([ `Abort | `Unsat | `Drop ], string) result

(** Crash-safe persistence of campaign progress.  The state is exactly
    what determinism requires: the seed and path cursor locate the next
    RNG stream, and the estimator counters are the entire state of every
    stopping rule (fixed-size and Chow–Robbins alike), so a resumed
    campaign continues to the same verdict stream and the same final
    estimate as an uninterrupted one. *)
module Checkpoint : sig
  type mlmc_level = {
    l_next_path : int;  (** first path id not yet consumed at this level *)
    l_count : int;
    l_mean : float;
    l_m2 : float;
        (** the level's full Welford accumulator state; [%h] hex floats
            on disk, so a resumed multilevel campaign allocates and
            stops bit-identically *)
  }

  type mlmc_state = {
    ml_levels : mlmc_level array;
    ml_paths : int;
        (** simulations run so far; a coupled pair counts both halves *)
    ml_sat : int;  (** [Sat] verdicts seen (diagnostic) *)
    ml_cost : float;  (** model cost spent, full-resolution-path units *)
  }

  type cost_state = {
    c_query : string;
        (** canonical form of the cost query; a resume under a different
            query is rejected *)
    c_count : int;  (** sat paths folded into the accumulator *)
    c_mean : float;
    c_m2 : float;  (** Welford state of the sat-path costs ([%h] on disk) *)
    c_min : float;
    c_max : float;
        (** observed range; [+inf]/[-inf] while [c_count = 0] *)
    c_buckets : int array;
        (** the 64 log2 histogram buckets
            ([Slimsim_obs.Metrics.bucket_of] convention) backing the
            quantile table — resume needs no raw samples *)
  }

  type state = {
    seed : int64;
    kind : Slimsim_stats.Generator.kind;
    delta : float;
    eps : float;
    next_path : int;  (** first path id not yet consumed *)
    trials : int;
    successes : int;
    deadlocks : int;
    violated : int;
    errors : int;
    diverged : int;
    dropped : int;
    leases : (int * int * int) list;
        (** distributed campaigns: the [(id, lo, hi)] path-id ranges
            granted but not yet fully consumed when the checkpoint was
            taken.  Purely bookkeeping — a resumed campaign re-carves
            ranges from [next_path], regenerating any in-flight work
            bit-identically from the per-path seeds — so single-process
            campaigns write [[]]. *)
    mlmc : mlmc_state option;
        (** per-level state of a multilevel (mlmc) campaign.  Written as
            a trailing optional block, so classic campaigns produce
            byte-identical files to earlier builds and their old
            checkpoints still load. *)
    cost : cost_state option;
        (** accumulator of a priced (E[cost]/D[cost]) campaign; the
            other trailing optional block, mutually exclusive with
            [mlmc].  Classic files stay byte-identical. *)
  }

  val magic : string
  (** The header magic word, ["slimsim-checkpoint"].  Also exchanged
      (with {!format_version}) in the distributed wire handshake. *)

  val format_version : int
  (** Version written after the magic word.  [load] rejects any other
      version with a clear message instead of a decode failure. *)

  val save : file:string -> state -> unit
  (** Atomic: the state is written to [file ^ ".tmp"] and renamed over
      [file], so a crash mid-save never corrupts the previous
      checkpoint. *)

  val load : file:string -> (state, string) result
end
