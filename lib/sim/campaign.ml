(* A campaign is the engine's run loop turned inside out: instead of two
   monolithic sequential/parallel drivers owning the process until the
   stopping rule fires, the loop state (tallies, path cursor, worker
   session) lives in a value and each [step] advances it by a bounded
   quota of samples.  Everything determinism rests on is unchanged: path
   [i] draws from an RNG derived from [(seed, i)] alone, and samples are
   consumed in path order — sequentially, or from contiguous path-id
   ranges banked by several domains (§III-C) — so the verdict stream is a
   function of
   [(model, property, strategy, generator, seed)] no matter how the
   campaign is sliced, parked or resumed.

   The kernel owns that lifecycle once: the policy router, the slice
   loop, the checkpoint file, park/resume and wall-clock accounting.
   What a campaign estimates is an accumulator plugged into it — the
   Bernoulli generator here, the priced-query fold in [Cost_run], the
   multilevel estimator in [Mlmc_run].  Where its samples come from is
   its source: one path per id on one or several domains, or a [draw]
   function — the coupled sampler of [Mlmc_run], the worker-process pool
   of the distributed coordinator. *)

module Rng = Slimsim_stats.Rng
module Generator = Slimsim_stats.Generator
module Estimator = Slimsim_stats.Estimator
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Json = Slimsim_obs.Json
module Progress = Slimsim_obs.Progress
module Checkpoint = Supervisor.Checkpoint

type stop_reason = Converged | Interrupted

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
}

type tally = {
  mutable deadlocks : int;
  mutable violated : int;
  mutable errors : int;
  mutable diverged : int;
  mutable dropped : int;
  mutable restarts : int;
  mutable consec_dropped : int;
}

(* Collector-side metric cells, created once per campaign when metrics
   are enabled and touched only by the collecting thread (the thread
   calling [step]) — single-writer like the per-worker path cells. *)
type run_obs = {
  v_sat : Metrics.counter;
  v_unsat_horizon : Metrics.counter;
  v_deadlock : Metrics.counter;
  v_timelock : Metrics.counter;
  v_violated : Metrics.counter;
  v_diverged : Metrics.counter;
  v_error : Metrics.counter;
  o_dropped : Metrics.counter;
  o_restarts : Metrics.counter;
  o_checkpoints : Metrics.counter;
  o_checkpoint_seconds : Metrics.histogram;
  o_buffer : Metrics.histogram;
}

let make_run_obs () =
  if not (Metrics.enabled ()) then None
  else
    let vhelp = "Consumed samples by verdict" in
    let v kind =
      Metrics.counter ~labels:[ ("verdict", kind) ] "slimsim_verdicts_total"
        ~help:vhelp
    in
    Some
      {
        v_sat = v "sat";
        v_unsat_horizon = v "unsat_horizon";
        v_deadlock = v "unsat_deadlock";
        v_timelock = v "unsat_timelock";
        v_violated = v "unsat_violated";
        v_diverged = v "diverged";
        v_error = v "error";
        o_dropped =
          Metrics.counter "slimsim_dropped_paths_total"
            ~help:"Diverged paths discarded under the `drop' policy";
        o_restarts =
          Metrics.counter "slimsim_worker_restarts_total"
            ~help:"Crashed workers brought back up";
        o_checkpoints =
          Metrics.counter "slimsim_checkpoints_total"
            ~help:"Checkpoint files written";
        o_checkpoint_seconds =
          Metrics.histogram "slimsim_checkpoint_seconds"
            ~help:"Wall-clock seconds per checkpoint write";
        o_buffer =
          Metrics.histogram "slimsim_buffer_occupancy"
            ~help:
              "Banked-but-unconsumed paths when the collector opens a path-id \
               range";
      }

let robs_incr robs field =
  match robs with Some r -> Metrics.incr (field r) | None -> ()

(* ------------------------------------------------------------------ *)
(* Samples and accumulators. *)

type sample =
  | Sat of float
  | Unsat
  | Pair of { level : int; diff : float }
  | Dropped

type 'r accumulator = {
  feed : sample -> unit;
  stop : unit -> [ `Continue | `Converged | `Fail of Path.error ];
  summary : tally -> stopped:stop_reason -> wall:float -> 'r;
  save : tally -> seed:int64 -> next_path:int -> Checkpoint.state;
  restore : Checkpoint.state -> (unit, string) Result.t;
  estimate : unit -> float * float * float * int;
  remaining : unit -> int option;
}

(* ------------------------------------------------------------------ *)
(* The Bernoulli generator as an accumulator. *)

let summarize gen tally ~stopped wall =
  let est = Generator.estimator gen in
  let lo, hi = Estimator.confidence_interval est ~delta:(Generator.delta gen) in
  let r =
    {
      probability = Estimator.mean est;
      ci_low = lo;
      ci_high = hi;
      paths = Estimator.trials est;
      successes = Estimator.successes est;
      deadlock_paths = tally.deadlocks;
      violated_paths = tally.violated;
      errors = tally.errors;
      diverged_paths = tally.diverged;
      dropped_paths = tally.dropped;
      worker_restarts = tally.restarts;
      stopped;
      wall_seconds = wall;
    }
  in
  Log.emit ~event:"campaign_end"
    [
      ( "stopped",
        Json.String
          (match stopped with
          | Converged -> "converged"
          | Interrupted -> "interrupted") );
      ("probability", Json.Float r.probability);
      ("ci_low", Json.Float r.ci_low);
      ("ci_high", Json.Float r.ci_high);
      ("paths", Json.Int r.paths);
      ("successes", Json.Int r.successes);
      ("deadlock_paths", Json.Int r.deadlock_paths);
      ("violated_paths", Json.Int r.violated_paths);
      ("errors", Json.Int r.errors);
      ("diverged_paths", Json.Int r.diverged_paths);
      ("dropped_paths", Json.Int r.dropped_paths);
      ("worker_restarts", Json.Int r.worker_restarts);
      ("wall_seconds", Json.Float r.wall_seconds);
    ];
  r

(* The campaign state is (seed, path cursor, estimator counters,
   tallies) — see Supervisor.Checkpoint.  This tuple is also exactly
   what a parked campaign is. *)
let checkpoint_state gen tally ~seed ~next_path =
  let est = Generator.estimator gen in
  {
    Checkpoint.seed;
    kind = Generator.kind gen;
    delta = Generator.delta gen;
    eps = Generator.eps gen;
    next_path;
    trials = Estimator.trials est;
    successes = Estimator.successes est;
    deadlocks = tally.deadlocks;
    violated = tally.violated;
    errors = tally.errors;
    diverged = tally.diverged;
    dropped = tally.dropped;
    leases = [];
    mlmc = None;
    cost = None;
  }

let bernoulli gen =
  {
    feed =
      (function
      | Sat _ -> Generator.feed gen true
      | Unsat -> Generator.feed gen false
      | Pair _ | Dropped -> ());
    stop =
      (fun () -> if Generator.needs_more gen then `Continue else `Converged);
    summary = (fun tally ~stopped ~wall -> summarize gen tally ~stopped wall);
    save = checkpoint_state gen;
    restore =
      (fun st ->
        Generator.restore gen ~trials:st.Checkpoint.trials
          ~successes:st.Checkpoint.successes;
        Ok ());
    estimate =
      (fun () ->
        let est = Generator.estimator gen in
        let lo, hi =
          Estimator.confidence_interval est ~delta:(Generator.delta gen)
        in
        (Estimator.mean est, lo, hi, Estimator.trials est));
    remaining = (fun () -> Generator.remaining_samples gen);
  }

(* ------------------------------------------------------------------ *)
(* Resuming from a checkpoint file. *)

(* The one resume validator.  A checkpoint resumes only a campaign that
   would have written the same header (seed, generator kind, delta/eps)
   and carries no trailing block of another accumulator's kind; the
   accumulator then checks and restores its own block. *)
let resume sup acc tally ~seed =
  if not sup.Supervisor.resume then Ok 0
  else
    match sup.Supervisor.checkpoint with
    | None ->
      Error (Path.Model_error "resume requested without a checkpoint file")
    | Some { Supervisor.file; _ } -> (
      if not (Sys.file_exists file) then Ok 0 (* fresh start, not an error *)
      else
        let reject msg = Error (Path.Model_error ("cannot resume: " ^ msg)) in
        match Checkpoint.load ~file with
        | Error msg -> reject msg
        | Ok st -> (
          let mine = acc.save tally ~seed ~next_path:0 in
          if st.Checkpoint.seed <> seed then
            reject
              (Printf.sprintf "checkpoint was taken with seed %Ld, not %Ld"
                 st.Checkpoint.seed seed)
          else if st.kind <> mine.kind then
            reject
              "checkpoint was taken with a different statistical generator"
          else if st.delta <> mine.delta || st.eps <> mine.eps then
            reject "checkpoint was taken with different delta/eps"
          else if st.mlmc <> None && mine.mlmc = None then
            reject
              "checkpoint carries multilevel (mlmc) state; resume it with \
               --generator mlmc"
          else if st.cost <> None && mine.cost = None then
            reject
              "checkpoint carries cost-accumulator state; resume it with the \
               same cost query"
          else
            match acc.restore st with
            | Error msg -> reject msg
            | Ok () ->
              tally.deadlocks <- st.deadlocks;
              tally.violated <- st.violated;
              tally.errors <- st.errors;
              tally.diverged <- st.diverged;
              tally.dropped <- st.dropped;
              Ok st.next_path))

(* ------------------------------------------------------------------ *)
(* The runner factory: called once per worker (inside that worker's
   domain, so per-worker scratch is domain-local), yielding the
   [config -> rng -> (outcome, cost)] function.  The factory stages the
   network once and shares the immutable tables across workers; each
   worker owns one scratch state.  Crash recovery and park/resume both
   lean on this shape: a replacement runner is a fresh factory call,
   and path [i] always draws from an RNG derived from [(seed, i)]
   alone, so any path a dying (or parked) worker lost is regenerated
   bit-identically by its successor.

   Per-worker observability: the path generator's cell plus a
   path-duration histogram, both labeled [worker="<w>"] and created in
   the worker's own domain (the factory runs there), so every series has
   a single writer.  [None] when metrics are off — the runner then calls
   the generator directly, with no clock reads. *)
let worker_obs ~worker =
  if not (Metrics.enabled ()) then (None, None)
  else
    ( Some (Path.obs_cell ~worker),
      Some
        (Metrics.histogram
           ~labels:[ ("worker", string_of_int worker) ]
           "slimsim_worker_path_seconds"
           ~help:"Wall-clock seconds spent generating each path, per worker") )

let timed secs f = match secs with None -> f () | Some h -> Metrics.time h f

type outcome = (Path.verdict, Path.error) Result.t

let path_runner ?(hold = Slimsim_sta.Expr.true_) ?compiled ?cost_var net ~goal
    ~strategy =
  let c =
    match compiled with Some c -> c | None -> Slimsim_sta.Compiled.compile net
  in
  let q = Path.compile_query ~hold c ~goal in
  fun ~worker () ->
    let obs, secs = worker_obs ~worker in
    let cost = Option.map (fun v -> (v, ref nan)) cost_var in
    let s = Slimsim_sta.Compiled.scratch c in
    fun cfg rng ->
      timed secs (fun () ->
          let o = Path.generate ?obs ?cost c s q cfg strategy rng in
          match (cost, o) with
          | Some (_, cell), Ok (Path.Sat _) -> (o, !cell)
          | _ -> (o, nan))

let make_runner ~seed ?hold ?compiled ?cost_var cfg net ~goal ~strategy =
  let runner = path_runner ?hold ?compiled ?cost_var net ~goal ~strategy in
  fun ~worker () ->
    let run = runner ~worker () in
    fun id -> run cfg (Rng.for_path ~seed ~path:id)

(* ------------------------------------------------------------------ *)
(* The campaign value. *)

type runner = int -> outcome * float

type seq = { mutable runner : runner }

(* A live parallel session: the collecting domain (generator 0) and
   [k - 1] spawned worker domains draw contiguous path-id ranges from one
   lease table and bank each range's verdict codes and costs in it; the
   collector consumes the banked ranges in path order base, base+1, …
   Whenever the range it must consume next is not banked yet, the
   collector generates paths itself: the range holding the cursor is run
   path by path as it is consumed, any other claimable range is run
   ahead and banked.  This is the buffered balanced collection of [22],
   one lock per range instead of per sample: the sample stream seen by
   the (possibly sequential) accumulator is a deterministic function of
   the seed, independent of scheduling and of [k].  Parking tears the
   whole session down; the next step builds a fresh one at the current
   cursor. *)
type par = {
  table : Float.Array.t Lease.t;  (* payload: cost per path *)
  lock : Mutex.t;  (* guards [table], [dead] and [limit] *)
  published : Condition.t;  (* a range was banked or its owner died *)
  space : Condition.t;  (* a range was consumed, or the session halts *)
  par_stop : bool Atomic.t;  (* session-local halt flag, not sup.stop *)
  domains : unit Domain.t option array;  (* slot 0 is the collector *)
  dead : string option array;  (* why a worker died mid-range *)
  restarts : int array;
  own : seq;  (* the collector's runner *)
  crashed : (int, string) Hashtbl.t;  (* collector crashes run ahead *)
  mutable cur : Float.Array.t Lease.lease option;  (* range being consumed *)
  mutable inline : bool;  (* [cur] is run by the collector as consumed *)
  mutable avail : int;  (* end of what [cur] can serve *)
  mutable tries : int;  (* attempts already failed at the cursor path *)
  mutable limit : int;  (* carve no range past this path id *)
}

type exec =
  | Idle  (* parked, or not yet started *)
  | Seq of seq
  | Par of par

type 'r state = Running | Done of 'r | Failed of Path.error
type 'r campaign = {
  sup : Supervisor.t;
  on_error : [ `Abort | `Unsat ];
  seed : int64;
  acc : 'r accumulator;
  source : 'r source;
  progress : Progress.t option;
  workers : int;
  tally : tally;
  robs : run_obs option;
  mutable next_path : int;
  mutable exec : exec;
  mutable active_seconds : float;  (* stepping wall time, past slices *)
  mutable slice_start : float;  (* start of the slice in flight *)
  mutable outcome : 'r state;
}

and 'r source =
  | Paths of (worker:int -> unit -> runner)
  | Draw of ('r campaign -> (sample, Path.error) Result.t)

type t = result campaign

(* Route one path's outcome through the error and divergence policies:
   tally its verdict class, count it, log the exceptional ones.  An
   errored or diverged path under the [`Unsat] policy comes back as a
   failure (conservative for reachability estimates: it can only lower
   the estimated probability); under [`Drop] it comes back as [`Drop],
   and the sample it belongs to is discarded.  [level] tags the events
   of a multilevel half-sample. *)
let route t ?level ~path outcome =
  let tally = t.tally and on_divergence = t.sup.Supervisor.on_divergence in
  let at fields =
    match level with
    | None -> ("path", Json.Int path) :: fields
    | Some l -> ("level", Json.Int l) :: ("path", Json.Int path) :: fields
  in
  match outcome with
  | Ok (Path.Diverged d) -> (
    tally.diverged <- tally.diverged + 1;
    robs_incr t.robs (fun r -> r.v_diverged);
    Log.emit ~event:"divergence"
      (at
         [
           ("kind", Json.String (Path.divergence_to_string d));
           ( "policy",
             Json.String (Supervisor.divergence_policy_to_string on_divergence) );
         ]);
    match on_divergence with
    | `Abort -> `Abort (Path.Diverged_path d)
    | `Unsat -> `Unsat
    | `Drop -> `Drop)
  | Ok v ->
    (match v with
    | Path.Unsat_deadlock | Path.Unsat_timelock ->
      tally.deadlocks <- tally.deadlocks + 1
    | Path.Unsat_violated _ -> tally.violated <- tally.violated + 1
    | Path.Sat _ | Path.Unsat_horizon | Path.Diverged _ -> ());
    (match t.robs with
    | Some r ->
      Metrics.incr
        (match v with
        | Path.Sat _ -> r.v_sat
        | Path.Unsat_horizon -> r.v_unsat_horizon
        | Path.Unsat_deadlock -> r.v_deadlock
        | Path.Unsat_timelock -> r.v_timelock
        | Path.Unsat_violated _ -> r.v_violated
        | Path.Diverged _ -> r.v_diverged)
    | None -> ());
    (match v with Path.Sat _ -> `Sat | _ -> `Unsat)
  | Error e -> (
    robs_incr t.robs (fun r -> r.v_error);
    Log.emit ~event:"path_error"
      (at
         [
           ("error", Json.String (Path.error_to_string e));
           ( "policy",
             Json.String
               (match t.on_error with `Abort -> "abort" | `Unsat -> "unsat") );
         ]);
    match t.on_error with
    | `Abort -> `Abort e
    | `Unsat ->
      tally.errors <- tally.errors + 1;
      `Unsat)

(* A one-path sample, classified; [cost] is what the runner observed at
   the goal crossing. *)
let classify_in t ~path (outcome, cost) =
  match route t ~path outcome with
  | `Sat -> Ok (Sat cost)
  | `Unsat -> Ok Unsat
  | `Drop -> Ok Dropped
  | `Abort e -> Error e

(* The per-sample half of the drop policy, then the fold.  The stopping
   rule never sees a dropped sample, so it keeps asking for more — the
   re-planning is implicit; a run of drops long enough to mean nothing
   will ever converge aborts instead of spinning. *)
let settle t s =
  let tally = t.tally in
  (match s with
  | Dropped ->
    tally.dropped <- tally.dropped + 1;
    tally.consec_dropped <- tally.consec_dropped + 1;
    robs_incr t.robs (fun r -> r.o_dropped)
  | Sat _ | Unsat | Pair _ -> tally.consec_dropped <- 0);
  match s with
  | Dropped when tally.consec_dropped >= t.sup.Supervisor.drop_stall_limit ->
    Error
      (Path.Model_error
         (Printf.sprintf
            "divergence policy `drop': %d consecutive samples diverged; the \
             estimate conditioned on non-divergence cannot converge (raise \
             the watchdog budgets or use --on-divergence unsat)"
            tally.consec_dropped))
  | _ ->
    t.acc.feed s;
    Ok ()

(* One checkpoint write, observed: the save is counted and timed, the
   metric registry is re-exported next to it (so a crashed campaign
   leaves current metrics behind along with its progress), and a
   "checkpoint" event is logged.  All of that is skipped — leaving the
   bare historical save — when observability is off. *)
let save_checkpoint t =
  match t.sup.Supervisor.checkpoint with
  | None -> ()
  | Some { Supervisor.file; _ } ->
    let st = t.acc.save t.tally ~seed:t.seed ~next_path:t.next_path in
    if t.robs = None && not (Log.active ()) then Checkpoint.save ~file st
    else begin
      let t0 = Unix.gettimeofday () in
      Checkpoint.save ~file st;
      (match t.sup.Supervisor.metrics_file with
      | Some mf when Metrics.enabled () -> Metrics.write_file mf
      | _ -> ());
      let dt = Unix.gettimeofday () -. t0 in
      (match t.robs with
      | Some r ->
        Metrics.incr r.o_checkpoints;
        Metrics.observe r.o_checkpoint_seconds dt
      | None -> ());
      Log.emit ~event:"checkpoint"
        [
          ("file", Json.String file);
          ("next_path", Json.Int st.Checkpoint.next_path);
          ("seconds", Json.Float dt);
        ]
    end

let maybe_checkpoint t =
  match t.sup.Supervisor.checkpoint with
  | Some { Supervisor.every; _ } when t.next_path mod every = 0 ->
    save_checkpoint t
  | _ -> ()

(* The heartbeat is ticked once per consumed sample; the estimate is
   only evaluated when a line actually prints. *)
let progress_tick t =
  match t.progress with
  | None -> ()
  | Some p ->
    Progress.tick p ~paths:t.next_path (fun () ->
        let mean, lo, hi, _ = t.acc.estimate () in
        (mean, (hi -. lo) /. 2.0))

(* A runner exception is a "worker crash" even in-process: rebuild the
   runner (fresh scratch state) and replay the same path id —
   deterministic regeneration makes the retry invisible in the verdict
   stream.  The collecting domain of a parallel session runs the range
   holding the cursor through here too; [tries] counts attempts that
   already failed at [i]. *)
let inject t ~worker ~path =
  match t.sup.Supervisor.chaos with
  | Some inject -> inject ~worker ~path
  | None -> ()

let note_restart t =
  t.tally.restarts <- t.tally.restarts + 1;
  robs_incr t.robs (fun r -> r.o_restarts)

let restart_own t make e ~path ~msg ~attempt =
  note_restart t;
  Log.emit ~event:"worker_restart"
    [
      ("worker", Json.Int 0);
      ("path", Json.Int path);
      ("error", Json.String msg);
      ("attempt", Json.Int (attempt + 1));
    ];
  Unix.sleepf (Supervisor.backoff_delay t.sup ~attempt);
  e.runner <- make ~worker:0 ()

let seq_attempt ?(tries = 0) t make e i =
  let rec attempt tries =
    match
      inject t ~worker:0 ~path:i;
      e.runner i
    with
    | ran -> Ok ran
    | exception exn ->
      let msg = Printexc.to_string exn in
      if tries >= t.sup.Supervisor.max_restarts then
        Error (Path.Worker_crash msg)
      else begin
        restart_own t make e ~path:i ~msg ~attempt:tries;
        attempt (tries + 1)
      end
  in
  attempt tries

(* --- parallel sessions --- *)

(* A session stops generating on its own halt flag and on the
   campaign's stop request, which is sticky. *)
let halted t p = Atomic.get p.par_stop || Supervisor.stop_requested t.sup

(* Whether [owner] may take another range: it holds fewer than two
   unconsumed ones, and there is a lost range to regenerate or the
   stopping rule may still ask for a fresh one.  Called under the lock. *)
let claimable p owner =
  Lease.held p.table ~owner < 2
  && (Lease.pending p.table > 0 || Lease.frontier p.table < p.limit)

let bank l id (outcome, cost) =
  Lease.store l id outcome;
  Float.Array.unsafe_set l.Lease.payload (id - l.Lease.lo) cost

(* Worker [w] claims a range, fills it from its banked prefix on, and
   publishes it once; an exception escaping the runner publishes the
   prefix filled so far and marks the worker dead, so the collector
   consumes the prefix and the remainder is regenerated from per-path
   seeds by whoever claims it next. *)
let worker_body t make p w () =
  let runner = lazy (make ~worker:w ()) in
  let rec go () =
    Mutex.lock p.lock;
    while (not (halted t p)) && not (claimable p w) do
      Condition.wait p.space p.lock
    done;
    let claimed =
      if halted t p then None else Some (Lease.grant p.table ~owner:w)
    in
    Mutex.unlock p.lock;
    match claimed with
    | None -> ()
    | Some l ->
      let id = ref (l.Lease.lo + l.Lease.filled) in
      if not (Lazy.is_val runner) then
        Log.emit ~event:"worker_start"
          [ ("worker", Json.Int w); ("first_path", Json.Int !id) ];
      let crash =
        match
          let run = Lazy.force runner in
          while !id < l.Lease.hi && not (halted t p) do
            inject t ~worker:w ~path:!id;
            bank l !id (run !id);
            incr id
          done
        with
        | () -> None
        | exception exn -> Some (Printexc.to_string exn)
      in
      Mutex.lock p.lock;
      Lease.publish l ~upto:!id;
      p.dead.(w) <- crash;
      Condition.signal p.published;
      Mutex.unlock p.lock;
      if crash = None then go ()
  in
  go ()

let spawn_worker t make p w =
  p.domains.(w) <- Some (Domain.spawn (worker_body t make p w))

let join_worker p w =
  match p.domains.(w) with
  | Some d ->
    Domain.join d;
    p.domains.(w) <- None
  | None -> ()

(* The range size for a step of [quota] samples: [R] in
   {!Lease.range_size} is what the plan still asks for, capped by the
   quota, so a short slice (a time-shared serve campaign) is spread
   over all generators instead of one range. *)
let range_size t quota =
  let remaining =
    match (t.acc.remaining (), quota) with
    | r, q when q = max_int -> r
    | None, q -> Some q
    | Some r, q -> Some (min r q)
  in
  Lease.range_size ~remaining ~workers:t.workers
    ~cap:t.sup.Supervisor.max_buffer

let spawn_par t make quota =
  let k = t.workers in
  let table =
    Lease.create ~base:t.next_path ~size:(range_size t quota)
      ~payload:Float.Array.create
  in
  Log.emit ~event:"worker_start"
    [ ("worker", Json.Int 0); ("first_path", Json.Int t.next_path) ];
  let p =
    {
      table;
      lock = Mutex.create ();
      published = Condition.create ();
      space = Condition.create ();
      par_stop = Atomic.make false;
      domains = Array.make k None;
      dead = Array.make k None;
      restarts = Array.make k 0;
      own = { runner = make ~worker:0 () };
      crashed = Hashtbl.create 1;
      cur = None;
      inline = false;
      avail = 0;
      tries = 0;
      limit =
        Lease.carve_limit table ~cursor:t.next_path
          ~remaining:(t.acc.remaining ());
    }
  in
  for w = 1 to k - 1 do
    spawn_worker t make p w
  done;
  p

let halt_par p =
  Mutex.lock p.lock;
  Atomic.set p.par_stop true;
  Condition.broadcast p.space;
  Mutex.unlock p.lock;
  Array.iteri (fun w _ -> join_worker p w) p.domains

(* Tear down whatever is running: workers are joined (their banked,
   unconsumed ranges discarded) and runners dropped. *)
let quiesce t =
  (match t.exec with Par p -> halt_par p | Seq _ | Idle -> ());
  t.exec <- Idle

(* --- the slice loop --- *)

(* A sample source waiting for the sample at the cursor saw a stop
   request (or lost every generator): [step] ends the slice as
   interrupted without consuming it. *)
exception Stopped

let wall_now t = t.active_seconds +. (Unix.gettimeofday () -. t.slice_start)

let finish_with t stopped =
  quiesce t;
  save_checkpoint t;
  let r = t.acc.summary t.tally ~stopped ~wall:(wall_now t) in
  t.outcome <- Done r;
  Done r

let fail_with t e =
  quiesce t;
  t.outcome <- Failed e;
  Failed e

(* Consume up to [quota] samples from [next], which yields the
   classified sample at cursor [t.next_path]: stop requested, converged
   or failed by the accumulator's rule, quota spent — in that order,
   before every sample — then the drop policy, the fold, the cursor,
   the periodic checkpoint and the heartbeat after it. *)
let run_slice t quota next =
  let rec go budget =
    if Supervisor.stop_requested t.sup then finish_with t Interrupted
    else
      match t.acc.stop () with
      | `Converged -> finish_with t Converged
      | `Fail e -> fail_with t e
      | `Continue when budget <= 0 -> Running
      | `Continue -> (
        match next () with
        | Error e -> fail_with t e
        | Ok s -> (
          match settle t s with
          | Error e -> fail_with t e
          | Ok () ->
            t.next_path <- t.next_path + 1;
            maybe_checkpoint t;
            progress_tick t;
            go (budget - 1)))
  in
  go quota

(* --- sequential stepping --- *)

let step_seq t make quota =
  let e =
    match t.exec with
    | Seq e -> e
    | Idle | Par _ ->
      let e = { runner = make ~worker:0 () } in
      t.exec <- Seq e;
      e
  in
  run_slice t quota (fun () ->
      let i = t.next_path in
      match seq_attempt t make e i with
      | Error err -> Error err
      | Ok ran -> classify_in t ~path:i ran)

(* --- parallel stepping --- *)

(* A worker died mid-range: its prefix is consumed, and it is joined and
   replaced (within its restart budget).  Its lost remainder is already
   back in the pending pool, so whoever claims it next regenerates it
   from per-path seeds and the verdict stream is bit-identical to a
   crash-free run. *)
let revive t make p w msg =
  join_worker p w;
  Log.emit ~event:"worker_crash"
    [
      ("worker", Json.Int w);
      ("path", Json.Int t.next_path);
      ("error", Json.String msg);
    ];
  if p.restarts.(w) >= t.sup.Supervisor.max_restarts then
    Error (Path.Worker_crash (Printf.sprintf "worker %d: %s" w msg))
  else begin
    let attempt = p.restarts.(w) in
    p.restarts.(w) <- attempt + 1;
    note_restart t;
    Log.emit ~event:"worker_restart"
      [
        ("worker", Json.Int w);
        ("path", Json.Int t.next_path);
        ("attempt", Json.Int (attempt + 1));
      ];
    Unix.sleepf (Supervisor.backoff_delay t.sup ~attempt);
    spawn_worker t make p w;
    Ok ()
  end

(* The collector runs a range ahead of the cursor and publishes what it
   banked.  A crash there is only noted, like a worker's: the prefix is
   published, the runner rebuilt, and the crash is charged when the
   cursor reaches that path — a stopping rule that converges first
   never sees it. *)
let run_ahead t make p l =
  let rec go id =
    if id >= l.Lease.hi || Supervisor.stop_requested t.sup then id
    else
      match
        inject t ~worker:0 ~path:id;
        p.own.runner id
      with
      | ran ->
        bank l id ran;
        go (id + 1)
      | exception exn ->
        Hashtbl.replace p.crashed id (Printexc.to_string exn);
        p.own.runner <- make ~worker:0 ();
        id
  in
  let upto = go (l.Lease.lo + l.Lease.filled) in
  Mutex.lock p.lock;
  Lease.publish l ~upto;
  Mutex.unlock p.lock

(* Make the range holding the cursor current: consume it once banked;
   run it on the collector, path by path as consumed, when the collector
   owns it or nobody does; revive its owner if that died; else run the
   next claimable range ahead on the collector, and wait for a worker
   only when none of those applies.  Consumed ranges are retired first,
   which may let a waiting worker claim again. *)
let rec open_range t make p =
  let i = t.next_path in
  Mutex.lock p.lock;
  p.limit <-
    Lease.carve_limit p.table ~cursor:i ~remaining:(t.acc.remaining ());
  ignore (Lease.head p.table ~cursor:i);
  Condition.broadcast p.space;
  let rec decide () =
    match Lease.head p.table ~cursor:i with
    | Some l when i - l.Lease.lo < l.Lease.filled ->
      (* the occupancy histogram: banked-but-unconsumed paths *)
      (match t.robs with
      | Some r ->
        Metrics.observe r.o_buffer
          (float_of_int (Lease.banked p.table ~cursor:i))
      | None -> ());
      `Banked l
    | Some ({ Lease.owner = Some 0; _ } as l) -> `Own l
    | Some { Lease.owner = None; _ } | None ->
      `Own (Lease.grant p.table ~owner:0)
    | Some { Lease.owner = Some w; _ } when p.dead.(w) <> None ->
      let msg = Option.get p.dead.(w) in
      p.dead.(w) <- None;
      ignore (Lease.fail_owner p.table w);
      `Revive (w, msg)
    | Some _ when Supervisor.stop_requested t.sup -> `Stopped
    | Some _ when claimable p 0 -> `Ahead (Lease.grant p.table ~owner:0)
    | Some _ ->
      Condition.wait p.published p.lock;
      decide ()
  in
  let action = decide () in
  Mutex.unlock p.lock;
  match action with
  | `Banked l ->
    p.cur <- Some l;
    p.inline <- false;
    p.avail <- l.Lease.lo + l.Lease.filled;
    Ok ()
  | `Own l -> (
    p.cur <- Some l;
    p.inline <- true;
    p.avail <- l.Lease.hi;
    match Hashtbl.find_opt p.crashed i with
    | None -> Ok ()
    | Some msg ->
      (* the crash noted by [run_ahead] is this path's first attempt *)
      Hashtbl.remove p.crashed i;
      if t.sup.Supervisor.max_restarts = 0 then Error (Path.Worker_crash msg)
      else begin
        restart_own t make p.own ~path:i ~msg ~attempt:0;
        p.tries <- 1;
        Ok ()
      end)
  | `Revive (w, msg) ->
    Result.bind (revive t make p w msg) (fun () -> open_range t make p)
  | `Ahead l ->
    run_ahead t make p l;
    open_range t make p
  | `Stopped -> raise Stopped

let step_par t make quota =
  let p =
    match t.exec with
    | Par p ->
      let size = range_size t quota in
      Mutex.lock p.lock;
      Lease.resize p.table size;
      Mutex.unlock p.lock;
      p
    | Idle | Seq _ ->
      let p = spawn_par t make quota in
      t.exec <- Par p;
      p
  in
  run_slice t quota (fun () ->
      let i = t.next_path in
      match if i < p.avail then Ok () else open_range t make p with
      | Error e -> Error e
      | Ok () when p.inline -> (
        let tries = p.tries in
        p.tries <- 0;
        match seq_attempt ~tries t make p.own i with
        | Error e -> Error e
        | Ok ran -> classify_in t ~path:i ran)
      | Ok () -> (
        let l = Option.get p.cur in
        match Lease.outcome l i with
        | Error msg -> Error (Path.Model_error msg)
        | Ok o ->
          classify_in t ~path:i
            (o, Float.Array.get l.Lease.payload (i - l.Lease.lo))))

(* --- public driving interface --- *)

let step ?(quota = max_int) t =
  match t.outcome with
  | (Done _ | Failed _) as s -> s
  | Running ->
    t.slice_start <- Unix.gettimeofday ();
    let s =
      match
        match t.source with
        | Draw draw -> run_slice t quota (fun () -> draw t)
        | Paths make when t.workers <= 1 -> step_seq t make quota
        | Paths make -> step_par t make quota
      with
      | s -> s
      | exception Stopped -> finish_with t Interrupted
    in
    t.active_seconds <-
      t.active_seconds +. (Unix.gettimeofday () -. t.slice_start);
    s

let park t =
  match t.outcome with
  | Done _ | Failed _ -> ()
  | Running ->
    quiesce t;
    save_checkpoint t

let rec drive t =
  match step t with
  | Done r -> Ok r
  | Failed e -> Error e
  | Running -> drive t

let status t = t.outcome
let consumed t = t.next_path
let snapshot t = t.acc.estimate ()

(* --- construction --- *)

let start ~workers ~seed ~on_error ?supervisor ?progress ~source acc =
  let sup =
    match supervisor with Some s -> s | None -> Supervisor.default ()
  in
  let tally =
    { deadlocks = 0; violated = 0; errors = 0; diverged = 0; dropped = 0;
      restarts = 0; consec_dropped = 0 }
  in
  match resume sup acc tally ~seed with
  | Error e -> Error e
  | Ok base ->
    Ok
      {
        sup;
        on_error;
        seed;
        acc;
        source;
        progress;
        workers;
        tally;
        robs = make_run_obs ();
        next_path = base;
        exec = Idle;
        active_seconds = 0.0;
        slice_start = 0.0;
        outcome = Running;
      }

let create_with ?(workers = 1) ?(seed = 0x51135113L) ?config
    ?(on_error = `Abort) ?hold ?supervisor ?progress ?compiled ?cost_var net
    ~goal ~horizon ~strategy acc =
  let cfg =
    match config with
    | Some c -> { c with Path.horizon }
    | None -> Path.default_config ~horizon
  in
  (* Scripts are stateful user callbacks: they need a single worker —
     parallel lanes would interleave their observations.  Downgrading
     (rather than erroring) keeps a campaign runnable when a generic
     harness passes its usual --workers flag. *)
  let workers =
    match strategy with
    | Strategy.Scripted _ when workers > 1 ->
      Log.warn
        ~fields:[ ("requested_workers", Json.Int workers) ]
        (Printf.sprintf
           "scripted strategies are stateful callbacks; running with workers \
            = 1 (requested %d)"
           workers);
      1
    | _ -> workers
  in
  let make =
    make_runner ~seed ?hold ?compiled ?cost_var cfg net ~goal ~strategy
  in
  (* Worker domains share the major heap.  Started in the middle of the
     major cycle that collects the set-up's garbage (parse, translate,
     lint, pre-pass, staging), a -j 2 GPS campaign's wall time swung by
     ~20% with unrelated code changes on a 2-core host; started after
     that cycle, it does not. *)
  if workers > 1 then Gc.major ();
  start ~workers ~seed ~on_error ?supervisor ?progress ~source:(Paths make) acc

let create ?workers ?seed ?config ?on_error ?hold ?supervisor ?progress
    ?compiled net ~goal ~horizon ~strategy ~generator () =
  create_with ?workers ?seed ?config ?on_error ?hold ?supervisor ?progress
    ?compiled net ~goal ~horizon ~strategy (bernoulli generator)

let create_sequential ~seed ?(on_error = `Abort) ?supervisor ?progress ~draw
    acc =
  start ~workers:1 ~seed ~on_error ?supervisor ?progress ~source:(Draw draw) acc

let pp_result ppf r =
  Fmt.pf ppf
    "p = %.6f  [%.6f, %.6f]  (%d/%d paths, %d dead/timelocked, %.2fs)"
    r.probability r.ci_low r.ci_high r.successes r.paths r.deadlock_paths
    r.wall_seconds;
  if r.violated_paths > 0 then Fmt.pf ppf " (%d hold-violated)" r.violated_paths;
  if r.errors > 0 then Fmt.pf ppf " (%d errored)" r.errors;
  if r.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d dropped)" r.diverged_paths r.dropped_paths;
  if r.worker_restarts > 0 then
    Fmt.pf ppf " (%d worker restarts)" r.worker_restarts;
  if r.stopped = Interrupted then Fmt.pf ppf " [interrupted]"
