(* A campaign is the engine's run loop turned inside out: instead of two
   monolithic sequential/parallel drivers owning the process until the
   stopping rule fires, the loop state (tallies, path cursor, worker
   session) lives in a value and each [step] advances it by a bounded
   quota of samples.  Everything determinism rests on is unchanged: path
   [i] draws from an RNG derived from [(seed, i)] alone, and samples are
   consumed in path order — sequentially or via the buffered balanced
   collection of §III-C — so the verdict stream is a function of
   [(model, property, strategy, generator, seed)] no matter how the
   campaign is sliced, parked or resumed.

   The kernel owns that lifecycle once: the policy router, the slice
   loop, the checkpoint file, park/resume and wall-clock accounting.
   What a campaign estimates is an accumulator plugged into it — the
   Bernoulli generator here, the priced-query fold in [Cost_run], the
   multilevel estimator in [Mlmc_run]. *)

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

let new_tally () =
  { deadlocks = 0; violated = 0; errors = 0; diverged = 0; dropped = 0;
    restarts = 0; consec_dropped = 0 }

let note_restart tally = tally.restarts <- tally.restarts + 1

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
              "Samples queued in the popped worker buffer when the collector \
               takes one";
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
}

(* Route one path's outcome through the error and divergence policies:
   tally its verdict class, count it, log the exceptional ones.  An
   errored or diverged path under the [`Unsat] policy comes back as a
   failure (conservative for reachability estimates: it can only lower
   the estimated probability); under [`Drop] it comes back as [`Drop],
   and the sample it belongs to is discarded.  [level] tags the events
   of a multilevel half-sample. *)
let apply_policies ?robs ?level ~on_error ~on_divergence ~path tally outcome =
  let at fields =
    match level with
    | None -> ("path", Json.Int path) :: fields
    | Some l -> ("level", Json.Int l) :: ("path", Json.Int path) :: fields
  in
  match outcome with
  | Ok (Path.Diverged d) -> (
    tally.diverged <- tally.diverged + 1;
    robs_incr robs (fun r -> r.v_diverged);
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
    (match robs with
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
    robs_incr robs (fun r -> r.v_error);
    Log.emit ~event:"path_error"
      (at
         [
           ("error", Json.String (Path.error_to_string e));
           ( "policy",
             Json.String
               (match on_error with `Abort -> "abort" | `Unsat -> "unsat") );
         ]);
    match on_error with
    | `Abort -> `Abort e
    | `Unsat ->
      tally.errors <- tally.errors + 1;
      `Unsat)

(* A one-path sample, classified; [cost] is what the runner observed at
   the goal crossing. *)
let classify ?robs ~on_error ~on_divergence ~path tally outcome ~cost =
  match apply_policies ?robs ~on_error ~on_divergence ~path tally outcome with
  | `Sat -> Ok (Sat cost)
  | `Unsat -> Ok Unsat
  | `Drop -> Ok Dropped
  | `Abort e -> Error e

(* The per-sample half of the drop policy, then the fold.  The stopping
   rule never sees a dropped sample, so it keeps asking for more — the
   re-planning is implicit; a run of drops long enough to mean nothing
   will ever converge aborts instead of spinning. *)
let settle ?robs ~drop_stall_limit acc tally s =
  (match s with
  | Dropped ->
    tally.dropped <- tally.dropped + 1;
    tally.consec_dropped <- tally.consec_dropped + 1;
    robs_incr robs (fun r -> r.o_dropped)
  | Sat _ | Unsat | Pair _ -> tally.consec_dropped <- 0);
  match s with
  | Dropped when tally.consec_dropped >= drop_stall_limit ->
    Error
      (Path.Model_error
         (Printf.sprintf
            "divergence policy `drop': %d consecutive samples diverged; the \
             estimate conditioned on non-divergence cannot converge (raise \
             the watchdog budgets or use --on-divergence unsat)"
            tally.consec_dropped))
  | _ ->
    acc.feed s;
    Ok ()

let consume ?robs ~on_error ~on_divergence ~drop_stall_limit ~path acc tally
    outcome =
  match classify ?robs ~on_error ~on_divergence ~path tally outcome ~cost:nan with
  | Error e -> Error e
  | Ok s -> settle ?robs ~drop_stall_limit acc tally s

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
  }

(* ------------------------------------------------------------------ *)
(* Checkpoint files. *)

(* One checkpoint write, observed: the save is counted and timed, the
   metric registry is re-exported next to it (so a crashed campaign
   leaves current metrics behind along with its progress), and a
   "checkpoint" event is logged.  All of that is skipped — leaving the
   bare historical save — when observability is off. *)
let write_checkpoint ?robs sup ~file st =
  let observed = robs <> None || Log.active () in
  if not observed then Checkpoint.save ~file st
  else begin
    let t0 = Unix.gettimeofday () in
    Checkpoint.save ~file st;
    (match sup.Supervisor.metrics_file with
    | Some mf when Metrics.enabled () -> Metrics.write_file mf
    | _ -> ());
    let dt = Unix.gettimeofday () -. t0 in
    (match robs with
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
   [config -> rng -> (outcome, cost)] function.  The compiled factory
   stages the network once and shares the immutable tables across
   workers.  Crash recovery and park/resume both lean on this shape: a
   replacement runner is a fresh factory call, and path [i] always
   draws from an RNG derived from [(seed, i)] alone, so any path a
   dying (or parked) worker lost is regenerated bit-identically by its
   successor.

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

let path_runner ?(engine = `Compiled) ?(hold = Slimsim_sta.Expr.true_)
    ?compiled ?cost_var net ~goal ~strategy =
  let generator =
    match engine with
    | `Interpreted ->
      fun obs cost cfg rng ->
        fst (Path.generate ~hold ?obs ?cost net cfg strategy rng ~goal)
    | `Compiled ->
      let c =
        match compiled with
        | Some c -> c
        | None -> Slimsim_sta.Compiled.compile net
      in
      let q = Path.compile_query ~hold c ~goal in
      fun obs cost ->
        let s = Slimsim_sta.Compiled.scratch c in
        fun cfg rng -> Path.generate_compiled ?obs ?cost c s q cfg strategy rng
  in
  fun ~worker () ->
    let obs, secs = worker_obs ~worker in
    let cost = Option.map (fun v -> (v, ref nan)) cost_var in
    let generate = generator obs cost in
    fun cfg rng ->
      timed secs (fun () ->
          let o = generate cfg rng in
          match (cost, o) with
          | Some (_, cell), Ok (Path.Sat _) -> (o, !cell)
          | _ -> (o, nan))

let make_runner ?engine ~seed ?hold ?compiled ?cost_var cfg net ~goal
    ~strategy =
  let runner = path_runner ?engine ?hold ?compiled ?cost_var net ~goal ~strategy in
  fun ~worker () ->
    let run = runner ~worker () in
    fun id -> run cfg (Rng.for_path ~seed ~path:id)

(* ------------------------------------------------------------------ *)
(* The campaign value. *)

type runner = int -> outcome * float

type slot = Sample of outcome * float | Crashed of string

type buffer = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  q : slot Queue.t;
}

(* A live parallel session: worker [w] simulates paths base+w, base+w+k,
   … into its own buffer; the collector consumes buffers in cyclic
   worker order, i.e. in path order base, base+1, base+2, …  This
   implements the buffered balanced collection of [22] — the sample
   stream seen by the (possibly sequential) accumulator is a
   deterministic function of the seed, independent of scheduling and of
   [k].  Parking tears the whole session down; the next step builds a
   fresh one at the current cursor. *)
type par = {
  k : int;
  par_stop : bool Atomic.t;  (* session-local halt flag, not sup.stop *)
  buffers : buffer array;
  domains : unit Domain.t option array;
  restarts : int array;
  base : int;  (* path id of the first sample of this session *)
  mutable session : int;  (* samples consumed this session *)
}

type seq = { mutable runner : runner }

type exec =
  | Idle  (* parked, or not yet started *)
  | Seq of seq
  | Par of par

type 'r state = Running | Done of 'r | Failed of Path.error
type status = result state

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

let route t ?level ~path outcome =
  apply_policies ?robs:t.robs ?level ~on_error:t.on_error
    ~on_divergence:t.sup.Supervisor.on_divergence ~path t.tally outcome

let classify_in t ~path (outcome, cost) =
  classify ?robs:t.robs ~on_error:t.on_error
    ~on_divergence:t.sup.Supervisor.on_divergence ~path t.tally outcome ~cost

let save_checkpoint t =
  match t.sup.Supervisor.checkpoint with
  | Some { Supervisor.file; _ } ->
    write_checkpoint ?robs:t.robs t.sup ~file
      (t.acc.save t.tally ~seed:t.seed ~next_path:t.next_path)
  | None -> ()

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

(* --- parallel sessions --- *)

(* Each worker owns a bounded buffer with its own mutex and a condition
   per direction, so a push or pop wakes exactly the one party waiting
   on that buffer instead of broadcasting to the whole fleet. *)

let push_sample ~max_buffer ~stop b slot =
  Mutex.lock b.mutex;
  while Queue.length b.q >= max_buffer && not (Atomic.get stop) do
    Condition.wait b.not_full b.mutex
  done;
  if not (Atomic.get stop) then begin
    Queue.push slot b.q;
    Condition.signal b.not_empty
  end;
  Mutex.unlock b.mutex

(* A crashing worker's dying word skips the capacity bound: the
   collector must see the [Crashed] marker even if the buffer is
   full, and the worker is about to die so it cannot wait. *)
let push_dying b slot =
  Mutex.lock b.mutex;
  Queue.push slot b.q;
  Condition.signal b.not_empty;
  Mutex.unlock b.mutex

let pop b observe_occupancy =
  Mutex.lock b.mutex;
  while Queue.is_empty b.q do
    Condition.wait b.not_empty b.mutex
  done;
  observe_occupancy b.q;
  let slot = Queue.pop b.q in
  Condition.signal b.not_full;
  Mutex.unlock b.mutex;
  slot

(* Worker [w] pushes exactly one slot per path, in path order, so slot
   positions and path ids stay aligned; an exception escaping the
   runner surfaces as a terminal [Crashed] slot sitting exactly where
   the lost path's sample would have been. *)
let worker_body t make p w start () =
  match
    Log.emit ~event:"worker_start"
      [ ("worker", Json.Int w); ("first_path", Json.Int start) ];
    let runner = make ~worker:w () in
    let rec go id =
      if Atomic.get p.par_stop then ()
      else begin
        (match t.sup.Supervisor.chaos with
        | Some inject -> inject ~worker:w ~path:id
        | None -> ());
        let outcome, cost = runner id in
        push_sample ~max_buffer:t.sup.Supervisor.max_buffer ~stop:p.par_stop
          p.buffers.(w) (Sample (outcome, cost));
        go (id + p.k)
      end
    in
    go start
  with
  | () -> ()
  | exception exn -> push_dying p.buffers.(w) (Crashed (Printexc.to_string exn))

let spawn_worker t make p w start =
  p.domains.(w) <- Some (Domain.spawn (worker_body t make p w start))

let join_worker p w =
  match p.domains.(w) with
  | Some d ->
    Domain.join d;
    p.domains.(w) <- None
  | None -> ()

let spawn_par t make =
  let k = t.workers in
  let p =
    {
      k;
      par_stop = Atomic.make false;
      buffers =
        Array.init k (fun _ ->
            {
              mutex = Mutex.create ();
              not_empty = Condition.create ();
              not_full = Condition.create ();
              q = Queue.create ();
            });
      domains = Array.make k None;
      restarts = Array.make k 0;
      base = t.next_path;
      session = 0;
    }
  in
  for w = 0 to k - 1 do
    spawn_worker t make p w (p.base + w)
  done;
  p

let halt_par p =
  Atomic.set p.par_stop true;
  Array.iter
    (fun b ->
      Mutex.lock b.mutex;
      Condition.broadcast b.not_full;
      Condition.broadcast b.not_empty;
      Mutex.unlock b.mutex)
    p.buffers;
  for w = 0 to p.k - 1 do
    join_worker p w
  done

(* Tear down whatever is running: workers are joined (their buffered,
   unconsumed samples discarded) and runners dropped. *)
let quiesce t =
  (match t.exec with Par p -> halt_par p | Seq _ | Idle -> ());
  t.exec <- Idle

(* --- the slice loop --- *)

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
  let drop_stall_limit = t.sup.Supervisor.drop_stall_limit in
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
          match settle ?robs:t.robs ~drop_stall_limit t.acc t.tally s with
          | Error e -> fail_with t e
          | Ok () ->
            t.next_path <- t.next_path + 1;
            maybe_checkpoint t;
            progress_tick t;
            go (budget - 1)))
  in
  go quota

(* --- sequential stepping --- *)

(* A runner exception is a "worker crash" even in-process: rebuild the
   runner (fresh scratch state) and replay the same path id —
   deterministic regeneration makes the retry invisible in the verdict
   stream. *)
let seq_attempt t make e i =
  let rec attempt tries =
    match
      (match t.sup.Supervisor.chaos with
      | Some inject -> inject ~worker:0 ~path:i
      | None -> ());
      e.runner i
    with
    | ran -> Ok ran
    | exception exn ->
      if tries >= t.sup.Supervisor.max_restarts then
        Error (Path.Worker_crash (Printexc.to_string exn))
      else begin
        note_restart t.tally;
        robs_incr t.robs (fun r -> r.o_restarts);
        Log.emit ~event:"worker_restart"
          [
            ("worker", Json.Int 0);
            ("path", Json.Int i);
            ("error", Json.String (Printexc.to_string exn));
            ("attempt", Json.Int (tries + 1));
          ];
        Unix.sleepf (Supervisor.backoff_delay t.sup ~attempt:tries);
        e.runner <- make ~worker:0 ();
        attempt (tries + 1)
      end
  in
  attempt 0

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

let step_par t make quota =
  let p =
    match t.exec with
    | Par p -> p
    | Idle | Seq _ ->
      let p = spawn_par t make in
      t.exec <- Par p;
      p
  in
  (* The collector owns the occupancy histogram: observed under the
     buffer lock just before each pop, it records how far ahead the
     popped worker was running. *)
  let observe_occupancy q =
    match t.robs with
    | Some r -> Metrics.observe r.o_buffer (float_of_int (Queue.length q))
    | None -> ()
  in
  let rec next () =
    let w = p.session mod p.k in
    match pop p.buffers.(w) observe_occupancy with
    | Crashed msg ->
      (* The worker already died; join reclaims the domain.  Its
         replacement restarts at the exact path the collector is
         waiting for — everything earlier was already buffered in
         order, everything later is regenerated from per-path seeds, so
         the verdict stream is bit-identical to a crash-free run. *)
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
        p.restarts.(w) <- p.restarts.(w) + 1;
        note_restart t.tally;
        robs_incr t.robs (fun r -> r.o_restarts);
        Log.emit ~event:"worker_restart"
          [
            ("worker", Json.Int w);
            ("path", Json.Int t.next_path);
            ("attempt", Json.Int (attempt + 1));
          ];
        Unix.sleepf (Supervisor.backoff_delay t.sup ~attempt);
        spawn_worker t make p w t.next_path;
        next ()
      end
    | Sample (outcome, cost) ->
      p.session <- p.session + 1;
      classify_in t ~path:t.next_path (outcome, cost)
  in
  run_slice t quota next

(* --- public driving interface --- *)

let step ?(quota = max_int) t =
  match t.outcome with
  | (Done _ | Failed _) as s -> s
  | Running ->
    t.slice_start <- Unix.gettimeofday ();
    let s =
      match t.source with
      | Draw draw -> run_slice t quota (fun () -> draw t)
      | Paths make when t.workers <= 1 -> step_seq t make quota
      | Paths make -> step_par t make quota
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
  let tally = new_tally () in
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
    ?(engine = `Compiled) ?(on_error = `Abort) ?hold ?supervisor ?progress
    ?compiled ?cost_var net ~goal ~horizon ~strategy acc =
  let cfg =
    match config with
    | Some c -> { c with Path.horizon }
    | None -> Path.default_config ~horizon
  in
  (* Scripts are stateful user callbacks observing immutable states:
     they need the interpreter, and a single worker — parallel lanes
     would interleave their observations.  Downgrading (rather than
     erroring) keeps a campaign runnable when a generic harness passes
     its usual --workers flag. *)
  let engine =
    match strategy with Strategy.Scripted _ -> `Interpreted | _ -> engine
  in
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
    make_runner ~engine ~seed ?hold ?compiled ?cost_var cfg net ~goal ~strategy
  in
  start ~workers ~seed ~on_error ?supervisor ?progress ~source:(Paths make) acc

let create ?workers ?seed ?config ?engine ?on_error ?hold ?supervisor
    ?progress ?compiled net ~goal ~horizon ~strategy ~generator () =
  create_with ?workers ?seed ?config ?engine ?on_error ?hold ?supervisor
    ?progress ?compiled net ~goal ~horizon ~strategy (bernoulli generator)

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
