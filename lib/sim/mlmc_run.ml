(* The multilevel campaign: the simulation-side half of the MLMC
   estimator (the statistics live in Slimsim_stats.Mlmc), run as a
   sequential sample schedule on the Campaign kernel.

   Level fidelity is horizon truncation: with L levels, level l runs the
   step loop at horizon H/2^(L-1-l) — the watchdog-budget knob of
   Path.config — so the top level is the full-fidelity estimator and
   each coarser level halves the simulated window.  Y_l is the
   reachability indicator at horizon h_l, and E[Y_L] telescopes over the
   coupled differences.

   Coupling: the coarse and fine halves of a level-l sample draw from
   the *same* stream, Rng.for_path_level ~seed ~level:l ~path:id copied
   before the fine run.  Under the Asap strategy the coarse path is an
   exact prefix of the fine one, so Y_l - Y_{l-1} is 0 unless the goal
   is first reached in (h_{l-1}, h_l] — the variance decay that makes
   the telescoping pay.  The estimator is unbiased regardless of how
   tight the coupling is, because each E[Y_l - Y_{l-1}] is estimated by
   honest paired runs.

   Determinism: path (level, id) draws from an RNG derived from
   (seed, level, id) alone, per-level cursors advance in sample order,
   and allocation is driven by the deterministic cost model h_l/H — so
   the sample schedule, the verdict stream and the estimate are a
   function of (model, property, strategy, seed, levels) no matter how
   the campaign is sliced, interrupted or resumed.  A one-level run
   degenerates to the classic generator: same per-path RNG streams
   (for_path_level at level 0 is for_path), same full-horizon config. *)

module Rng = Slimsim_stats.Rng
module Generator = Slimsim_stats.Generator
module Mlmc = Slimsim_stats.Mlmc
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Json = Slimsim_obs.Json

let max_levels = 16

type result = {
  probability : float;
  ci_low : float;
  ci_high : float;
  samples_per_level : int array;
  paths : int;  (* simulations run; a coupled pair counts both halves *)
  sat_paths : int;
  model_cost : float;  (* full-resolution-path units *)
  deadlock_paths : int;
  violated_paths : int;
  errors : int;
  diverged_paths : int;
  dropped_samples : int;
  stopped : Campaign.stop_reason;
  wall_seconds : float;
}

type 'r state = 'r Campaign.state =
  | Running
  | Done of 'r
  | Failed of Path.error

type status = result state
type t = result Campaign.campaign

(* Per-level observability: sample and path counters labeled with the
   level, created once at campaign start (single writer: the campaign is
   sequential). *)
type level_obs = { c_samples : Metrics.counter; c_paths : Metrics.counter }

let make_level_obs levels =
  if not (Metrics.enabled ()) then None
  else
    Some
      (Array.init levels (fun l ->
           let labels = [ ("level", string_of_int l) ] in
           {
             c_samples =
               Metrics.counter ~labels "slimsim_mlmc_samples_total"
                 ~help:"Telescoped samples fed per MLMC level";
             c_paths =
               Metrics.counter ~labels "slimsim_mlmc_paths_total"
                 ~help:
                   "Paths simulated per MLMC level (a coupled pair counts \
                    one path at each of its two levels)";
           }))

(* The sample schedule: the allocator, per-level cursors and the
   per-level path configurations.  Everything else — policies,
   tallies, checkpoints, the loop — is the campaign kernel's. *)
type sched = {
  seed : int64;
  est : Mlmc.t;
  run : Path.config -> Rng.t -> (Path.verdict, Path.error) Result.t * float;
  configs : Path.config array;  (* level l runs at horizon H/2^(L-1-l) *)
  weights : float array;  (* per-path model cost at each level: h_l/H *)
  cursors : int array;
  lobs : level_obs array option;
  mutable paths : int;
  mutable sat : int;
  mutable cost : float;
}

(* One simulated half of a sample: run it, charge its model cost, and
   route it through the campaign's error/divergence policies. *)
let half m c ~level ~id rng =
  let outcome, _ = m.run m.configs.(level) rng in
  m.paths <- m.paths + 1;
  m.cost <- m.cost +. m.weights.(level);
  (match m.lobs with
  | Some cells -> Metrics.incr cells.(level).c_paths
  | None -> ());
  let r = Campaign.route c ~level ~path:id outcome in
  (match r with `Sat -> m.sat <- m.sat + 1 | _ -> ());
  r

(* One telescoped sample at the allocator's level: the level-0
   estimator alone, or the coupled pair (fine at [level], coarse at
   [level-1]) sharing one stream — the coarse half replays the fine
   half's RNG from a copy.  A dropped half drops the whole pair. *)
let draw m c =
  match Mlmc.next_level m.est with
  | None -> assert false (* the stop test runs first *)
  | Some level -> (
    let id = m.cursors.(level) in
    let rng_fine = Rng.for_path_level ~seed:m.seed ~level ~path:id in
    let rng_coarse = Rng.copy rng_fine in
    match half m c ~level ~id rng_fine with
    | `Abort e -> Error e
    | (`Sat | `Unsat | `Drop) as fine -> (
      match
        if level = 0 then `Unsat else half m c ~level:(level - 1) ~id rng_coarse
      with
      | `Abort e -> Error e
      | (`Sat | `Unsat | `Drop) as coarse -> (
        m.cursors.(level) <- id + 1;
        let y = function `Sat -> 1.0 | _ -> 0.0 in
        match (fine, coarse) with
        | `Drop, _ | _, `Drop -> Ok Campaign.Dropped
        | _ -> Ok (Campaign.Pair { level; diff = y fine -. y coarse }))))

let feed m = function
  | Campaign.Pair { level; diff } -> (
    Mlmc.feed m.est ~level diff;
    match m.lobs with
    | Some cells -> Metrics.incr cells.(level).c_samples
    | None -> ())
  | Campaign.Sat _ | Campaign.Unsat | Campaign.Dropped -> ()

let summary m (tally : Campaign.tally) ~stopped ~wall =
  let lo, hi = Mlmc.confidence_interval m.est in
  let r =
    {
      probability = Mlmc.mean m.est;
      ci_low = lo;
      ci_high = hi;
      samples_per_level =
        Array.init (Mlmc.levels m.est) (fun l -> Mlmc.samples m.est ~level:l);
      paths = m.paths;
      sat_paths = m.sat;
      model_cost = m.cost;
      deadlock_paths = tally.deadlocks;
      violated_paths = tally.violated;
      errors = tally.errors;
      diverged_paths = tally.diverged;
      dropped_samples = tally.dropped;
      stopped;
      wall_seconds = wall;
    }
  in
  Log.emit ~event:"mlmc_end"
    [
      ( "stopped",
        Json.String
          (match stopped with
          | Campaign.Converged -> "converged"
          | Campaign.Interrupted -> "interrupted") );
      ("probability", Json.Float r.probability);
      ("ci_low", Json.Float r.ci_low);
      ("ci_high", Json.Float r.ci_high);
      ("levels", Json.Int (Array.length r.samples_per_level));
      ( "samples_per_level",
        Json.List
          (Array.to_list (Array.map (fun n -> Json.Int n) r.samples_per_level))
      );
      ("paths", Json.Int r.paths);
      ("model_cost", Json.Float r.model_cost);
      ("errors", Json.Int r.errors);
      ("diverged_paths", Json.Int r.diverged_paths);
      ("dropped_samples", Json.Int r.dropped_samples);
      ("wall_seconds", Json.Float r.wall_seconds);
    ];
  r

let save m (tally : Campaign.tally) ~seed ~next_path =
  {
    Supervisor.Checkpoint.seed;
    kind = Generator.Mlmc;
    delta = Mlmc.delta m.est;
    eps = Mlmc.eps m.est;
    next_path;
    trials = Mlmc.total_samples m.est;
    successes = 0;
    deadlocks = tally.deadlocks;
    violated = tally.violated;
    errors = tally.errors;
    diverged = tally.diverged;
    dropped = tally.dropped;
    leases = [];
    mlmc =
      Some
        {
          Supervisor.Checkpoint.ml_levels =
            Array.init (Mlmc.levels m.est) (fun l ->
                let n, mean, m2 = Mlmc.level_state m.est ~level:l in
                {
                  Supervisor.Checkpoint.l_next_path = m.cursors.(l);
                  l_count = n;
                  l_mean = mean;
                  l_m2 = m2;
                });
          ml_paths = m.paths;
          ml_sat = m.sat;
          ml_cost = m.cost;
        };
    cost = None;
  }

(* The multilevel block must be present with the same level count. *)
let restore m st =
  match st.Supervisor.Checkpoint.mlmc with
  | None ->
    Error
      "checkpoint has no multilevel state (it was taken by a single-level \
       generator)"
  | Some b when Array.length b.ml_levels <> Mlmc.levels m.est ->
    Error
      (Printf.sprintf "checkpoint was taken with %d levels, not %d"
         (Array.length b.ml_levels) (Mlmc.levels m.est))
  | Some b ->
    Array.iteri
      (fun l (lv : Supervisor.Checkpoint.mlmc_level) ->
        Mlmc.restore_level m.est ~level:l ~n:lv.l_count ~mean:lv.l_mean
          ~m2:lv.l_m2;
        m.cursors.(l) <- lv.l_next_path)
      b.ml_levels;
    m.paths <- b.ml_paths;
    m.sat <- b.ml_sat;
    m.cost <- b.ml_cost;
    Ok ()

let create ?(seed = 0x51135113L) ?config ?engine ?on_error ?hold ?supervisor
    ?progress ?(levels = 4) ?warmup ?compiled net ~goal ~horizon ~strategy
    ~delta ~eps () =
  if levels < 1 || levels > max_levels then
    Error
      (Path.Model_error
         (Printf.sprintf "mlmc: levels must be between 1 and %d (got %d)"
            max_levels levels))
  else
    match strategy with
    | Strategy.Scripted _ ->
      Error
        (Path.Model_error
           "mlmc: scripted strategies are stateful callbacks and cannot be \
            replayed as coupled coarse/fine pairs; use a closed strategy or \
            a single-level generator")
    | _ ->
      let base =
        match config with
        | Some c -> { c with Path.horizon }
        | None -> Path.default_config ~horizon
      in
      (* Geometric hierarchy, factor 2: level l simulates at horizon
         H/2^(L-1-l); the top level is the full-fidelity estimator.  The
         weight h_l/H is also the model cost of one path at that level —
         deterministic by construction, so allocation never depends on
         wall clocks. *)
      let weight l = 2.0 ** float_of_int (l - (levels - 1)) in
      let weights = Array.init levels weight in
      let costs =
        Array.init levels (fun l ->
            if l = 0 then weights.(0) else weights.(l) +. weights.(l - 1))
      in
      let m =
        {
          seed;
          est = Mlmc.create ?warmup ~costs ~delta ~eps ();
          run =
            Campaign.path_runner ?engine ?hold ?compiled net ~goal ~strategy
              ~worker:0 ();
          configs =
            Array.map (fun w -> { base with Path.horizon = horizon *. w }) weights;
          weights;
          cursors = Array.make levels 0;
          lobs = make_level_obs levels;
          paths = 0;
          sat = 0;
          cost = 0.0;
        }
      in
      Campaign.create_sequential ~seed ?on_error ?supervisor ?progress
        ~draw:(draw m)
        {
          Campaign.feed = feed m;
          stop =
            (fun () ->
              if Mlmc.needs_more m.est then `Continue else `Converged);
          summary = summary m;
          save = save m;
          restore = restore m;
          estimate =
            (fun () ->
              let lo, hi = Mlmc.confidence_interval m.est in
              (Mlmc.mean m.est, lo, hi, Mlmc.total_samples m.est));
        }

let step = Campaign.step
let drive = Campaign.drive

let pp_result ppf r =
  Fmt.pf ppf "p = %.6f  [%.6f, %.6f]  (%d samples over %d levels: %a; %d \
              paths, model cost %.1f, %.2fs)"
    r.probability r.ci_low r.ci_high
    (Array.fold_left ( + ) 0 r.samples_per_level)
    (Array.length r.samples_per_level)
    Fmt.(array ~sep:(any "/") int)
    r.samples_per_level r.paths r.model_cost r.wall_seconds;
  if r.deadlock_paths > 0 then
    Fmt.pf ppf " (%d dead/timelocked)" r.deadlock_paths;
  if r.violated_paths > 0 then Fmt.pf ppf " (%d hold-violated)" r.violated_paths;
  if r.errors > 0 then Fmt.pf ppf " (%d errored)" r.errors;
  if r.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d samples dropped)" r.diverged_paths
      r.dropped_samples;
  if r.stopped = Campaign.Interrupted then Fmt.pf ppf " [interrupted]"
