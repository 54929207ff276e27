(* Campaign-supervision tests: watchdog budget classification, the
   divergence policies, chaos-injected worker crashes (the verdict
   stream must be bit-identical to a crash-free run), checkpoint
   round-trips, and interrupt + resume (the resumed campaign must reach
   the same final estimate as an uninterrupted one). *)

module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
module Rng = Slimsim_stats.Rng

let load = Fixture.load
let goal = Fixture.goal

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign failed: %s" (Path.error_to_string e)

(* [oracle] runs the same campaign over the reference path generator. *)
let run ?(workers = 1) ?(oracle = false) ?supervisor ?config ?(seed = 7L)
    ?(kind = Generator.Chernoff) ?(delta = 0.1) ?(eps = 0.1) net g ~horizon =
  let generator = Generator.create kind ~delta ~eps in
  if oracle then
    Fixture.oracle ~seed ?config ?supervisor net ~goal:g ~horizon
      ~strategy:Strategy.Asap ~generator ()
  else
    Fixture.run ~workers ~seed ?config ?supervisor net ~goal:g ~horizon
      ~strategy:Strategy.Asap ~generator ()

(* Everything that must be schedule-independent: the estimate and every
   counter derived from the verdict stream (wall time and restart
   counts legitimately differ). *)
let same_estimate name (a : Campaign.result) (b : Campaign.result) =
  Alcotest.(check (float 0.0)) (name ^ ": probability") a.Campaign.probability
    b.Campaign.probability;
  Alcotest.(check int) (name ^ ": paths") a.Campaign.paths b.Campaign.paths;
  Alcotest.(check int) (name ^ ": successes") a.Campaign.successes
    b.Campaign.successes;
  Alcotest.(check int) (name ^ ": deadlocks") a.Campaign.deadlock_paths
    b.Campaign.deadlock_paths;
  Alcotest.(check int) (name ^ ": violated") a.Campaign.violated_paths
    b.Campaign.violated_paths;
  Alcotest.(check int) (name ^ ": errors") a.Campaign.errors b.Campaign.errors;
  Alcotest.(check int) (name ^ ": diverged") a.Campaign.diverged_paths
    b.Campaign.diverged_paths;
  Alcotest.(check int) (name ^ ": dropped") a.Campaign.dropped_paths
    b.Campaign.dropped_paths

(* --- models --- *)

(* Every path spins a <-> b forever at time 0: pure Zeno. *)
let zeno_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[]-> b;
  b -[]-> a;
end D.I;
root D.I;
|}

(* A fair race: ~half the paths reach the goal, the other half fall
   into a Zeno trap — the model for divergence-policy accounting. *)
let trap_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  start: initial mode;
  good: mode;
  bad: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
  start -[rate 1.0]-> bad;
  bad -[]-> bad;
end D.I;
root D.I;
|}

(* One slow exponential step: simulated time jumps far past any small
   simulated-time budget in a single transition. *)
let slow_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 1.0 then v := true]-> b;
end D.I;
root D.I;
|}

let show = function
  | Ok v -> Path.verdict_to_string v
  | Error e -> Path.error_to_string e

(* --- watchdog classification: the compiled path, checked against the
   oracle's --- *)

let test_watchdog_steps () =
  let net = load zeno_model in
  let g = goal net "v" in
  let cfg =
    { (Path.default_config ~horizon:10.0) with Path.max_steps = 500 }
  in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:5L ~goal:g) with
  | Ok (Path.Diverged (Path.Step_budget n)) ->
    Alcotest.(check int) "budget exhausted just past the cap" 501 n
  | v -> Alcotest.failf "expected step-budget divergence, got %s" (show v)

let test_watchdog_sim_time () =
  let net = load slow_model in
  let g = goal net "v" in
  let cfg =
    { (Path.default_config ~horizon:100.0) with Path.max_sim_time = Some 1e-6 }
  in
  for seed = 1 to 5 do
    let seed = Int64.of_int seed in
    match fst (Path_oracle.checked net cfg Strategy.Asap ~seed ~goal:g) with
    | Ok (Path.Diverged (Path.Time_budget t)) ->
      Alcotest.(check bool) "budget reported past the cap" true (t > 1e-6)
    | v ->
      Alcotest.failf "seed %Ld: expected time-budget divergence, got %s" seed
        (show v)
  done

let test_watchdog_wall () =
  let net = load zeno_model in
  let g = goal net "v" in
  let cfg =
    { (Path.default_config ~horizon:10.0) with Path.max_wall_per_path = Some 0.0 }
  in
  let rng = Rng.for_path ~seed:1L ~path:0 in
  match fst (Path_oracle.compiled net cfg Strategy.Asap rng ~goal:g) with
  | Ok (Path.Diverged (Path.Wall_budget w)) ->
    Alcotest.(check bool) "elapsed time reported" true (w >= 0.0)
  | v -> Alcotest.failf "expected wall-budget divergence, got %s" (show v)

(* --- divergence policies --- *)

let trap_cfg ~horizon =
  { (Path.default_config ~horizon) with Path.max_steps = 200 }

let test_divergence_abort () =
  let net = load trap_model in
  let g = goal net "v" in
  match run net g ~horizon:50.0 ~config:(trap_cfg ~horizon:50.0) with
  | Error (Path.Diverged_path (Path.Step_budget _)) -> ()
  | Ok _ -> Alcotest.fail "abort policy must surface the divergence"
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e)

let test_divergence_unsat () =
  let net = load trap_model in
  let g = goal net "v" in
  let config = trap_cfg ~horizon:50.0 in
  let sup () = Supervisor.create ~on_divergence:`Unsat () in
  let r1 = ok (run ~supervisor:(sup ()) ~config net g ~horizon:50.0) in
  let planned =
    Option.get
      (Generator.planned_samples
         (Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1))
  in
  Alcotest.(check int) "planned paths consumed" planned r1.Campaign.paths;
  Alcotest.(check bool) "some paths diverged" true (r1.Campaign.diverged_paths > 0);
  Alcotest.(check int) "nothing dropped" 0 r1.Campaign.dropped_paths;
  Alcotest.(check bool) "race is roughly fair" true
    (let frac =
       float_of_int r1.Campaign.diverged_paths /. float_of_int r1.Campaign.paths
     in
     0.3 < frac && frac < 0.7);
  (* the estimate and counters are worker-count independent *)
  List.iter
    (fun workers ->
      let r =
        ok (run ~workers ~supervisor:(sup ()) ~config net g ~horizon:50.0)
      in
      same_estimate (Printf.sprintf "unsat, %d workers" workers) r r1)
    [ 2; 4 ];
  (* and the oracle's paths give the same campaign *)
  let ri =
    ok (run ~oracle:true ~supervisor:(sup ()) ~config net g ~horizon:50.0)
  in
  same_estimate "unsat, oracle" ri r1

let test_divergence_drop () =
  let net = load trap_model in
  let g = goal net "v" in
  let config = trap_cfg ~horizon:50.0 in
  let sup () = Supervisor.create ~on_divergence:`Drop () in
  let r1 = ok (run ~supervisor:(sup ()) ~config net g ~horizon:50.0) in
  let planned =
    Option.get
      (Generator.planned_samples
         (Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1))
  in
  (* dropping re-plans: the kept sample count still reaches the plan *)
  Alcotest.(check int) "kept samples reach the plan" planned r1.Campaign.paths;
  Alcotest.(check bool) "some paths dropped" true (r1.Campaign.dropped_paths > 0);
  Alcotest.(check int) "dropped = diverged under `Drop" r1.Campaign.diverged_paths
    r1.Campaign.dropped_paths;
  (* every kept sample reached the goal, so conditioning on
     non-divergence gives probability 1 *)
  Alcotest.(check (float 0.0)) "kept samples all sat" 1.0 r1.Campaign.probability;
  List.iter
    (fun workers ->
      let r =
        ok (run ~workers ~supervisor:(sup ()) ~config net g ~horizon:50.0)
      in
      same_estimate (Printf.sprintf "drop, %d workers" workers) r r1)
    [ 2; 4 ]

let test_drop_stall_guard () =
  (* every path of the pure Zeno model diverges: under [`Drop] nothing
     is ever fed, and the stall guard must abort instead of spinning *)
  let net = load zeno_model in
  let g = goal net "v" in
  let config = { (Path.default_config ~horizon:10.0) with Path.max_steps = 50 } in
  let supervisor = Supervisor.create ~on_divergence:`Drop () in
  match run ~supervisor ~config net g ~horizon:10.0 with
  | Error (Path.Model_error msg) ->
    Alcotest.(check bool) "names the policy" true
      (Astring_contains.contains msg "drop")
  | Ok _ -> Alcotest.fail "an all-divergent campaign must not converge"
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e)

(* --- worker crash recovery --- *)

(* Raise exactly once per listed path id, whatever domain asks. *)
let crash_once_at paths =
  let lock = Mutex.create () in
  let crashed = Hashtbl.create 8 in
  fun ~worker:_ ~path ->
    if List.mem path paths then begin
      Mutex.lock lock;
      let first = not (Hashtbl.mem crashed path) in
      if first then Hashtbl.add crashed path ();
      Mutex.unlock lock;
      if first then
        failwith (Printf.sprintf "chaos: injected crash at path %d" path)
    end

let test_crash_recovery () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  List.iter
    (fun kind ->
      let baseline = ok (run ~kind net g ~horizon:100.0) in
      List.iter
        (fun workers ->
          let supervisor =
            Supervisor.create ~restart_backoff:0.001
              ~chaos:(crash_once_at [ 13; 27 ])
              ()
          in
          let r = ok (run ~workers ~supervisor ~kind net g ~horizon:100.0) in
          let name =
            Printf.sprintf "%s, %d workers with chaos"
              (Generator.kind_to_string kind)
              workers
          in
          same_estimate name r baseline;
          Alcotest.(check int) (name ^ ": two restarts") 2
            r.Campaign.worker_restarts)
        [ 1; 2; 4 ])
    [ Generator.Chernoff; Generator.Chow_robbins ]

(* Parallel sessions hand out path-id ranges of the size [Lease.range_size]
   derives from the plan; a worker crashing on the first or the last
   path of a range publishes an empty or an almost-full prefix, is
   revived when the cursor reaches its range, and the rest of the range
   is regenerated by whichever generator claims it next.  The chaos hook
   fires only on spawned workers, on the first edge path one of them
   runs, and holds the collecting domain at its first path until then,
   so a worker is sure to get there first. *)
let test_crash_at_range_edges () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let baseline = ok (run net g ~horizon:100.0) in
  let plan =
    Generator.planned_samples
      (Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1)
  in
  List.iter
    (fun workers ->
      let size =
        Slimsim_sim.Lease.range_size ~remaining:plan ~workers
          ~cap:(Supervisor.default ()).Supervisor.max_buffer
      in
      List.iter
        (fun (edge, offset) ->
          let crashed = Atomic.make false in
          let deadline = Unix.gettimeofday () +. 10.0 in
          let chaos ~worker ~path =
            if worker = 0 then
              while
                (not (Atomic.get crashed)) && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.001
              done
            else if path mod size = offset && not (Atomic.exchange crashed true)
            then
              failwith
                (Printf.sprintf "chaos: worker %d crash at %d" worker path)
          in
          let supervisor =
            Supervisor.create ~restart_backoff:0.001 ~chaos ()
          in
          let r = ok (run ~workers ~supervisor net g ~horizon:100.0) in
          let name =
            Printf.sprintf "%d workers, crash at a %s path" workers edge
          in
          Alcotest.(check bool) (name ^ ": a worker crashed") true
            (Atomic.get crashed);
          same_estimate name r baseline;
          Alcotest.(check int) (name ^ ": worker revived once") 1
            r.Campaign.worker_restarts)
        [ ("first", 0); ("last", size - 1) ])
    [ 2; 4 ]

(* The collecting domain generates paths too: a crash there is retried
   in place, like a sequential runner's.  The spawned workers are held
   at their first path until the collector has crashed, so the
   collector is sure to run a range of its own. *)
let test_crash_on_collector () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let baseline = ok (run net g ~horizon:100.0) in
  List.iter
    (fun workers ->
      let crashed = Atomic.make false in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let chaos ~worker ~path =
        if worker = 0 then begin
          if not (Atomic.exchange crashed true) then
            failwith (Printf.sprintf "chaos: collector crash at path %d" path)
        end
        else begin
          while (not (Atomic.get crashed)) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.001
          done
        end
      in
      let supervisor = Supervisor.create ~restart_backoff:0.001 ~chaos () in
      let r = ok (run ~workers ~supervisor net g ~horizon:100.0) in
      let name = Printf.sprintf "collector crash, %d workers" workers in
      Alcotest.(check bool) (name ^ ": collector crashed") true
        (Atomic.get crashed);
      same_estimate name r baseline;
      Alcotest.(check int) (name ^ ": one restart") 1 r.Campaign.worker_restarts)
    [ 1; 2; 4 ]

(* A path that crashes every time, but only past the point where the
   sequential rule stops: [-j 1] never runs it, and a parallel session
   that ran it ahead of the cursor — on a worker or on the collector —
   must not act on the crash either, so every worker count converges to
   the same estimate with no restart charged. *)
let test_crash_past_the_stop () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let kind = Generator.Chow_robbins in
  let baseline = ok (run ~kind net g ~horizon:100.0) in
  let stop = baseline.Campaign.paths in
  let chaos ~worker ~path =
    if path >= stop then
      failwith (Printf.sprintf "chaos: worker %d crash at %d" worker path)
  in
  List.iter
    (fun workers ->
      let supervisor =
        Supervisor.create ~max_restarts:1 ~restart_backoff:0.001 ~chaos ()
      in
      let name = Printf.sprintf "crash past the stop, %d workers" workers in
      let r = ok (run ~workers ~supervisor ~kind net g ~horizon:100.0) in
      Alcotest.(check bool) (name ^ ": converged") true
        (r.Campaign.stopped = Campaign.Converged);
      same_estimate name r baseline;
      Alcotest.(check int) (name ^ ": no restart") 0 r.Campaign.worker_restarts)
    [ 1; 2; 4 ]

(* A stop request reaches a parallel session within one path per
   generator: the collector checks it before every sample — also on the
   range it runs itself — and workers before every path, so no
   generator runs out the rest of its range first. *)
let test_stop_within_a_path () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  List.iter
    (fun workers ->
      let stop = Atomic.make false in
      let late = Atomic.make 0 in
      let chaos ~worker ~path:_ =
        if Atomic.get stop then Atomic.incr late
        else if worker = 0 then Atomic.set stop true
      in
      let supervisor = Supervisor.create ~stop ~chaos () in
      let r = ok (run ~workers ~supervisor net g ~horizon:100.0) in
      let name = Printf.sprintf "stop, %d workers" workers in
      Alcotest.(check bool) (name ^ ": interrupted") true
        (r.Campaign.stopped = Campaign.Interrupted);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d paths started after the stop" name
           (Atomic.get late))
        true
        (Atomic.get late <= workers - 1))
    [ 2; 4 ]

let test_restart_budget_exhausted () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let always_crash ~worker:_ ~path =
    if path = 5 then failwith "chaos: unrecoverable crash at path 5"
  in
  List.iter
    (fun workers ->
      let supervisor =
        Supervisor.create ~max_restarts:2 ~restart_backoff:0.001
          ~chaos:always_crash ()
      in
      match run ~workers ~supervisor net g ~horizon:100.0 with
      | Error (Path.Worker_crash _) -> ()
      | Ok _ -> Alcotest.failf "%d workers: campaign must abort" workers
      | Error e ->
        Alcotest.failf "%d workers: unexpected error: %s" workers
          (Path.error_to_string e))
    [ 1; 2 ]

(* --- checkpointing --- *)

let test_checkpoint_roundtrip () =
  let st =
    {
      Supervisor.Checkpoint.seed = 0x51135113L;
      kind = Generator.Chow_robbins;
      delta = 0.05;
      eps = 1.0 /. 3.0;
      next_path = 123;
      trials = 118;
      successes = 37;
      deadlocks = 1;
      violated = 2;
      errors = 3;
      diverged = 4;
      dropped = 5;
      leases = [ (7, 120, 184); (8, 184, 248) ];
      mlmc = None;
      cost = None;
    }
  in
  let file = Filename.temp_file "slimsim" ".ckpt" in
  Supervisor.Checkpoint.save ~file st;
  (match Supervisor.Checkpoint.load ~file with
  | Ok st' ->
    Alcotest.(check bool) "bit-identical round trip" true (st = st')
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove file;
  (* the multilevel block round-trips bit-exactly too, %h floats and all *)
  let st_ml =
    {
      st with
      Supervisor.Checkpoint.kind = Generator.Mlmc;
      leases = [];
      mlmc =
        Some
          {
            Supervisor.Checkpoint.ml_levels =
              [|
                {
                  Supervisor.Checkpoint.l_next_path = 450;
                  l_count = 440;
                  l_mean = 1.0 /. 3.0;
                  l_m2 = 97.125;
                };
                {
                  Supervisor.Checkpoint.l_next_path = 60;
                  l_count = 58;
                  l_mean = 0.017;
                  l_m2 = 1e-9;
                };
              |];
            ml_paths = 568;
            ml_sat = 151;
            ml_cost = 89.5;
          };
    }
  in
  let file = Filename.temp_file "slimsim" ".ckpt" in
  Supervisor.Checkpoint.save ~file st_ml;
  (match Supervisor.Checkpoint.load ~file with
  | Ok st' ->
    Alcotest.(check bool) "mlmc block round trip" true (st_ml = st')
  | Error e -> Alcotest.failf "mlmc load failed: %s" e);
  Sys.remove file;
  let bad = Filename.temp_file "slimsim" ".ckpt" in
  (match Supervisor.Checkpoint.load ~file:bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an empty file is not a checkpoint");
  Sys.remove bad

let with_checkpoint_file f =
  let file = Filename.temp_file "slimsim" ".ckpt" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> f file)

let test_interrupt_and_resume () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  List.iter
    (fun kind ->
      let baseline = ok (run ~kind net g ~horizon:100.0) in
      List.iter
        (fun workers ->
          with_checkpoint_file @@ fun file ->
          let checkpoint = { Supervisor.file; every = 1 } in
          let name =
            Printf.sprintf "%s, %d workers"
              (Generator.kind_to_string kind)
              workers
          in
          (* Interrupt: a chaos hook raises the shared stop flag as soon
             as any worker starts path 50 — long before either stopping
             rule can be satisfied. *)
          let stop = Atomic.make false in
          let chaos ~worker:_ ~path = if path >= 50 then Atomic.set stop true in
          let sup1 = Supervisor.create ~checkpoint ~stop ~chaos () in
          let r1 = ok (run ~workers ~supervisor:sup1 ~kind net g ~horizon:100.0) in
          Alcotest.(check bool)
            (name ^ ": interrupted") true
            (r1.Campaign.stopped = Campaign.Interrupted);
          Alcotest.(check bool)
            (name ^ ": partial estimate") true
            (r1.Campaign.paths < baseline.Campaign.paths);
          (* Resume: continues to the same final estimate as an
             uninterrupted campaign. *)
          let sup2 = Supervisor.create ~checkpoint ~resume:true () in
          let r2 = ok (run ~workers ~supervisor:sup2 ~kind net g ~horizon:100.0) in
          Alcotest.(check bool)
            (name ^ ": resumed run converged") true
            (r2.Campaign.stopped = Campaign.Converged);
          same_estimate (name ^ ": resume = uninterrupted") r2 baseline;
          (* Resuming a converged campaign is a no-op with the same
             answer. *)
          let sup3 = Supervisor.create ~checkpoint ~resume:true () in
          let r3 = ok (run ~workers ~supervisor:sup3 ~kind net g ~horizon:100.0) in
          same_estimate (name ^ ": resume after convergence") r3 baseline)
        [ 1; 2; 4 ])
    [ Generator.Chernoff; Generator.Chow_robbins ]

let test_backoff_delay () =
  let sup = Supervisor.create ~restart_backoff:0.05 () in
  Alcotest.(check (float 1e-12))
    "attempt 0 is the base delay" 0.05
    (Supervisor.backoff_delay sup ~attempt:0);
  (* monotone doubling until the cap *)
  let rec check_monotone prev attempt =
    if attempt <= 12 then begin
      let d = Supervisor.backoff_delay sup ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d does not shrink" attempt)
        true (d >= prev);
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d capped at 1s" attempt)
        true (d <= 1.0);
      check_monotone d (attempt + 1)
    end
  in
  check_monotone 0.05 1;
  Alcotest.(check (float 1e-12))
    "attempt 1 doubles" 0.1
    (Supervisor.backoff_delay sup ~attempt:1);
  Alcotest.(check (float 1e-12))
    "deep attempts saturate at 1s" 1.0
    (Supervisor.backoff_delay sup ~attempt:30)

let test_stale_checkpoint_version () =
  (* a version-1 file (no version number after the magic word, no lease
     section) must be rejected with a message naming both versions, not a
     scanf decode failure *)
  let file = Filename.temp_file "slimsim" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc
        "slimsim-checkpoint 1\n\
         seed 81985529216486895\n\
         generator chernoff\n\
         delta 0.05\n\
         eps 0.01\n\
         next_path 100\n\
         trials 100\n\
         successes 40\n\
         deadlocks 0\n\
         violated 0\n\
         errors 0\n\
         diverged 0\n\
         dropped 0\n";
      close_out oc;
      (match Supervisor.Checkpoint.load ~file with
      | Ok _ -> Alcotest.fail "a version-1 checkpoint must be rejected"
      | Error msg ->
        Alcotest.(check bool) "names the stale version" true
          (Astring_contains.contains msg "version 1");
        Alcotest.(check bool) "names the supported version" true
          (Astring_contains.contains msg
             (string_of_int Supervisor.Checkpoint.format_version)));
      (* garbage where the magic word should be is a different, equally
         clear error *)
      let oc = open_out file in
      output_string oc "not-a-checkpoint 2\n";
      close_out oc;
      match Supervisor.Checkpoint.load ~file with
      | Ok _ -> Alcotest.fail "a foreign file must be rejected"
      | Error msg ->
        Alcotest.(check bool) "mentions the header" true
          (Astring_contains.contains msg "header"))

let test_resume_mismatch () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  with_checkpoint_file @@ fun file ->
  let checkpoint = { Supervisor.file; every = 1 } in
  let sup = Supervisor.create ~checkpoint () in
  let (_ : Campaign.result) =
    ok (run ~supervisor:sup ~seed:7L net g ~horizon:100.0)
  in
  let sup2 = Supervisor.create ~checkpoint ~resume:true () in
  match run ~supervisor:sup2 ~seed:8L net g ~horizon:100.0 with
  | Error (Path.Model_error msg) ->
    Alcotest.(check bool) "mentions the seed" true
      (Astring_contains.contains msg "seed")
  | Ok _ -> Alcotest.fail "resuming under a different seed must fail"
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e)

let suite =
  [
    Alcotest.test_case "watchdog: step budget" `Quick test_watchdog_steps;
    Alcotest.test_case "watchdog: simulated-time budget" `Quick
      test_watchdog_sim_time;
    Alcotest.test_case "watchdog: wall budget" `Quick test_watchdog_wall;
    Alcotest.test_case "divergence: abort policy" `Quick test_divergence_abort;
    Alcotest.test_case "divergence: unsat policy" `Quick test_divergence_unsat;
    Alcotest.test_case "divergence: drop policy re-plans" `Quick
      test_divergence_drop;
    Alcotest.test_case "divergence: drop stall guard" `Quick
      test_drop_stall_guard;
    Alcotest.test_case "crash recovery is invisible" `Quick test_crash_recovery;
    Alcotest.test_case "restart budget aborts" `Quick
      test_restart_budget_exhausted;
    Alcotest.test_case "crash at a range's first and last path" `Quick
      test_crash_at_range_edges;
    Alcotest.test_case "crash on the collecting domain" `Quick
      test_crash_on_collector;
    Alcotest.test_case "crash past the stop is never charged" `Quick
      test_crash_past_the_stop;
    Alcotest.test_case "stop is acted on within a path" `Quick
      test_stop_within_a_path;
    Alcotest.test_case "checkpoint round trip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "interrupt, resume, converge" `Quick
      test_interrupt_and_resume;
    Alcotest.test_case "resume rejects a mismatched seed" `Quick
      test_resume_mismatch;
    Alcotest.test_case "backoff: base, doubling, 1s cap" `Quick
      test_backoff_delay;
    Alcotest.test_case "checkpoint: stale version rejected" `Quick
      test_stale_checkpoint_version;
  ]
