(* Multilevel Monte Carlo campaign tests.

   The two correctness anchors of the estimator:

   - a degenerate one-level run must replay the classic single-level
     path generator bit for bit (same per-path RNG streams, same
     full-horizon config, same verdicts), and

   - the telescoped estimate must agree with a single-level campaign on
     the same model within the combined confidence intervals, across
     seeds — the bias-telescoping property E[Y_L] = sum_l E[Y_l -
     Y_{l-1}].

   Plus the determinism contract: checkpoint/resume reproduces an
   uninterrupted run exactly. *)

module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Mlmc_run = Slimsim_sim.Mlmc_run
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
module Mlmc = Slimsim_stats.Mlmc
module Rng = Slimsim_stats.Rng

let load = Fixture.load
let goal = Fixture.goal

(* Same fair race as the campaign tests: ~2/3 of the paths set v before
   horizon 2.0, and most hits happen early — so coarse horizons already
   capture most of the probability mass and the level differences are
   genuinely small. *)
let race_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  start: initial mode;
  good: mode;
  idle: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
  start -[rate 0.5]-> idle;
end D.I;
root D.I;
|}

let make_mlmc ?supervisor ?(levels = 3) ?warmup ?(delta = 0.1) ?(eps = 0.05)
    ?(seed = 11L) () =
  let net = load race_model in
  let g = goal net "v" in
  match
    Mlmc_run.create ~seed ?supervisor ~levels ?warmup net ~goal:g ~horizon:2.0
      ~strategy:Strategy.Asap ~delta ~eps ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "mlmc create failed: %s" (Path.error_to_string e)

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "mlmc run failed: %s" (Path.error_to_string e)

let same_result name (a : Mlmc_run.result) (b : Mlmc_run.result) =
  Alcotest.(check (float 0.0)) (name ^ ": probability") a.Mlmc_run.probability
    b.Mlmc_run.probability;
  Alcotest.(check (float 0.0)) (name ^ ": ci_low") a.Mlmc_run.ci_low
    b.Mlmc_run.ci_low;
  Alcotest.(check (float 0.0)) (name ^ ": ci_high") a.Mlmc_run.ci_high
    b.Mlmc_run.ci_high;
  Alcotest.(check (array int)) (name ^ ": samples per level")
    a.Mlmc_run.samples_per_level b.Mlmc_run.samples_per_level;
  Alcotest.(check int) (name ^ ": paths") a.Mlmc_run.paths b.Mlmc_run.paths;
  Alcotest.(check int) (name ^ ": sat paths") a.Mlmc_run.sat_paths
    b.Mlmc_run.sat_paths;
  Alcotest.(check (float 0.0)) (name ^ ": model cost") a.Mlmc_run.model_cost
    b.Mlmc_run.model_cost;
  Alcotest.(check int) (name ^ ": deadlocks") a.Mlmc_run.deadlock_paths
    b.Mlmc_run.deadlock_paths;
  Alcotest.(check int) (name ^ ": errors") a.Mlmc_run.errors b.Mlmc_run.errors

(* --- degenerate one-level run == the classic path generator --- *)

let test_one_level_bit_identical () =
  (* eps = 1.0 with a 200-sample warmup makes the stopping rule fire
     deterministically at exactly the warmup floor, so the run is a
     fixed 200-path campaign we can replay by hand. *)
  let seed = 9L in
  let c = make_mlmc ~levels:1 ~warmup:200 ~eps:1.0 ~seed () in
  let r = ok (Mlmc_run.drive c) in
  Alcotest.(check (array int)) "stops at the warmup floor" [| 200 |]
    r.Mlmc_run.samples_per_level;
  Alcotest.(check int) "one path per sample at level 0" 200 r.Mlmc_run.paths;
  (* replay the same 200 paths through the reference generator: same
     seed, same per-path streams (for_path_level at level 0 is
     for_path), same full-horizon config *)
  let net = load race_model in
  let g = goal net "v" in
  let cfg = Path.default_config ~horizon:2.0 in
  let sat = ref 0 in
  for id = 0 to 199 do
    let rng = Rng.for_path ~seed ~path:id in
    match fst (Path_oracle.generate net cfg Strategy.Asap rng ~goal:g) with
    | Ok (Path.Sat _) -> incr sat
    | Ok _ -> ()
    | Error e -> Alcotest.failf "replay path %d failed: %s" id (Path.error_to_string e)
  done;
  Alcotest.(check int) "identical verdict stream" !sat r.Mlmc_run.sat_paths;
  Alcotest.(check (float 1e-12)) "estimate is the replayed sat fraction"
    (float_of_int !sat /. 200.0)
    r.Mlmc_run.probability

(* --- bias telescoping: MLMC agrees with single-level --- *)

let test_bias_telescoping () =
  let net = load race_model in
  let g = goal net "v" in
  let delta = 0.1 and eps = 0.05 in
  List.iter
    (fun seed ->
      let mlmc =
        ok
          (Mlmc_run.drive
             (make_mlmc ~levels:3 ~delta ~eps ~seed:(Int64.of_int seed) ()))
      in
      let generator = Generator.create Generator.Chernoff ~delta ~eps in
      let single =
        match
          Campaign.create ~seed:(Int64.of_int seed) net ~goal:g ~horizon:2.0
            ~strategy:Strategy.Asap ~generator ()
        with
        | Ok c -> (
          match Campaign.drive c with
          | Ok r -> r
          | Error e ->
            Alcotest.failf "single-level failed: %s" (Path.error_to_string e))
        | Error e ->
          Alcotest.failf "single-level create failed: %s"
            (Path.error_to_string e)
      in
      let hw_mlmc = (mlmc.Mlmc_run.ci_high -. mlmc.Mlmc_run.ci_low) /. 2.0 in
      let hw_single =
        (single.Campaign.ci_high -. single.Campaign.ci_low) /. 2.0
      in
      let gap =
        Float.abs (mlmc.Mlmc_run.probability -. single.Campaign.probability)
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "seed %d: estimates agree within combined CIs (|%.4f - %.4f| <= \
            %.4f + %.4f)"
           seed mlmc.Mlmc_run.probability single.Campaign.probability hw_mlmc
           hw_single)
        true
        (gap <= hw_mlmc +. hw_single))
    [ 1; 2; 3 ]

(* --- allocation: cheap levels get (weakly) more samples --- *)

let test_allocation_prefers_cheap_levels () =
  let c = make_mlmc ~levels:3 ~seed:5L () in
  let r = ok (Mlmc_run.drive c) in
  Alcotest.(check bool) "converged" true (r.Mlmc_run.stopped = Campaign.Converged);
  let spl = r.Mlmc_run.samples_per_level in
  Alcotest.(check int) "three levels" 3 (Array.length spl);
  (* with horizon-truncation coupling under Asap the difference variance
     shrinks with the level, so n_l ∝ sqrt(V_l/C_l) puts the bulk of the
     samples at level 0 *)
  Alcotest.(check bool)
    (Printf.sprintf "level 0 dominates (%d/%d/%d)" spl.(0) spl.(1) spl.(2))
    true
    (spl.(0) >= spl.(1) && spl.(0) >= spl.(2));
  (* model cost accounting: every sample charged its per-level weight *)
  Alcotest.(check bool) "model cost positive and below path count" true
    (r.Mlmc_run.model_cost > 0.0
    && r.Mlmc_run.model_cost <= float_of_int r.Mlmc_run.paths)

(* --- checkpoint/resume is bit-identical --- *)

let test_resume_bit_identical () =
  let file = Filename.temp_file "slimsim_mlmc" ".ckpt" in
  let seed = 21L in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      (* A: uninterrupted reference run *)
      let a = ok (Mlmc_run.drive (make_mlmc ~seed ())) in
      (* B: same run, checkpointing every 50 samples, abandoned after a
         137-sample slice *)
      let sup_b =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 } ()
      in
      let b = make_mlmc ~supervisor:sup_b ~seed () in
      (match Campaign.step ~quota:137 b with
      | Campaign.Running -> ()
      | Campaign.Done _ -> Alcotest.fail "converged before the warmup floor"
      | Campaign.Failed e -> Alcotest.failf "step failed: %s" (Path.error_to_string e));
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists file);
      (* C: fresh campaign resumed from B's checkpoint, driven to the end *)
      let sup_c =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 }
          ~resume:true ()
      in
      let c = ok (Mlmc_run.drive (make_mlmc ~supervisor:sup_c ~seed ())) in
      same_result "resumed == uninterrupted" a c)

let test_resume_rejects_mismatch () =
  let file = Filename.temp_file "slimsim_mlmc" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let sup =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 } ()
      in
      let b = make_mlmc ~supervisor:sup ~seed:21L () in
      (match Campaign.step ~quota:60 b with
      | Campaign.Running -> ()
      | _ -> Alcotest.fail "expected a running campaign");
      let resume_with ?(levels = 3) ?(seed = 21L) () =
        let net = load race_model in
        let g = goal net "v" in
        let sup =
          Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 }
            ~resume:true ()
        in
        Mlmc_run.create ~seed ~supervisor:sup ~levels net ~goal:g ~horizon:2.0
          ~strategy:Strategy.Asap ~delta:0.1 ~eps:0.05 ()
      in
      (match resume_with ~seed:22L () with
      | Error (Path.Model_error _) -> ()
      | _ -> Alcotest.fail "seed mismatch must be rejected");
      (match resume_with ~levels:4 () with
      | Error (Path.Model_error _) -> ()
      | _ -> Alcotest.fail "level-count mismatch must be rejected");
      (* the classic resume path must refuse a multilevel checkpoint
         rather than silently ignore its per-level state — even when the
         generator kind, seed and delta/eps all line up *)
      let net = load race_model in
      let g = goal net "v" in
      let generator = Generator.create Generator.Mlmc ~delta:0.1 ~eps:0.05 in
      let sup =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 }
          ~resume:true ()
      in
      match
        Campaign.create ~seed:21L ~supervisor:sup net ~goal:g ~horizon:2.0
          ~strategy:Strategy.Asap ~generator ()
      with
      | Error (Path.Model_error msg) ->
        Alcotest.(check bool) "error mentions mlmc" true
          (let re = Str.regexp_string "mlmc" in
           try
             ignore (Str.search_forward re msg 0);
             true
           with Not_found -> false)
      | Ok _ -> Alcotest.fail "classic resume must reject an mlmc checkpoint"
      | Error e ->
        Alcotest.failf "unexpected error: %s" (Path.error_to_string e))

(* --- construction guards --- *)

let test_create_guards () =
  let net = load race_model in
  let g = goal net "v" in
  let try_create ?(levels = 3) ?(strategy = Strategy.Asap) () =
    Mlmc_run.create ~levels net ~goal:g ~horizon:2.0 ~strategy ~delta:0.1
      ~eps:0.05 ()
  in
  (match try_create ~levels:0 () with
  | Error (Path.Model_error _) -> ()
  | _ -> Alcotest.fail "levels = 0 must be rejected");
  (match try_create ~levels:17 () with
  | Error (Path.Model_error _) -> ()
  | _ -> Alcotest.fail "levels = 17 must be rejected");
  match try_create ~strategy:(Strategy.Scripted (fun _ -> Strategy.Abort)) () with
  | Error (Path.Model_error _) -> ()
  | _ -> Alcotest.fail "scripted strategies must be rejected"

(* --- the facade: check ~generator:Mlmc parses, clamps and maps like
   the other generators --- *)

let test_check_mlmc_facade () =
  let m =
    match Slimsim.load_string race_model with
    | Ok m -> m
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  match
    Slimsim.check ~generator:Generator.Mlmc ~seed:3L ~levels:3 m
      ~property:"P(<> [0, 2] v)"
      ~strategy:Strategy.Asap ~delta:0.1 ~eps:0.05 ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let truth = 2.0 /. 3.0 *. (1.0 -. exp (-1.5 *. 2.0)) in
    Alcotest.(check bool) "interval inside [0,1]" true
      (0.0 <= r.Slimsim.ci_low && r.Slimsim.ci_high <= 1.0);
    Alcotest.(check bool) "interval ordered" true
      (r.Slimsim.ci_low <= r.Slimsim.probability
      && r.Slimsim.probability <= r.Slimsim.ci_high);
    Alcotest.(check bool)
      (Printf.sprintf "estimate near the truth (%.4f vs %.4f)"
         r.Slimsim.probability truth)
      true
      (Float.abs (r.Slimsim.probability -. truth) < 0.1);
    Alcotest.(check bool) "paths simulated" true (r.Slimsim.paths > 0);
    Alcotest.(check bool) "not interrupted" true (not r.Slimsim.interrupted)

(* The library and the CLI agree on the multilevel generator: [check]
   and [check_cost] given [Mlmc] run [Mlmc_run] (they once ran the
   single-level Chow-Robbins rule: p = 0.209945 over 181 paths), and so
   does the service's entry point [start], stepped in parked slices. *)
let test_facade_runs_mlmc () =
  let file =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../examples/models/mm1k.slim"
  in
  let m =
    match Slimsim.load_file file with
    | Ok m -> m
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  let property = "P(<> [0, 5] q = 4)" in
  let reference =
    let goal, hold, horizon = Result.get_ok (Slimsim.parse_property m property) in
    match
      Result.bind
        (Mlmc_run.create ~seed:3L ?hold (Slimsim.network m) ~goal ~horizon
           ~strategy:Strategy.Asap ~delta:0.1 ~eps:0.05 ())
        Mlmc_run.drive
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "mlmc run failed: %s" (Path.error_to_string e)
  in
  let same name (e : Slimsim.estimate) =
    let r = reference in
    Alcotest.(check (list (float 0.0)))
      (name ^ ": estimate and interval")
      [ r.Mlmc_run.probability; r.Mlmc_run.ci_low; r.Mlmc_run.ci_high ]
      [ e.Slimsim.probability; e.Slimsim.ci_low; e.Slimsim.ci_high ];
    Alcotest.(check (pair int int))
      (name ^ ": sat / paths")
      (r.Mlmc_run.sat_paths, r.Mlmc_run.paths)
      (e.Slimsim.successes, e.Slimsim.paths);
    Alcotest.(check string) (name ^ ": the CLI's line")
      "0.177022 [0.128154, 0.225890] 67/1146"
      (Printf.sprintf "%.6f [%.6f, %.6f] %d/%d" e.Slimsim.probability
         e.Slimsim.ci_low e.Slimsim.ci_high e.Slimsim.successes e.Slimsim.paths)
  in
  let args f = f ~strategy:Strategy.Asap ~delta:0.1 ~eps:0.05 () in
  (match args (Slimsim.check ~generator:Generator.Mlmc ~seed:3L m ~property) with
  | Ok e -> same "check" e
  | Error e -> Alcotest.fail e);
  (match
     args (Slimsim.check_cost ~generator:Generator.Mlmc ~seed:3L m ~query:property)
   with
  | Ok (Slimsim.Cost_probability e) -> same "check_cost" e
  | Ok _ -> Alcotest.fail "check_cost: not a probability"
  | Error e -> Alcotest.fail e);
  match
    Result.bind
      (args (Slimsim.start ~generator:Generator.Mlmc ~seed:3L m ~query:property))
      Fixture.sliced
  with
  | Ok (Slimsim.Cost_probability e) -> same "serve" e
  | Ok _ -> Alcotest.fail "serve: not a probability"
  | Error e -> Alcotest.fail e

(* --- observability: both halves go through the campaign's router --- *)

let test_metrics_count_both_halves () =
  let module Metrics = Slimsim_obs.Metrics in
  let file = Filename.temp_file "slimsim_mlmc" ".ckpt" in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let sup =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 100 } ()
      in
      let r = ok (Mlmc_run.drive (make_mlmc ~supervisor:sup ~seed:5L ())) in
      let count ?labels name =
        Metrics.counter_value (Metrics.counter ?labels name ~help:"")
      in
      let verdicts =
        List.fold_left
          (fun n v ->
            n + count ~labels:[ ("verdict", v) ] "slimsim_verdicts_total")
          0
          [
            "sat"; "unsat_horizon"; "unsat_deadlock"; "unsat_timelock";
            "unsat_violated"; "diverged"; "error";
          ]
      in
      Alcotest.(check int) "verdicts sum to paths (both halves)"
        r.Mlmc_run.paths verdicts;
      Alcotest.(check bool) "checkpoints counted" true
        (count "slimsim_checkpoints_total" >= 1))

let suite =
  [
    Alcotest.test_case "one-level run is bit-identical" `Quick
      test_one_level_bit_identical;
    Alcotest.test_case "bias telescoping across seeds" `Slow
      test_bias_telescoping;
    Alcotest.test_case "allocation prefers cheap levels" `Quick
      test_allocation_prefers_cheap_levels;
    Alcotest.test_case "checkpoint resume is bit-identical" `Quick
      test_resume_bit_identical;
    Alcotest.test_case "resume rejects mismatches" `Quick
      test_resume_rejects_mismatch;
    Alcotest.test_case "create guards" `Quick test_create_guards;
    Alcotest.test_case "check_mlmc facade" `Quick test_check_mlmc_facade;
    Alcotest.test_case "check and check_cost run Mlmc_run" `Quick
      test_facade_runs_mlmc;
    Alcotest.test_case "metrics count both halves" `Quick
      test_metrics_count_both_halves;
  ]
