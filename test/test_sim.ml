(* Tests for the simulator: strategy semantics, goal detection during
   delays, dead/timelock handling, the exponential race, synchronization
   blocking, scripted strategies, and the Monte Carlo engine (including
   worker-count independence). *)

module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Generator = Slimsim_stats.Generator
module Rng = Slimsim_stats.Rng

let load = Fixture.load
let goal = Fixture.goal

let run_one ?(horizon = 1000.0) ?(seed = 1L) ?(config = None) net strategy g =
  let cfg =
    match config with Some c -> c | None -> Path.default_config ~horizon
  in
  fst (Path_oracle.checked net cfg strategy ~seed ~goal:g)

(* --- strategy semantics on the GPS acquisition window [10, 120] --- *)

let test_strategy_delays () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  (match run_one net Strategy.Asap g with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-6)) "asap at guard opening" 10.0 t
  | v -> Alcotest.failf "asap: unexpected %s" (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e));
  (match run_one net Strategy.Max_time g with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-6)) "maxtime at invariant sup" 120.0 t
  | _ -> Alcotest.fail "maxtime failed");
  for seed = 1 to 30 do
    (match run_one ~seed:(Int64.of_int seed) net Strategy.Progressive g with
    | Ok (Path.Sat t) ->
      Alcotest.(check bool) "progressive inside the guard window" true
        (t >= 10.0 && t <= 120.0)
    | _ -> Alcotest.fail "progressive failed");
    match run_one ~seed:(Int64.of_int seed) net Strategy.Local g with
    | Ok (Path.Sat t) ->
      Alcotest.(check bool) "local inside the invariant window" true
        (t >= 10.0 && t <= 120.0)
    | _ -> Alcotest.fail "local failed"
  done

let test_progressive_distribution () =
  (* Progressive samples the guard window [10, 120] uniformly: the mean
     acquisition time over many paths must be near 65. *)
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let n = 2000 in
  let sum = ref 0.0 in
  for seed = 1 to n do
    match run_one ~seed:(Int64.of_int seed) net Strategy.Progressive g with
    | Ok (Path.Sat t) -> sum := !sum +. t
    | _ -> Alcotest.fail "path failed"
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near the window midpoint" true
    (Float.abs (mean -. 65.0) < 3.0)

(* --- the goal must be caught mid-delay --- *)

let test_goal_crossing_mid_delay () =
  let net = load Slimsim_models.Gps.nominal_only in
  (* x passes through [50, 60] strictly inside MaxTime's 120-delay *)
  let g = goal net "x >= 50.0 and x <= 60.0" in
  match run_one net Strategy.Max_time g with
  | Ok (Path.Sat t) ->
    Alcotest.(check bool) "caught at the window opening" true
      (t >= 50.0 && t < 50.001)
  | v ->
    Alcotest.failf "expected sat, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_goal_beyond_horizon () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "x >= 50.0" in
  match run_one ~horizon:40.0 net Strategy.Max_time g with
  | Ok Path.Unsat_horizon -> ()
  | v ->
    Alcotest.failf "expected horizon, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- dead/timelocks (§III-D) --- *)

let deadlock_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  stuck: initial mode;
end D.I;
root D.I;
|}

let timelock_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  stuck: initial mode while c <= 5.0;
end D.I;
root D.I;
|}

let test_deadlock_falsifies () =
  let net = load deadlock_model in
  let g = goal net "v" in
  match run_one net Strategy.Asap g with
  | Ok Path.Unsat_deadlock -> ()
  | v ->
    Alcotest.failf "expected deadlock, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_deadlock_error_policy () =
  let net = load deadlock_model in
  let g = goal net "v" in
  let config =
    Some { (Path.default_config ~horizon:100.0) with Path.on_deadlock = `Error }
  in
  match run_one ~config net Strategy.Asap g with
  | Error (Path.Deadlock_error _) -> ()
  | _ -> Alcotest.fail "expected a deadlock error"

let test_timelock () =
  let net = load timelock_model in
  let g = goal net "v" in
  match run_one net Strategy.Asap g with
  | Ok Path.Unsat_timelock -> ()
  | v ->
    Alcotest.failf "expected timelock, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* MaxTime walks straight into an actionlock that ASAP dodges (§III-B:
   "can in particular be helpful to find actionlocks"). *)
let actionlock_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  a: initial mode while c <= 5.0;
  b: mode;
transitions
  a -[when c >= 1.0 and c <= 2.0 then v := true]-> b;
end D.I;
root D.I;
|}

let test_maxtime_finds_actionlock () =
  let net = load actionlock_model in
  let g = goal net "v" in
  (match run_one net Strategy.Max_time g with
  | Ok Path.Unsat_timelock -> ()
  | v ->
    Alcotest.failf "maxtime: expected the actionlock, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e));
  match run_one net Strategy.Asap g with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-6)) "asap takes the window" 1.0 t
  | _ -> Alcotest.fail "asap should pass"

(* --- zeno protection --- *)

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

let test_step_limit () =
  let net = load zeno_model in
  let g = goal net "v" in
  let config = Some { (Path.default_config ~horizon:10.0) with Path.max_steps = 500 } in
  match run_one ~config net Strategy.Asap g with
  | Ok (Path.Diverged (Path.Step_budget _)) -> ()
  | v ->
    Alcotest.failf "expected step-budget divergence, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- exponential transitions --- *)

let exp_model rate =
  Printf.sprintf
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
  a -[rate %.9g then v := true]-> b;
end D.I;
root D.I;
|}
    rate

let test_exponential_reachability () =
  let net = load (exp_model 0.1) in
  let g = goal net "v" in
  let horizon = 10.0 in
  let generator = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.02 in
  match
    Fixture.run net ~goal:g ~horizon ~strategy:Strategy.Asap ~generator ()
  with
  | Ok r ->
    let expected = 1.0 -. exp (-0.1 *. horizon) in
    Alcotest.(check bool) "estimate near 1 - e^{-rate u}" true
      (Float.abs (r.Campaign.probability -. expected) < 0.02)
  | Error e -> Alcotest.fail (Path.error_to_string e)

let test_exponential_race_in_model () =
  (* two competing rates 1 and 3: the second wins 75% of the time *)
  let src =
    {|
device D
features
  v: out data port int := 0;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
  c: mode;
transitions
  a -[rate 1.0 then v := 1]-> b;
  a -[rate 3.0 then v := 2]-> c;
end D.I;
root D.I;
|}
  in
  let net = load src in
  let g = goal net "v = 2" in
  let generator = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.02 in
  match Fixture.run net ~goal:g ~horizon:1000.0 ~strategy:Strategy.Asap ~generator () with
  | Ok r ->
    Alcotest.(check bool) "race follows the rates" true
      (Float.abs (r.Campaign.probability -. 0.75) < 0.02)
  | Error e -> Alcotest.fail (Path.error_to_string e)

(* --- synchronization blocking (CSP multiway) --- *)

let sync_model =
  {|
device Sender
features
  fire: out event port;
end Sender;
device implementation Sender.I
subcomponents
  c: data clock;
modes
  idle: initial mode;
  sent: mode;
transitions
  idle -[fire when c >= 1.0]-> sent;
end Sender.I;

device Receiver
features
  hear: in event port;
  got: out data port bool := false;
end Receiver;
device implementation Receiver.I
subcomponents
  c: data clock;
modes
  closed: initial mode;
  open_: mode;
  done_: mode;
transitions
  closed -[when c >= 5.0]-> open_;
  open_ -[hear then got := true]-> done_;
end Receiver.I;

system S
end S;
system implementation S.I
subcomponents
  snd: device Sender.I;
  rcv: device Receiver.I;
connections
  snd.fire -> rcv.hear;
end S.I;
root S.I;
|}

let test_sync_blocks_until_ready () =
  let net = load sync_model in
  let g = goal net "rcv.got" in
  (* ASAP: the sender is ready at 1 but must wait for the receiver's
     alphabet to offer 'hear', which happens only after the receiver
     moves at 5. *)
  match run_one net Strategy.Asap g with
  | Ok (Path.Sat t) ->
    Alcotest.(check bool) "sync happened no earlier than 5" true (t >= 5.0 && t < 5.1)
  | v ->
    Alcotest.failf "expected sat, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- scripted (Input) strategy --- *)

let test_scripted_choices () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let script (alt : Strategy.alternatives) =
    match alt.Strategy.timed with
    | _ :: _ -> Strategy.Fire { index = 0; delay = 42.0 }
    | [] -> Strategy.Abort
  in
  (match run_one net (Strategy.Scripted script) g with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-9)) "scripted time" 42.0 t
  | _ -> Alcotest.fail "scripted run failed");
  (* invalid delay outside the window is a model error *)
  let bad_script _ = Strategy.Fire { index = 0; delay = 5.0 } in
  (match run_one net (Strategy.Scripted bad_script) g with
  | Error (Path.Model_error _) -> ()
  | _ -> Alcotest.fail "expected a model error for an out-of-window delay");
  (* abort is reported *)
  let abort_script _ = Strategy.Abort in
  match run_one net (Strategy.Scripted abort_script) g with
  | Error Path.Aborted -> ()
  | _ -> Alcotest.fail "expected an abort"

(* --- bounded until (the CSL extension of section VII) --- *)

let test_until_satisfied () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let h = goal net "x <= 200.0" in
  let cfg = Path.default_config ~horizon:200.0 in
  match
    fst (Path_oracle.checked ~hold:h net cfg Strategy.Asap ~seed:1L ~goal:g)
  with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-6)) "sat as plain reach" 10.0 t
  | v ->
    Alcotest.failf "expected sat, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_until_violated_mid_delay () =
  (* hold x <= 5 fails at time 5, before ASAP's acquisition at 10 *)
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let h = goal net "x <= 5.0" in
  let cfg = Path.default_config ~horizon:200.0 in
  match
    fst (Path_oracle.checked ~hold:h net cfg Strategy.Asap ~seed:1L ~goal:g)
  with
  | Ok (Path.Unsat_violated t) ->
    Alcotest.(check bool) "violated just past 5" true (t >= 5.0 && t < 5.001)
  | v ->
    Alcotest.failf "expected violation, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_until_violated_initially () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let h = goal net "false" in
  let cfg = Path.default_config ~horizon:200.0 in
  match
    fst (Path_oracle.checked ~hold:h net cfg Strategy.Asap ~seed:1L ~goal:g)
  with
  | Ok (Path.Unsat_violated t) -> Alcotest.(check (float 1e-9)) "at time zero" 0.0 t
  | _ -> Alcotest.fail "expected an immediate violation"

let test_until_goal_wins_simultaneity () =
  (* at the very instant the goal fires, the hold may already be false:
     a U b only needs a *before* b *)
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "x >= 50.0" in
  let h = goal net "x < 50.0" in
  let cfg = Path.default_config ~horizon:200.0 in
  match
    fst
      (Path_oracle.checked ~hold:h net cfg Strategy.Max_time ~seed:1L ~goal:g)
  with
  | Ok (Path.Sat t) -> Alcotest.(check bool) "sat at the boundary" true (t >= 50.0 && t < 50.001)
  | v ->
    Alcotest.failf "expected sat, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- rare events: importance sampling (section VI) --- *)

let rare_model = exp_model 0.0001

let test_importance_sampling_unbiased () =
  let net = load rare_model in
  let g = goal net "v" in
  let truth = 1.0 -. exp (-0.0001 *. 10.0) in
  (* with bias 1000 the biased hit rate is high and 5000 paths give a
     tight CLT interval around the truth (~1e-3) *)
  match
    Slimsim_sim.Rare.estimate net ~goal:g ~horizon:10.0 ~strategy:Strategy.Asap
      ~bias:1000.0 ~paths:5000 ~delta:0.05 ()
  with
  | Ok r ->
    Alcotest.(check bool) "estimate near the truth" true
      (Float.abs (r.Slimsim_sim.Rare.probability -. truth) /. truth < 0.1);
    Alcotest.(check bool) "interval brackets the truth" true
      (r.Slimsim_sim.Rare.ci_low <= truth && truth <= r.Slimsim_sim.Rare.ci_high);
    Alcotest.(check bool) "many biased hits" true (r.Slimsim_sim.Rare.hits > 1000)
  | Error e -> Alcotest.fail (Path.error_to_string e)

let test_importance_sampling_interval_is_welford () =
  (* regression: Rare's CLT interval is exactly the Welford interval of
     the likelihood-ratio stream — mean ± Welford.half_width, with the
     lower end clamped at 0.  Replays the estimator's own path loop
     (same default seed, same per-path streams) and compares bit for
     bit. *)
  let net = load rare_model in
  let g = goal net "v" in
  let bias = 1000.0 and paths = 2000 and delta = 0.05 in
  let r =
    match
      Slimsim_sim.Rare.estimate net ~goal:g ~horizon:10.0 ~strategy:Strategy.Asap
        ~bias ~paths ~delta ()
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Path.error_to_string e)
  in
  let w = Slimsim_stats.Welford.create () in
  let cfg = Path.default_config ~horizon:10.0 in
  let ratio = ref nan in
  let weight = ((fun _ _ -> bias), ratio) in
  for i = 0 to paths - 1 do
    let rng = Rng.for_path ~seed:0x0DDBA11L ~path:i in
    match fst (Path_oracle.compiled ~weight net cfg Strategy.Asap rng ~goal:g) with
    | Ok (Path.Sat _) -> Slimsim_stats.Welford.add w !ratio
    | Ok _ -> Slimsim_stats.Welford.add w 0.0
    | Error e -> Alcotest.failf "replay path %d failed: %s" i (Path.error_to_string e)
  done;
  let mean = Slimsim_stats.Welford.mean w in
  let hw = Slimsim_stats.Welford.half_width w ~delta in
  Alcotest.(check (float 0.0)) "probability is the Welford mean" mean
    r.Slimsim_sim.Rare.probability;
  Alcotest.(check (float 0.0)) "upper end is mean + half_width" (mean +. hw)
    r.Slimsim_sim.Rare.ci_high;
  Alcotest.(check (float 0.0)) "lower end clamped at 0"
    (Float.max 0.0 (mean -. hw))
    r.Slimsim_sim.Rare.ci_low;
  Alcotest.(check (float 1e-12)) "relative error consistent" (hw /. mean)
    r.Slimsim_sim.Rare.relative_error

let test_importance_sampling_bias_one () =
  (* bias 1 must coincide with the unweighted simulator path by path *)
  let net = load (exp_model 0.1) in
  let g = goal net "v" in
  let cfg = Path.default_config ~horizon:10.0 in
  for seed = 1 to 50 do
    let rng1 = Rng.for_path ~seed:(Int64.of_int seed) ~path:0 in
    let rng2 = Rng.for_path ~seed:(Int64.of_int seed) ~path:0 in
    let plain = fst (Path_oracle.compiled net cfg Strategy.Asap rng1 ~goal:g) in
    let ratio = ref nan in
    let weighted =
      fst
        (Path_oracle.compiled ~weight:((fun _ _ -> 1.0), ratio) net cfg
           Strategy.Asap rng2 ~goal:g)
    in
    match plain, weighted with
    | Ok v1, Ok v2 ->
      Alcotest.(check bool) "same verdict" true (v1 = v2);
      Alcotest.(check (float 1e-9)) "unit ratio" 1.0 !ratio
    | _ -> Alcotest.fail "path failed"
  done

let test_importance_sampling_variance_reduction () =
  let net = load rare_model in
  let g = goal net "v" in
  let run bias =
    match
      Slimsim_sim.Rare.estimate net ~goal:g ~horizon:10.0 ~strategy:Strategy.Asap
        ~bias ~paths:3000 ~delta:0.05 ()
    with
    | Ok r -> r.Slimsim_sim.Rare.relative_error
    | Error e -> Alcotest.fail (Path.error_to_string e)
  in
  Alcotest.(check bool) "biasing shrinks the relative error" true
    (run 500.0 < run 1.0)

let test_selective_biasing_queue () =
  (* uniform biasing cannot help a queue (the embedded chain is scale
     invariant); biasing only the arrivals can.  Cross-check against the
     exact pipeline. *)
  let src =
    Slimsim_models.Queue_model.source ~arrival:0.3 ~service:1.2 ~capacity:5
  in
  let net = load src in
  let g = goal net (Slimsim_models.Queue_model.goal_full ~capacity:5) in
  let exact =
    match Slimsim_ctmc.Analysis.check net ~goal:g ~horizon:15.0 with
    | Ok r -> r.Slimsim_ctmc.Analysis.probability
    | Error e -> Alcotest.fail e
  in
  let arrivals_only p tr =
    let proc = net.Slimsim_sta.Network.procs.(p) in
    let t = proc.Slimsim_sta.Automaton.transitions.(tr) in
    if t.Slimsim_sta.Automaton.dst > t.Slimsim_sta.Automaton.src then 2.0 else 1.0
  in
  match
    Slimsim_sim.Rare.estimate net ~goal:g ~horizon:15.0 ~strategy:Strategy.Asap
      ~bias:1.0 ~bias_of:arrivals_only ~paths:20_000 ~delta:0.05 ()
  with
  | Error e -> Alcotest.fail (Path.error_to_string e)
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "selective IS (%.3e) near exact (%.3e)"
         r.Slimsim_sim.Rare.probability exact)
      true
      (Float.abs (r.Slimsim_sim.Rare.probability -. exact) /. exact < 0.25);
    Alcotest.(check bool) "many biased hits" true (r.Slimsim_sim.Rare.hits > 300)

(* --- engine --- *)

let test_engine_deadlock_counting () =
  let net = load deadlock_model in
  let g = goal net "v" in
  let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.3 in
  match Fixture.run net ~goal:g ~horizon:10.0 ~strategy:Strategy.Asap ~generator () with
  | Ok r ->
    Alcotest.(check int) "all paths deadlocked" r.Campaign.paths r.Campaign.deadlock_paths;
    Alcotest.(check (float 1e-9)) "probability zero" 0.0 r.Campaign.probability
  | Error e -> Alcotest.fail (Path.error_to_string e)

let test_engine_seed_determinism () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let run seed =
    let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1 in
    match
      Fixture.run ~seed net ~goal:g ~horizon:100.0 ~strategy:Strategy.Progressive
        ~generator ()
    with
    | Ok r -> (r.Campaign.successes, r.Campaign.paths)
    | Error e -> Alcotest.fail (Path.error_to_string e)
  in
  Alcotest.(check bool) "same seed, same counts" true (run 5L = run 5L);
  Alcotest.(check bool) "different seeds differ" true (run 5L <> run 6L)

let test_engine_worker_independence () =
  (* the buffered round-robin collection makes the estimate independent
     of the worker count (§III-C) — here even bit-identical, because
     path i always uses the stream derived from (seed, i) *)
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let run workers =
    let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.15 in
    match
      Fixture.run ~workers ~seed:11L net ~goal:g ~horizon:100.0
        ~strategy:Strategy.Asap ~generator ()
    with
    | Ok r -> (r.Campaign.successes, r.Campaign.paths)
    | Error e -> Alcotest.fail (Path.error_to_string e)
  in
  let sequential = run 1 in
  Alcotest.(check bool) "2 workers agree" true (run 2 = sequential);
  Alcotest.(check bool) "3 workers agree" true (run 3 = sequential)

let test_engine_parallel_determinism () =
  (* The §III-C contract, for both fixed-size and sequential stopping
     rules: the estimate is a function of the seed alone, whatever the
     worker count.  Chow–Robbins is the interesting case — its stopping
     decision is taken sample by sample, so it only holds because the
     collector consumes buffers in path order. *)
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  List.iter
    (fun kind ->
      let run workers =
        let generator = Generator.create kind ~delta:0.1 ~eps:0.15 in
        match
          Fixture.run ~workers ~seed:29L net ~goal:g ~horizon:100.0
            ~strategy:Strategy.Progressive ~generator ()
        with
        | Ok r -> (r.Campaign.probability, r.Campaign.paths, r.Campaign.successes)
        | Error e -> Alcotest.fail (Path.error_to_string e)
      in
      let name = Generator.kind_to_string kind in
      let sequential = run 1 in
      Alcotest.(check bool)
        (name ^ ": 2 workers match 1") true
        (run 2 = sequential);
      Alcotest.(check bool)
        (name ^ ": 4 workers match 1") true
        (run 4 = sequential))
    [ Generator.Chernoff; Generator.Chow_robbins ];
  (* A sequential rule over priced samples: E[c] of one Exp(1) firing
     under Chow-Robbins stops after a few thousand paths, so the
     stream spans many path-id ranges at every worker count and the
     stop falls inside one of them. *)
  let net =
    load
      {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  start: initial mode;
  good: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
end D.I;
root D.I;
|}
  in
  let cost_var =
    match Slimsim_props.Pattern.resolve_cost net "c" with
    | Ok v -> v
    | Error e -> Alcotest.failf "cost var failed: %s" e
  in
  let run workers =
    match
      Slimsim_sim.Cost_run.create ~workers ~seed:29L net ~goal:(goal net "v")
        ~horizon:6.0 ~strategy:Strategy.Asap ~cost_var
        ~query:"E[c ; <> [0, 6] v]" ~kind:Generator.Chow_robbins ~delta:0.01
        ~eps:0.05 ()
    with
    | Error e -> Alcotest.fail (Path.error_to_string e)
    | Ok c -> (
      match Slimsim_sim.Cost_run.drive c with
      | Ok r ->
        ( r.Slimsim_sim.Cost_run.cost_mean,
          r.Slimsim_sim.Cost_run.cost_ci_low,
          r.Slimsim_sim.Cost_run.cost_ci_high,
          r.Slimsim_sim.Cost_run.reach.Slimsim_sim.Campaign.paths )
      | Error e -> Alcotest.fail (Path.error_to_string e))
  in
  let ((_, _, _, paths) as sequential) = run 1 in
  Alcotest.(check bool) "E[cost]: spans several ranges" true
    (paths > 4 * Slimsim_sim.Supervisor.(default ()).max_buffer);
  List.iter
    (fun workers ->
      Alcotest.(check bool)
        (Printf.sprintf "E[cost] chow-robbins: %d workers match 1" workers)
        true
        (run workers = sequential))
    [ 2; 4 ]

let test_engine_scripted_needs_one_worker () =
  (* A scripted strategy with workers > 1 is downgraded to a single
     worker, not rejected: the campaign runs and the first scripted
     Abort surfaces as usual.  The downgrade goes through the
     structured logger (a "warning" JSONL event), not a bare eprintf,
     so installed sinks capture it. *)
  let module Log = Slimsim_obs.Log in
  let module Json = Slimsim_obs.Json in
  let events = ref [] in
  Log.set_sink (Some (fun line -> events := line :: !events));
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.3 in
  let result =
    Fixture.run ~workers:2 net ~goal:g ~horizon:10.0
      ~strategy:(Strategy.Scripted (fun _ -> Strategy.Abort))
      ~generator ()
  in
  Log.set_sink None;
  (match result with
  | Error Path.Aborted -> ()
  | Ok _ -> Alcotest.fail "scripted Abort must surface"
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e));
  let warned =
    List.exists
      (fun line ->
        match Json.parse line with
        | Ok json -> (
          Json.member "event" json = Some (Json.String "warning")
          &&
          match Json.member "message" json with
          | Some (Json.String msg) -> Astring_contains.contains msg "scripted"
          | _ -> false)
        | Error _ -> false)
      !events
  in
  Alcotest.(check bool) "downgrade emitted a structured warning" true warned

let test_engine_ci_contains_estimate () =
  let net = load (exp_model 0.05) in
  let g = goal net "v" in
  let generator = Generator.create Generator.Hoeffding ~delta:0.05 ~eps:0.05 in
  match Fixture.run net ~goal:g ~horizon:20.0 ~strategy:Strategy.Asap ~generator () with
  | Ok r ->
    Alcotest.(check bool) "interval brackets the estimate" true
      (r.Campaign.ci_low <= r.Campaign.probability && r.Campaign.probability <= r.Campaign.ci_high);
    Alcotest.(check int) "planned paths run" 738 r.Campaign.paths
  | Error e -> Alcotest.fail (Path.error_to_string e)

let test_trace_csv () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  let cfg = Path.default_config ~horizon:200.0 in
  let _, steps =
    Path_oracle.checked ~record:true net cfg Strategy.Asap ~seed:1L ~goal:g
  in
  let csv = Slimsim_sim.Trace.to_csv steps in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check bool) "header present" true (List.hd lines = "time,delay,action");
  Alcotest.(check int) "one row per step" (List.length steps)
    (List.length lines - 1);
  (* quoting: a description with a comma round-trips through the quotes *)
  let weird =
    [ { Path.at_time = 1.0; chose_delay = 0.5; description = "a,b \"q\"" } ]
  in
  let csv2 = Slimsim_sim.Trace.to_csv weird in
  Alcotest.(check bool) "comma is quoted" true
    (Astring_contains.contains csv2 "\"a,b \"\"q\"\"\"")

let test_trace_csv_carriage_return () =
  (* Regression: the quoting predicate missed '\r', so a carriage
     return in a step description produced an unquoted field that tears
     the row in consumers treating bare CR (or CRLF) as a record
     separator. *)
  let cr = [ { Path.at_time = 0.5; chose_delay = 0.25; description = "fire\rreset" } ] in
  let csv = Slimsim_sim.Trace.to_csv cr in
  (match String.split_on_char '\n' csv with
  | [ header; row; "" ] ->
    Alcotest.(check string) "header" "time,delay,action" header;
    Alcotest.(check string) "CR field is quoted, row intact"
      "0.5,0.25,\"fire\rreset\"" row
  | _ -> Alcotest.failf "expected header + 1 row, got: %S" csv);
  let crlf =
    [ { Path.at_time = 1.0; chose_delay = 0.5; description = "a\r\nb, \"c\"" } ]
  in
  let csv2 = Slimsim_sim.Trace.to_csv crlf in
  Alcotest.(check bool) "CRLF + comma + quote round-trips" true
    (Astring_contains.contains csv2 "\"a\r\nb, \"\"c\"\"\"")

let suite =
  [
    Alcotest.test_case "strategy delays" `Quick test_strategy_delays;
    Alcotest.test_case "progressive distribution" `Slow test_progressive_distribution;
    Alcotest.test_case "goal crossing mid-delay" `Quick test_goal_crossing_mid_delay;
    Alcotest.test_case "goal beyond horizon" `Quick test_goal_beyond_horizon;
    Alcotest.test_case "deadlock falsifies" `Quick test_deadlock_falsifies;
    Alcotest.test_case "deadlock error policy" `Quick test_deadlock_error_policy;
    Alcotest.test_case "timelock" `Quick test_timelock;
    Alcotest.test_case "maxtime finds actionlocks" `Quick test_maxtime_finds_actionlock;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "exponential reachability" `Slow test_exponential_reachability;
    Alcotest.test_case "exponential race" `Slow test_exponential_race_in_model;
    Alcotest.test_case "sync blocks until ready" `Quick test_sync_blocks_until_ready;
    Alcotest.test_case "scripted strategy" `Quick test_scripted_choices;
    Alcotest.test_case "until satisfied" `Quick test_until_satisfied;
    Alcotest.test_case "until violated mid-delay" `Quick test_until_violated_mid_delay;
    Alcotest.test_case "until violated initially" `Quick test_until_violated_initially;
    Alcotest.test_case "until boundary semantics" `Quick test_until_goal_wins_simultaneity;
    Alcotest.test_case "deadlock counting" `Quick test_engine_deadlock_counting;
    Alcotest.test_case "seed determinism" `Quick test_engine_seed_determinism;
    Alcotest.test_case "worker independence" `Slow test_engine_worker_independence;
    Alcotest.test_case "parallel determinism" `Slow test_engine_parallel_determinism;
    Alcotest.test_case "scripted downgrades to one worker" `Quick test_engine_scripted_needs_one_worker;
    Alcotest.test_case "confidence interval" `Quick test_engine_ci_contains_estimate;
    Alcotest.test_case "importance sampling unbiased" `Quick test_importance_sampling_unbiased;
    Alcotest.test_case "importance sampling interval is welford" `Quick
      test_importance_sampling_interval_is_welford;
    Alcotest.test_case "importance sampling bias=1" `Quick test_importance_sampling_bias_one;
    Alcotest.test_case "importance sampling variance" `Quick
      test_importance_sampling_variance_reduction;
    Alcotest.test_case "selective biasing on a queue" `Slow
      test_selective_biasing_queue;
    Alcotest.test_case "trace csv export" `Quick test_trace_csv;
  ]
