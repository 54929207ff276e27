(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) plus the ablations.

     dune exec bench/main.exe                 -- everything, default sizes
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- fig5
     dune exec bench/main.exe -- gps epsilon parallel lumping deadlock micro

   Absolute numbers differ from the paper's 48-core blade server; the
   shapes (CTMC blow-up vs flat simulator memory, strategy orderings,
   quadratic sample counts) are the reproduction targets, recorded in
   EXPERIMENTS.md. *)

module Sf = Slimsim_models.Sensor_filter
module Launcher = Slimsim_models.Launcher
module Gps = Slimsim_models.Gps
module Strategy = Slimsim_sim.Strategy
module Bound = Slimsim_stats.Bound

let load src =
  match Slimsim.load_string src with
  | Ok m -> m
  | Error e -> failwith ("model load failed: " ^ e)

let check_ok = function Ok v -> v | Error e -> failwith e

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let line () = Fmt.pr "%s@." (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* Table I: CTMC pipeline vs simulator on the sensor/filter benchmark. *)

let table1 () =
  line ();
  Fmt.pr "Table I -- sensor/filter redundancy: CTMC pipeline vs simulator@.";
  Fmt.pr "(horizon 1800 s, simulator: ASAP, Chernoff-Hoeffding delta=0.05 eps=0.01)@.";
  line ();
  Fmt.pr "%-3s | %-10s %-8s %-8s %-8s | %-10s %-8s %-9s | %-10s@." "n" "ctmc p"
    "time(s)" "states" "topheap" "sim p" "time(s)" "paths" "closed-form";
  let horizon = 1800.0 in
  List.iter
    (fun n ->
      let model = load (Sf.source ~n) in
      let property = Printf.sprintf "P(<> [0, %g] %s)" horizon (Sf.goal_all_failed ~n) in
      let exact = check_ok (Slimsim.check_exact model ~property) in
      let ctmc_heap = heap_mb () in
      let sim =
        check_ok
          (Slimsim.check model ~property ~strategy:Strategy.Asap ~delta:0.05
             ~eps:0.01 ())
      in
      Fmt.pr "%-3d | %-10.6f %-8.2f %-8d %-8.1f | %-10.6f %-8.2f %-9d | %-10.6f@."
        n exact.Slimsim.exact_probability exact.Slimsim.analysis_seconds
        exact.Slimsim.states ctmc_heap sim.Slimsim.probability
        sim.Slimsim.wall_seconds sim.Slimsim.paths
        (Sf.closed_form ~n ~horizon))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  Fmt.pr "(topheap: the GC's top heap in MB, cumulative over the rows of@.";
  Fmt.pr " this process, not a peak per n.  EXPERIMENTS.md Table I measures@.";
  Fmt.pr " peak RSS per n, one process per cell under bench_e2e/rusage.exe.)@.";
  (* the timed variant the exact chain cannot treat (the reason the paper
     benchmarked an untimed model, §IV) *)
  Fmt.pr "@.timed variant (detection latency [%g, %g]), n = 2: simulator only@."
    Sf.detect_min Sf.detect_max;
  let timed = load (Sf.timed_source ~n:2) in
  (match Slimsim.check_exact timed ~property:(Printf.sprintf "P(<> [0, %g] %s)" horizon Sf.goal_exhausted) with
  | Error e -> Fmt.pr "  exact chain: %s@." e
  | Ok _ -> Fmt.pr "  exact chain: unexpectedly succeeded@.");
  List.iter
    (fun strategy ->
      let r =
        check_ok
          (Slimsim.check timed
             ~property:(Printf.sprintf "P(<> [0, %g] %s)" horizon Sf.goal_exhausted)
             ~strategy ~delta:0.1 ~eps:0.03 ())
      in
      Fmt.pr "  %-12s p = %.4f@." (Strategy.to_string strategy) r.Slimsim.probability)
    Strategy.all_automated;
  Fmt.pr
    "  (ASAP reproduces the untimed probability; Progressive/Local pay the@.";
  Fmt.pr
    "   detection latency; MaxTime never schedules the unconstrained detection)@."

(* ------------------------------------------------------------------ *)
(* Figure 5: launcher failure probability vs time bound per strategy.  *)

let fig5_variant variant label eps =
  let model = load (Launcher.source ~variant) in
  Fmt.pr "@.Figure 5 (%s DPU faults) -- P(control lost by u), CH delta=0.1 eps=%g@."
    label eps;
  Fmt.pr "%-6s" "u";
  List.iter (fun s -> Fmt.pr "%-13s" (Strategy.to_string s)) Strategy.all_automated;
  Fmt.pr "@.";
  List.iter
    (fun u ->
      Fmt.pr "%-6g" u;
      List.iter
        (fun strategy ->
          let property = Printf.sprintf "P(<> [0, %g] %s)" u Launcher.goal_failure in
          let r =
            check_ok (Slimsim.check model ~property ~strategy ~delta:0.1 ~eps ())
          in
          Fmt.pr "%-13.4f" r.Slimsim.probability)
        Strategy.all_automated;
      Fmt.pr "@.")
    [ 25.0; 50.0; 75.0; 100.0 ]

let fig5 () =
  line ();
  Fmt.pr "Figure 5 -- launcher case study (section V)@.";
  line ();
  fig5_variant `Permanent "permanent" 0.05;
  fig5_variant `Recoverable "recoverable" 0.05

(* ------------------------------------------------------------------ *)
(* Figure 2 / Listings 1-2: the GPS example and its repair window.     *)

let gps () =
  line ();
  Fmt.pr "Figure 2 / Listings 1-2 -- GPS example@.";
  line ();
  let nominal = load Gps.nominal_only in
  Fmt.pr "acquisition window [10, 120]: fix acquired at@.";
  List.iter
    (fun strategy ->
      match
        Slimsim.simulate_one nominal ~property:"P(<> [0, 200] measurement)"
          ~strategy ~seed:3L
      with
      | Ok (Slimsim_sim.Path.Sat t, _) ->
        Fmt.pr "  %-12s t = %g@." (Strategy.to_string strategy) t
      | Ok (v, _) ->
        Fmt.pr "  %-12s %s@." (Strategy.to_string strategy)
          (Slimsim_sim.Path.verdict_to_string v)
      | Error e -> failwith e)
    Strategy.all_automated;
  let full = load Gps.source in
  let property = Printf.sprintf "P(<> [0, 300] %s)" Gps.goal_no_fix in
  Fmt.pr "@.P(fault visible within 300 s), CH delta=0.05 eps=0.01:@.";
  List.iter
    (fun strategy ->
      let r =
        check_ok (Slimsim.check full ~property ~strategy ~delta:0.05 ~eps:0.01 ())
      in
      Fmt.pr "  %-12s %a@." (Strategy.to_string strategy) Slimsim.pp_estimate r)
    Strategy.all_automated

(* ------------------------------------------------------------------ *)
(* X1: the sample count (and so run time) is quadratic in 1/eps.       *)

let epsilon () =
  line ();
  Fmt.pr "X1 -- Chernoff-Hoeffding sample counts vs eps (delta = 0.05)@.";
  line ();
  let model = load (Sf.source ~n:2) in
  Fmt.pr "%-8s %-9s %-10s %-10s@." "eps" "N" "time(s)" "estimate";
  List.iter
    (fun eps ->
      let n = Bound.chernoff_samples ~delta:0.05 ~eps in
      let property = Printf.sprintf "P(<> [0, 1800] %s)" (Sf.goal_all_failed ~n:2) in
      let r =
        check_ok
          (Slimsim.check model ~property ~strategy:Strategy.Asap ~delta:0.05 ~eps ())
      in
      Fmt.pr "%-8g %-9d %-10.2f %-10.6f@." eps n r.Slimsim.wall_seconds
        r.Slimsim.probability)
    [ 0.08; 0.04; 0.02; 0.01 ]

(* ------------------------------------------------------------------ *)
(* X2: parallelization is bias-free: the estimate is worker-invariant. *)

let parallel () =
  line ();
  Fmt.pr "X2 -- parallel engine (buffered round-robin collection, section III-C)@.";
  line ();
  let model = load Gps.source in
  let property = Printf.sprintf "P(<> [0, 300] %s)" Gps.goal_no_fix in
  Fmt.pr "%-9s %-12s %-12s %-9s@." "workers" "estimate" "successes" "time(s)";
  List.iter
    (fun workers ->
      let r =
        check_ok
          (Slimsim.check ~workers ~seed:42L model ~property ~strategy:Strategy.Asap
             ~delta:0.05 ~eps:0.02 ())
      in
      Fmt.pr "%-9d %-12.6f %-12d %-9.2f@." workers r.Slimsim.probability
        r.Slimsim.successes r.Slimsim.wall_seconds)
    [ 1; 2; 4 ];
  Fmt.pr "(identical success counts = schedule-independent sampling)@."

(* ------------------------------------------------------------------ *)
(* X3: value of the lumping (Sigref) reduction step.                   *)

let lumping () =
  line ();
  Fmt.pr "X3 -- lumping ablation on the CTMC pipeline@.";
  line ();
  Fmt.pr "%-3s | %-9s %-9s | %-12s %-12s@." "n" "states" "lumped" "t with lump"
    "t without";
  List.iter
    (fun n ->
      let model = load (Sf.source ~n) in
      let property = Printf.sprintf "P(<> [0, 1800] %s)" (Sf.goal_all_failed ~n) in
      let a = check_ok (Slimsim.check_exact ~lump:true model ~property) in
      let b = check_ok (Slimsim.check_exact ~lump:false model ~property) in
      assert (Float.abs (a.Slimsim.exact_probability -. b.Slimsim.exact_probability) < 1e-9);
      Fmt.pr "%-3d | %-9d %-9d | %-12.3f %-12.3f@." n a.Slimsim.states
        a.Slimsim.lumped_states a.Slimsim.analysis_seconds b.Slimsim.analysis_seconds)
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* X4: MaxTime walks into actionlocks that ASAP dodges (section III-B).*)

let deadlock () =
  line ();
  Fmt.pr "X4 -- actionlock discovery by strategy@.";
  line ();
  let src =
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
  in
  let model = load src in
  Fmt.pr "%-12s %-12s %-16s@." "strategy" "estimate" "locked paths";
  List.iter
    (fun strategy ->
      let r =
        check_ok
          (Slimsim.check model ~property:"P(<> [0, 10] v)" ~strategy ~delta:0.1
             ~eps:0.1 ())
      in
      Fmt.pr "%-12s %-12.4f %-16d@." (Strategy.to_string strategy)
        r.Slimsim.probability r.Slimsim.deadlock_paths)
    Strategy.all_automated;
  Fmt.pr "(MaxTime falsifies every path through the actionlock at the invariant's edge)@."

(* ------------------------------------------------------------------ *)
(* X5: rare events — importance sampling vs plain Monte Carlo.         *)

let rare () =
  line ();
  Fmt.pr "X5 -- rare-event estimation by importance sampling (section VI)@.";
  line ();
  let src =
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
  a -[rate 0.0001 then v := true]-> b;
end D.I;
root D.I;
|}
  in
  let model = load src in
  let net = Slimsim.network model in
  let goal =
    match Slimsim.parse_property model "P(<> [0, 10] v)" with
    | Ok (g, _, _) -> g
    | Error e -> failwith e
  in
  let truth = 1.0 -. exp (-0.0001 *. 10.0) in
  Fmt.pr "true probability: %.6e  (5000 paths each)@." truth;
  Fmt.pr "%-8s %-12s %-24s %-8s %-10s@." "bias" "estimate" "CI" "hits" "rel.err";
  List.iter
    (fun bias ->
      match
        Slimsim_sim.Rare.estimate net ~goal ~horizon:10.0
          ~strategy:Strategy.Asap ~bias ~paths:5000 ~delta:0.05 ()
      with
      | Ok r ->
        Fmt.pr "%-8g %-12.3e [%.2e, %.2e]   %-8d %.1f%%@." bias
          r.Slimsim_sim.Rare.probability r.Slimsim_sim.Rare.ci_low
          r.Slimsim_sim.Rare.ci_high r.Slimsim_sim.Rare.hits
          (100.0 *. r.Slimsim_sim.Rare.relative_error)
      | Error e -> failwith (Slimsim_sim.Path.error_to_string e))
    [ 1.0; 10.0; 100.0; 1000.0 ];
  Fmt.pr "(equal path budgets: the likelihood-ratio weighting turns 7 lucky@.";
  Fmt.pr " hits into thousands of weighted ones without bias)@."

(* ------------------------------------------------------------------ *)
(* X6: safety analysis — fault tree vs exact probability.              *)

let safety () =
  line ();
  Fmt.pr "X6 -- safety analysis: fault tree evaluation vs exact analysis@.";
  line ();
  let n = 2 in
  let model = load (Sf.source ~n) in
  (match Slimsim.fault_tree model ~goal:Sf.goal_exhausted ~top:"system failed" with
  | Error e -> failwith e
  | Ok t ->
    Fmt.pr "%a@." Slimsim_safety.Cutsets.pp_fault_tree t;
    let horizon = 1800.0 in
    Fmt.pr "fault-tree top probability: %.6f@."
      (Slimsim_safety.Cutsets.top_probability t.Slimsim_safety.Cutsets.cut_sets
         ~horizon);
    Fmt.pr "closed form:                %.6f@." (Sf.closed_form ~n ~horizon));
  (match Slimsim.fmea model ~goal:Sf.goal_exhausted with
  | Error e -> failwith e
  | Ok rows -> Fmt.pr "@.%a@." Slimsim_safety.Fmea.pp_table rows);
  let gps = load Gps.source in
  match Slimsim.fdir ~settle_time:150.0 gps ~observables:[ "gps.measurement" ] with
  | Error e -> failwith e
  | Ok verdicts -> Fmt.pr "@.FDIR (gps, settle 150 s):@.%a@." Slimsim_safety.Fdir.pp_table verdicts

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment kernel.     *)
(* The one-path kernels keep their historical [-compiled] names, from  *)
(* when an interpreted twin was timed next to each.  [--json] writes   *)
(* the table to BENCH_sim.json; [--quick] shortens the quota for CI.   *)

let micro ?(quick = false) ?(json = false) () =
  line ();
  Fmt.pr "micro -- bechamel benchmarks of the experiment kernels%s@."
    (if quick then " (quick)" else "");
  line ();
  let open Bechamel in
  let nominal_gps = load Gps.nominal_only in
  let full_gps = load Gps.source in
  let sf2 = load (Sf.source ~n:2) in
  let sf2_net = Slimsim.network sf2 in
  let sf2_goal =
    match
      Slimsim.parse_property sf2
        (Printf.sprintf "P(<> [0, 1800] %s)" (Sf.goal_all_failed ~n:2))
    with
    | Ok (g, _, _) -> g
    | Error e -> failwith e
  in
  let gps_goal =
    match
      Slimsim.parse_property full_gps (Printf.sprintf "P(<> [0, 300] %s)" Gps.goal_no_fix)
    with
    | Ok (g, _, _) -> g
    | Error e -> failwith e
  in
  let nominal_net = Slimsim.network nominal_gps in
  let nominal_goal =
    match Slimsim_slim.Loader.parse_goal nominal_net "measurement" with
    | Ok g -> g
    | Error e -> failwith e
  in
  (* one-path kernels: network staged once, one scratch reused per run
     (a campaign worker's usage pattern) *)
  let one_path_compiled ?config net goal strategy =
    let c = Slimsim_sta.Compiled.compile net in
    let q = Slimsim_sim.Path.compile_query c ~goal in
    let s = Slimsim_sta.Compiled.scratch c in
    let cfg =
      match config with
      | Some cfg -> cfg
      | None -> Slimsim_sim.Path.default_config ~horizon:300.0
    in
    fun ?obs seed ->
      let rng = Slimsim_stats.Rng.for_path ~seed ~path:0 in
      ignore (Slimsim_sim.Path.generate ?obs c s q cfg strategy rng)
  in
  let sf2_c = one_path_compiled sf2_net sf2_goal Strategy.Asap in
  let gps_c =
    one_path_compiled (Slimsim.network full_gps) gps_goal Strategy.Progressive
  in
  let nominal_c = one_path_compiled nominal_net nominal_goal Strategy.Asap in
  (* the same kernel with every per-path watchdog armed (budgets far too
     generous to ever fire): measures the pure supervision overhead *)
  let supervised_cfg =
    {
      (Slimsim_sim.Path.default_config ~horizon:300.0) with
      Slimsim_sim.Path.max_sim_time = Some 1e12;
      max_wall_per_path = Some 1e12;
    }
  in
  let nominal_sup =
    one_path_compiled ~config:supervised_cfg nominal_net nominal_goal
      Strategy.Asap
  in
  (* serve's compiled-network cache: a cold submission pays parse +
     elaborate + translate + stage; a repeat submission of the same text
     is a digest lookup.  The gap is the amortization the resident
     service exists to provide. *)
  let serve_cache = Slimsim_serve.Cache.create ~capacity:4 in
  (match Slimsim_serve.Cache.load serve_cache ~source:Gps.source with
  | Ok _ -> ()
  | Error e -> failwith e);
  let tests =
    [
      Test.make ~name:"serve:submit-cold-compile"
        (Staged.stage (fun () ->
             let c = Slimsim_serve.Cache.create ~capacity:1 in
             match Slimsim_serve.Cache.load c ~source:Gps.source with
             | Ok (_, `Miss) -> ()
             | Ok (_, `Hit) -> failwith "fresh cache cannot hit"
             | Error e -> failwith e));
      Test.make ~name:"serve:submit-cache-hit"
        (Staged.stage (fun () ->
             match Slimsim_serve.Cache.load serve_cache ~source:Gps.source with
             | Ok (_, `Hit) -> ()
             | Ok (_, `Miss) -> failwith "warmed cache cannot miss"
             | Error e -> failwith e));
      Test.make ~name:"table1:one-path-sensor-filter-compiled"
        (Staged.stage (fun () -> sf2_c 1L));
      Test.make ~name:"fig5-like:one-path-gps-progressive-compiled"
        (Staged.stage (fun () -> gps_c 1L));
      Test.make ~name:"fig2:one-path-gps-nominal-compiled"
        (Staged.stage (fun () -> nominal_c 1L));
      Test.make ~name:"fig2:one-path-gps-nominal-supervised"
        (Staged.stage (fun () -> nominal_sup 1L));
      Test.make ~name:"table1:ctmc-pipeline-n2"
        (Staged.stage (fun () ->
             match
               Slimsim_ctmc.Analysis.check sf2_net ~goal:sf2_goal ~horizon:1800.0
             with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"frontend:load-launcher"
        (Staged.stage (fun () ->
             ignore (load (Launcher.source ~variant:`Recoverable))));
      (* the qualitative pre-pass runs before every simulate campaign,
         so its cost must stay negligible next to one sampling batch
         (contract: < 10 ms per analysis, checked below) *)
      Test.make ~name:"prepass:sensor-filter"
        (Staged.stage (fun () ->
             ignore (Slimsim_analyze.Prepass.analyze sf2_net ~goal:sf2_goal)));
      Test.make ~name:"prepass:gps-full"
        (Staged.stage (fun () ->
             ignore
               (Slimsim_analyze.Prepass.analyze (Slimsim.network full_gps)
                  ~goal:gps_goal)));
    ]
  in
  let quota = if quick then 0.1 else 0.5 in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) () in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  Fmt.pr "  %-45s %14s %14s@." "kernel" "ns/run (OLS)" "runs/sec";
  let rows = ref [] in
  List.iter
    (fun t ->
      let t0 = Unix.gettimeofday () in
      let raw = Benchmark.all cfg [ clock ] t in
      let wall = Unix.gettimeofday () -. t0 in
      let results = Analyze.all ols clock raw in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some (est :: _) ->
            let per_sec = 1e9 /. est in
            Fmt.pr "  %-45s %14.1f %14.1f@." name est per_sec;
            rows := (name, est, per_sec, wall) :: !rows
          | Some [] | None -> Fmt.pr "  %-45s %14s@." name "n/a")
        results)
    tests;
  let rows = List.rev !rows in
  (* Whole compiled launcher paths on one domain, per step: the Fig. 5
     model under bench_e2e's launcher-long-paths property.  The path set
     is fixed (seed 1, paths 0..n-1), so every window simulates the same
     steps; one pass with the step histogram on counts them and warms
     the scratch up.  Recorded with the median, min and max over the
     windows; no contract. *)
  let launcher_step_row =
    let module M = Slimsim_obs.Metrics in
    let module Path = Slimsim_sim.Path in
    let net = Slimsim.network (load (Launcher.source ~variant:`Recoverable)) in
    let goal = check_ok (Slimsim_slim.Loader.parse_goal net Launcher.goal_failure) in
    let c = Slimsim_sta.Compiled.compile net in
    let q = Path.compile_query c ~goal in
    let s = Slimsim_sta.Compiled.scratch c in
    let cfg = Path.default_config ~horizon:100.0 in
    let paths = if quick then 40 else 150 and windows = if quick then 5 else 9 in
    let run ?obs () =
      for i = 0 to paths - 1 do
        ignore
          (Path.generate ?obs c s q cfg Strategy.Progressive
             (Slimsim_stats.Rng.for_path ~seed:1L ~path:i))
      done
    in
    M.set_enabled true;
    run ~obs:(Path.obs_cell ~worker:0) ();
    M.set_enabled false;
    let steps =
      M.histogram_sum
        (M.histogram ~labels:[ ("worker", "0") ] "slimsim_path_steps"
           ~help:"Steps taken per simulated path")
    in
    M.reset ();
    let ns = Array.make windows 0.0 and words = Array.make windows 0.0 in
    for w = 0 to windows - 1 do
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      run ();
      let t1 = Unix.gettimeofday () in
      ns.(w) <- (t1 -. t0) *. 1e9 /. steps;
      words.(w) <- (Gc.minor_words () -. w0) /. steps
    done;
    Array.sort compare ns;
    Array.sort compare words;
    let med a = a.(windows / 2) in
    Fmt.pr
      "  %-45s %11.1f ns/step [%.1f, %.1f], %.1f words/step (%d x %d paths, %.0f \
       steps)@."
      "compiled:launcher-step" (med ns) ns.(0)
      ns.(windows - 1)
      (med words) windows paths steps;
    Printf.sprintf
      "{\"name\": \"compiled:launcher-step\", \"ns_per_step\": %.1f, \
       \"ns_per_step_min\": %.1f, \"ns_per_step_max\": %.1f, \
       \"minor_words_per_step\": %.1f, \"windows\": %d, \"paths\": %d, \
       \"steps\": %.0f, \"cores\": 1}"
      (med ns) ns.(0)
      ns.(windows - 1)
      (med words) windows paths steps
  in
  (* watchdog overhead: the supervised kernel (all three per-path
     budgets armed) against the same unsupervised compiled kernel; the
     robustness layer's contract is <= 5%.  Measured as best-of-7 over
     paired batches rather than from the OLS rows above: on a ~650 ns
     kernel the run-to-run OLS spread is larger than the effect. *)
  let watchdog_overhead =
    (* not reduced by [--quick]: smaller batches are noisier than the
       effect being measured, and 9 interleaved pairs still finish in
       about a second *)
    let batch = 100_000 in
    let time_batch f =
      let t0 = Unix.gettimeofday () in
      for i = 1 to batch do
        f (Int64.of_int i)
      done;
      Unix.gettimeofday () -. t0
    in
    (* warm up, then interleave the two kernels batch by batch so CPU
       frequency drift hits both alike; best-of-9 discards the spikes *)
    ignore (time_batch nominal_c);
    ignore (time_batch nominal_sup);
    let base = ref infinity and sup = ref infinity in
    for _ = 1 to 9 do
      base := Float.min !base (time_batch nominal_c);
      sup := Float.min !sup (time_batch nominal_sup)
    done;
    let base = !base and sup = !sup in
    let pct = 100.0 *. (sup -. base) /. base in
    Fmt.pr "  %-45s %13.2f%%@." "watchdog overhead (supervised vs compiled)" pct;
    Some pct
  in
  (* observability overhead: each compiled one-path kernel measured with
     metrics collection off (the default: every firing costs one branch
     on an absent cell, exactly what an uninstrumented campaign pays)
     and on (per-worker counters and log2 histograms live).  Same paired
     interleaved best-of-9 protocol as the watchdog measurement, and for
     the same reason: the effect is smaller than the OLS run-to-run
     spread.  The disabled-path cost itself is tracked by the plain
     *-compiled OLS rows above, whose names (and so their history in
     BENCH_sim.json) predate the instrumentation. *)
  let obs_overheads =
    let module M = Slimsim_obs.Metrics in
    (* the cell is made once, outside the timed region, like the
       engine does at worker spawn (made while metrics are off, it is
       not registered, which costs its recording nothing) *)
    let cell = Slimsim_sim.Path.obs_cell ~worker:0 in
    let measure (label, kernel, batch) =
      let time_batch f =
        let t0 = Unix.gettimeofday () in
        for i = 1 to batch do
          f (Int64.of_int i)
        done;
        Unix.gettimeofday () -. t0
      in
      let off seed = kernel ?obs:None seed in
      let on seed = kernel ?obs:(Some cell) seed in
      ignore (time_batch off);
      M.set_enabled true;
      ignore (time_batch on);
      M.set_enabled false;
      let toff = ref infinity and ton = ref infinity in
      for _ = 1 to 9 do
        toff := Float.min !toff (time_batch off);
        M.set_enabled true;
        ton := Float.min !ton (time_batch on);
        M.set_enabled false
      done;
      let pct = 100.0 *. (!ton -. !toff) /. !toff in
      Fmt.pr "  %-45s %13.2f%%@." ("obs overhead: " ^ label) pct;
      (label, pct)
    in
    let overheads =
      List.map measure
        [
          ("sensor-filter-compiled", sf2_c, 20_000);
          ("gps-progressive-compiled", gps_c, 30_000);
          ("gps-nominal-compiled", nominal_c, 100_000);
        ]
    in
    M.reset ();
    overheads
  in
  let overhead_rows =
    (match watchdog_overhead with
    | Some pct -> [ ("supervision:watchdog-overhead", pct) ]
    | None -> [])
    @ List.map
        (fun (label, pct) -> ("observability:obs-overhead-" ^ label, pct))
        obs_overheads
  in
  (* multilevel vs single-level total cost at the same (delta, eps): the
     multilevel campaign's model cost (paths × per-path cost, in
     full-resolution-path units) against the Chernoff plan (every path
     at full resolution, unit cost each).  The sample schedule is a
     deterministic function of the seed, so the ratio is a stable
     contract, not a flaky measurement; the >= 2x floor is the
     optimization's reason to exist. *)
  let mlmc_rows =
    let delta = 0.05 and eps = 0.02 in
    let levels = 4 in
    let r =
      match
        Slimsim_sim.Mlmc_run.create ~seed:42L ~levels nominal_net
          ~goal:nominal_goal ~horizon:300.0 ~strategy:Strategy.Asap ~delta ~eps
          ()
      with
      | Error e -> failwith (Slimsim_sim.Path.error_to_string e)
      | Ok c -> (
        match Slimsim_sim.Mlmc_run.drive c with
        | Ok r -> r
        | Error e -> failwith (Slimsim_sim.Path.error_to_string e))
    in
    let open Slimsim_sim.Mlmc_run in
    let chernoff_cost =
      float_of_int (Slimsim_stats.Bound.chernoff_samples ~delta ~eps)
    in
    let ratio = chernoff_cost /. r.model_cost in
    Fmt.pr "  %-45s %11.3f s %14.1f paths/s@." "mlmc: gps-nominal (4 levels)"
      r.wall_seconds
      (float_of_int r.paths /. r.wall_seconds);
    Fmt.pr "  %-45s %13.1f (%a samples)@." "mlmc: model cost (full-path units)"
      r.model_cost
      Fmt.(array ~sep:(any "/") int)
      r.samples_per_level;
    Fmt.pr "  %-45s %13.2fx %s@." "mlmc: cost ratio vs chernoff" ratio
      (if ratio >= 2.0 then "[contract >=2x: OK]" else "[contract >=2x: FAIL]");
    if ratio < 2.0 then
      failwith
        (Printf.sprintf
           "mlmc cost contract violated: %.2fx < 2x vs chernoff (cost %.1f vs %.1f)"
           ratio r.model_cost chernoff_cost);
    [
      Printf.sprintf
        "{\"name\": \"mlmc:gps-nominal\", \"model_cost\": %.1f, \"paths\": %d, \
         \"paths_per_sec\": %.1f, \"wall_s\": %.3f, \"levels\": %d, \"cores\": 1}"
        r.model_cost r.paths
        (float_of_int r.paths /. r.wall_seconds)
        r.wall_seconds levels;
      Printf.sprintf
        "{\"name\": \"mlmc:gps-nominal-cost-ratio\", \"chernoff_cost\": %.1f, \
         \"mlmc_cost\": %.1f, \"ratio\": %.2f, \"cores\": 1}"
        chernoff_cost r.model_cost ratio;
    ]
  in
  (* priced-STA overhead: the same fixed-N Chernoff campaign on gps
     nominal run plain and with the E[cost] accumulator attached.  The
     cost extraction is post-verdict and draws no randomness, so both
     runs simulate the identical path set and the verdict counts must
     agree exactly; the wall-clock delta is the cost of the extra
     accumulator work.  Under Asap the measurement fires at x = 10 on
     every path, so the mean is an exact contract, not an estimate. *)
  let cost_rows =
    let delta = 0.05 and eps = 0.02 in
    let cost_var =
      match Slimsim_props.Pattern.resolve_cost nominal_net "x" with
      | Ok v -> v
      | Error e -> failwith ("cost bench: " ^ e)
    in
    let run_plain () =
      let generator =
        Slimsim_stats.Generator.create Slimsim_stats.Generator.Chernoff ~delta
          ~eps
      in
      match
        Slimsim_sim.Campaign.create ~seed:42L nominal_net ~goal:nominal_goal
          ~horizon:300.0 ~strategy:Strategy.Asap ~generator ()
      with
      | Error e -> failwith (Slimsim_sim.Path.error_to_string e)
      | Ok c -> (
        match Slimsim_sim.Campaign.drive c with
        | Ok r -> r
        | Error e -> failwith (Slimsim_sim.Path.error_to_string e))
    in
    let run_cost () =
      match
        Slimsim_sim.Cost_run.create ~seed:42L nominal_net ~goal:nominal_goal
          ~horizon:300.0 ~strategy:Strategy.Asap ~cost_var
          ~query:"E[x ; <> [0, 300] measurement]"
          ~kind:Slimsim_stats.Generator.Chernoff ~delta ~eps ()
      with
      | Error e -> failwith (Slimsim_sim.Path.error_to_string e)
      | Ok c -> (
        match Slimsim_sim.Cost_run.drive c with
        | Ok r -> r
        | Error e -> failwith (Slimsim_sim.Path.error_to_string e))
    in
    (* interleaved best-of-3 so drift hits both variants equally *)
    let plain_best = ref infinity and cost_best = ref infinity in
    let last_plain = ref (run_plain ()) and last_cost = ref (run_cost ()) in
    for _ = 1 to 3 do
      let rp = run_plain () in
      plain_best :=
        Float.min !plain_best rp.Slimsim_sim.Campaign.wall_seconds;
      last_plain := rp;
      let rc = run_cost () in
      cost_best :=
        Float.min !cost_best
          rc.Slimsim_sim.Cost_run.reach.Slimsim_sim.Campaign.wall_seconds;
      last_cost := rc
    done;
    let rp = !last_plain and rc = !last_cost in
    let open Slimsim_sim in
    if
      rp.Campaign.successes <> rc.Cost_run.reach.Campaign.successes
      || rp.Campaign.paths <> rc.Cost_run.reach.Campaign.paths
    then
      failwith
        (Printf.sprintf
           "cost bench: verdict stream diverged (plain %d/%d vs cost %d/%d)"
           rp.Campaign.successes rp.Campaign.paths
           rc.Cost_run.reach.Campaign.successes rc.Cost_run.reach.Campaign.paths);
    if Float.abs (rc.Cost_run.cost_mean -. 10.0) > 1e-6 then
      failwith
        (Printf.sprintf "cost bench: E[x] = %.9f, expected exactly 10 (Asap)"
           rc.Cost_run.cost_mean);
    let overhead_pct = (!cost_best -. !plain_best) /. !plain_best *. 100.0 in
    Fmt.pr "  %-45s %11.3f s %14.1f paths/s@." "cost: gps-nominal E[x] (chernoff)"
      !cost_best
      (float_of_int rc.Cost_run.reach.Campaign.paths /. !cost_best);
    Fmt.pr "  %-45s %13.4f (%d sat paths)@." "cost: E[x] at the goal"
      rc.Cost_run.cost_mean rc.Cost_run.cost_samples;
    Fmt.pr "  %-45s %12.1f%% vs plain reachability@." "cost: accumulator overhead"
      overhead_pct;
    [
      Printf.sprintf
        "{\"name\": \"cost:gps-nominal\", \"mean\": %.4f, \"paths\": %d, \
         \"sat_paths\": %d, \"paths_per_sec\": %.1f, \"wall_s\": %.3f, \
         \"overhead_pct\": %.1f, \"cores\": 1}"
        rc.Cost_run.cost_mean rc.Cost_run.reach.Campaign.paths
        rc.Cost_run.cost_samples
        (float_of_int rc.Cost_run.reach.Campaign.paths /. !cost_best)
        !cost_best overhead_pct;
    ]
  in
  (* distributed throughput: the same full-gps campaign driven through
     coordinator + worker processes at 1 and 2 workers.  Fixed-N
     Chernoff, so every run simulates the identical path set and the
     wall-clock ratio is pure scaling; best-of-3 discards spawn noise.
     The dist layer's contract is >= 1.7x at 2 workers — only checkable
     with at least 2 cores, so the row records the core count, and on a
     single-CPU host (where the measured ratio is the layer's overhead,
     not its scaling) it records the reason it was skipped instead of a
     figure. *)
  let cores = Domain.recommended_domain_count () in
  let speedup_row name speedup =
    if cores < 2 then
      Printf.sprintf
        "{\"name\": %S, \"skipped\": \"%d cpu: a 2-worker speedup needs 2 cores\"}"
        name cores
    else
      Printf.sprintf "{\"name\": %S, \"speedup\": %.2f, \"cores\": %d}" name
        speedup cores
  in
  (* eps sets the fixed Chernoff N: ~40k paths quick, ~160k full *)
  let eps = if quick then 0.0192 else 0.0096 in
  let dist_rows =
    let bin =
      match Sys.getenv_opt "SLIMSIM_BIN" with
      | Some b -> b
      | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/slimsim_cli.exe"
    in
    if not (Sys.file_exists bin) then begin
      Fmt.pr "  dist: worker binary %s not built, skipping@." bin;
      []
    end
    else begin
      let module C = Slimsim_dist.Coordinator in
      let job =
        {
          C.model_source = Gps.source;
          property = Printf.sprintf "P(<> [0, 300] %s)" Gps.goal_no_fix;
          strategy = "asap";
          engine = "compiled";
          seed = 1L;
          on_error = `Abort;
          max_steps = 1_000_000;
          max_sim_time = None;
          max_wall_per_path = None;
          on_deadlock = "falsify";
        }
      in
      let measure workers =
        let cfg = C.config ~workers ~worker_cmd:[| bin; "work" |] () in
        let best = ref infinity and paths = ref 0 in
        for _ = 1 to if quick then 1 else 3 do
          let generator =
            Slimsim_stats.Generator.create Slimsim_stats.Generator.Chernoff
              ~delta:0.05 ~eps
          in
          let t0 = Unix.gettimeofday () in
          match C.run cfg job ~generator with
          | Ok o ->
            best := Float.min !best (Unix.gettimeofday () -. t0);
            paths := o.C.result.Slimsim_sim.Campaign.paths
          | Error e ->
            failwith
              ("dist bench run failed: " ^ Slimsim_sim.Path.error_to_string e)
        done;
        (!best, !paths)
      in
      let w1, n1 = measure 1 in
      let w2, n2 = measure 2 in
      if n1 <> n2 then
        failwith
          (Printf.sprintf "dist bench: path counts differ (%d vs %d)" n1 n2);
      let speedup = w1 /. w2 in
      Fmt.pr "  %-45s %11.3f s %14.1f paths/s@." "dist: gps-full --distribute 1"
        w1
        (float_of_int n1 /. w1);
      Fmt.pr "  %-45s %11.3f s %14.1f paths/s@." "dist: gps-full --distribute 2"
        w2
        (float_of_int n2 /. w2);
      Fmt.pr "  %-45s %13.2fx %s@." "dist: 2-worker speedup" speedup
        (if cores < 2 then
           Printf.sprintf "[contract >=1.7x: skipped, %d cpu]" cores
         else if speedup >= 1.7 then "[contract >=1.7x: OK]"
         else "[contract >=1.7x: FAIL]");
      if cores >= 2 && speedup < 1.7 then
        failwith
          (Printf.sprintf
             "dist scaling contract violated: %.2fx < 1.7x at 2 workers on %d cores"
             speedup cores);
      [
        Printf.sprintf
          "{\"name\": \"dist:gps-full-distribute-1\", \"paths_per_sec\": %.1f, \"wall_s\": %.3f, \"cores\": 1}"
          (float_of_int n1 /. w1)
          w1;
        Printf.sprintf
          "{\"name\": \"dist:gps-full-distribute-2\", \"paths_per_sec\": %.1f, \"wall_s\": %.3f, \"cores\": 2}"
          (float_of_int n2 /. w2)
          w2;
        speedup_row "dist:gps-full-distribute-2-speedup" speedup;
      ]
    end
  in
  (* The same campaign on in-process worker domains, -j 1 against -j 2:
     recorded next to the distributed ratio, with the same skip rule and
     no contract. *)
  let par_rows =
    let property = Printf.sprintf "P(<> [0, 300] %s)" Gps.goal_no_fix in
    let measure workers =
      let best = ref infinity and paths = ref 0 in
      for _ = 1 to if quick then 1 else 3 do
        let t0 = Unix.gettimeofday () in
        let r =
          check_ok
            (Slimsim.check ~workers ~seed:1L full_gps ~property
               ~strategy:Strategy.Asap ~delta:0.05 ~eps ())
        in
        best := Float.min !best (Unix.gettimeofday () -. t0);
        paths := r.Slimsim.paths
      done;
      (!best, !paths)
    in
    let w1, n1 = measure 1 in
    let w2, n2 = measure 2 in
    if n1 <> n2 then
      failwith (Printf.sprintf "par bench: path counts differ (%d vs %d)" n1 n2);
    Fmt.pr "  %-45s %13.2fx (-j 1 %.3f s, -j 2 %.3f s)@."
      "par: gps-full -j 2 speedup" (w1 /. w2) w1 w2;
    [ speedup_row "par:gps-full-j2-speedup" (w1 /. w2) ]
  in
  (* the pre-pass contract: each bundled-model analysis completes in
     under 10 ms (best-of-5 to discard first-run allocation noise), so
     running it by default before every campaign is free in practice *)
  List.iter
    (fun (label, net, goal) ->
      let best = ref infinity in
      for _ = 1 to 5 do
        let r = Slimsim_analyze.Prepass.analyze net ~goal in
        best := Float.min !best r.Slimsim_analyze.Prepass.wall_seconds
      done;
      let ms = 1e3 *. !best in
      Fmt.pr "  %-45s %11.3f ms %s@."
        ("prepass wall: " ^ label)
        ms
        (if ms < 10.0 then "[contract <10ms: OK]" else "[contract <10ms: FAIL]");
      if ms >= 10.0 then
        failwith
          (Printf.sprintf "prepass contract violated on %s: %.3f ms >= 10 ms"
             label ms))
    [
      ("sensor-filter", sf2_net, sf2_goal);
      ("gps-full", Slimsim.network full_gps, gps_goal);
    ];
  if json then begin
    let oc = open_out "BENCH_sim.json" in
    let pr fmt = Printf.fprintf oc fmt in
    pr "[\n";
    let extra_rows =
      (launcher_step_row :: mlmc_rows) @ cost_rows @ dist_rows @ par_rows
    in
    List.iteri
      (fun i (name, ns, per_sec, wall) ->
        (* one-path kernels are single-threaded by construction *)
        pr "  {\"name\": %S, \"ns_per_run\": %.1f, \"paths_per_sec\": %.1f, \"wall_s\": %.3f, \"cores\": 1}%s\n"
          name ns per_sec wall
          (if i < List.length rows - 1 || overhead_rows <> [] || extra_rows <> []
           then ","
           else ""))
      rows;
    List.iteri
      (fun i (name, pct) ->
        pr "  {\"name\": %S, \"overhead_pct\": %.2f}%s\n" name pct
          (if i < List.length overhead_rows - 1 || extra_rows <> [] then ","
           else ""))
      overhead_rows;
    List.iteri
      (fun i row ->
        pr "  %s%s\n" row
          (if i < List.length extra_rows - 1 then "," else ""))
      extra_rows;
    pr "]\n";
    close_out oc;
    Fmt.pr "  wrote BENCH_sim.json (%d kernels)@." (List.length rows)
  end

(* ------------------------------------------------------------------ *)

let all =
  [ "table1"; "fig5"; "gps"; "epsilon"; "parallel"; "lumping"; "deadlock";
    "rare"; "safety"; "micro" ]

let run ~quick ~json = function
  | "table1" -> table1 ()
  | "fig5" -> fig5 ()
  | "gps" -> gps ()
  | "epsilon" -> epsilon ()
  | "parallel" -> parallel ()
  | "lumping" -> lumping ()
  | "deadlock" -> deadlock ()
  | "rare" -> rare ()
  | "safety" -> safety ()
  | "micro" -> micro ~quick ~json ()
  | other -> failwith ("unknown experiment: " ^ other)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--quick" && a <> "--json") args in
  let selected = if args = [] then all else args in
  List.iter (run ~quick ~json) selected;
  line ();
  Fmt.pr "done.@."
