(* End-to-end tests mirroring the paper's experiments in miniature:
   simulator vs CTMC pipeline vs closed form on the §IV benchmark, and
   the strategy (in)sensitivity claims of Figure 5 on the launcher. *)

module Sf = Slimsim_models.Sensor_filter
module Launcher = Slimsim_models.Launcher

let load src =
  match Slimsim.load_string src with
  | Ok m -> m
  | Error e -> Alcotest.failf "load failed: %s" e

let check_ok = function Ok v -> v | Error e -> Alcotest.failf "failed: %s" e

let test_sensor_filter_three_ways () =
  List.iter
    (fun n ->
      let model = load (Sf.source ~n) in
      let horizon = 1800.0 in
      let property =
        Printf.sprintf "P(<> [0, %g] %s)" horizon (Sf.goal_all_failed ~n)
      in
      let truth = Sf.closed_form ~n ~horizon in
      let exact = check_ok (Slimsim.check_exact model ~property) in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "ctmc = closed form (n=%d)" n)
        truth exact.Slimsim.exact_probability;
      let eps = 0.02 in
      let sim =
        check_ok
          (Slimsim.check model ~property ~strategy:Slimsim.Strategy.Asap
             ~delta:0.05 ~eps ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "simulator within eps of truth (n=%d)" n)
        true
        (Float.abs (sim.Slimsim.probability -. truth) <= eps))
    [ 1; 2 ]

let test_sensor_filter_strategy_independent_goal () =
  (* the value-based failure condition is purely fault-driven, so every
     strategy estimates the same probability *)
  let n = 2 in
  let model = load (Sf.source ~n) in
  let property = Printf.sprintf "P(<> [0, 1800] %s)" (Sf.goal_all_failed ~n) in
  let truth = Sf.closed_form ~n ~horizon:1800.0 in
  List.iter
    (fun strategy ->
      let r =
        check_ok (Slimsim.check model ~property ~strategy ~delta:0.05 ~eps:0.03 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s within eps" (Slimsim.Strategy.to_string strategy))
        true
        (Float.abs (r.Slimsim.probability -. truth) <= 0.03))
    Slimsim.Strategy.all_automated

let test_gps_full_model () =
  let model = load Slimsim_models.Gps.source in
  let property =
    Printf.sprintf "P(<> [0, 300] %s)" Slimsim_models.Gps.goal_no_fix
  in
  (* a fault of any kind occurs with rate 0.015/s; almost every path
     shows one within 300 s and most become visible *)
  let r =
    check_ok
      (Slimsim.check model ~property ~strategy:Slimsim.Strategy.Asap ~delta:0.05
         ~eps:0.02 ())
  in
  Alcotest.(check bool) "fault visible with high probability" true
    (r.Slimsim.probability > 0.9 && r.Slimsim.probability <= 1.0);
  Alcotest.(check int) "no deadlocks in the gps model" 0 r.Slimsim.deadlock_paths

let test_launcher_permanent_strategy_insensitive () =
  (* Figure 5, left: with permanent faults the model is probabilistic/
     deterministic only, so the strategies agree (up to 2 eps) *)
  let model = load (Launcher.source ~variant:`Permanent) in
  let property = Printf.sprintf "P(<> [0, 60] %s)" Launcher.goal_failure in
  let eps = 0.04 in
  let estimates =
    List.map
      (fun strategy ->
        (check_ok (Slimsim.check model ~property ~strategy ~delta:0.1 ~eps ())).Slimsim.probability)
      Slimsim.Strategy.all_automated
  in
  let lo = List.fold_left Float.min 1.0 estimates
  and hi = List.fold_left Float.max 0.0 estimates in
  Alcotest.(check bool) "all strategies agree" true (hi -. lo <= 2.0 *. eps)

let test_launcher_recoverable_strategy_sensitive () =
  (* Figure 5, right: ASAP restarts before the cooldown and performs
     distinctly worse than Progressive *)
  let model = load (Launcher.source ~variant:`Recoverable) in
  let property = Printf.sprintf "P(<> [0, 100] %s)" Launcher.goal_failure in
  let eps = 0.04 in
  let p strategy =
    (check_ok (Slimsim.check model ~property ~strategy ~delta:0.1 ~eps ())).Slimsim.probability
  in
  let asap = p Slimsim.Strategy.Asap in
  let progressive = p Slimsim.Strategy.Progressive in
  Alcotest.(check bool)
    (Printf.sprintf "asap (%.3f) clearly above progressive (%.3f)" asap progressive)
    true
    (asap > progressive +. (2.0 *. eps))

let test_until_sim_vs_exact () =
  (* the simulator and the CTMC pipeline agree on a bounded until *)
  let model = load {|
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
  a -[rate 0.1 then v := 1]-> b;
  b -[rate 0.2 then v := 2]-> c;
end D.I;
root D.I;
|} in
  let property = "P(v <= 1 U [0, 8] v = 2)" in
  let exact = check_ok (Slimsim.check_exact model ~property) in
  let eps = 0.02 in
  let sim =
    check_ok
      (Slimsim.check model ~property ~strategy:Slimsim.Strategy.Asap ~delta:0.05
         ~eps ())
  in
  Alcotest.(check bool) "until agreement" true
    (Float.abs (sim.Slimsim.probability -. exact.Slimsim.exact_probability) <= eps);
  (* a blocked until is zero on both engines *)
  let blocked = "P(v = 0 U [0, 8] v = 2)" in
  let e0 = check_ok (Slimsim.check_exact model ~property:blocked) in
  Alcotest.(check (float 1e-12)) "exact blocked" 0.0 e0.Slimsim.exact_probability;
  let s0 =
    check_ok
      (Slimsim.check model ~property:blocked ~strategy:Slimsim.Strategy.Asap
         ~delta:0.1 ~eps:0.1 ())
  in
  Alcotest.(check (float 1e-12)) "sim blocked" 0.0 s0.Slimsim.probability

let test_invariance_complement () =
  (* P([] [0,u] safe) = 1 - P(<> [0,u] not safe), on both engines *)
  let model = load {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 0.3 then v := true]-> b;
end D.I;
root D.I;
|} in
  let u = 4.0 in
  let expected = exp (-0.3 *. u) in
  let inv = Printf.sprintf "P([] [0, %g] not v)" u in
  let exact = check_ok (Slimsim.check_exact model ~property:inv) in
  Alcotest.(check (float 1e-8)) "exact invariance" expected
    exact.Slimsim.exact_probability;
  let sim =
    check_ok
      (Slimsim.check model ~property:inv ~strategy:Slimsim.Strategy.Asap
         ~delta:0.05 ~eps:0.02 ())
  in
  Alcotest.(check bool) "sim invariance" true
    (Float.abs (sim.Slimsim.probability -. expected) <= 0.02);
  Alcotest.(check bool) "interval stays ordered" true
    (sim.Slimsim.ci_low <= sim.Slimsim.probability
    && sim.Slimsim.probability <= sim.Slimsim.ci_high);
  (* the pattern-style phrasing agrees *)
  let pat =
    check_ok
      (Slimsim.check_exact model
         ~property:(Printf.sprintf "probability that not v throughout %g" u))
  in
  Alcotest.(check (float 1e-12)) "throughout phrasing" exact.Slimsim.exact_probability
    pat.Slimsim.exact_probability

let test_property_syntax_equivalence () =
  let model = load (Sf.source ~n:1) in
  let csl = "P(<> [0, 1800] sensors.exhausted or filters.exhausted)" in
  let pat = "probability that sensors.exhausted or filters.exhausted within 1800" in
  let r1 = check_ok (Slimsim.check_exact model ~property:csl) in
  let r2 = check_ok (Slimsim.check_exact model ~property:pat) in
  Alcotest.(check (float 1e-12)) "both syntaxes agree" r1.Slimsim.exact_probability
    r2.Slimsim.exact_probability

let test_mode_goal_matches_value_goal () =
  (* bank exhaustion (mode-based) and all-units-failed (value-based)
     coincide on stable states, so the exact analyses agree *)
  let n = 2 in
  let model = load (Sf.source ~n) in
  let p1 =
    check_ok
      (Slimsim.check_exact model
         ~property:(Printf.sprintf "P(<> [0, 1800] %s)" Sf.goal_exhausted))
  in
  let p2 =
    check_ok
      (Slimsim.check_exact model
         ~property:(Printf.sprintf "P(<> [0, 1800] %s)" (Sf.goal_all_failed ~n)))
  in
  Alcotest.(check (float 1e-9)) "goals agree" p1.Slimsim.exact_probability
    p2.Slimsim.exact_probability

let test_simulate_one_records_steps () =
  let model = load Slimsim_models.Gps.source in
  let property = "P(<> [0, 100] gps in mode active)" in
  match
    Slimsim.simulate_one model ~property ~strategy:Slimsim.Strategy.Asap ~seed:2L
  with
  | Ok (Slimsim_sim.Path.Sat _, steps) ->
    Alcotest.(check bool) "steps recorded" true (steps <> [])
  | Ok (v, _) -> Alcotest.failf "unexpected %s" (Slimsim_sim.Path.verdict_to_string v)
  | Error e -> Alcotest.fail e

let test_load_errors_are_reported () =
  Alcotest.(check bool) "parse error surfaces" true
    (Result.is_error (Slimsim.load_string "not a model"));
  Alcotest.(check bool) "sema error surfaces" true
    (Result.is_error (Slimsim.load_string "system S\nend S;\nroot S.I;"));
  let model = load (Sf.source ~n:1) in
  Alcotest.(check bool) "property error surfaces" true
    (Result.is_error (Slimsim.check_exact model ~property:"P(nonsense)"))

(* A real written an int holds a real ([test/models/widen.slim]): the
   port initialiser [r := 3] and the update [w := k], with [k] an int
   equal to 3, store 3.0, so [r / 2] and [w / 2] divide reals.  Both
   engines, through the loader's parse, sema and translation. *)
let test_real_written_an_int () =
  let file = List.find Sys.file_exists [ "models/widen.slim"; "test/models/widen.slim" ] in
  let model = check_ok (Slimsim.load_file file) in
  List.iter
    (fun (goal, want) ->
      let property = Printf.sprintf "P(<> [0, 10] %s)" goal in
      let exact = check_ok (Slimsim.check_exact model ~property) in
      Alcotest.(check (float 0.0)) ("exact: " ^ goal) want exact.Slimsim.exact_probability;
      let sim =
        check_ok
          (Slimsim.check model ~property ~strategy:Slimsim.Strategy.Asap ~delta:0.1 ~eps:0.05
             ())
      in
      Alcotest.(check (float 0.0)) ("simulate: " ^ goal) want sim.Slimsim.probability)
    [ ("r / 2 = 1.5", 1.0); ("r / 2 = 1", 0.0); ("w / 2 = 1.5", 1.0); ("w / 2 = 1", 0.0) ]

let suite =
  [
    Alcotest.test_case "sensor-filter: sim vs ctmc vs closed form" `Slow
      test_sensor_filter_three_ways;
    Alcotest.test_case "sensor-filter: strategy independence" `Slow
      test_sensor_filter_strategy_independent_goal;
    Alcotest.test_case "gps full model" `Slow test_gps_full_model;
    Alcotest.test_case "launcher: permanent insensitive (fig5 left)" `Slow
      test_launcher_permanent_strategy_insensitive;
    Alcotest.test_case "launcher: recoverable sensitive (fig5 right)" `Slow
      test_launcher_recoverable_strategy_sensitive;
    Alcotest.test_case "until: sim vs exact" `Slow test_until_sim_vs_exact;
    Alcotest.test_case "invariance complement" `Slow test_invariance_complement;
    Alcotest.test_case "property syntax equivalence" `Quick
      test_property_syntax_equivalence;
    Alcotest.test_case "mode goal = value goal" `Quick test_mode_goal_matches_value_goal;
    Alcotest.test_case "single path recording" `Quick test_simulate_one_records_steps;
    Alcotest.test_case "errors are reported" `Quick test_load_errors_are_reported;
    Alcotest.test_case "a real written an int" `Quick test_real_written_an_int;
  ]
