(* Feature tests: error propagation (auto-connection between related
   error models, §II-D), dynamic reconfiguration ([in modes] activation
   with resume/restart), and the M/M/1/K queueing model as a further
   simulator-vs-CTMC cross-validation. *)

module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Generator = Slimsim_stats.Generator
module Analysis = Slimsim_ctmc.Analysis

let load = Fixture.load
let goal = Fixture.goal

(* --- error propagation --- *)

let propagation_model =
  {|
device D
features
  sig_ok: out data port bool := true;
end D;
device implementation D.I
modes
  run: initial mode;
end D.I;

error model Src
states
  ok: initial state;
  failed: state;
events
  e: occurrence poisson 0.5;
propagations
  alarm: out propagation;
transitions
  ok -[e]-> failed;
  failed -[alarm]-> failed;
end Src;

error model Dst
states
  ok: initial state;
  poisoned: state;
propagations
  alarm: in propagation;
transitions
  ok -[alarm]-> poisoned;
end Dst;

system Main
end Main;
system implementation Main.Imp
subcomponents
  a: device D.I;
  b: device D.I;
end Main.Imp;

extend a with Src
injections
  inject failed: sig_ok := false;
end extend;

extend b with Dst
injections
  inject poisoned: sig_ok := false;
end extend;

root Main.Imp;
|}

let test_propagation_between_siblings () =
  let net = load propagation_model in
  let g = goal net "b in mode poisoned" in
  (* the propagation fires as soon as the source fails: P = 1 - e^{-0.5 t} *)
  let horizon = 3.0 in
  let generator = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.02 in
  (match Fixture.run net ~goal:g ~horizon ~strategy:Strategy.Asap ~generator () with
  | Ok r ->
    let expected = 1.0 -. exp (-0.5 *. horizon) in
    Alcotest.(check bool) "simulator matches the source's law" true
      (Float.abs (r.Campaign.probability -. expected) < 0.02)
  | Error e -> Alcotest.fail (Path.error_to_string e));
  (* and the CTMC pipeline agrees exactly *)
  match Analysis.check net ~goal:g ~horizon with
  | Ok r ->
    Alcotest.(check (float 1e-8)) "exact pipeline"
      (1.0 -. exp (-0.5 *. horizon))
      r.Analysis.probability
  | Error e -> Alcotest.fail e

let test_propagation_without_source_is_dead () =
  (* an in propagation with no related out propagation can never fire *)
  let src =
    {|
device D
features
  sig_ok: out data port bool := true;
end D;
device implementation D.I
modes
  run: initial mode;
end D.I;

error model Dst
states
  ok: initial state;
  poisoned: state;
propagations
  alarm: in propagation;
transitions
  ok -[alarm]-> poisoned;
end Dst;

system Main
end Main;
system implementation Main.Imp
subcomponents
  b: device D.I;
end Main.Imp;

extend b with Dst
end extend;

root Main.Imp;
|}
  in
  let net = load src in
  let g = goal net "b in mode poisoned" in
  let cfg = Path.default_config ~horizon:100.0 in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:1L ~goal:g) with
  | Ok (Path.Unsat_deadlock | Path.Unsat_horizon) -> ()
  | v ->
    Alcotest.failf "expected the propagation to be dead, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- dynamic reconfiguration --- *)

(* The worker is active only in the parent's 'on' mode; its clock must
   freeze while the parent is 'off'. *)
let reconfig_model ~restart =
  Printf.sprintf
    {|
device Worker
features
  done_flag: out data port bool := false;
end Worker;
device implementation Worker.I
subcomponents
  w: data clock;
modes
  busy: initial mode;
  finished: mode;
transitions
  busy -[when w >= 4.0 then done_flag := true]-> finished;
end Worker.I;

system Main
end Main;
system implementation Main.Imp
subcomponents
  worker: device Worker.I in modes (on)%s;
  t: data clock;
modes
  on: initial mode while t <= 2.0;
  off: mode while t <= 5.0;
  on2: mode;
transitions
  on -[when t >= 2.0]-> off;
  off -[when t >= 5.0]-> on2;
end Main.Imp;

root Main.Imp;
|}
    (if restart then " restart" else "")

let run_to_sat net g =
  let cfg = Path.default_config ~horizon:100.0 in
  fst (Path_oracle.checked net cfg Strategy.Asap ~seed:1L ~goal:g)

let test_reconfiguration_freezes_clock () =
  (* resume semantics: worker runs 0..2 (w reaches 2), freezes 2..5,
     resumes at 5 — wait: 'on2' is not in its activation list, so the
     worker stays frozen and never finishes *)
  let net = load (reconfig_model ~restart:false) in
  let g = goal net "worker.done_flag" in
  match run_to_sat net g with
  | Ok (Path.Unsat_horizon | Path.Unsat_deadlock) -> ()
  | v ->
    Alcotest.failf "worker only active in 'on': expected unsat, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_reconfiguration_activation_windows () =
  (* with the worker active in both 'on' and 'on2' (resume), its clock
     shows 2 when reactivated at t=5 and reaches 4 at t=7 *)
  let src =
    Str.global_replace (Str.regexp_string "in modes (on)") "in modes (on, on2)"
      (reconfig_model ~restart:false)
  in
  let net = load src in
  let g = goal net "worker.done_flag" in
  match run_to_sat net g with
  | Ok (Path.Sat t) ->
    Alcotest.(check (float 1e-6)) "resumes with frozen clock" 7.0 t
  | v ->
    Alcotest.failf "expected sat at 7, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_reconfiguration_restart () =
  (* with restart, reactivation at t=5 resets w to 0: done at t=9 *)
  let src =
    Str.global_replace
      (Str.regexp_string "in modes (on) restart")
      "in modes (on, on2) restart"
      (reconfig_model ~restart:true)
  in
  let net = load src in
  let g = goal net "worker.done_flag" in
  match run_to_sat net g with
  | Ok (Path.Sat t) ->
    Alcotest.(check (float 1e-6)) "restart resets the clock" 9.0 t
  | v ->
    Alcotest.failf "expected sat at 9, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- M/M/1/K queue as a cross-validation substrate --- *)

let test_mm1k_sim_vs_exact () =
  let lambda = 0.8 and mu = 1.0 and k = 4 in
  let src = Slimsim_models.Queue_model.source ~arrival:lambda ~service:mu ~capacity:k in
  let net = load src in
  let g = goal net (Slimsim_models.Queue_model.goal_full ~capacity:k) in
  let horizon = 10.0 in
  let exact =
    match Analysis.check net ~goal:g ~horizon with
    | Ok r -> r.Analysis.probability
    | Error e -> Alcotest.fail e
  in
  let generator = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.02 in
  match Fixture.run net ~goal:g ~horizon ~strategy:Strategy.Asap ~generator () with
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "sim (%.4f) within eps of exact (%.4f)" r.Campaign.probability exact)
      true
      (Float.abs (r.Campaign.probability -. exact) <= 0.02)
  | Error e -> Alcotest.fail (Path.error_to_string e)

let test_mm1k_until () =
  (* P(queue stays below full U [0,T] the server drains it to empty
     after at least one arrival) on both engines *)
  let src = Slimsim_models.Queue_model.source ~arrival:0.5 ~service:1.5 ~capacity:3 in
  let net = load src in
  let g = goal net "served >= 2" in
  let h = goal net "q <= 2" in
  let horizon = 6.0 in
  let exact =
    match Analysis.check ~hold:h net ~goal:g ~horizon with
    | Ok r -> r.Analysis.probability
    | Error e -> Alcotest.fail e
  in
  let generator = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.02 in
  match
    Fixture.run ~hold:h net ~goal:g ~horizon ~strategy:Strategy.Asap ~generator ()
  with
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "until: sim (%.4f) vs exact (%.4f)" r.Campaign.probability exact)
      true
      (Float.abs (r.Campaign.probability -. exact) <= 0.02)
  | Error e -> Alcotest.fail (Path.error_to_string e)

(* --- the timed sensor/filter variant (simulator only) --- *)

let test_timed_sensor_filter () =
  let src = Slimsim_models.Sensor_filter.timed_source ~n:2 in
  let net = load src in
  let g = goal net Slimsim_models.Sensor_filter.goal_exhausted in
  (* the exact chain rejects the timed model, as §IV explains *)
  (match Analysis.check net ~goal:g ~horizon:1800.0 with
  | Error e ->
    Alcotest.(check bool) "rejected as timed" true
      (Astring_contains.contains e "not untimed")
  | Ok _ -> Alcotest.fail "the exact chain must reject timed models");
  (* ASAP detects at the earliest instant: the probability approaches the
     untimed closed form *)
  let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.03 in
  match Fixture.run net ~goal:g ~horizon:1800.0 ~strategy:Strategy.Asap ~generator () with
  | Error e -> Alcotest.fail (Path.error_to_string e)
  | Ok asap ->
    let truth = Slimsim_models.Sensor_filter.closed_form ~n:2 ~horizon:1800.0 in
    Alcotest.(check bool) "asap near the untimed value" true
      (Float.abs (asap.Campaign.probability -. truth) < 0.04);
    (* progressive pays the detection latency: clearly lower *)
    let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.03 in
    (match
       Fixture.run net ~goal:g ~horizon:1800.0 ~strategy:Strategy.Progressive
         ~generator ()
     with
    | Error e -> Alcotest.fail (Path.error_to_string e)
    | Ok prog ->
      Alcotest.(check bool) "progressive clearly below asap" true
        (prog.Campaign.probability < asap.Campaign.probability -. 0.1))

let suite =
  [
    Alcotest.test_case "propagation between siblings" `Slow
      test_propagation_between_siblings;
    Alcotest.test_case "sourceless propagation is dead" `Quick
      test_propagation_without_source_is_dead;
    Alcotest.test_case "reconfiguration freezes clocks" `Quick
      test_reconfiguration_freezes_clock;
    Alcotest.test_case "reconfiguration resume" `Quick
      test_reconfiguration_activation_windows;
    Alcotest.test_case "reconfiguration restart" `Quick test_reconfiguration_restart;
    Alcotest.test_case "timed sensor/filter variant" `Slow test_timed_sensor_filter;
    Alcotest.test_case "mm1k: sim vs exact" `Slow test_mm1k_sim_vs_exact;
    Alcotest.test_case "mm1k: until on both engines" `Slow test_mm1k_until;
  ]
