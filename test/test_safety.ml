(* Tests for the safety-analysis artifacts: minimal cut sets, fault-tree
   evaluation, and FMEA rows. *)

module Cutsets = Slimsim_safety.Cutsets
module Fmea = Slimsim_safety.Fmea
module Fdir = Slimsim_safety.Fdir
module Sf = Slimsim_models.Sensor_filter

let load = Fixture.load
let goal = Fixture.goal

let names cs = List.map (fun e -> e.Cutsets.be_label) cs

let test_basic_events () =
  let net = load (Sf.source ~n:2) in
  let events = Cutsets.basic_events net in
  Alcotest.(check int) "four failure modes" 4 (List.length events);
  List.iter
    (fun e -> Alcotest.(check bool) "positive rate" true (e.Cutsets.be_rate > 0.0))
    events

let test_sensor_filter_cut_sets () =
  let net = load (Sf.source ~n:2) in
  let g = goal net Sf.goal_exhausted in
  match Cutsets.minimal_cut_sets net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok sets ->
    Alcotest.(check int) "two minimal cut sets" 2 (List.length sets);
    List.iter
      (fun cs -> Alcotest.(check int) "order two" 2 (List.length cs))
      sets;
    (* each set stays within one bank *)
    List.iter
      (fun cs ->
        let labels = names cs in
        let all_sensors =
          List.for_all (fun l -> String.length l > 7 && String.sub l 0 7 = "sensors") labels
        and all_filters =
          List.for_all (fun l -> String.length l > 7 && String.sub l 0 7 = "filters") labels
        in
        Alcotest.(check bool) "bank-homogeneous" true (all_sensors || all_filters))
      sets

let test_top_probability_matches_closed_form () =
  let n = 2 in
  let net = load (Sf.source ~n) in
  let g = goal net Sf.goal_exhausted in
  match Cutsets.minimal_cut_sets net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok sets ->
    List.iter
      (fun horizon ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "exact at horizon %g" horizon)
          (Sf.closed_form ~n ~horizon)
          (Cutsets.top_probability sets ~horizon))
      [ 100.0; 1800.0; 100000.0 ]

let test_minimality () =
  (* a model where a single fault already fails the system: the pair
     must not appear as a cut set *)
  let src =
    {|
device D
features
  ok_sig: out data port bool := true;
end D;
device implementation D.I
modes
  run: initial mode;
end D.I;

error model F
states
  ok: initial state;
  dead: state;
events
  fail: occurrence poisson 0.1;
transitions
  ok -[fail]-> dead;
end F;

system Main
end Main;
system implementation Main.Imp
subcomponents
  d1: device D.I;
  d2: device D.I;
end Main.Imp;

extend d1 with F
injections
  inject dead: ok_sig := false;
end extend;

extend d2 with F
injections
  inject dead: ok_sig := false;
end extend;

root Main.Imp;
|}
  in
  let net = load src in
  let g = goal net "not d1.ok_sig" in
  match Cutsets.minimal_cut_sets net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok sets ->
    Alcotest.(check int) "single minimal cut set" 1 (List.length sets);
    Alcotest.(check int) "of order one" 1 (List.length (List.hd sets))

let test_goal_true_initially () =
  let net = load (Sf.source ~n:1) in
  let g = goal net "true" in
  match Cutsets.minimal_cut_sets net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok sets -> Alcotest.(check bool) "empty cut set" true (sets = [ [] ])

let test_unreachable_goal () =
  let net = load (Sf.source ~n:2) in
  let g = goal net "sensors.s1.value = 7" in
  match Cutsets.minimal_cut_sets ~max_order:4 net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok sets -> Alcotest.(check int) "no cut sets" 0 (List.length sets)

let test_fault_tree_dot () =
  let net = load (Sf.source ~n:1) in
  let g = goal net Sf.goal_exhausted in
  match Cutsets.fault_tree net ~goal:g ~top:"failure" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let dot = Cutsets.to_dot t in
    Alcotest.(check bool) "digraph wrapper" true
      (Astring_contains.contains dot "digraph fault_tree");
    Alcotest.(check bool) "has an AND gate" true (Astring_contains.contains dot "AND");
    Alcotest.(check bool) "has the top event" true (Astring_contains.contains dot "failure")

let test_fmea_rows () =
  let net = load (Sf.source ~n:2) in
  let g = goal net Sf.goal_exhausted in
  match Fmea.analyze net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok rows ->
    Alcotest.(check int) "one row per failure mode" 4 (List.length rows);
    List.iter
      (fun (r : Fmea.row) ->
        Alcotest.(check bool) "single faults are tolerated" false r.leads_to_failure;
        Alcotest.(check bool) "observed value changed" true (r.local_effects <> []))
      rows

let test_fmea_single_point_of_failure () =
  let net = load (Sf.source ~n:1) in
  let g = goal net Sf.goal_exhausted in
  match Fmea.analyze net ~goal:g with
  | Error e -> Alcotest.fail e
  | Ok rows ->
    List.iter
      (fun (r : Fmea.row) ->
        Alcotest.(check bool)
          (r.component ^ " is a single point of failure at n=1")
          true r.leads_to_failure)
      rows

(* A two-step error chain, ok -> degraded -> failed: the second step is
   not enabled in the initial configuration, so neither analysis injects
   it there. *)
let wear_chain =
  {|device Pump
features
  flow: out data port int := 2;
end Pump;

device implementation Pump.Imp
end Pump.Imp;

error model Wear
states
  ok: initial state;
  degraded: state;
  failed: state;
events
  wear: occurrence poisson 0.01;
  burst: occurrence poisson 0.02;
transitions
  ok -[wear]-> degraded;
  degraded -[burst]-> failed;
end Wear;

system Plant
end Plant;

system implementation Plant.Imp
subcomponents
  pump: device Pump.Imp;
end Plant.Imp;

extend pump with Wear
injections
  inject degraded: flow := 1;
  inject failed: flow := 0;
end extend;

root Plant.Imp;
|}

let test_fmea_error_chain () =
  let net = load wear_chain in
  match Fmea.analyze net ~goal:(goal net "pump.flow = 0") with
  | Error e -> Alcotest.fail e
  | Ok [ wear; burst ] ->
    Alcotest.(check bool) "ok -> degraded enabled" true wear.Fmea.enabled;
    Alcotest.(check (list (triple string string string)))
      "its effect" [ ("pump.flow#inj", "2", "1") ] wear.Fmea.local_effects;
    Alcotest.(check bool) "degraded -> failed not enabled" false burst.Fmea.enabled;
    Alcotest.(check bool) "so not injected" true (burst.Fmea.local_effects = []);
    Alcotest.(check bool) "and no system failure" false burst.Fmea.leads_to_failure
  | Ok rows -> Alcotest.failf "%d rows, expected 2" (List.length rows)

let test_fdir_error_chain () =
  let net = load wear_chain in
  match Fdir.analyze net ~observables:[ "pump.flow" ] with
  | Error e -> Alcotest.fail e
  | Ok [ wear; burst ] ->
    Alcotest.(check bool) "ok -> degraded enabled" true wear.Fdir.enabled;
    Alcotest.(check (list (pair string string)))
      "its signature" [ ("pump.flow", "1") ] wear.Fdir.signature;
    Alcotest.(check bool) "isolated" true wear.Fdir.isolated;
    Alcotest.(check bool) "degraded -> failed not enabled" false burst.Fdir.enabled;
    Alcotest.(check bool) "so not detected" false burst.Fdir.detected
  | Ok vs -> Alcotest.failf "%d verdicts, expected 2" (List.length vs)

(* --- FDIR --- *)

let test_fdir_gps () =
  let net = load Slimsim_models.Gps.source in
  match Fdir.analyze ~settle_time:150.0 net ~observables:[ "gps.measurement" ] with
  | Error e -> Alcotest.fail e
  | Ok verdicts ->
    Alcotest.(check int) "three failure modes" 3 (List.length verdicts);
    let by_label frag =
      List.find
        (fun (v : Fdir.verdict) ->
          Astring_contains.contains v.event.Cutsets.be_label frag)
        verdicts
    in
    List.iter
      (fun (v : Fdir.verdict) ->
        Alcotest.(check bool) "every fault is detected" true v.detected;
        (* all three faults have the same signature: indistinguishable *)
        Alcotest.(check bool) "faults are not isolable" false v.isolated)
      verdicts;
    Alcotest.(check bool) "hot fault recovers by restart" true
      (by_label "hot").Fdir.recovered;
    Alcotest.(check bool) "transient fault recovers (self-heal in settle)" true
      (by_label "transient").Fdir.recovered;
    Alcotest.(check bool) "permanent fault does not recover" false
      (by_label "dead").Fdir.recovered

let test_fdir_isolation () =
  (* distinct observables per component make the faults isolable *)
  let net = load (Sf.source ~n:2) in
  match
    Fdir.analyze net
      ~observables:
        [ "sensors.s1.value"; "sensors.s2.value"; "filters.f1.value"; "filters.f2.value" ]
  with
  | Error e -> Alcotest.fail e
  | Ok verdicts ->
    List.iter
      (fun (v : Fdir.verdict) ->
        Alcotest.(check bool) "detected" true v.detected;
        Alcotest.(check bool) "isolated by its own port" true v.isolated;
        (* no reset machinery in this model: nothing recovers *)
        Alcotest.(check bool) "no recovery without resets" false v.recovered)
      verdicts

let test_fdir_unknown_observable () =
  let net = load (Sf.source ~n:1) in
  match Fdir.analyze net ~observables:[ "bogus.port" ] with
  | Error e ->
    Alcotest.(check bool) "mentions the name" true
      (Astring_contains.contains e "bogus.port")
  | Ok _ -> Alcotest.fail "expected an error"

(* --- diagnosability --- *)

let test_diagnosable_with_rich_observables () =
  let net = load (Sf.source ~n:2) in
  let diagnosis = goal net "sensors.s1 in mode failed" in
  match
    Slimsim_safety.Diagnosability.check net
      ~observables:
        [ "sensors.s1.value"; "sensors.s2.value"; "filters.f1.value"; "filters.f2.value" ]
      ~diagnosis
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "diagnosable" true r.Slimsim_safety.Diagnosability.diagnosable;
    Alcotest.(check int) "no ambiguities" 0
      (List.length r.Slimsim_safety.Diagnosability.ambiguities)

let test_not_diagnosable_with_shared_observable () =
  (* the GPS fault types all look the same through one observable *)
  let net = load Slimsim_models.Gps.source in
  let diagnosis = goal net "gps in mode hot" in
  match
    Slimsim_safety.Diagnosability.check net ~observables:[ "gps.measurement" ]
      ~diagnosis
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "not diagnosable" false
      r.Slimsim_safety.Diagnosability.diagnosable;
    Alcotest.(check bool) "an ambiguity is reported" true
      (r.Slimsim_safety.Diagnosability.ambiguities <> [])

let test_diagnosability_unknown_observable () =
  let net = load (Sf.source ~n:1) in
  let diagnosis = goal net "true" in
  Alcotest.(check bool) "unknown observable rejected" true
    (Result.is_error
       (Slimsim_safety.Diagnosability.check net ~observables:[ "zz" ] ~diagnosis))

(* --- dot export --- *)

let test_dot_automaton () =
  let net = load Slimsim_models.Gps.source in
  let p = Option.get (Slimsim_sta.Network.find_proc net "gps#GPSFail") in
  let dot = Slimsim_sta.Dot.automaton net p in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true
        (Astring_contains.contains dot frag))
    [ "digraph"; "transient"; "rate 0.01"; "reset:gps"; "init ->" ]

let test_dot_network () =
  let net = load Slimsim_models.Gps.source in
  let dot = Slimsim_sta.Dot.network net in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true
        (Astring_contains.contains dot frag))
    [ "digraph network"; "gps#GPSFail"; "main" ]

(* The initial closure branches into three stable states that one
   observation cannot tell apart.  A closure's stable states are
   numbered last found first, and a class reports its lowest-numbered
   states: c, found last, is the negative witness, not b. *)
let test_diagnosability_witness_order () =
  let net =
    load
      {|
device D
features
  o: out data port int [0, 1] := 0;
end D;
device implementation D.I
modes
  s: initial mode;
  a: mode;
  b: mode;
  c: mode;
transitions
  s -[then o := 1]-> a;
  s -[then o := 1]-> b;
  s -[then o := 1]-> c;
end D.I;
root D.I;
|}
  in
  let diagnosis = goal net "main in mode a" in
  match Slimsim_safety.Diagnosability.check net ~observables:[ "o" ] ~diagnosis with
  | Ok r ->
    Alcotest.(check string) "report"
      "NOT diagnosable (3 states, 1 observation classes)\n\
       ambiguous observation {o=1}:\n\
      \  diagnosis holds:   main@a\n\
      \  diagnosis fails:   main@c\n"
      (Fmt.str "%a" Slimsim_safety.Diagnosability.pp_report r)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "basic events" `Quick test_basic_events;
    Alcotest.test_case "sensor-filter cut sets" `Quick test_sensor_filter_cut_sets;
    Alcotest.test_case "top probability = closed form" `Quick
      test_top_probability_matches_closed_form;
    Alcotest.test_case "minimality" `Quick test_minimality;
    Alcotest.test_case "goal true initially" `Quick test_goal_true_initially;
    Alcotest.test_case "unreachable goal" `Quick test_unreachable_goal;
    Alcotest.test_case "fault tree dot export" `Quick test_fault_tree_dot;
    Alcotest.test_case "fmea rows" `Quick test_fmea_rows;
    Alcotest.test_case "fmea single point of failure" `Quick
      test_fmea_single_point_of_failure;
    Alcotest.test_case "fdir on the gps" `Quick test_fdir_gps;
    Alcotest.test_case "fdir isolation" `Quick test_fdir_isolation;
    Alcotest.test_case "fdir unknown observable" `Quick test_fdir_unknown_observable;
    Alcotest.test_case "diagnosable with rich observables" `Quick
      test_diagnosable_with_rich_observables;
    Alcotest.test_case "not diagnosable through one observable" `Quick
      test_not_diagnosable_with_shared_observable;
    Alcotest.test_case "diagnosability unknown observable" `Quick
      test_diagnosability_unknown_observable;
    Alcotest.test_case "dot automaton" `Quick test_dot_automaton;
    Alcotest.test_case "dot network" `Quick test_dot_network;
    Alcotest.test_case "diagnosability witnesses, last found first" `Quick
      test_diagnosability_witness_order;
    Alcotest.test_case "fmea on an error chain" `Quick test_fmea_error_chain;
    Alcotest.test_case "fdir on an error chain" `Quick test_fdir_error_chain;
  ]
