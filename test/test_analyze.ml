(* Static-analysis tests: for every diagnostic code one fixture that
   triggers it and one nearby fixture that stays quiet, plus the JSON
   golden output and the guarantee that the bundled models lint clean. *)

module Lint = Slimsim_analyze.Lint
module Diag = Slimsim_analyze.Diagnostic

let codes diags = List.map (fun (d : Diag.t) -> d.Diag.code) diags
let has code diags = List.mem code (codes diags)

let fires name code src =
  let diags = Lint.lint_string src in
  if not (has code diags) then
    Alcotest.failf "%s: expected %s, got:\n%s" name code
      (Diag.render_text diags)

let quiet name code src =
  let diags = Lint.lint_string src in
  if has code diags then
    Alcotest.failf "%s: did not expect %s, got:\n%s" name code
      (Diag.render_text diags)

(* --- W001 / I001: guards decided by the variable domains --- *)

let guard_model cond =
  Printf.sprintf
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  x: data int [0, 3] := 0;
modes
  a: initial mode;
  b: mode;
transitions
  a -[when %s then o := true]-> b;
  b -[then o := false]-> a;
end D.I;
root D.I;
|}
    cond

let test_dead_transition () =
  fires "x > 5 outside [0,3]" "W001" (guard_model "x > 5");
  fires "constant false guard" "W001" (guard_model "false");
  quiet "x > 2 satisfiable" "W001" (guard_model "x > 2")

let test_constant_guard () =
  fires "x >= 0 over [0,3]" "I001" (guard_model "x >= 0");
  quiet "x > 1 not constant" "I001" (guard_model "x > 1")

(* --- W002: unreachable modes and error states --- *)

let mode_model transitions =
  Printf.sprintf
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
%s
end D.I;
root D.I;
|}
    transitions

let test_unreachable_mode () =
  fires "no transition enters b" "W002"
    (mode_model "  a -[then o := true]-> a;");
  quiet "a -> b makes b reachable" "W002"
    (mode_model "  a -[then o := true]-> b;\n  b -[then o := false]-> a;")

let error_state_model transitions =
  Printf.sprintf
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
end D.I;
error model EM
states
  ok: initial state;
  stray: state;
events
  e: occurrence poisson 0.1;
transitions
%s
end EM;
system Main
end Main;
system implementation Main.Imp
subcomponents
  d: device D.I;
modes
  m: initial mode;
transitions
  m -[when d.o]-> m;
end Main.Imp;
extend d with EM
injections
  inject stray: o := true;
end extend;
root Main.Imp;
|}
    transitions

let test_unreachable_error_state () =
  fires "no transition enters stray" "W002"
    (error_state_model "  ok -[e]-> ok;");
  quiet "ok -> stray reachable" "W002" (error_state_model "  ok -[e]-> stray;")

(* --- W003: declarations nothing ever reads --- *)

let test_unused_declaration () =
  fires "port and subcomponent never used" "W003"
    {|
device D
features
  o: out data port bool := false;
  dead_p: out data port int := 0;
end D;
device implementation D.I
subcomponents
  unused_x: data int := 0;
modes
  a: initial mode;
transitions
  a -[then o := true]-> a;
end D.I;
root D.I;
|};
  quiet "everything read somewhere" "W003"
    {|
device D
features
  o: out data port bool := false;
  live_p: out data port int := 0;
end D;
device implementation D.I
subcomponents
  live_x: data int := 0;
flows
  live_p := live_x + 1;
modes
  a: initial mode;
transitions
  a -[when live_x < 1 then o := true]-> a;
end D.I;
root D.I;
|}

(* --- W004: event groups without a communication partner --- *)

let test_unsynchronized_event () =
  (* an in event port nobody drives: the translation guards the
     receiving transitions with constant false *)
  fires "in event without sender" "W004"
    {|
device D
features
  kick: in event port;
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[kick then o := true]-> b;
end D.I;
root D.I;
|};
  (* an out event port nobody listens to still fires, but alone *)
  fires "out event without receiver" "W004"
    {|
device D
features
  fire: out event port;
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
transitions
  a -[fire then o := true]-> a;
end D.I;
root D.I;
|};
  quiet "connected sender and receiver" "W004"
    {|
device A
features
  fire: out event port;
end A;
device implementation A.I
modes
  a: initial mode;
transitions
  a -[fire]-> a;
end A.I;
device B
features
  hear: in event port;
  o: out data port bool := false;
end B;
device implementation B.I
modes
  a: initial mode;
transitions
  a -[hear then o := true]-> a;
end B.I;
system S
end S;
system implementation S.I
subcomponents
  p: device A.I;
  q: device B.I;
connections
  p.fire -> q.hear;
modes
  m: initial mode;
transitions
  m -[when q.o]-> m;
end S.I;
root S.I;
|}

let test_net_unreachable_location () =
  (* AST-level reachability believes 'b' is reachable via the 'kick'
     transition; only the translated network knows the event is dead *)
  let src =
    {|
device D
features
  kick: in event port;
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[kick then o := true]-> b;
end D.I;
root D.I;
|}
  in
  let diags = Lint.lint_string src in
  let net_w002 =
    List.exists
      (fun (d : Diag.t) ->
        d.Diag.code = "W002"
        && Astring_contains.contains d.Diag.msg "translated network")
      diags
  in
  Alcotest.(check bool) "net-level W002 fires" true net_w002

(* --- W005: reads of uninitialized variables --- *)

let uninit_model init =
  Printf.sprintf
    {|
device D
features
  o: out data port int := 0;
end D;
device implementation D.I
subcomponents
  x: data int%s;
modes
  a: initial mode;
flows
  o := x + 1;
end D.I;
root D.I;
|}
    init

let test_uninitialized_read () =
  fires "read without initializer" "W005" (uninit_model "");
  quiet "initializer present" "W005" (uninit_model " := 0")

(* --- W006: invariants that diverge or time-lock --- *)

let test_divergent_invariant () =
  (* continuous variable with default derivative 0: the upper bound can
     never become tight *)
  fires "bound above, derivative 0" "W006"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  t: data continuous := 0.0;
modes
  a: initial mode while t <= 5.0;
  b: mode;
transitions
  a -[when t >= 5.0 then o := true]-> b;
end D.I;
root D.I;
|};
  (* clock invariant that will expire with no way out: certain
     time-lock *)
  fires "expiring invariant with no exit" "W006"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  a: initial mode while c <= 5.0;
transitions
  a -[when false then o := true]-> a;
end D.I;
root D.I;
|};
  quiet "clock bound with an escape" "W006"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  a: initial mode while c <= 5.0;
  b: mode;
transitions
  a -[when c >= 1.0 then o := true]-> b;
end D.I;
root D.I;
|}

(* --- W007: cycles a simulation can spin through at one time instant --- *)

let test_unbounded_dwell () =
  (* pure Tau cycle: the canonical Zeno model *)
  let zeno =
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[]-> b;
  b -[then o := true]-> a;
end D.I;
root D.I;
|}
  in
  fires "tau cycle" "W007" zeno;
  (match
     List.find_opt
       (fun (d : Diag.t) -> d.Diag.code = "W007")
       (Lint.lint_string zeno)
   with
  | Some d ->
    Alcotest.(check bool) "cross-references the watchdog flags" true
      (Astring_contains.contains d.Diag.msg "--max-steps"
      && Astring_contains.contains d.Diag.msg "--max-wall-per-path")
  | None -> Alcotest.fail "W007 expected");
  (* a guard over a frozen discrete variable cannot be flipped by a
     delay, so the cycle is still timeless *)
  fires "frozen discrete guard" "W007"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  n: data int [0, 3] := 0;
modes
  a: initial mode;
  b: mode;
transitions
  a -[when n < 3 then o := true]-> b;
  b -[]-> a;
end D.I;
root D.I;
|};
  (* an exponential exit anchors the location to the clock *)
  quiet "markovian exit" "W007"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 1.0 then o := true]-> b;
  b -[]-> a;
end D.I;
root D.I;
|};
  (* a guard reading a clock is time-anchored *)
  quiet "time-anchored guard" "W007"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  a: initial mode;
  b: mode;
transitions
  a -[when c >= 1.0 then o := true]-> b;
  b -[]-> a;
end D.I;
root D.I;
|};
  (* the self-limiting latch: firing falsifies its own guard *)
  quiet "self-limiting latch" "W007"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
subcomponents
  seen: data bool := false;
modes
  a: initial mode;
  b: mode;
transitions
  a -[when not seen then seen := true]-> a;
  a -[when seen then o := true]-> b;
end D.I;
root D.I;
|}

(* --- E000 / E001: front-end failures as diagnostics --- *)

let test_frontend_errors () =
  fires "parse error" "E000" "this is not a model";
  (let diags = Lint.lint_string "this is not a model" in
   match diags with
   | [ d ] ->
     Alcotest.(check bool) "parse error severity" true
       (d.Diag.severity = Diag.Error)
   | _ -> Alcotest.failf "expected one diagnostic:\n%s" (Diag.render_text diags));
  fires "semantic error" "E001"
    {|
device D
features
  o: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
transitions
  a -[when nosuch > 1]-> a;
end D.I;
root D.I;
|}

(* --- severity plumbing --- *)

let test_severity () =
  let diags = Lint.lint_string (guard_model "x > 5") in
  Alcotest.(check bool) "warnings present" true
    (Diag.max_severity diags = Some Diag.Warning);
  Alcotest.(check bool) "fails at warning threshold" true
    (Diag.exceeds ~threshold:Diag.Warning diags);
  Alcotest.(check bool) "passes at error threshold" false
    (Diag.exceeds ~threshold:Diag.Error diags);
  Alcotest.(check bool) "info counts at info threshold" true
    (Diag.exceeds ~threshold:Diag.Info diags)

(* --- golden JSON output --- *)

let test_json_golden () =
  let diags = Lint.lint_string (uninit_model "") in
  let expected =
    "{\"diagnostics\": [\n\
    \  {\"code\": \"W005\", \"severity\": \"warning\", \"line\": 8, \"col\": \
     3, \"message\": \"data subcomponent \\\"x\\\" of D.I is read but has no \
     initializer; it silently starts from the type default\"}\n\
     ], \"summary\": {\"errors\": 0, \"warnings\": 1, \"infos\": 0}}"
  in
  Alcotest.(check string) "json shape" expected (Diag.render_json diags)

let test_json_empty () =
  Alcotest.(check string) "empty json"
    "{\"diagnostics\": [], \"summary\": {\"errors\": 0, \"warnings\": 0, \
     \"infos\": 0}}"
    (Diag.render_json [])

(* --- the bundled models lint clean --- *)

let test_bundled_models_clean () =
  List.iter
    (fun (name, src) ->
      match Lint.lint_string src with
      | [] -> ()
      | ds -> Alcotest.failf "%s:\n%s" name (Diag.render_text ds))
    [
      ("gps", Slimsim_models.Gps.source);
      ("gps-nominal", Slimsim_models.Gps.nominal_only);
      ("sensor-filter-2", Slimsim_models.Sensor_filter.source ~n:2);
      ("sensor-filter-4", Slimsim_models.Sensor_filter.source ~n:4);
      ("sensor-filter-timed", Slimsim_models.Sensor_filter.timed_source ~n:2);
      ("launcher-permanent", Slimsim_models.Launcher.source ~variant:`Permanent);
      ( "launcher-recoverable",
        Slimsim_models.Launcher.source ~variant:`Recoverable );
      ( "queue",
        Slimsim_models.Queue_model.source ~arrival:0.8 ~service:1.0 ~capacity:4
      );
      ( "queue-20",
        Slimsim_models.Queue_model.source ~arrival:0.8 ~service:1.0 ~capacity:20
      );
    ]

let suite =
  [
    Alcotest.test_case "dead transition (W001)" `Quick test_dead_transition;
    Alcotest.test_case "constant guard (I001)" `Quick test_constant_guard;
    Alcotest.test_case "unreachable mode (W002)" `Quick test_unreachable_mode;
    Alcotest.test_case "unreachable error state (W002)" `Quick
      test_unreachable_error_state;
    Alcotest.test_case "unused declaration (W003)" `Quick
      test_unused_declaration;
    Alcotest.test_case "unsynchronized event (W004)" `Quick
      test_unsynchronized_event;
    Alcotest.test_case "net-level unreachable location (W002)" `Quick
      test_net_unreachable_location;
    Alcotest.test_case "uninitialized read (W005)" `Quick
      test_uninitialized_read;
    Alcotest.test_case "divergent invariant (W006)" `Quick
      test_divergent_invariant;
    Alcotest.test_case "unbounded dwell (W007)" `Quick test_unbounded_dwell;
    Alcotest.test_case "front-end errors (E000/E001)" `Quick
      test_frontend_errors;
    Alcotest.test_case "severity thresholds" `Quick test_severity;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "json empty" `Quick test_json_empty;
    Alcotest.test_case "bundled models lint clean" `Quick
      test_bundled_models_clean;
  ]
