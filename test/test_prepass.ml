(* The qualitative pre-pass: certificate soundness against actual
   sampling (a P=0 certificate means no seed can produce a Sat path, a
   P=1 certificate means no seed can produce an Unsat one), the
   simulate short-circuit shape and its escape hatches, the
   bit-identical-when-inconclusive guarantee, the I002/I003 property
   lint, the bounded invariant counterexamples, and the enumeration
   type that feeds the abstract domains. *)

module S = Slimsim
module Prepass = Slimsim_analyze.Prepass
module Qualitative = Slimsim_ctmc.Qualitative
module Strategy = Slimsim_sim.Strategy
module Diag = Slimsim_analyze.Diagnostic

let load src =
  match S.load_string src with
  | Ok m -> m
  | Error e -> Alcotest.failf "model load failed: %s" e

let check ?prepass ?seed ?max_wall_per_path m ~property =
  match
    S.check ?prepass ?seed ?max_wall_per_path m ~property
      ~strategy:Strategy.Asap ~delta:0.05 ~eps:0.1 ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "check failed: %s" e

(* A tiny birth-death chain: q walks on {0, 1, 2} under exponential
   races, so any goal over reachable values of q is genuinely
   probabilistic (inconclusive), while goals outside the domain are
   provably vacuous. *)
let queue_src =
  {|
system Q
features
  q: out data port int [0, 2] := 0;
end Q;
system implementation Q.Imp
modes
  a: initial mode;
  b: mode;
  c: mode;
transitions
  a -[rate 1.0 then q := 1]-> b;
  b -[rate 1.0 then q := 2]-> c;
  b -[rate 1.0 then q := 0]-> a;
  c -[rate 1.0 then q := 1]-> b;
end Q.Imp;
root Q.Imp;
|}

(* A delay-free certainty: the initial mode's invariant pins time at 0
   and the only move sets the goal flag, so every run under every
   strategy hits the goal instantly. *)
let sure_src =
  {|
device D
features
  done: out data port bool := false;
end D;
device implementation D.I
subcomponents
  x: data clock;
modes
  a: initial mode while x <= 0.0;
  b: mode;
transitions
  a -[then done := true]-> b;
end D.I;
root D.I;
|}

(* --- P=0: certificate shape and soundness --- *)

let test_p0_shortcut () =
  let m = load queue_src in
  let r = check m ~property:"P(<> [0, 50] q < 0)" in
  Alcotest.(check (option string)) "certificate" (Some "P0") r.S.certificate;
  Alcotest.(check int) "no paths sampled" 0 r.S.paths;
  Alcotest.(check (float 0.0)) "p = 0" 0.0 r.S.probability;
  Alcotest.(check (float 0.0)) "zero-width low" 0.0 r.S.ci_low;
  Alcotest.(check (float 0.0)) "zero-width high" 0.0 r.S.ci_high

let test_p0_sound () =
  (* the certificate claims no run can satisfy the goal: sampling with
     the pre-pass disabled must agree on every seed *)
  let m = load queue_src in
  List.iter
    (fun seed ->
      let r = check ~prepass:false ~seed m ~property:"P(<> [0, 50] q < 0)" in
      Alcotest.(check (option string)) "no certificate" None r.S.certificate;
      Alcotest.(check bool) "paths sampled" true (r.S.paths > 0);
      Alcotest.(check int)
        (Printf.sprintf "zero Sat paths at seed %Ld" seed)
        0 r.S.successes)
    [ 1L; 42L; 1337L ]

(* --- P=1: certificate shape, soundness and the watchdog gate --- *)

let test_p1_shortcut () =
  let m = load sure_src in
  let r = check m ~property:"P(<> [0, 10] done)" in
  Alcotest.(check (option string)) "certificate" (Some "P1") r.S.certificate;
  Alcotest.(check int) "no paths sampled" 0 r.S.paths;
  Alcotest.(check (float 0.0)) "p = 1" 1.0 r.S.probability;
  Alcotest.(check (float 0.0)) "zero-width low" 1.0 r.S.ci_low;
  Alcotest.(check (float 0.0)) "zero-width high" 1.0 r.S.ci_high

let test_p1_sound () =
  let m = load sure_src in
  List.iter
    (fun seed ->
      let r = check ~prepass:false ~seed m ~property:"P(<> [0, 10] done)" in
      Alcotest.(check (option string)) "no certificate" None r.S.certificate;
      Alcotest.(check bool) "paths sampled" true (r.S.paths > 0);
      Alcotest.(check int)
        (Printf.sprintf "zero Unsat paths at seed %Ld" seed)
        r.S.paths r.S.successes)
    [ 1L; 42L; 1337L ]

let test_p1_wall_gate () =
  (* a wall-clock watchdog could reclassify paths the certificate
     counts as successes, so its presence falls back to sampling *)
  let m = load sure_src in
  let r =
    check ~max_wall_per_path:1000.0 m ~property:"P(<> [0, 10] done)"
  in
  Alcotest.(check (option string)) "no certificate" None r.S.certificate;
  Alcotest.(check bool) "paths sampled" true (r.S.paths > 0);
  Alcotest.(check (float 0.0)) "still p = 1" 1.0 r.S.probability

(* --- P=1: the certificate itself, pinned --- *)

(* Delay-free branches that rejoin: a fires into b, c or straight into
   d (n = 2 in all three ways to d), and d sets the goal flag in e, the
   one mode where time can pass. *)
let rejoin_src =
  {|
device D
features
  done: out data port bool := false;
  n: out data port int [0, 2] := 0;
end D;
device implementation D.I
subcomponents
  x: data clock;
modes
  a: initial mode while x <= 0.0;
  b: mode while x <= 0.0;
  c: mode while x <= 0.0;
  d: mode while x <= 0.0;
  e: mode;
transitions
  a -[then n := 1]-> b;
  a -[then n := 1]-> c;
  a -[then n := 2]-> d;
  b -[then n := 2]-> d;
  c -[then n := 2]-> d;
  d -[then done := true]-> e;
end D.I;
root D.I;
|}

(* Time pinned at 0 in every mode: [a] fires into [stuck], which has no
   move, or into [b], and [a] and [b] fire into each other forever. *)
let cycle_src =
  {|
device D
features
  done: out data port bool := false;
end D;
device implementation D.I
subcomponents
  x: data clock;
modes
  a: initial mode while x <= 0.0;
  b: mode while x <= 0.0;
  stuck: mode while x <= 0.0;
transitions
  a -[]-> stuck;
  a -[]-> b;
  b -[]-> a;
end D.I;
root D.I;
|}

let test_p1_pinned () =
  let certainty ?max_states ?hold src goal =
    let net = S.network (load src) in
    let hold = Option.map (Fixture.goal net) hold in
    match Qualitative.certain_reachability ?max_states ?hold net ~goal:(Fixture.goal net goal) with
    | Ok (Qualitative.Sure { states; depth; witness }) ->
      Printf.sprintf "sure: %d states, depth %d, witness [%s]" states depth
        (String.concat "; " witness)
    | Ok (Qualitative.Not_sure { reason }) -> "not sure: " ^ reason
    | Error e -> "error: " ^ e
  in
  List.iter
    (fun (name, got, want) -> Alcotest.(check string) name want got)
    [
      ( "one move",
        certainty sure_src "done",
        "sure: 2 states, depth 1, witness [main: a -> b]" );
      ( "branch and rejoin",
        certainty rejoin_src "done",
        "sure: 5 states, depth 3, witness [main: a -> b; main: b -> d; main: d -> e]" );
      ("goal at the start", certainty rejoin_src "n = 0", "sure: 1 states, depth 0, witness []");
      ("race", certainty queue_src "q = 2", "not sure: exponential race before the goal");
      ( "time can elapse",
        certainty rejoin_src "n = 3",
        "not sure: time can elapse before the goal" );
      ("deadlock", certainty cycle_src "done", "not sure: deadlock before the goal");
      ( "goal-free cycle",
        certainty cycle_src "main in mode stuck",
        "not sure: goal-free cycle in the delay-free closure" );
      ( "hold fails",
        certainty ~hold:"n = 0" rejoin_src "done",
        "not sure: hold condition fails before the goal" );
      ( "state budget",
        certainty ~max_states:3 rejoin_src "done",
        "not sure: state budget exceeded" );
    ]

(* --- complement mapping on invariance patterns --- *)

let test_complement_mapping () =
  let m = load queue_src in
  (* [] safe with safe surely true: raw goal (not safe) is vacuous *)
  let r = check m ~property:"P([] [0, 50] q >= 0)" in
  Alcotest.(check (option string)) "invariant holds" (Some "P1") r.S.certificate;
  Alcotest.(check (float 0.0)) "p = 1" 1.0 r.S.probability;
  (* [] false: the negated goal is surely reached immediately *)
  let r = check m ~property:"P([] [0, 50] false)" in
  Alcotest.(check (option string)) "vacuous invariant" (Some "P0") r.S.certificate;
  Alcotest.(check (float 0.0)) "p = 0" 0.0 r.S.probability

(* --- inconclusive: the campaign must be bit-identical --- *)

let test_inconclusive_bit_identical () =
  let m = load queue_src in
  let property = "P(<> [0, 5] q = 2)" in
  List.iter
    (fun seed ->
      let with_pp = check ~seed m ~property in
      let without = check ~prepass:false ~seed m ~property in
      Alcotest.(check (option string)) "no certificate" None with_pp.S.certificate;
      Alcotest.(check bool) "estimates identical"
        true
        (with_pp.S.probability = without.S.probability
        && with_pp.S.ci_low = without.S.ci_low
        && with_pp.S.ci_high = without.S.ci_high
        && with_pp.S.paths = without.S.paths
        && with_pp.S.successes = without.S.successes
        && with_pp.S.deadlock_paths = without.S.deadlock_paths))
    [ 1L; 42L; 1337L ]

(* --- the raw pre-pass API and outcome shapes --- *)

let test_prepass_api () =
  let m = load sure_src in
  (match S.prepass m ~property:"P(<> [0, 10] done)" with
  | Ok (report, complement) ->
    Alcotest.(check bool) "not a complement" false complement;
    (match report.Prepass.outcome with
    | Prepass.P1 { depth; witness; _ } ->
      Alcotest.(check bool) "positive depth" true (depth >= 1);
      Alcotest.(check bool) "witness trace" true (witness <> [])
    | o -> Alcotest.failf "expected P1, got %a" Prepass.pp_outcome o)
  | Error e -> Alcotest.failf "prepass: %s" e);
  let m = load queue_src in
  (match S.prepass m ~property:"P(<> [0, 50] q < 0)" with
  | Ok (report, _) -> (
    match report.Prepass.outcome with
    | Prepass.P0 { states } -> Alcotest.(check bool) "explored" true (states >= 1)
    | o -> Alcotest.failf "expected P0, got %a" Prepass.pp_outcome o)
  | Error e -> Alcotest.failf "prepass: %s" e);
  match S.prepass m ~property:"P(<> [0, 50] q = 2)" with
  | Ok (report, _) -> (
    match report.Prepass.outcome with
    | Prepass.Inconclusive { reason } ->
      Alcotest.(check bool) "has reason" true (reason <> "")
    | o -> Alcotest.failf "expected inconclusive, got %a" Prepass.pp_outcome o)
  | Error e -> Alcotest.failf "prepass: %s" e

(* --- the I002/I003 property lint --- *)

let test_lint_property () =
  let m = load sure_src in
  (match S.lint_property m ~property:"P(<> [0, 10] done)" with
  | [ d ] ->
    Alcotest.(check string) "certain code" "I002" d.Diag.code;
    Alcotest.(check bool) "witness attached" true (d.Diag.trace <> [])
  | ds -> Alcotest.failf "expected one I002, got:\n%s" (Diag.render_text ds));
  (* the P=0 invariance case: the witness is a concrete violation *)
  (match S.lint_property m ~property:"P([] [0, 10] not done)" with
  | [ d ] ->
    Alcotest.(check string) "vacuous code" "I003" d.Diag.code;
    Alcotest.(check bool) "violation trace attached" true (d.Diag.trace <> [])
  | ds -> Alcotest.failf "expected one I003, got:\n%s" (Diag.render_text ds));
  let m = load queue_src in
  (match S.lint_property m ~property:"P(<> [0, 50] q = 2)" with
  | [] -> ()
  | ds -> Alcotest.failf "inconclusive must stay quiet:\n%s" (Diag.render_text ds));
  match S.lint_property m ~property:"P(<> [0, 50] nonsense)" with
  | [ d ] -> Alcotest.(check string) "parse error code" "E000" d.Diag.code
  | ds -> Alcotest.failf "expected one E000, got:\n%s" (Diag.render_text ds)

(* --- bounded invariant counterexamples (Qualitative satellite) --- *)

let chain_src =
  {|
system C
features
  n: out data port int [0, 5] := 0;
end C;
system implementation C.Imp
modes
  m0: initial mode;
  m1: mode;
  m2: mode;
  m3: mode;
  m4: mode;
transitions
  m0 -[rate 1.0 then n := 1]-> m1;
  m1 -[rate 1.0 then n := 2]-> m2;
  m2 -[rate 1.0 then n := 3]-> m3;
  m3 -[rate 1.0 then n := 4]-> m4;
end C.Imp;
root C.Imp;
|}

let test_invariant_trace_bounded () =
  let m = load chain_src in
  let net = S.network m in
  let prop =
    match Slimsim_slim.Loader.parse_goal net "n < 4" with
    | Ok p -> p
    | Error e -> Alcotest.failf "goal: %s" e
  in
  (match Qualitative.check_invariant ~max_trace:2 net ~prop with
  | Ok (Qualitative.Violated { trace; truncated; locs; _ }) ->
    Alcotest.(check int) "trace bounded" 2 (List.length trace);
    (* the violation needs 4 steps; keeping 2 drops 2 *)
    Alcotest.(check int) "dropped prefix counted" 2 truncated;
    Alcotest.(check bool) "location vector reported" true (locs <> [])
  | Ok o -> Alcotest.failf "expected violation, got %a" Qualitative.pp_outcome o
  | Error e -> Alcotest.failf "check_invariant: %s" e);
  match Qualitative.check_invariant net ~prop:(Slimsim_sta.Expr.bool true) with
  | Ok (Qualitative.Holds _) -> ()
  | Ok o -> Alcotest.failf "expected holds, got %a" Qualitative.pp_outcome o
  | Error e -> Alcotest.failf "check_invariant: %s" e

(* --- the enumeration type --- *)

let enum_src =
  {|
device D
features
  st: out data port enum (ok, warn, broken) := ok;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
  c: mode;
transitions
  a -[rate 1.0 then st := warn]-> b;
  b -[rate 1.0 then st := broken]-> c;
end D.I;
root D.I;
|}

let test_enum_frontend () =
  let m = load enum_src in
  (* literals resolve in properties, and an initially-true enum goal is
     certified P=1 through the finite-set abstract domain *)
  let r = check m ~property:"P(<> [0, 100] st = ok)" in
  Alcotest.(check (option string)) "init value certified" (Some "P1")
    r.S.certificate;
  (* a reachable non-initial value stays genuinely probabilistic *)
  let r = check ~seed:3L m ~property:"P(<> [0, 100] st = broken)" in
  Alcotest.(check (option string)) "probabilistic" None r.S.certificate;
  Alcotest.(check bool) "mostly reached" true (r.S.probability > 0.9)

let test_enum_errors () =
  let fails msg src =
    match S.load_string src with
    | Ok _ -> Alcotest.failf "%s: expected a load failure" msg
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: informative message (%s)" msg e)
        true
        (String.length e > 0)
  in
  (* one literal in two different enumerations *)
  fails "ambiguous literal"
    {|
device D
features
  a: out data port enum (x, y) := x;
  b: out data port enum (x, z) := x;
end D;
device implementation D.I
modes
  m0: initial mode;
end D.I;
root D.I;
|};
  (* arithmetic over an enumeration value *)
  fails "enum arithmetic"
    {|
device D
features
  st: out data port enum (ok, bad) := ok;
  o: out data port bool := false;
end D;
device implementation D.I
modes
  m0: initial mode;
  m1: mode;
transitions
  m0 -[when st + 1 = 1 then o := true]-> m1;
end D.I;
root D.I;
|};
  (* ordering comparisons are not defined on enumerations *)
  fails "enum ordering"
    {|
device D
features
  st: out data port enum (ok, bad) := ok;
  o: out data port bool := false;
end D;
device implementation D.I
modes
  m0: initial mode;
  m1: mode;
transitions
  m0 -[when st < bad then o := true]-> m1;
end D.I;
root D.I;
|}

let suite =
  [
    Alcotest.test_case "P0: short-circuit shape" `Quick test_p0_shortcut;
    Alcotest.test_case "P0: sound over seeds" `Quick test_p0_sound;
    Alcotest.test_case "P1: short-circuit shape" `Quick test_p1_shortcut;
    Alcotest.test_case "P1: sound over seeds" `Quick test_p1_sound;
    Alcotest.test_case "P1: wall watchdog disables shortcut" `Quick
      test_p1_wall_gate;
    Alcotest.test_case "complement mapping" `Quick test_complement_mapping;
    Alcotest.test_case "inconclusive: bit-identical campaign" `Quick
      test_inconclusive_bit_identical;
    Alcotest.test_case "prepass API outcomes" `Quick test_prepass_api;
    Alcotest.test_case "lint --property: I002/I003" `Quick test_lint_property;
    Alcotest.test_case "invariant counterexample bounded" `Quick
      test_invariant_trace_bounded;
    Alcotest.test_case "enum: frontend to certificate" `Quick test_enum_frontend;
    Alcotest.test_case "enum: rejected misuse" `Quick test_enum_errors;
    Alcotest.test_case "P1: certificate pinned" `Quick test_p1_pinned;
  ]
