(* Translation-depth tests: data-flow chains through the hierarchy,
   observed-vs-nominal views of injected ports, alphabet blocking by
   modes, deep resets, variable ownership, and the implicit error-model
   clock machinery. *)

open Slimsim_sta
module Loader = Slimsim_slim.Loader
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy

let load = Fixture.load
let goal = Fixture.goal

let val_of net (s : State.t) name =
  match Network.find_var net name with
  | Some i -> s.State.vals.(i)
  | None -> Alcotest.failf "missing variable %s" name

(* --- data chains through the hierarchy --- *)

let chain_model =
  {|
device Leaf
features
  raw: out data port int := 7;
end Leaf;
device implementation Leaf.I
modes
  run: initial mode;
end Leaf.I;

system Mid
features
  cooked: out data port int := 0;
end Mid;
system implementation Mid.I
subcomponents
  leaf: device Leaf.I;
flows
  cooked := leaf.raw * 2;
end Mid.I;

system Top
features
  final_v: out data port int := 0;
end Top;
system implementation Top.I
subcomponents
  mid: system Mid.I;
flows
  final_v := mid.cooked + 1;
end Top.I;

root Top.I;
|}

let test_flow_chain_through_hierarchy () =
  let net = load chain_model in
  let s = State.initial net in
  Alcotest.(check bool) "leaf value" true
    (Value.equal (val_of net s "mid.leaf.raw") (Value.Int 7));
  Alcotest.(check bool) "mid computes from the leaf" true
    (Value.equal (val_of net s "mid.cooked") (Value.Int 14));
  Alcotest.(check bool) "top computes from mid" true
    (Value.equal (val_of net s "final_v") (Value.Int 15))

(* --- observed vs nominal views of injected ports --- *)

let injection_view_model =
  {|
device D
features
  sig_v: out data port int := 1;
  echoed: out data port int := 0;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  a: initial mode;
  b: mode;
transitions
  -- the component reads its own port: it must see the NOMINAL value
  a -[when c >= 1.0 and sig_v = 1 then echoed := sig_v]-> b;
end D.I;

error model F
states
  ok: initial state;
  bad: state;
events
  e: occurrence poisson 1000.0;
transitions
  ok -[e]-> bad;
end F;

system Consumer
features
  seen: in data port int := 0;
end Consumer;
system implementation Consumer.I
end Consumer.I;

system Main
end Main;
system implementation Main.Imp
subcomponents
  d: device D.I;
  cons: system Consumer.I;
connections
  d.sig_v -> cons.seen;
end Main.Imp;

extend d with F
injections
  inject bad: sig_v := 99;
end extend;

root Main.Imp;
|}

let test_injection_views () =
  let net = load injection_view_model in
  (* run one ASAP path long enough for the rate-1000 fault and the
     t>=1 transition to both fire *)
  let g = goal net "d.echoed = 1" in
  let cfg = Path.default_config ~horizon:5.0 in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:4L ~goal:g) with
  | Ok (Path.Sat t) ->
    Alcotest.(check bool) "own reads stay nominal despite the fault" true (t >= 1.0)
  | v ->
    Alcotest.failf "expected sat, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_injection_consumer_sees_fault () =
  let net = load injection_view_model in
  (* the consumer's connection reads the observed view: 99 after fault *)
  let g = goal net "cons.seen = 99" in
  let cfg = Path.default_config ~horizon:5.0 in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:4L ~goal:g) with
  | Ok (Path.Sat _) -> ()
  | v ->
    Alcotest.failf "expected the consumer to observe the fault, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

let test_injection_property_reads_observed () =
  let net = load injection_view_model in
  (* properties prefer the observed view of an injected port *)
  let g = goal net "d.sig_v = 99" in
  let cfg = Path.default_config ~horizon:5.0 in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:4L ~goal:g) with
  | Ok (Path.Sat _) -> ()
  | v ->
    Alcotest.failf "expected the property to see the injection, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- CSP blocking: an alphabet participant in the wrong mode blocks --- *)

let blocking_model =
  {|
device P
features
  go: out event port;
  fired: out data port bool := false;
end P;
device implementation P.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[go then fired := true]-> b;
end P.I;

device Q
features
  hear: in event port;
end Q;
device implementation Q.I
subcomponents
  c: data clock;
modes
  busy: initial mode while c <= 3.0;
  ready: mode;
  done_: mode;
transitions
  busy -[when c >= 3.0]-> ready;
  ready -[hear]-> done_;
end Q.I;

system S
end S;
system implementation S.I
subcomponents
  p: device P.I;
  q: device Q.I;
connections
  p.go -> q.hear;
end S.I;
root S.I;
|}

let test_alphabet_blocks_by_mode () =
  let net = load blocking_model in
  let g = goal net "p.fired" in
  let cfg = Path.default_config ~horizon:10.0 in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:1L ~goal:g) with
  | Ok (Path.Sat t) ->
    Alcotest.(check (float 1e-6)) "sender waits for the receiver's mode" 3.0 t
  | v ->
    Alcotest.failf "expected sat at 3, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- deep reset: the whole subtree returns to its initial state --- *)

let deep_reset_model =
  {|
device Inner
features
  stage: out data port int := 0;
end Inner;
device implementation Inner.I
subcomponents
  c: data clock;
modes
  s0: initial mode;
  s1: mode;
transitions
  s0 -[when c >= 1.0 then stage := 1]-> s1;
end Inner.I;

system Outer
features
  combo: out data port int := 0;
end Outer;
system implementation Outer.I
subcomponents
  inner: device Inner.I;
flows
  combo := inner.stage * 10;
end Outer.I;

system Main
end Main;
system implementation Main.Imp
subcomponents
  outer: system Outer.I;
  t: data clock;
modes
  run: initial mode;
  again: mode;
transitions
  run -[when t >= 5.0 then reset outer]-> again;
end Main.Imp;
root Main.Imp;
|}

let test_deep_reset () =
  let net = load deep_reset_model in
  (* inner reaches s1/stage=1 at t=1; reset at t=5 returns the whole
     subtree (nominal mode AND owned data) to initial, so stage drops
     back to 0 and can rise to 1 again at t=6 *)
  let g = goal net "main in mode again and outer.combo = 0" in
  let cfg = Path.default_config ~horizon:20.0 in
  (match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:1L ~goal:g) with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-6)) "reset clears the subtree" 5.0 t
  | v ->
    Alcotest.failf "expected sat at 5, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e));
  (* and the inner automaton runs again after the reset *)
  let g2 = goal net "main in mode again and outer.combo = 10" in
  match fst (Path_oracle.checked net cfg Strategy.Asap ~seed:1L ~goal:g2) with
  | Ok (Path.Sat t) -> Alcotest.(check (float 1e-6)) "subtree restarts" 6.0 t
  | v ->
    Alcotest.failf "expected sat at 6, got %s"
      (match v with Ok v -> Path.verdict_to_string v | Error e -> Path.error_to_string e)

(* --- structural facts of the translation --- *)

let test_ownership_and_kinds () =
  let net = load Slimsim_models.Gps.source in
  let var name =
    match Network.find_var net name with
    | Some i -> net.Network.vars.(i)
    | None -> Alcotest.failf "missing %s" name
  in
  let gps = Network.find_proc net "gps" in
  Alcotest.(check bool) "clock owned by its process" true
    ((var "gps.x").Network.owner = gps);
  Alcotest.(check bool) "clock kind" true ((var "gps.x").Network.kind = Network.Clock);
  let err = Network.find_proc net "gps#GPSFail" in
  Alcotest.(check bool) "error timer owned by the error process" true
    ((var "gps#GPSFail.timer").Network.owner = err);
  Alcotest.(check bool) "port is discrete" true
    ((var "gps.measurement").Network.kind = Network.Discrete)

let test_error_timer_invariant () =
  (* the 'within [0.2, 0.3]' sugar puts invariant timer <= 0.3 on the
     transient state and resets the timer on every transition *)
  let net = load Slimsim_models.Gps.source in
  let p = Option.get (Network.find_proc net "gps#GPSFail") in
  let proc = net.Network.procs.(p) in
  let transient = Option.get (Automaton.find_loc proc "transient") in
  Alcotest.(check bool) "transient has a timer invariant" true
    (proc.Automaton.locations.(transient).Automaton.invariant <> Expr.true_);
  let ok = Option.get (Automaton.find_loc proc "ok") in
  Alcotest.(check bool) "markovian state keeps invariant true" true
    (proc.Automaton.locations.(ok).Automaton.invariant = Expr.true_);
  Array.iter
    (fun (tr : Automaton.transition) ->
      Alcotest.(check bool) "every transition resets the implicit clock" true
        (List.exists
           (fun (v, _) -> net.Network.vars.(v).Network.var_name = "gps#GPSFail.timer")
           tr.updates))
    proc.Automaton.transitions

let test_const_initializers () =
  let net =
    load
      {|
device D
features
  v: out data port real := 2.5;
end D;
device implementation D.I
subcomponents
  k: data int := 3 * 4 + 1;
  x: data real := -0.5;
modes
  m: initial mode;
end D.I;
root D.I;
|}
  in
  let s = State.initial net in
  Alcotest.(check bool) "computed int initializer" true
    (Value.equal (val_of net s "k") (Value.Int 13));
  Alcotest.(check bool) "negative real initializer" true
    (Value.equal (val_of net s "x") (Value.Real (-0.5)));
  Alcotest.(check bool) "port default" true
    (Value.equal (val_of net s "v") (Value.Real 2.5))

let test_nonconst_initializer_rejected () =
  let src =
    {|
device D
end D;
device implementation D.I
subcomponents
  a: data int := 1;
  b: data int := a + 1;
modes
  m: initial mode;
end D.I;
root D.I;
|}
  in
  match Loader.load_string src with
  | Error e ->
    Alcotest.(check bool) "mentions constancy" true
      (Astring_contains.contains e "constant")
  | Ok _ -> Alcotest.fail "non-constant initializer must be rejected"

let suite =
  [
    Alcotest.test_case "flow chain through hierarchy" `Quick
      test_flow_chain_through_hierarchy;
    Alcotest.test_case "injection: own reads nominal" `Quick test_injection_views;
    Alcotest.test_case "injection: consumers observe" `Quick
      test_injection_consumer_sees_fault;
    Alcotest.test_case "injection: properties observe" `Quick
      test_injection_property_reads_observed;
    Alcotest.test_case "alphabet blocks by mode" `Quick test_alphabet_blocks_by_mode;
    Alcotest.test_case "deep reset" `Quick test_deep_reset;
    Alcotest.test_case "ownership and kinds" `Quick test_ownership_and_kinds;
    Alcotest.test_case "error timer machinery" `Quick test_error_timer_invariant;
    Alcotest.test_case "constant initializers" `Quick test_const_initializers;
    Alcotest.test_case "non-constant initializer rejected" `Quick
      test_nonconst_initializer_rejected;
  ]
