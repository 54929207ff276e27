(* Cross-checks for the staged compiled core (Slimsim_sta.Compiled):
   property tests comparing compiled closures against the reference
   interpreter on random expressions and states, end-to-end
   verdict-stream equality against the reference path generator
   ([Path_oracle]) on the bundled models, and the campaign-level
   guarantees around error/violation accounting. *)

module Expr = Slimsim_sta.Expr
module Value = Slimsim_sta.Value
module Linear = Slimsim_sta.Linear
module Compiled = Slimsim_sta.Compiled
module I = Slimsim_intervals.Interval_set
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Generator = Slimsim_stats.Generator
module Rng = Slimsim_stats.Rng
module Gen = QCheck2.Gen
module State = Slimsim_sta.State
module Moves = Slimsim_sta.Moves
module Network = Slimsim_sta.Network
module Automaton = Slimsim_sta.Automaton

(* ------------------------------------------------------------------ *)
(* Random expressions and states over a small typed signature          *)

(* Each variable has a declared type: two Booleans, two ints and two
   reals.  Expressions are drawn over it without regard to types, so
   ill-typed ones exercise the evaluation that has no static type. *)
let types = [| Value.Tbool; Value.Tbool; Value.Tint; Value.Tint; Value.Treal; Value.Treal |]
let n_vars = Array.length types
let n_procs = 2
let n_locs = 3

(* Ints reach +-2^62, a few units apart, which a double cannot tell
   apart: an int computed or compared in floats would show.  Sums and
   products wrap, as native ints do. *)
let gen_int =
  Gen.frequency
    [
      (1, Gen.int_range (-4) 4);
      (2, Gen.map2 ( + ) (Gen.oneofl [ max_int - 4; min_int + 4 ]) (Gen.int_range (-4) 4));
    ]
let gen_real = Gen.oneofl [ -2.5; -1.0; -0.25; 0.0; 0.5; 1.0; 3.25 ]

let gen_of_type = function
  | Value.Tbool -> Gen.map (fun b -> Value.Bool b) Gen.bool
  | Value.Tint -> Gen.map (fun n -> Value.Int n) gen_int
  | Value.Treal -> Gen.map (fun x -> Value.Real x) gen_real

let gen_value = Gen.oneof (List.map gen_of_type [ Value.Tbool; Value.Tint; Value.Treal ])

let gen_leaf =
  Gen.oneof
    [
      Gen.map (fun v -> Expr.Const v) gen_value;
      Gen.map (fun v -> Expr.Var v) (Gen.int_range 0 (n_vars - 1));
      Gen.map2
        (fun p l -> Expr.Loc (p, l))
        (Gen.int_range 0 (n_procs - 1))
        (Gen.int_range 0 (n_locs - 1));
    ]

let gen_binop =
  Gen.oneofl
    [
      Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.And; Expr.Or;
      Expr.Implies; Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge;
      Expr.Min; Expr.Max;
    ]

(* Depth-bounded: at most 2^4 = 16 leaves, drawn with no regard to
   types, so that most are ill-typed. *)
let gen_untyped =
  Gen.fix
    (fun self depth ->
      if depth <= 0 then gen_leaf
      else
        Gen.frequency
          [
            (1, gen_leaf);
            ( 2,
              Gen.map2
                (fun op e -> Expr.Unop (op, e))
                (Gen.oneofl [ Expr.Neg; Expr.Not ])
                (self (depth - 1)) );
            ( 4,
              Gen.map3
                (fun op e1 e2 -> Expr.Binop (op, e1, e2))
                gen_binop
                (self (depth - 1))
                (self (depth - 1)) );
            ( 1,
              Gen.map3
                (fun c e1 e2 -> Expr.Ite (c, e1, e2))
                (self (depth - 1))
                (self (depth - 1))
                (self (depth - 1)) );
          ])
    4

let gen_leaf_of_type = function
  | Value.Tbool ->
    Gen.oneof
      [ Gen.map Expr.bool Gen.bool; Gen.map Expr.var (Gen.int_range 0 1);
        Gen.map2 (fun p l -> Expr.Loc (p, l)) (Gen.int_range 0 (n_procs - 1))
          (Gen.int_range 0 (n_locs - 1)) ]
  | Value.Tint -> Gen.oneof [ Gen.map Expr.int gen_int; Gen.map Expr.var (Gen.int_range 2 3) ]
  | Value.Treal -> Gen.oneof [ Gen.map Expr.real gen_real; Gen.map Expr.var (Gen.int_range 4 5) ]

(* An expression of type [ty], depth-bounded, with now and then a leaf
   of any type in place of a typed part, which leaves it ill-typed. *)
let gen_typed =
  Gen.fix (fun self (ty, depth) ->
      let open Gen in
      let sub t = self (t, depth - 1) in
      let num = oneofl [ Value.Tint; Value.Treal ] in
      let bin ops a b = map3 (fun op x y -> Expr.Binop (op, x, y)) (oneofl ops) a b in
      let typed =
        match ty with
        | Value.Tbool ->
          oneof
            [
              map (fun e -> Expr.Unop (Expr.Not, e)) (sub Value.Tbool);
              bin [ Expr.And; Expr.Or; Expr.Implies; Expr.Eq; Expr.Neq ] (sub Value.Tbool)
                (sub Value.Tbool);
              (let* t1 = num and* t2 = num in
               bin [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] (sub t1) (sub t2));
            ]
        | Value.Tint ->
          oneof
            [
              map (fun e -> Expr.Unop (Expr.Neg, e)) (sub Value.Tint);
              bin
                [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Min; Expr.Max ]
                (sub Value.Tint) (sub Value.Tint);
            ]
        | Value.Treal ->
          oneof
            [
              map (fun e -> Expr.Unop (Expr.Neg, e)) (sub Value.Treal);
              (let* t = num and* left = bool in
               let a = sub Value.Treal and b = sub t in
               let ops = [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Min; Expr.Max ] in
               if left then bin ops a b else bin ops b a);
            ]
      in
      if depth <= 0 then gen_leaf_of_type ty
      else
        frequency
          [
            (2, gen_leaf_of_type ty);
            (1, gen_leaf);
            (6, typed);
            (1, map3 (fun c x y -> Expr.Ite (c, x, y)) (sub Value.Tbool) (sub ty) (sub ty));
          ])

(* Half well-typed (of each type in turn) and half untyped. *)
let gen_expr =
  Gen.oneof
    [
      gen_untyped;
      Gen.bind (Gen.oneofl [ Value.Tbool; Value.Tint; Value.Treal ]) (fun t -> gen_typed (t, 4));
    ]

(* Only the reals have rates, which concentrate on 0 so that the
   delay-invariant fast paths and affine paths are both exercised. *)
let gen_state =
  let open Gen in
  let* vals = flatten_a (Array.map gen_of_type types) in
  let* rates =
    flatten_a
      (Array.map
         (fun t -> if t = Value.Treal then oneofl [ 0.0; 0.0; 0.0; 1.0; -0.5; 2.0 ] else pure 0.0)
         types)
  in
  let* locs = array_size (pure n_procs) (int_range 0 (n_locs - 1)) in
  pure (vals, rates, locs)

let gen_case = Gen.pair gen_expr gen_state

(* Interpreted entry points over plain arrays. *)
let env_of vals v = vals.(v)
let at_loc_of locs p l = locs.(p) = l

let cstate_of (vals, rates, locs) =
  Compiled.cstate_of ~locs ~vals ~rates ~time:0.0 ()

(* The compiled core matches the interpreter on ill-typed input too: the
   same exception with the same message. *)
type 'a outcome = V of 'a | Type_err of string | Non_linear of string

let classify f =
  match f () with
  | v -> V v
  | exception Value.Type_error m -> Type_err m
  | exception Linear.Nonlinear m -> Non_linear m

let same_outcome equal o1 o2 =
  match o1, o2 with
  | V a, V b -> equal a b
  | Type_err m1, Type_err m2 | Non_linear m1, Non_linear m2 -> String.equal m1 m2
  | _ -> false

let prop ?print count name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?print ~count ~name gen f)

let value_equal a b = compare a b = 0 (* structural, NaN-safe *)
let float_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let prop_value ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () -> Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_value ~types e s) in
  same_outcome value_equal interp compiled

let prop_bool ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Expr.eval_bool ~env:(env_of vals) ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_bool ~types e s) in
  same_outcome Bool.equal interp compiled

let prop_float ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Value.as_float (Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e))
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_float ~types e s) in
  same_outcome float_equal interp compiled

(* The signature as a network: [n_procs] processes of [n_locs]
   locations, the Booleans and ints discrete and the reals unowned
   clocks, so that a delay on the trial buffer advances every variable
   a random state gives a rate, as [Moves_oracle.advance] does. *)
let signature =
  lazy
    (let proc p =
       Automaton.make ~name:(Printf.sprintf "p%d" p)
         ~locations:
           (Array.init n_locs (fun l ->
                { Automaton.loc_name = Printf.sprintf "l%d" l; invariant = Expr.true_;
                  derivs = [] }))
         ~initial:0 ~transitions:[]
     in
     let net =
       Network.make
         ~procs:(List.init n_procs (fun p -> (proc p, Network.default_meta)))
         ~vars:
           (Array.mapi
              (fun v t ->
                let kind, init =
                  match t with
                  | Value.Tbool -> (Network.Discrete, Value.Bool false)
                  | Tint -> (Network.Discrete, Value.Int 0)
                  | Treal -> (Network.Clock, Value.Real 0.0)
                in
                { Network.var_name = Printf.sprintf "x%d" v; kind; init; owner = None })
              types)
         ~events:[||] ~flows:[]
     in
     (net, Compiled.compile net))

(* A product of two reals compared to a constant: non-linear in the
   delay when both variables have a rate. *)
let gen_nonlinear =
  Gen.map3
    (fun op (v1, v2) k ->
      Expr.Binop (op, Expr.Binop (Expr.Mul, Expr.Var v1, Expr.Var v2), Expr.Const (Value.Real k)))
    (Gen.oneofl [ Expr.Lt; Expr.Ge ])
    (Gen.pair (Gen.int_range 4 5) (Gen.int_range 4 5))
    (Gen.oneofl [ -1.0; 0.5; 4.0 ])

(* For the crossing: a goal other than the expression (sometimes), a
   hold (often trivial) and a delay bound. *)
let gen_sat_case =
  Gen.triple gen_expr gen_state
    (Gen.triple
       (Gen.frequency [ (3, Gen.pure None); (1, Gen.map Option.some gen_nonlinear) ])
       (Gen.frequency [ (1, Gen.pure Expr.true_); (2, gen_expr); (1, gen_nonlinear) ])
       (Gen.oneofl [ 0.0; 0.75; 2.0; infinity ]))

let prop_sat ((e, ((vals, rates, locs) as st), (goal, hold, cap)) : Expr.t * _ * _) =
  let interp =
    classify (fun () ->
        Linear.sat_set ~env:(env_of vals)
          ~rate:(fun v -> rates.(v))
          ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_sat ~types e s) in
  (* and the in-place window evaluator that guards and invariants use *)
  let windowed = classify (fun () -> Compiled.compile_window ~types e s) in
  (* and the until crossing along a delay of [cap], by default with [e]
     as the goal: the window table against [Interval_set], non-linear
     fallback included *)
  let goal = Option.value goal ~default:e in
  let net, c = Lazy.force signature in
  let eps = 1e-9 in
  let oracle =
    classify (fun () ->
        Path_oracle.crossing_points rates net
          { State.locs = Array.copy locs; vals = Array.copy vals; time = 0.0 }
          ~goal ~hold ~eps ~cap)
  in
  let crossing =
    classify (fun () ->
        let pts = [| 0.0; 0.0 |] in
        Compiled.until_points c (cstate_of st) ~goal:(Compiled.compile_formula c goal)
          ~hold:(Compiled.compile_formula c hold) ~eps ~cap pts;
        let point x = if x < 0.0 then None else Some x in
        (point pts.(0), point pts.(1)))
  in
  let point_equal a b = Option.equal float_equal a b in
  same_outcome I.equal interp compiled
  && same_outcome I.equal interp windowed
  && same_outcome
       (fun (b1, v1) (b2, v2) -> point_equal b1 b2 && point_equal v1 v2)
       oracle crossing

(* ------------------------------------------------------------------ *)
(* End-to-end verdict-stream equality on the bundled models            *)

let load = Fixture.load
let goal = Fixture.goal

let strategies =
  [ Strategy.Asap; Strategy.Progressive; Strategy.Local; Strategy.Max_time ]

let verdict_streams ~name ?hold ~goal:g ~horizon ~seeds net =
  let cfg = Path.default_config ~horizon in
  let c = Compiled.compile net in
  let q = Path.compile_query ?hold c ~goal:g in
  let s = Compiled.scratch c in
  List.iter
    (fun strategy ->
      for seed = 1 to seeds do
        let seed = Int64.of_int seed in
        let interp =
          fst
            (Path_oracle.generate ?hold net cfg strategy
               (Rng.for_path ~seed ~path:0) ~goal:g)
        in
        let compiled =
          Path.generate c s q cfg strategy (Rng.for_path ~seed ~path:0)
        in
        let show = function
          | Ok v -> Path.verdict_to_string v
          | Error e -> Path.error_to_string e
        in
        if compare interp compiled <> 0 then
          Alcotest.failf "%s (%s, seed %Ld): oracle %s vs compiled %s" name
            (Strategy.to_string strategy)
            seed (show interp) (show compiled)
      done)
    strategies

let check_verdict_stream ~name ?hold_src ~goal_src ~horizon ~seeds src =
  let net = load src in
  verdict_streams ~name ?hold:(Option.map (goal net) hold_src) ~goal:(goal net goal_src)
    ~horizon ~seeds net

let test_verdicts_gps_nominal () =
  check_verdict_stream ~name:"gps nominal"
    ~goal_src:Slimsim_models.Gps.goal_acquired ~horizon:200.0 ~seeds:10
    Slimsim_models.Gps.nominal_only

let test_verdicts_gps_full () =
  check_verdict_stream ~name:"gps full"
    ~goal_src:Slimsim_models.Gps.goal_no_fix ~horizon:300.0 ~seeds:10
    Slimsim_models.Gps.source

let test_verdicts_sensor_filter () =
  check_verdict_stream ~name:"sensor-filter n=2"
    ~goal_src:(Slimsim_models.Sensor_filter.goal_all_failed ~n:2)
    ~horizon:1800.0 ~seeds:10
    (Slimsim_models.Sensor_filter.source ~n:2)

let test_verdicts_sensor_filter_timed () =
  check_verdict_stream ~name:"sensor-filter timed n=2"
    ~goal_src:Slimsim_models.Sensor_filter.goal_exhausted ~horizon:1800.0
    ~seeds:10
    (Slimsim_models.Sensor_filter.timed_source ~n:2)

let test_verdicts_launcher () =
  check_verdict_stream ~name:"launcher permanent"
    ~goal_src:Slimsim_models.Launcher.goal_failure ~horizon:60.0 ~seeds:5
    (Slimsim_models.Launcher.source ~variant:`Permanent);
  check_verdict_stream ~name:"launcher recoverable"
    ~goal_src:Slimsim_models.Launcher.goal_failure ~horizon:60.0 ~seeds:5
    (Slimsim_models.Launcher.source ~variant:`Recoverable)

let test_verdicts_queue_until () =
  (* Bounded until: exercises the hold/violation machinery end to end. *)
  check_verdict_stream ~name:"mm1k until" ~hold_src:"q <= 3" ~goal_src:"q = 5"
    ~horizon:50.0 ~seeds:10
    (Slimsim_models.Queue_model.source ~arrival:0.8 ~service:0.5 ~capacity:5)

(* ------------------------------------------------------------------ *)
(* Static formulas and networks without invariants or guarded moves   *)

(* [mm1k_priced.slim] beside a process with a clock, an invariant and a
   guarded self-loop: the step's window work runs here, and the
   queue's goals and holds read the same variables. *)
let ticking_queue =
  {|
process Tick
end Tick;

process implementation Tick.Imp
subcomponents
  c: data clock;
modes
  run: initial mode while c <= 2.0;
transitions
  run -[when c >= 1.0 then c := 0.0]-> run;
end Tick.Imp;

system Queue
features
  q: out data port int [0, 4] := 0;
  served: out data port int [0, 9] := 0;
  waiting: out data port real;
end Queue;

system implementation Queue.Imp
subcomponents
  w: data continuous;
  tick: process Tick.Imp;
flows
  waiting := w;
modes
  q0: initial mode;
  q1: mode der w = 1;
  q2: mode der w = 2;
  q3: mode der w = 3;
  q4: mode der w = 4;
transitions
  q0 -[rate 0.8 then q := 1]-> q1;
  q1 -[rate 0.8 then q := 2]-> q2;
  q2 -[rate 0.8 then q := 3]-> q3;
  q3 -[rate 0.8 then q := 4]-> q4;
  q1 -[rate 1 then q := 0; served := min(served + 1, 9)]-> q0;
  q2 -[rate 1 then q := 1; served := min(served + 1, 9)]-> q1;
  q3 -[rate 1 then q := 2; served := min(served + 1, 9)]-> q2;
  q4 -[rate 1 then q := 3; served := min(served + 1, 9)]-> q3;
end Queue.Imp;

root Queue.Imp;
|}

(* A formula is static when it reads no clock and no variable with a
   derivative; [waiting] is a flow target, stored at each firing. *)
let test_static_classification () =
  let check net src want =
    let f = Compiled.compile_formula (Compiled.compile net) (goal net src) in
    if f.Compiled.f_static <> want then
      Alcotest.failf "%s: static = %b, expected %b" src f.Compiled.f_static want
  in
  let queue = Fixture.bundled_model "mm1k_priced.slim" in
  List.iter
    (fun (src, want) -> check queue src want)
    [ ("served = 5", true); ("waiting > 3", true); ("true", true); ("w > 3", false);
      ("served = 5 or w > 3", false) ];
  let ticking = load ticking_queue in
  List.iter
    (fun (src, want) -> check ticking src want)
    [ ("served = 5", true); ("tick.c >= 1.0", false); ("q < 4 and tick.c <= 2.0", false) ]

(* The goals and holds above on a network without invariants or guarded
   moves and on one with both, against the oracle, at horizons that end
   paths both ways. *)
let test_verdicts_static () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun g ->
          List.iter
            (fun h ->
              List.iter
                (fun horizon ->
                  verdict_streams
                    ~name:(Printf.sprintf "%s: %s until %s, horizon %g" name
                             (Option.value h ~default:"true") g horizon)
                    ?hold:(Option.map (goal net) h) ~goal:(goal net g) ~horizon ~seeds:3
                    net)
                [ 5.0; 50.0 ])
            [ None; Some "q < 4"; Some "w < 8" ])
        [ "served = 5"; "waiting > 3"; "w > 3" ])
    [ ("mm1k_priced", Fixture.bundled_model "mm1k_priced.slim"); ("ticking queue", load ticking_queue) ]

(* ------------------------------------------------------------------ *)
(* Campaign-level equality and the error/violation accounting          *)

let campaign_result ?(oracle = false) ?on_error ?hold ?config ?supervisor net
    ~g ~horizon ~strategy ~kind =
  let generator = Generator.create kind ~delta:0.1 ~eps:0.1 in
  match
    if oracle then
      Fixture.oracle ~seed:23L ?on_error ?config ?supervisor ?hold net ~goal:g
        ~horizon ~strategy ~generator ()
    else
      Fixture.run ~seed:23L ?on_error ?config ?supervisor ?hold net ~goal:g
        ~horizon ~strategy ~generator ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign failed: %s" (Path.error_to_string e)

let test_engine_equality () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  List.iter
    (fun strategy ->
      let a =
        campaign_result net ~g ~horizon:100.0 ~strategy ~kind:Generator.Chernoff
      in
      let b =
        campaign_result ~oracle:true net ~g ~horizon:100.0 ~strategy
          ~kind:Generator.Chernoff
      in
      Alcotest.(check (float 0.0))
        "same probability" b.Campaign.probability a.Campaign.probability;
      Alcotest.(check int) "same paths" b.Campaign.paths a.Campaign.paths;
      Alcotest.(check int) "same successes" b.Campaign.successes a.Campaign.successes;
      Alcotest.(check int)
        "same deadlocks" b.Campaign.deadlock_paths a.Campaign.deadlock_paths)
    strategies

let test_violated_paths_counted () =
  (* In the M/M/1/5 queue, reaching q = 3 while holding q <= 1 is
     impossible without first passing q = 2: every non-horizon path is a
     violation, never a success. *)
  let net =
    load (Slimsim_models.Queue_model.source ~arrival:2.0 ~service:0.1 ~capacity:5)
  in
  let g = goal net "q = 3" in
  let hold = goal net "q <= 1" in
  let r =
    campaign_result ~hold net ~g ~horizon:50.0
      ~strategy:Strategy.Asap ~kind:Generator.Chernoff
  in
  Alcotest.(check int) "no successes" 0 r.Campaign.successes;
  Alcotest.(check bool) "violations counted" true (r.Campaign.violated_paths > 0);
  Alcotest.(check bool)
    "violations bounded by failures" true
    (r.Campaign.violated_paths <= r.Campaign.paths - r.Campaign.successes);
  let s = Fmt.str "%a" Campaign.pp_result r in
  Alcotest.(check bool) "violations surfaced" true
    (Astring_contains.contains s "hold-violated")

let test_error_policy () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  (* max_steps = 0 classifies every path as diverged; the default
     supervisor aborts the campaign on the first one. *)
  let config = { (Path.default_config ~horizon:100.0) with Path.max_steps = 0 } in
  let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.2 in
  (match
     Fixture.run ~config net ~goal:g ~horizon:100.0 ~strategy:Strategy.Asap
       ~generator ()
   with
  | Error (Path.Diverged_path (Path.Step_budget _)) -> ()
  | Ok _ -> Alcotest.fail "on_divergence:`Abort must surface the divergence"
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e));
  (* `Unsat counts every diverged path as a failure. *)
  let supervisor = Slimsim_sim.Supervisor.create ~on_divergence:`Unsat () in
  let r =
    campaign_result ~supervisor ~config net ~g ~horizon:100.0
      ~strategy:Strategy.Asap ~kind:Generator.Chernoff
  in
  Alcotest.(check int)
    "every path diverged" r.Campaign.paths r.Campaign.diverged_paths;
  Alcotest.(check (float 0.0))
    "diverged paths count as unsat" 0.0 r.Campaign.probability;
  let s = Fmt.str "%a" Campaign.pp_result r in
  Alcotest.(check bool) "divergence surfaced" true
    (Astring_contains.contains s "diverged");
  (* on_error:`Unsat still covers genuine path errors: a script that
     picks an invalid move index raises Model_error on every path. *)
  let bad_script _alts = Strategy.Fire { index = max_int; delay = 0.0 } in
  let r =
    campaign_result ~on_error:`Unsat net ~g ~horizon:100.0
      ~strategy:(Strategy.Scripted bad_script) ~kind:Generator.Chernoff
  in
  Alcotest.(check int) "every path errored" r.Campaign.paths r.Campaign.errors;
  Alcotest.(check (float 0.0)) "errors count as unsat" 0.0 r.Campaign.probability;
  let s = Fmt.str "%a" Campaign.pp_result r in
  Alcotest.(check bool) "errors surfaced" true
    (Astring_contains.contains s "errored")

let test_scratch_reuse_is_clean () =
  (* Reusing one scratch across paths must not leak state: the same
     seeds re-run on a fresh scratch give the same verdicts. *)
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let cfg = Path.default_config ~horizon:300.0 in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let run s seed =
    Path.generate c s q cfg Strategy.Progressive (Rng.for_path ~seed ~path:0)
  in
  let shared = Compiled.scratch c in
  let reused = List.map (run shared) [ 1L; 2L; 3L; 4L; 5L ] in
  let fresh = List.map (fun seed -> run (Compiled.scratch c) seed) [ 1L; 2L; 3L; 4L; 5L ] in
  Alcotest.(check bool) "reused scratch matches fresh" true
    (compare reused fresh = 0)

let test_obs_bit_identity () =
  (* Enabling metrics and passing an obs cell must not change a single
     verdict, and the stream stays the oracle's: instrumentation performs
     no RNG draws and never touches simulation state. *)
  let module Metrics = Slimsim_obs.Metrics in
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let cfg = Path.default_config ~horizon:300.0 in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let run ?obs () =
    List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            let s = Compiled.scratch c in
            ( Path.generate ?obs c s q cfg strategy
                (Rng.for_path ~seed ~path:0),
              fst
                (Path_oracle.generate net cfg strategy
                   (Rng.for_path ~seed ~path:0) ~goal:g) ))
          [ 1L; 2L; 3L; 4L; 5L ])
      strategies
  in
  let plain = run () in
  Metrics.set_enabled true;
  let instrumented =
    Fun.protect
      (fun () -> run ~obs:(Path.obs_cell ~worker:0) ())
      ~finally:(fun () -> Metrics.set_enabled false)
  in
  Alcotest.(check bool) "verdict streams bit-identical" true
    (compare plain instrumented = 0);
  List.iter
    (fun (compiled, oracle) ->
      Alcotest.(check bool) "instrumented stream = oracle" true
        (compare compiled oracle = 0))
    instrumented;
  (* and the instrumentation actually recorded, rather than no-op'ing *)
  let steps =
    Metrics.histogram
      ~labels:[ ("worker", "0") ]
      "slimsim_path_steps" ~help:"Steps taken per simulated path"
  in
  Alcotest.(check int) "every instrumented path observed"
    (List.length plain)
    (Metrics.histogram_count steps);
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Per-step state equality: both engines take the same moves           *)

(* The verdict-stream tests above compare verdicts only, so a stale
   data-flow target that never flips a verdict would pass them.  Here
   both engines take the same move at the same delay, step by step, and
   the compiled scratch must hold the interpreter's state after every
   step: same locations, same values, floats bitwise equal. *)

let value_bits_equal a b =
  match a, b with
  | Value.Real x, Value.Real y -> float_equal x y
  | _ -> a = b

let show_value = function
  | Value.Bool b -> string_of_bool b
  | Value.Int n -> string_of_int n
  | Value.Real x -> Printf.sprintf "%h" x

let check_same_state ~ctx (expected : State.t) (got : State.t) =
  if expected.State.locs <> got.State.locs then Alcotest.failf "%s: locations differ" ctx;
  Array.iteri
    (fun v x ->
      let y = got.State.vals.(v) in
      if not (value_bits_equal x y) then
        Alcotest.failf "%s: variable %d is %s, compiled %s" ctx v (show_value x)
          (show_value y))
    expected.State.vals;
  if not (float_equal expected.State.time got.State.time) then
    Alcotest.failf "%s: time %h, compiled %h" ctx expected.State.time got.State.time

(* A delay in the window, capped at 20: its first point, its last point
   (the upper edge maxtime fires at, where a clock advanced by it can
   round past its invariant's bound) or a uniform draw. *)
let pick_delay rng w =
  let capped = I.clamp_above 20.0 (I.inter w (I.at_least 0.0)) in
  let first = I.first_point ~eps:1e-9 capped in
  match Rng.int rng 3, first with
  | 0, Some d -> d
  | 1, Some d -> Option.value (I.last_point_below ~eps:1e-9 20.0 capped) ~default:d
  | _ -> (
    match I.sample_uniform (Rng.below rng) capped with
    | Some d -> d
    | None -> Option.value first ~default:0.0)

let walk ~name ~seed ~steps (net : Network.t) =
  let c = Compiled.compile net in
  let s = ref (Compiled.scratch c) in
  Compiled.reset c !s;
  let st = ref (State.initial net) in
  let rng = Rng.create seed in
  check_same_state ~ctx:(name ^ ": reset") !st (Compiled.to_state c !s);
  let step = ref 1 in
  (* a bare delay leaves the flows it changes to the next move *)
  let flows_hold = ref true in
  while !step <= steps do
    let ctx = Printf.sprintf "%s, seed %Ld, step %d" name seed !step in
    (* Now and then continue on a fresh scratch loaded from the
       interpreter's state, as the CTMC explorer loads the states a walk
       reached: [Compiled.load] takes their flows to hold. *)
    if Rng.int rng 8 = 0 && !flows_hold then begin
      let fresh = Compiled.scratch c in
      let vals = !st.State.vals in
      let store v =
        match Network.var_type net v, vals.(v) with
        | Value.Tint, Int n -> (n, 0.0)
        | Tbool, Bool b -> (Bool.to_int b, 0.0)
        | Treal, Real x -> (0, x)
        | ty, x ->
          Alcotest.failf "%s: %s variable %d holds %s" ctx (Value.type_name ty) v
            (Value.to_string x)
      in
      let stores = Array.init (Array.length vals) store in
      Compiled.load c fresh ~locs:!st.State.locs ~ints:(Array.map fst stores)
        ~floats:(Array.map snd stores) ~time:!st.State.time;
      s := fresh
    end;
    let cs = !s in
    Compiled.set_rates c cs;
    let rates = Moves_oracle.rate_array net !st in
    let inv = Moves_oracle.invariant_window ~rates net !st in
    Compiled.invariant_window c cs;
    if not (I.equal inv (Compiled.inv_window cs)) then
      Alcotest.failf "%s: invariant windows differ" ctx;
    let timed = Moves_oracle.discrete ~rates ~inv_win:inv net !st in
    let n_timed = Compiled.discrete c cs in
    if n_timed <> List.length timed || compare timed (Compiled.timed_moves c cs) <> 0
    then Alcotest.failf "%s: enabled moves differ" ctx;
    let markov = Moves_oracle.markovian net !st in
    let n_markov = Compiled.markovian c cs in
    let markov_c =
      List.init n_markov (fun i ->
          ( Compiled.markov_proc cs i,
            Compiled.markov_tr cs i,
            (Compiled.markov_buf cs).(i) ))
    in
    if compare markov markov_c <> 0 then Alcotest.failf "%s: rate moves differ" ctx;
    let advance d =
      Compiled.advance c cs d;
      st := Moves_oracle.advance net ~rates !st d;
      flows_hold := false
    in
    (match Rng.int rng 5 with
    | 0 when not (I.is_empty inv) -> advance (pick_delay rng inv)
    | _ when timed <> [] ->
      let tm = List.nth timed (Rng.int rng (List.length timed)) in
      let d = pick_delay rng tm.Moves.window in
      let expected = Moves_oracle.enabled_after net !st d timed in
      let n = Compiled.enabled_after c cs d in
      let got = List.init n (fun k -> Compiled.move c cs (Compiled.enabled cs k)) in
      if compare expected got <> 0 then Alcotest.failf "%s: enabled_after differs" ctx;
      (* the trials left the committed scratch as it was *)
      check_same_state ~ctx:(ctx ^ " (after trials)") !st (Compiled.to_state c cs);
      if n = 0 then advance d
      else begin
        let k = Rng.int rng n in
        Compiled.apply_move c cs ~delay:d (Compiled.enabled cs k);
        st := Moves_oracle.apply net !st ~delay:d (List.nth expected k);
        flows_hold := true
      end
    | _ when markov <> [] ->
      let i = Rng.int rng (List.length markov) in
      let p, tr, _ = List.nth markov i in
      let d = pick_delay rng inv in
      Compiled.apply c cs ~delay:d (Moves.Local { proc = p; tr });
      st := Moves_oracle.apply net !st ~delay:d (Moves.Local { proc = p; tr });
      flows_hold := true
    | _ -> if I.is_empty inv then step := steps else advance (pick_delay rng inv));
    check_same_state ~ctx !st (Compiled.to_state c cs);
    incr step
  done

let bundled_model = Fixture.bundled_model

(* Minor words per step of whole compiled paths over a fixed path set.
   A recording pass counts the steps (every step but a path's last
   records one entry); the measured pass records nothing. *)
let words_per_step file ~goal_src ~strategy ~horizon ~paths =
  let net = bundled_model file in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:(goal net goal_src) in
  let s = Compiled.scratch c in
  let cfg = Path.default_config ~horizon in
  let record = ref [] and steps = ref 0 in
  for i = 0 to paths - 1 do
    ignore (Path.generate ~record c s q cfg strategy (Rng.for_path ~seed:1L ~path:i));
    steps := !steps + List.length !record + 1
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to paths - 1 do
    ignore (Path.generate c s q cfg strategy (Rng.for_path ~seed:1L ~path:i))
  done;
  (Gc.minor_words () -. w0) /. float_of_int !steps

(* The step allocates only what its verdicts and firings need: no
   interval sets for the crossing or the invariant window, no boxed RNG
   state, no boxes for the race, no [Int] boxes for the queue's
   counters, no [Real] boxes for its cost, its flow or its clock.
   Measured: 4.2 words per step on the queue, 17.2 on GPS and 14.1 on
   the launcher; each budget leaves about 3 words above its model's. *)
let test_step_allocation_budget () =
  List.iter
    (fun (file, goal_src, strategy, horizon, paths, budget) ->
      let words = words_per_step file ~goal_src ~strategy ~horizon ~paths in
      if words > budget then
        Alcotest.failf "%s: %.1f minor words per step (budget %g)" file words budget)
    [
      ("mm1k_priced.slim", "served = 5", Strategy.Asap, 100.0, 2000, 7.0);
      ( "gps.slim", "gps in mode active and not gps.measurement", Strategy.Progressive,
        300.0, 2000, 20.0 );
      ( "launcher_recoverable.slim", Slimsim_models.Launcher.goal_failure,
        Strategy.Progressive, 100.0, 50, 17.0 );
    ]

let test_walk_bundled () =
  List.iter
    (fun file ->
      let net = bundled_model file in
      for seed = 1 to 4 do
        walk ~name:file ~seed:(Int64.of_int seed) ~steps:300 net
      done)
    [
      "launcher_recoverable.slim"; "launcher_permanent.slim"; "heater.slim"; "gps.slim";
      "gps_nominal.slim"; "sensor_filter_2.slim"; "sensor_filter_2_timed.slim";
      "mm1k.slim"; "mm1k_priced.slim";
    ]

(* Hand-built: every kind of write a flow depends on.
   - [ta = a + 1], and a transition writes [ta] itself;
   - [tc = c * 2] reads a clock, so a bare delay leaves it stale;
   - [to_ = o * 3] reads [o], owned by the [Restart] process [r], which
     is active while [p] is in [p1], and [rl = r in r1] reads its
     location;
   - [e1 = err in broken] and [e2 = not e1]: a chain through the
     location of the error process [err]. *)
let flow_network () =
  let c = 0 and a = 1 and ta = 2 and tc = 3 and o = 4 and to_ = 5 and e1 = 6 and e2 = 7 in
  let rl = 8 in
  let v = Expr.var and r = Expr.real and i = Expr.int in
  let bin op x y = Expr.Binop (op, x, y) in
  let loc name invariant = { Automaton.loc_name = name; invariant; derivs = [] } in
  let tr ?(label = Automaton.Tau) src dst guard updates =
    { Automaton.src; dst; label; guard; updates; weight = 1.0 }
  in
  let p =
    Automaton.make ~name:"p"
      ~locations:
        [| loc "p0" (bin Expr.Le (v c) (r 3.0)); loc "p1" (bin Expr.Le (v c) (r 3.0)) |]
      ~initial:0
      ~transitions:
        [
          tr 0 0 (Automaton.Guard (bin Expr.Ge (v c) (r 1.0))) [ (ta, i 100) ];
          tr 0 0
            (Automaton.Guard (bin Expr.Ge (v c) (r 2.0)))
            [ (a, bin Expr.Add (v a) (i 1)); (c, r 0.0) ];
          tr 0 1 (Automaton.Guard (bin Expr.Ge (v c) (r 0.5))) [ (c, r 0.0) ];
          tr 1 0 (Automaton.Guard (bin Expr.Ge (v c) (r 0.5))) [ (c, r 0.0) ];
        ]
  in
  let rp =
    Automaton.make ~name:"r" ~locations:[| loc "r0" Expr.true_; loc "r1" Expr.true_ |]
      ~initial:0
      ~transitions:
        [
          tr 0 1 (Automaton.Guard Expr.true_) [ (o, bin Expr.Add (v o) (i 1)) ];
          tr 1 0 (Automaton.Guard Expr.true_) [ (o, bin Expr.Mul (v o) (i 2)) ];
        ]
  in
  let err =
    Automaton.make ~name:"err"
      ~locations:[| loc "ok" Expr.true_; loc "broken" Expr.true_ |]
      ~initial:0
      ~transitions:[ tr 0 1 (Automaton.Rate 0.5) []; tr 1 0 (Automaton.Rate 1.0) [] ]
  in
  let var name kind init owner = { Network.var_name = name; kind; init; owner } in
  Network.make
    ~procs:
      [
        (p, Network.default_meta);
        ( rp,
          {
            Network.active_when = Expr.Loc (0, 1);
            reactivation = Network.Restart;
            owned_vars = [ o ];
          } );
        (err, Network.default_meta);
      ]
    ~vars:
      [|
        var "c" Network.Clock (Value.Real 0.0) None;
        var "a" Network.Discrete (Value.Int 0) None;
        var "ta" Network.Discrete (Value.Int 0) None;
        var "tc" Network.Discrete (Value.Real 0.0) None;
        var "o" Network.Discrete (Value.Int 5) (Some 1);
        var "to" Network.Discrete (Value.Int 0) None;
        var "e1" Network.Discrete (Value.Bool false) None;
        var "e2" Network.Discrete (Value.Bool false) None;
        var "rl" Network.Discrete (Value.Bool false) None;
      |]
    ~events:[||]
    ~flows:
      [
        { Network.target = e2; expr = Expr.Unop (Expr.Not, v e1) };
        { Network.target = ta; expr = bin Expr.Add (v a) (i 1) };
        { Network.target = tc; expr = bin Expr.Mul (v c) (r 2.0) };
        { Network.target = to_; expr = bin Expr.Mul (v o) (i 3) };
        { Network.target = e1; expr = Expr.Loc (2, 1) };
        { Network.target = rl; expr = Expr.Loc (1, 1) };
      ]

let test_walk_flows () =
  let net = flow_network () in
  for seed = 1 to 20 do
    walk ~name:"flow network" ~seed:(Int64.of_int seed) ~steps:200 net
  done

(* [apply] leaves no flow dirty; a bare delay marks the clock reader. *)
let test_dirty_marks () =
  let net = flow_network () in
  let c = Compiled.compile net in
  let s = Compiled.scratch c in
  Compiled.reset c s;
  Alcotest.(check (list int)) "clean after reset" [] (Compiled.dirty_flows c s);
  Compiled.set_rates c s;
  Compiled.advance c s 1.5;
  (* [Network.make] reorders flows: look up the one targeting [tc] *)
  let reads_clock =
    List.filter
      (fun f -> net.Network.flows.(f).Network.target = 3)
      (List.init (Array.length net.Network.flows) Fun.id)
  in
  Alcotest.(check (list int)) "a delay marks the clock reader only" reads_clock
    (Compiled.dirty_flows c s);
  Compiled.apply c s (Moves.Local { proc = 0; tr = 0 });
  Alcotest.(check (list int)) "clean after a move" [] (Compiled.dirty_flows c s)

(* A transition at c in [1, 2] sets z := 0, after which the flow
   y = 10 / z raises inside the trial that looks ahead at it; a race
   against err's rate transition decides whether a path gets there. *)
let failing_trial_network () =
  let c = 0 and z = 1 and y = 2 and w = 3 in
  let bin op x e = Expr.Binop (op, x, e) in
  let loc name invariant = { Automaton.loc_name = name; invariant; derivs = [] } in
  let tr src dst guard updates =
    { Automaton.src; dst; label = Automaton.Tau; guard; updates; weight = 1.0 }
  in
  let p =
    Automaton.make ~name:"p"
      ~locations:
        [| loc "l0" (bin Expr.Le (Expr.var c) (Expr.real 2.0)); loc "l1" Expr.true_ |]
      ~initial:0
      ~transitions:
        [
          tr 0 1
            (Automaton.Guard (bin Expr.Ge (Expr.var c) (Expr.real 1.0)))
            [ (z, Expr.int 0) ];
        ]
  in
  let err =
    Automaton.make ~name:"err"
      ~locations:[| loc "ok" Expr.true_; loc "broken" Expr.true_ |]
      ~initial:0 ~transitions:[ tr 0 1 (Automaton.Rate 1.0) [] ]
  in
  let var name kind init = { Network.var_name = name; kind; init; owner = None } in
  Network.make
    ~procs:[ (p, Network.default_meta); (err, Network.default_meta) ]
    ~vars:
      [|
        var "c" Network.Clock (Value.Real 0.0);
        var "z" Network.Discrete (Value.Int 1);
        var "y" Network.Discrete (Value.Int 0);
        var "w" Network.Discrete (Value.Real 0.0);
      |]
    ~events:[||]
    ~flows:
      [
        { Network.target = y; expr = bin Expr.Div (Expr.int 10) (Expr.var z) };
        { Network.target = w; expr = bin Expr.Add (Expr.var c) (Expr.real 1.0) };
      ]

let test_failing_trial_is_clean () =
  let net = failing_trial_network () in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:(Expr.Loc (1, 1)) in
  let cfg = Path.default_config ~horizon:50.0 in
  let run s seed =
    Path.generate c s q cfg Strategy.Progressive (Rng.for_path ~seed ~path:0)
  in
  let shared = Compiled.scratch c in
  let errors = ref 0 in
  for seed = 1 to 30 do
    let seed = Int64.of_int seed in
    let fresh = Compiled.scratch c in
    let reused = run shared seed in
    if compare reused (run fresh seed) <> 0 then
      Alcotest.failf "seed %Ld: reused scratch differs from a fresh one" seed;
    (match reused with Error _ -> incr errors | Ok _ -> ());
    let ctx = Printf.sprintf "seed %Ld: final state" seed in
    check_same_state ~ctx (Compiled.to_state c fresh) (Compiled.to_state c shared);
    Alcotest.(check (list int))
      (ctx ^ ": dirty flows")
      (Compiled.dirty_flows c fresh) (Compiled.dirty_flows c shared)
  done;
  Alcotest.(check bool) "some paths raise in a trial" true (!errors > 0 && !errors < 30);
  (* directly: the raising trial leaves the committed state, dirty
     flows included, as it found it *)
  let s = Compiled.scratch c in
  Compiled.reset c s;
  Compiled.set_rates c s;
  Compiled.advance c s 1.25;
  let before = Compiled.to_state c s and dirty = Compiled.dirty_flows c s in
  Alcotest.(check bool) "the delay marked w" true (dirty <> []);
  Compiled.set_rates c s;
  Compiled.invariant_window c s;
  let n = Compiled.discrete c s in
  Alcotest.(check int) "one move" 1 n;
  (match Compiled.enabled_after c s 0.5 with
  | _ -> Alcotest.fail "the trial must raise"
  | exception Value.Type_error _ -> ());
  check_same_state ~ctx:"after the raising trial" before (Compiled.to_state c s);
  Alcotest.(check (list int)) "dirty flows kept" dirty (Compiled.dirty_flows c s);
  (* and the scratch still steps: z's old value is back *)
  Compiled.apply c s (Moves.Local { proc = 1; tr = 0 });
  Alcotest.(check (list int)) "clean after a move" [] (Compiled.dirty_flows c s)

(* ------------------------------------------------------------------ *)
(* Trial-free enabling                                                 *)

let loc name invariant = { Automaton.loc_name = name; invariant; derivs = [] }

let tau src dst guard updates =
  { Automaton.src; dst; label = Automaton.Tau; guard = Automaton.Guard guard; updates;
    weight = 1.0 }

let var name kind init = { Network.var_name = name; kind; init; owner = None }
let bin op x y = Expr.Binop (op, x, y)

(* The transitions of process [proc] from location [src] to [dst]. *)
let transitions net ~proc ~src ~dst =
  let p = Option.get (Network.find_proc net proc) in
  let l name = Option.get (Network.find_loc net ~proc:p name) in
  let a = net.Network.procs.(p) in
  ( p,
    List.filter
      (fun i ->
        let t = a.Automaton.transitions.(i) in
        t.Automaton.src = l src && t.Automaton.dst = l dst)
      (List.init (Array.length a.Automaton.transitions) Fun.id) )

let check_free c net ~proc ~src ~dst want =
  let p, trs = transitions net ~proc ~src ~dst in
  Alcotest.(check bool) (Printf.sprintf "%s: %s -> %s exists" proc src dst) true (trs <> []);
  List.iter
    (fun tr ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s -> %s trial-free" proc src dst)
        want (Compiled.trial_free c ~proc:p ~tr))
    trs

(* [a] is a clock no move of [m] resets, [k] an int counter; [n]'s
   location is read by [watcher]'s activation condition. *)
let classified_network () =
  let x = 0 and k = 1 in
  let m =
    Automaton.make ~name:"m"
      ~locations:[| loc "m0" Expr.true_; loc "m1" (bin Expr.Le (Expr.var x) (Expr.real 5.0));
                    loc "m2" Expr.true_ |]
      ~initial:0
      ~transitions:
        [
          (* into an invariant over a clock the move leaves running *)
          tau 0 1 Expr.true_ [];
          (* a [/] update *)
          tau 0 2 Expr.true_ [ (k, bin Expr.Div (Expr.var k) (Expr.int 2)) ];
          (* controls: the clock reset, and int arithmetic *)
          tau 2 1 Expr.true_ [ (x, Expr.real 0.0) ];
          tau 1 2 Expr.true_ [ (k, bin Expr.Add (Expr.var k) (Expr.int 1)) ];
        ]
  in
  let n =
    Automaton.make ~name:"n" ~locations:[| loc "n0" Expr.true_; loc "n1" Expr.true_ |]
      ~initial:0 ~transitions:[ tau 0 1 Expr.true_ [] ]
  in
  let watcher =
    Automaton.make ~name:"watcher" ~locations:[| loc "w0" Expr.true_ |] ~initial:0
      ~transitions:[]
  in
  Network.make
    ~procs:
      [
        (m, Network.default_meta);
        (n, Network.default_meta);
        ( watcher,
          { Network.active_when = Expr.Loc (1, 0); reactivation = Network.Resume;
            owned_vars = [] } );
      ]
    ~vars:[| var "x" Network.Clock (Value.Real 0.0); var "k" Network.Discrete (Value.Int 8) |]
    ~events:[||] ~flows:[]

let test_trial_free_classification () =
  let net = bundled_model "launcher_recoverable.slim" in
  let c = Compiled.compile net in
  List.iter
    (fun ch ->
      check_free c net ~proc:ch ~src:"watch" ~dst:"watch" true;
      check_free c net ~proc:ch ~src:"watch" ~dst:"waiting" true;
      check_free c net ~proc:ch ~src:"waiting" ~dst:"verify" false)
    [ "tri1.ch1"; "tri2.ch3" ];
  check_free c net ~proc:"gps1" ~src:"acquisition" ~dst:"active" true;
  (* every synchronized transition (the reset syncs among them) is
     fired on trial *)
  Array.iteri
    (fun p (a : Automaton.t) ->
      Array.iteri
        (fun tr (t : Automaton.transition) ->
          match t.Automaton.label with
          | Automaton.Event e ->
            if Compiled.trial_free c ~proc:p ~tr then
              Alcotest.failf "%s: transition %d on %s is trial-free"
                (Network.proc_name net p) tr (Network.event_name net e)
          | Automaton.Tau -> ())
        a.Automaton.transitions)
    net.Network.procs;
  let gps = bundled_model "gps.slim" in
  check_free (Compiled.compile gps) gps ~proc:"gps" ~src:"acquisition" ~dst:"active" true;
  let net = classified_network () in
  let c = Compiled.compile net in
  check_free c net ~proc:"m" ~src:"m0" ~dst:"m1" false;
  check_free c net ~proc:"m" ~src:"m0" ~dst:"m2" false;
  check_free c net ~proc:"m" ~src:"m2" ~dst:"m1" true;
  check_free c net ~proc:"m" ~src:"m1" ~dst:"m2" true;
  check_free c net ~proc:"n" ~src:"n0" ~dst:"n1" false

(* [enabled_after] at delay [d] from the initial state advanced by
   [d0], compiled against the oracle; also returns the moves that were
   fired on trial. *)
let enabled_after_both net ~d0 ~d =
  let c = Compiled.compile net in
  let s = Compiled.scratch c in
  Compiled.reset c s;
  let st = ref (State.initial net) in
  if d0 > 0.0 then begin
    Compiled.set_rates c s;
    Compiled.advance c s d0;
    st := Moves_oracle.advance net !st d0
  end;
  Compiled.set_rates c s;
  Compiled.invariant_window c s;
  let rates = Moves_oracle.rate_array net !st in
  let inv = Moves_oracle.invariant_window ~rates net !st in
  let timed = Moves_oracle.discrete ~rates ~inv_win:inv net !st in
  if Compiled.discrete c s <> List.length timed then Alcotest.fail "move counts differ";
  let d = d timed in
  let expected = Moves_oracle.enabled_after net !st d timed in
  let trials = Compiled.trials s in
  let n = Compiled.enabled_after c s d in
  let got = List.init n (fun k -> Compiled.move c s (Compiled.enabled s k)) in
  (expected, got, Compiled.trials s - trials)

let show_moves ms =
  String.concat "; "
    (List.map
       (function
         | Moves.Local { proc; tr } -> Printf.sprintf "%d.%d" proc tr
         | Moves.Sync { event; _ } -> Printf.sprintf "sync %d" event)
       ms)

(* Clocks [x] and [y] at 0.03 with bounds of 0.3: the windows end at
   0.27, and 0.03 + 0.27 rounds to 0.30000000000000004.  [p]'s
   self-loop and [r]'s exit are trial-free; [q] (when present) only
   has an invariant. *)
let rounding_network ~with_q =
  let x = 0 and y = 1 and n = 2 in
  let bound v = bin Expr.Le (Expr.var v) (Expr.real 0.3) in
  let q =
    Automaton.make ~name:"q" ~locations:[| loc "q0" (bound x) |] ~initial:0 ~transitions:[]
  in
  let p =
    Automaton.make ~name:"p" ~locations:[| loc "p0" Expr.true_ |] ~initial:0
      ~transitions:[ tau 0 0 Expr.true_ [ (n, Expr.int 1) ] ]
  in
  let r =
    Automaton.make ~name:"r" ~locations:[| loc "r0" (bound y); loc "r1" Expr.true_ |]
      ~initial:0 ~transitions:[ tau 0 1 Expr.true_ [] ]
  in
  Network.make
    ~procs:
      ((if with_q then [ (q, Network.default_meta) ] else [])
      @ [ (p, Network.default_meta); (r, Network.default_meta) ])
    ~vars:
      [|
        var "x" Network.Clock (Value.Real 0.0);
        var "y" Network.Clock (Value.Real 0.0);
        var "n" Network.Discrete (Value.Int 0);
      |]
    ~events:[||] ~flows:[]

(* A trial-free move is decided without its own trial, but the shared
   check stays: at a window's upper edge an invariant can fail by
   rounding, another process's (no move is enabled) or the moving
   process's own (only its exit is). *)
let test_trial_free_rounding () =
  let last timed =
    match I.sup (List.hd timed).Moves.window with
    | I.Fin (b, true) -> b
    | _ -> Alcotest.fail "a window closed above"
  in
  List.iter
    (fun (with_q, want) ->
      let expected, got, trials =
        enabled_after_both (rounding_network ~with_q) ~d0:0.03 ~d:last
      in
      Alcotest.(check int) "the edge rounds past the bound" 1
        (compare (0.03 +. 0.27) 0.3);
      Alcotest.(check string) "compiled = oracle" (show_moves expected) (show_moves got);
      Alcotest.(check int) "enabled" want (List.length got);
      Alcotest.(check int) "no move fired on trial" 0 trials)
    [ (true, 0); (false, 1) ]

(* [y = 3 - x] divides [p]'s invariant at [l0] by zero once [x] is 3.
   The shared check, which still has [p] at [l0], raises there; [p]'s
   own trial does not, as it leaves to [l1]. *)
let test_trial_free_raising_check () =
  let x = 0 and y = 1 in
  let p =
    Automaton.make ~name:"p"
      ~locations:
        [| loc "l0" (bin Expr.Ge (bin Expr.Div (Expr.real 1.0) (Expr.var y)) (Expr.real 0.0));
           loc "l1" Expr.true_ |]
      ~initial:0 ~transitions:[ tau 0 1 Expr.true_ [] ]
  in
  let net =
    Network.make ~procs:[ (p, Network.default_meta) ]
      ~vars:[| var "x" Network.Clock (Value.Real 0.0); var "y" Network.Discrete (Value.Real 3.0) |]
      ~events:[||]
      ~flows:[ { Network.target = y; expr = bin Expr.Sub (Expr.real 3.0) (Expr.var x) } ]
  in
  Alcotest.(check bool) "trial-free" true (Compiled.trial_free (Compiled.compile net) ~proc:0 ~tr:0);
  let expected, got, trials = enabled_after_both net ~d0:0.0 ~d:(fun _ -> 3.0) in
  Alcotest.(check string) "compiled = oracle" (show_moves expected) (show_moves got);
  Alcotest.(check int) "the exit is enabled" 1 (List.length got);
  Alcotest.(check int) "fired on trial instead" 1 trials

(* [p] is active while [x <= 2] or [hot], a flow that turns true at
   [x = 2.2], and restarts to [l1], whose invariant [n <= 0] reads what
   its exit to [l2] writes.  At [x = 2.5] the delay alone restarts [p]:
   the shared check finds [l1]'s invariant holding, but a move that
   sets [n := 1] first lands back there with it failing, so each move
   is fired on trial. *)
let test_trial_free_restart () =
  let x = 0 and n = 1 and hot = 2 in
  let p =
    Automaton.make ~name:"p"
      ~locations:
        [| loc "l0" Expr.true_; loc "l1" (bin Expr.Le (Expr.var n) (Expr.int 0));
           loc "l2" Expr.true_ |]
      ~initial:1
      ~transitions:[ tau 1 2 Expr.true_ [ (n, Expr.int 1) ] ]
  in
  let net =
    Network.make
      ~procs:
        [
          ( p,
            { Network.active_when =
                bin Expr.Or (bin Expr.Le (Expr.var x) (Expr.real 2.0)) (Expr.var hot);
              reactivation = Network.Restart; owned_vars = [] } );
        ]
      ~vars:
        [|
          var "x" Network.Clock (Value.Real 0.0);
          var "n" Network.Discrete (Value.Int 0);
          var "hot" Network.Discrete (Value.Bool false);
        |]
      ~events:[||]
      ~flows:[ { Network.target = hot; expr = bin Expr.Ge (Expr.var x) (Expr.real 2.2) } ]
  in
  Alcotest.(check bool) "trial-free" true (Compiled.trial_free (Compiled.compile net) ~proc:0 ~tr:0);
  let expected, got, trials = enabled_after_both net ~d0:1.0 ~d:(fun _ -> 1.5) in
  Alcotest.(check string) "compiled = oracle" (show_moves expected) (show_moves got);
  Alcotest.(check int) "not enabled" 0 (List.length got);
  Alcotest.(check int) "fired on trial instead" 1 trials

(* [p]'s only candidate on [e] divides by [y], which [err] sets to 0;
   [q] never offers [e].  A skipped guard would hide the error, so the
   event is not skipped: the oracle's error stream comes out. *)
let test_sync_skip_raising_guard () =
  let x = 0 and y = 1 in
  let on_e src dst guard =
    { Automaton.src; dst; label = Automaton.Event 0; guard = Automaton.Guard guard;
      updates = []; weight = 1.0 }
  in
  let p =
    Automaton.make ~name:"p" ~locations:[| loc "p0" Expr.true_; loc "p1" Expr.true_ |]
      ~initial:0
      ~transitions:
        [ on_e 0 1 (bin Expr.Gt (bin Expr.Div (Expr.var x) (Expr.var y)) (Expr.real 1.0)) ]
  in
  let q =
    Automaton.make ~name:"q" ~locations:[| loc "q0" Expr.true_; loc "q1" Expr.true_ |]
      ~initial:0 ~transitions:[ on_e 1 1 Expr.true_ ]
  in
  let err =
    Automaton.make ~name:"err" ~locations:[| loc "ok" Expr.true_; loc "broken" Expr.true_ |]
      ~initial:0
      ~transitions:
        [ { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Rate 0.3;
            updates = [ (y, Expr.real 0.0) ]; weight = 1.0 } ]
  in
  let net =
    Network.make
      ~procs:[ (p, Network.default_meta); (q, Network.default_meta); (err, Network.default_meta) ]
      ~vars:[| var "x" Network.Clock (Value.Real 0.0); var "y" Network.Discrete (Value.Real 1.0) |]
      ~events:[| "e" |] ~flows:[]
  in
  verdict_streams ~name:"raising sync guard" ~goal:(Expr.Loc (0, 1)) ~horizon:5.0 ~seeds:10 net;
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:(Expr.Loc (0, 1)) in
  let s = Compiled.scratch c and cfg = Path.default_config ~horizon:5.0 in
  let errors =
    List.length
      (List.filter Result.is_error
         (List.init 10 (fun i ->
              Path.generate c s q cfg Strategy.Progressive (Rng.for_path ~seed:1L ~path:i))))
  in
  Alcotest.(check bool) "some paths raise in the guard" true (errors > 0 && errors < 10)

(* ------------------------------------------------------------------ *)
(* Ints on the int store                                               *)

(* Variables 0, 1 and 2 are ints and 3 a real. *)
let lane = [| Value.Tint; Value.Tint; Value.Tint; Value.Treal |]

let gen_lane_state =
  let open Gen in
  let* ints = array_size (pure 3) (int_range (-9) 9) in
  let* x = oneofl [ -2.5; 0.0; 0.5; 3.25 ] in
  let* locs = array_size (pure n_procs) (int_range 0 (n_locs - 1)) in
  pure (Array.append (Array.map (fun n -> Value.Int n) ints) [| Value.Real x |], locs)

let gen_int_leaf =
  Gen.oneof [ Gen.map Expr.int (Gen.int_range (-5) 5); Gen.map Expr.var (Gen.int_range 0 1) ]

let gen_int_op =
  Gen.oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Min; Expr.Max ]

let gen_cmp = Gen.oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]

(* [Int]-typed, depth 3: with |leaves| <= 9 no intermediate wraps.
   Division and [mod] often meet a zero. *)
let gen_int_expr =
  Gen.fix
    (fun self depth ->
      if depth <= 0 then gen_int_leaf
      else
        let sub = self (depth - 1) in
        Gen.frequency
          [
            (1, gen_int_leaf);
            (1, Gen.map (fun e -> Expr.Unop (Expr.Neg, e)) sub);
            (4, Gen.map3 (fun op a b -> Expr.Binop (op, a, b)) gen_int_op sub sub);
            ( 1,
              Gen.map3
                (fun (op, a, b) e1 e2 -> Expr.Ite (Expr.Binop (op, a, b), e1, e2))
                (Gen.triple gen_cmp sub sub) sub sub );
          ])
    3

(* Outcomes with the exception's message: the compiled core must raise
   what [Value] raises, word for word. *)
let exactly f =
  match f () with
  | v -> Ok v
  | exception Value.Type_error m -> Error ("type error: " ^ m)
  | exception Linear.Nonlinear m -> Error ("non-linear: " ^ m)

let lane_scratch (vals, locs) =
  Compiled.cstate_of ~locs ~vals ~rates:(Array.make (Array.length vals) 0.0) ~time:0.0 ()

let eval_in (vals, locs) e = Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e

let prop_lane_int ((e, st) : Expr.t * _) =
  let s = lane_scratch st in
  let want = exactly (fun () -> eval_in st e) in
  match Compiled.compile_int ~types:lane e with
  | None -> false
  | Some f ->
    exactly (fun () -> Value.Int (f s)) = want
    && exactly (fun () -> Compiled.compile_value ~types:lane e s) = want
    && Result.equal ~ok:float_equal ~error:String.equal
         (exactly (fun () -> Compiled.compile_float ~types:lane e s))
         (Result.map Value.as_float want)

(* A comparison of two [Int]-typed sides: as a Boolean, and as the
   delay window of a guard (no int has a rate). *)
let prop_lane_cmp ((op, e1, e2, ((vals, locs) as st)) : _ * Expr.t * Expr.t * _) =
  let e = Expr.Binop (op, e1, e2) in
  let s = lane_scratch st in
  exactly (fun () -> Compiled.compile_bool ~types:lane e s)
  = exactly (fun () -> Value.as_bool (eval_in st e))
  && Result.equal ~ok:I.equal ~error:String.equal
       (exactly (fun () -> Compiled.compile_window ~types:lane e s))
       (exactly (fun () ->
            Linear.sat_set ~env:(env_of vals) ~rate:(fun _ -> 0.0) ~at_loc:(at_loc_of locs) e))

(* The hand-built networks through the per-step equality with the
   interpreter (loads from its states included) and the path oracle's
   verdict streams. *)
let test_lane_network () =
  let bin op x y = Expr.Binop (op, x, y) in
  let net = Fixture.lane_network () in
  for seed = 1 to 3 do
    walk ~name:"lane network" ~seed:(Int64.of_int seed) ~steps:200 net
  done;
  verdict_streams ~name:"lane network" ~goal:(bin Expr.Gt (Expr.var 3) (Expr.int 6))
    ~hold:(bin Expr.Le (Expr.var 1) (Expr.real 8.0)) ~horizon:50.0 ~seeds:3 net;
  let net = Fixture.real_lane_network () in
  for seed = 1 to 3 do
    walk ~name:"real lane network" ~seed:(Int64.of_int seed) ~steps:200 net
  done;
  verdict_streams ~name:"real lane network" ~goal:(bin Expr.Gt (Expr.var 5) (Expr.real 1.0))
    ~hold:(bin Expr.Neq (Expr.var 6) (Expr.int 1)) ~horizon:50.0 ~seeds:3 net

(* ------------------------------------------------------------------ *)
(* Reals on the float store                                            *)

(* Variables 0, 1 and 4 are ints, 2, 3 and 5 reals. *)
let real_lane = [| Value.Tint; Value.Tint; Value.Treal; Value.Treal; Value.Tint; Value.Treal |]

let reals = [ -2.5; -0.0; 0.0; 0.5; 3.25; infinity; nan ]

(* The reals may have a rate; the ints have none. *)
let gen_real_state =
  let open Gen in
  let* ints = array_size (pure 2) (int_range (-9) 9) in
  let* xs = array_size (pure 2) (oneofl reals) in
  let* k = int_range (-3) 3 in
  let* x = oneofl reals in
  let* rates = array_size (pure 3) (oneofl [ 0.0; 0.0; 1.0; -0.5 ]) in
  let* locs = array_size (pure n_procs) (int_range 0 (n_locs - 1)) in
  let vals =
    Array.concat
      [ Array.map (fun n -> Value.Int n) ints; Array.map (fun x -> Value.Real x) xs;
        [| Value.Int k; Value.Real x |] ]
  in
  pure (vals, [| 0.0; 0.0; rates.(0); rates.(1); 0.0; rates.(2) |], locs)

let gen_real_leaf =
  Gen.oneof [ Gen.map Expr.var (Gen.oneofl [ 2; 3; 5 ]); Gen.map Expr.real (Gen.oneofl reals) ]

(* [Real]-typed, depth 3: a real operand meets another real, an
   [Int]-typed expression or an int variable, on either side, and
   [min] and [max] mix a real with an int. *)
let gen_real_expr =
  Gen.fix
    (fun self depth ->
      if depth <= 0 then gen_real_leaf
      else
        let open Gen in
        let sub = self (depth - 1) in
        let other = oneof [ sub; gen_int_expr; map Expr.var (int_range 4 5) ] in
        frequency
          [
            (1, gen_real_leaf);
            (1, map (fun e -> Expr.Unop (Expr.Neg, e)) sub);
            ( 4,
              let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div ] in
              let* a = sub and* b = other and* left = bool in
              pure (if left then Expr.Binop (op, a, b) else Expr.Binop (op, b, a)) );
            ( 1,
              let* op = oneofl [ Expr.Min; Expr.Max ] in
              let* a = sub and* b = other and* left = bool in
              pure (if left then Expr.Binop (op, a, b) else Expr.Binop (op, b, a)) );
            ( 1,
              map3
                (fun (op, a, b) e1 e2 -> Expr.Ite (Expr.Binop (op, a, b), e1, e2))
                (triple gen_cmp sub other) sub sub );
          ])
    3

let show_expr = Expr.to_string ~names:(Printf.sprintf "v%d")

let show_real_state (vals, rates, _) =
  String.concat ", "
    (Array.to_list
       (Array.mapi (fun v x -> Printf.sprintf "v%d = %s (rate %g)" v (show_value x) rates.(v)) vals))

let print_real_case (e, st) = show_expr e ^ " at " ^ show_real_state st

let real_scratch (vals, rates, locs) = Compiled.cstate_of ~locs ~vals ~rates ~time:0.0 ()

let eval_real (vals, _, locs) e = Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e

(* A float against a value, errors word for word. *)
let same_real got want =
  match got, want with
  | Ok x, Ok (Value.Real y) -> float_equal x y
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

(* [compile_real] computes the payload of the [Real] that [Expr.eval]
   gives, [compile_float] the same, and [compile_value] the [Real]
   itself, its errors word for word. *)
let prop_real_value ((e, st) : Expr.t * _) =
  let s = real_scratch st in
  let want = exactly (fun () -> eval_real st e) in
  (match want with Ok (Value.Real _) | Error _ -> true | Ok _ -> false)
  && (match Compiled.compile_real ~types:real_lane e with
     | None -> false
     | Some f -> same_real (exactly (fun () -> f s)) want)
  && same_real (exactly (fun () -> Compiled.compile_float ~types:real_lane e s)) want
  && Result.equal ~ok:value_bits_equal ~error:String.equal
       (exactly (fun () -> Compiled.compile_value ~types:real_lane e s))
       want

(* A comparison side: often a variable or a constant, which the
   comparisons read without a closure call, sometimes a Boolean. *)
let gen_cmp_side =
  Gen.frequency
    [
      (3, gen_real_leaf);
      (1, gen_int_leaf);
      (1, Gen.map Expr.var (Gen.int_range 4 5));
      (2, gen_real_expr);
      (1, gen_int_expr);
      (1, Gen.pure (Expr.Const (Value.Bool true)));
    ]

(* A comparison as a Boolean, and as the delay window of a guard or an
   invariant under the state's rates, against [Value.equal],
   [Value.compare_num] and [Linear.sat_set].  A NaN with a rate gives a
   window with NaN endpoints, which [Interval_set.equal] never finds
   equal: the windows compare with [compare], which does. *)
let same_set a b = compare (I.intervals a) (I.intervals b) = 0

let prop_real_cmp ((op, e1, e2, ((vals, rates, locs) as st)) : _ * Expr.t * Expr.t * _) =
  let e = Expr.Binop (op, e1, e2) in
  let s = real_scratch st in
  same_outcome ( = )
    (classify (fun () -> Compiled.compile_bool ~types:real_lane e s))
    (classify (fun () -> Value.as_bool (eval_real st e)))
  && same_outcome same_set
       (classify (fun () -> Compiled.compile_window ~types:real_lane e s))
       (classify (fun () ->
            Linear.sat_set ~env:(env_of vals) ~rate:(fun v -> rates.(v)) ~at_loc:(at_loc_of locs) e))

(* --- the snapshot journal --- *)

(* The bundled models, untimed and timed, and the hand-built networks
   of every store. *)
let journal_models =
  let dir = List.find Sys.file_exists [ "../examples/models"; "examples/models" ] in
  lazy
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".slim")
    |> List.sort compare
    |> List.map (fun f -> (f, Fixture.bundled_model f))
    |> fun l ->
    Array.of_list
      (l
      @ [ ("lane network", Fixture.lane_network ());
          ("real lane network", Fixture.real_lane_network ()) ]))

(* A full copy of the scratch's state, read without writing it. *)
type copy = { locs : int array; vals : Value.t array; dirty : int list; time : float }

let full_copy c (net : Network.t) s =
  {
    locs = Array.init (Array.length net.procs) (Compiled.loc s);
    vals = Array.init (Array.length net.vars) (Compiled.value s);
    dirty = Compiled.dirty_flows c s;
    time = Compiled.time s;
  }

let same_copy a b =
  a.locs = b.locs
  && Array.for_all2 value_bits_equal a.vals b.vals
  && a.dirty = b.dirty && float_equal a.time b.time

let state_of (x : copy) = { State.locs = x.locs; vals = x.vals; time = x.time }

(* Random sequences of save, move, delay, restore and drop: after every
   restore the scratch equals the full copy taken at its save, and after
   every operation [equal_saved] at each level answers as
   [State.equal_timeless] between the scratch and that copy.  A move is
   any buffered τ/sync move or rate transition, fired whether or not it
   is enabled; one that raises leaves its partial writes (and a dirty
   flow) for the journal to undo.  A delay on a timed model writes the
   unboxed floats and leaves the flows it can change dirty, so that a
   later save has dirty flows to give back. *)
let prop_journal (m, ops) =
  let models = Lazy.force journal_models in
  let name, net = models.(m mod Array.length models) in
  let c = Compiled.compile net in
  let s = Compiled.scratch c in
  Compiled.reset c s;
  let saved = ref [] in
  let fire k =
    Compiled.set_rates c s;
    Compiled.invariant_window c s;
    let nd = Compiled.discrete c s in
    let nm = Compiled.markovian c s in
    if nd + nm > 0 then
      let j = k mod (nd + nm) in
      try
        if j < nd then Compiled.apply_move c s ~delay:0.0 j
        else Compiled.apply_local c s [| 0.0 |] (Compiled.markov_proc s (j - nd)) (Compiled.markov_tr s (j - nd))
      with Value.Type_error _ | Linear.Nonlinear _ -> ()
  in
  List.iteri
    (fun step (op, k) ->
      (match op with
      | 0 ->
        saved := full_copy c net s :: !saved;
        Compiled.save s
      | 1 -> fire k
      | 4 ->
        Compiled.set_rates c s;
        Compiled.advance c s (float_of_int (k mod 4) *. 0.75)
      | 2 -> (
        match !saved with
        | top :: _ ->
          Compiled.restore s;
          if not (same_copy top (full_copy c net s)) then
            QCheck2.Test.fail_reportf "%s, step %d: the restore differs from the full copy" name step
        | [] -> ())
      | _ -> (
        match !saved with
        | _ :: rest ->
          Compiled.drop s;
          saved := rest
        | [] -> ()));
      let now = state_of (full_copy c net s) in
      List.iteri
        (fun i x ->
          let k = List.length !saved - 1 - i in
          if Compiled.equal_saved s k <> State.equal_timeless now (state_of x) then
            QCheck2.Test.fail_reportf "%s, step %d: equal_saved at level %d disagrees" name step k)
        !saved)
    ops;
  true

let gen_journal = Gen.(pair nat (list_size (int_range 1 80) (pair (int_bound 4) nat)))

let suite =
  [
    prop 2000 "compiled value = eval" gen_case prop_value;
    prop 2000 "compiled bool = eval_bool" gen_case prop_bool;
    prop 2000 "compiled float = as_float eval" gen_case prop_float;
    prop 2000 "compiled sat = Linear.sat_set" gen_sat_case prop_sat;
    Alcotest.test_case "verdicts: gps nominal" `Quick test_verdicts_gps_nominal;
    Alcotest.test_case "verdicts: gps full" `Quick test_verdicts_gps_full;
    Alcotest.test_case "verdicts: sensor-filter" `Quick test_verdicts_sensor_filter;
    Alcotest.test_case "verdicts: sensor-filter timed" `Quick
      test_verdicts_sensor_filter_timed;
    Alcotest.test_case "verdicts: launcher" `Slow test_verdicts_launcher;
    Alcotest.test_case "verdicts: until on mm1k" `Quick test_verdicts_queue_until;
    Alcotest.test_case "engine equality" `Slow test_engine_equality;
    Alcotest.test_case "violated paths counted" `Quick test_violated_paths_counted;
    Alcotest.test_case "error policy" `Quick test_error_policy;
    Alcotest.test_case "scratch reuse is clean" `Quick (fun () ->
        test_scratch_reuse_is_clean ();
        test_failing_trial_is_clean ());
    Alcotest.test_case "per-step state equality: bundled models" `Quick
      test_walk_bundled;
    Alcotest.test_case "step allocation budget" `Quick test_step_allocation_budget;
    Alcotest.test_case "per-step state equality: flow network" `Quick test_walk_flows;
    Alcotest.test_case "dirty flow marks" `Quick test_dirty_marks;
    Alcotest.test_case "observability bit-identity" `Quick test_obs_bit_identity;
    prop 2000 "lane: compiled Int = Value" (Gen.pair gen_int_expr gen_lane_state) prop_lane_int;
    prop 2000 "lane: Int comparisons and windows"
      (Gen.map2 (fun (op, a, b) st -> (op, a, b, st)) (Gen.triple gen_cmp gen_int_expr gen_int_expr)
         gen_lane_state)
      prop_lane_cmp;
    Alcotest.test_case "lane: hand-built network" `Quick test_lane_network;
    Alcotest.test_case "trial-free: classification" `Quick test_trial_free_classification;
    Alcotest.test_case "trial-free: rounding at a window's edge" `Quick
      test_trial_free_rounding;
    Alcotest.test_case "trial-free: a raising shared check" `Quick
      test_trial_free_raising_check;
    Alcotest.test_case "trial-free: a restart in the shared check" `Quick
      test_trial_free_restart;
    Alcotest.test_case "sync skip: a raising guard" `Quick test_sync_skip_raising_guard;
    prop 500 "journal: restore = full copy, equal_saved = equal_timeless" gen_journal prop_journal;
    Alcotest.test_case "static formulas: classification" `Quick test_static_classification;
    Alcotest.test_case "static formulas: verdicts" `Quick test_verdicts_static;
    prop ~print:print_real_case 2000 "real lane: compiled Real = Value"
      (Gen.pair gen_real_expr gen_real_state) prop_real_value;
    prop
      ~print:(fun (op, a, b, st) -> print_real_case (Expr.Binop (op, a, b), st))
      2000 "real lane: comparisons and windows"
      (Gen.map2 (fun (op, a, b) st -> (op, a, b, st)) (Gen.triple gen_cmp gen_cmp_side gen_cmp_side)
         gen_real_state)
      prop_real_cmp;
  ]
