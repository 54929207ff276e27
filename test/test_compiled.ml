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
(* Random expressions and states over a small synthetic signature      *)

let n_vars = 4
let n_procs = 2
let n_locs = 3

let gen_value =
  Gen.oneof
    [
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun n -> Value.Int n) (Gen.int_range (-4) 4);
      Gen.map
        (fun x -> Value.Real x)
        (Gen.oneofl [ -2.5; -1.0; -0.25; 0.0; 0.5; 1.0; 3.25 ]);
    ]

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

(* Depth-bounded: at most 2^4 = 16 leaves with |const| <= 4, so integer
   intermediates stay far below 2^53 and never wrap — the domain on
   which the compiled unboxed arithmetic provably agrees bit-for-bit
   with the interpreter (the documented deviation is integers beyond
   the double mantissa, which SLIM models never produce). *)
let gen_expr =
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

(* Rates concentrate on 0 so that the delay-invariant fast paths and
   affine paths are both exercised. *)
let gen_state =
  let open Gen in
  let* vals = array_size (pure n_vars) gen_value in
  let* rates =
    array_size (pure n_vars) (oneofl [ 0.0; 0.0; 0.0; 1.0; -0.5; 2.0 ])
  in
  let* locs = array_size (pure n_procs) (int_range 0 (n_locs - 1)) in
  pure (vals, rates, locs)

let gen_case = Gen.pair gen_expr gen_state

(* Interpreted entry points over plain arrays. *)
let env_of vals v = vals.(v)
let at_loc_of locs p l = locs.(p) = l

let cstate_of (vals, rates, locs) =
  Compiled.cstate_of ~locs ~vals ~rates ~time:0.0

(* The compiled core matches the interpreter up to the *message* carried
   by a type error on ill-typed input (the exception, and hence the
   verdict, is the same) — so outcomes compare by constructor class. *)
type 'a outcome = V of 'a | Type_err | Non_linear

let classify f =
  match f () with
  | v -> V v
  | exception Value.Type_error _ -> Type_err
  | exception Linear.Nonlinear _ -> Non_linear

let same_outcome equal o1 o2 =
  match o1, o2 with
  | V a, V b -> equal a b
  | Type_err, Type_err | Non_linear, Non_linear -> true
  | _ -> false

let prop count name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let value_equal a b = compare a b = 0 (* structural, NaN-safe *)
let float_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let prop_value ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () -> Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_value e s) in
  same_outcome value_equal interp compiled

let prop_bool ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Expr.eval_bool ~env:(env_of vals) ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_bool e s) in
  same_outcome Bool.equal interp compiled

let prop_float ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Value.as_float (Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e))
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_float e s) in
  same_outcome float_equal interp compiled

(* The signature as a network: [n_procs] processes of [n_locs]
   locations and [n_vars] unowned clocks, so that a delay on the trial
   buffer advances every variable a random state gives a rate, as
   [Moves_oracle.advance] does. *)
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
           (Array.init n_vars (fun v ->
                { Network.var_name = Printf.sprintf "x%d" v; kind = Network.Clock;
                  init = Value.Real 0.0; owner = None }))
         ~events:[||] ~flows:[]
     in
     (net, Compiled.compile net))

(* A product of two variables compared to a constant: non-linear in the
   delay when both variables have a rate. *)
let gen_nonlinear =
  Gen.map3
    (fun op (v1, v2) k ->
      Expr.Binop (op, Expr.Binop (Expr.Mul, Expr.Var v1, Expr.Var v2), Expr.Const (Value.Real k)))
    (Gen.oneofl [ Expr.Lt; Expr.Ge ])
    (Gen.pair (Gen.int_range 0 (n_vars - 1)) (Gen.int_range 0 (n_vars - 1)))
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
  let compiled = classify (fun () -> Compiled.compile_sat e s) in
  (* and the in-place window evaluator that guards and invariants use *)
  let windowed = classify (fun () -> Compiled.compile_window e s) in
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

let check_verdict_stream ~name ?hold_src ~goal_src ~horizon ~seeds src =
  let net = load src in
  let g = goal net goal_src in
  let hold = Option.map (goal net) hold_src in
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

(* A delay in [w]: its first point, or a uniform draw from it capped at
   20 time units. *)
let pick_delay rng w =
  let capped = I.clamp_above 20.0 (I.inter w (I.at_least 0.0)) in
  let first = I.first_point ~eps:1e-9 capped in
  match Rng.int rng 2, first with
  | 0, Some d -> d
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
  while !step <= steps do
    let ctx = Printf.sprintf "%s, seed %Ld, step %d" name seed !step in
    (* Now and then continue on a fresh scratch loaded from the
       interpreter's state, as the CTMC explorer does. *)
    if Rng.int rng 8 = 0 then begin
      let fresh = Compiled.scratch c in
      Compiled.of_state c fresh !st;
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
      st := Moves_oracle.advance net ~rates !st d
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
        st := Moves_oracle.apply net !st ~delay:d (List.nth expected k)
      end
    | _ when markov <> [] ->
      let i = Rng.int rng (List.length markov) in
      let p, tr, _ = List.nth markov i in
      let d = pick_delay rng inv in
      Compiled.apply c cs ~delay:d (Moves.Local { proc = p; tr });
      st := Moves_oracle.apply net !st ~delay:d (Moves.Local { proc = p; tr })
    | _ -> if I.is_empty inv then step := steps else advance (pick_delay rng inv));
    check_same_state ~ctx !st (Compiled.to_state c cs);
    incr step
  done

(* The suite runs in [_build/default/test]; by hand, from the root. *)
let bundled_model file =
  let dir = List.find Sys.file_exists [ "../examples/models"; "examples/models" ] in
  let path = Filename.concat dir file in
  load (In_channel.with_open_text path In_channel.input_all)

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
   state, no boxes for the race. *)
let test_step_allocation_budget () =
  List.iter
    (fun (file, goal_src, strategy, horizon) ->
      let words = words_per_step file ~goal_src ~strategy ~horizon ~paths:2000 in
      if words > 60.0 then
        Alcotest.failf "%s: %.1f minor words per step (budget 60)" file words)
    [
      ("mm1k_priced.slim", "served = 5", Strategy.Asap, 100.0);
      ( "gps.slim", "gps in mode active and not gps.measurement", Strategy.Progressive,
        300.0 );
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
  ]
