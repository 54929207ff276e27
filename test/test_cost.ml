(* Priced-STA cost queries and the histogram/parser correctness sweep.

   Anchors:
   - the three satellite bugs (power-of-two bucket placement, Prometheus
     label escaping, non-finite property bounds) each have a regression
     test that failed before the fix;
   - cost accumulation must leave non-cost verdict streams bit-identical
     (cost on/off, compiled vs the reference generator);
   - E[cost] on an analytically known model (exponential firing time,
     truncated at the horizon) must fall inside the reported CI across
     seeds, under both fixed-N and Chow-Robbins stopping;
   - the D[...] rendering is pinned byte-for-byte at a fixed seed;
   - checkpoints carrying a cost block round-trip, resume to the same
     result, and cross-resume against classic/multilevel checkpoints is
     rejected. *)

module Pattern = Slimsim_props.Pattern
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Cost_run = Slimsim_sim.Cost_run
module Mlmc_run = Slimsim_sim.Mlmc_run
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
module Rng = Slimsim_stats.Rng
module Metrics = Slimsim_obs.Metrics
module Compiled = Slimsim_sta.Compiled

let load = Fixture.load
let goal = Fixture.goal

let cost_var net src =
  match Pattern.resolve_cost net src with
  | Ok v -> v
  | Error e -> Alcotest.failf "cost var failed: %s" e

(* --- satellite 1: exact powers of two land in their own bucket --- *)

let test_bucket_powers_of_two () =
  (* frexp returns 2^k as (0.5, k+1); before the fix an exact power of
     two was placed one bucket too high, so an observation of exactly
     1.0 was reported as (1, 2] instead of (0.5, 1]. *)
  List.iter
    (fun v ->
      let i = Metrics.bucket_of v in
      Alcotest.(check string)
        (Printf.sprintf "upper bound of the bucket holding %g" v)
        (Printf.sprintf "%g" v)
        (Metrics.bucket_upper i))
    [ 0.5; 1.0; 2.0; 4.0; 1024.0; 0.25 ];
  (* non-powers keep their generic placement *)
  Alcotest.(check string) "1.5 lands in (1, 2]" "2"
    (Metrics.bucket_upper (Metrics.bucket_of 1.5));
  Alcotest.(check string) "0.75 lands in (0.5, 1]" "1"
    (Metrics.bucket_upper (Metrics.bucket_of 0.75));
  (* and the rendered cumulative counts agree: observing 0.5, 1, 2, 4
     must produce cumulative counts 1, 2, 3, 4 at those le bounds *)
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let h =
    Metrics.histogram "test_cost_pow2" ~help:"power-of-two regression"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 4.0 ];
  let rendered = Metrics.render () in
  List.iter
    (fun (le, cum) ->
      let line = Printf.sprintf "test_cost_pow2_bucket{le=\"%s\"} %d" le cum in
      if
        not
          (List.mem line
             (String.split_on_char '\n' rendered))
      then
        Alcotest.failf "expected rendered line %S, got:\n%s" line rendered)
    [ ("0.5", 1); ("1", 2); ("2", 3); ("4", 4) ];
  Metrics.reset ();
  Metrics.set_enabled was

(* --- satellite 2: Prometheus label escaping --- *)

let test_label_escaping () =
  (* the exposition format escapes exactly backslash, double quote and
     newline; tabs and multi-byte UTF-8 pass through verbatim.  OCaml's
     %S (the previous implementation) emitted \t, \009-style decimal
     escapes and per-byte escapes for UTF-8, which scrapers reject. *)
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let value = "tab\there \"quoted\" line\nbreak caf\xc3\xa9 back\\slash" in
  let c =
    Metrics.counter
      ~labels:[ ("note", value) ]
      "test_cost_escape" ~help:"label escaping regression"
  in
  Metrics.incr c;
  let rendered = Metrics.render () in
  let expected =
    "test_cost_escape{note=\"tab\there \\\"quoted\\\" line\\nbreak \
     caf\xc3\xa9 back\\\\slash\"} 1"
  in
  if not (List.mem expected (String.split_on_char '\n' rendered)) then
    Alcotest.failf "expected rendered line %S, got:\n%s" expected rendered;
  Metrics.reset ();
  Metrics.set_enabled was

(* --- satellite 3: non-finite bounds are rejected --- *)

let expect_error name = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name

let test_nonfinite_bounds () =
  expect_error "nan horizon (CSL)" (Pattern.parse "P(<> [0, nan] goal)");
  expect_error "inf horizon (CSL)" (Pattern.parse "P(<> [0, inf] goal)");
  expect_error "nan lower bound" (Pattern.parse "P(<> [nan, 10] goal)");
  expect_error "negative-zero horizon" (Pattern.parse "P(<> [0, -0.0] goal)");
  expect_error "inf horizon (pattern)"
    (Pattern.parse "probability that goal within inf");
  expect_error "nan horizon (pattern)"
    (Pattern.parse "probability that goal within nan");
  expect_error "nan horizon (until)" (Pattern.parse "P(h U [0, nan] goal)");
  (* the same validation applies to the cost bound C *)
  expect_error "nan cost bound" (Pattern.parse_query "P(<> [c <= nan] goal)");
  expect_error "inf cost bound" (Pattern.parse_query "P(<> [c <= inf] goal)");
  expect_error "zero cost bound" (Pattern.parse_query "P(<> [c <= 0] goal)");
  expect_error "negative cost bound"
    (Pattern.parse_query "P(<> [c <= -1.5] goal)");
  expect_error "nan horizon inside E"
    (Pattern.parse_query "E[c ; <> [0, nan] goal]");
  expect_error "invariance inside D"
    (Pattern.parse_query "D[c ; [] [0, 10] goal]");
  (* and the accepted forms still parse *)
  (match Pattern.parse_query "P(<> [c <= 7.5] goal)" with
  | Ok (Pattern.Cost_reach { cost_src; cost_bound; goal_src }) ->
    Alcotest.(check string) "cost src" "c" cost_src;
    Alcotest.(check (float 0.0)) "cost bound" 7.5 cost_bound;
    Alcotest.(check string) "goal src" "goal" goal_src
  | Ok _ -> Alcotest.fail "expected Cost_reach"
  | Error e -> Alcotest.failf "cost reach failed to parse: %s" e);
  (match Pattern.parse_query "E[c ; <> [0, 10] goal]" with
  | Ok (Pattern.Cost_expect { cost_src; prob }) ->
    Alcotest.(check string) "E cost src" "c" cost_src;
    Alcotest.(check (float 0.0)) "E horizon" 10.0 prob.Pattern.horizon
  | Ok _ -> Alcotest.fail "expected Cost_expect"
  | Error e -> Alcotest.failf "E query failed to parse: %s" e);
  (match Pattern.parse_query "D[c ; h U [0, 10] goal]" with
  | Ok (Pattern.Cost_dist { prob; _ }) ->
    Alcotest.(check (option string)) "D hold" (Some "h") prob.Pattern.hold_src
  | Ok _ -> Alcotest.fail "expected Cost_dist"
  | Error e -> Alcotest.failf "D query failed to parse: %s" e);
  (match Pattern.parse_query "P(<> [0, 10] goal)" with
  | Ok (Pattern.Prob _) -> ()
  | Ok _ -> Alcotest.fail "plain probability must stay Prob"
  | Error e -> Alcotest.failf "plain probability failed: %s" e)

(* --- the analytic model: one exponential firing, cost = firing time ---

   The clock c is never reset, so the cost at the goal crossing is the
   Exp(1) firing time conditioned on being at most the horizon u:
   E[T | T <= u] = 1 - u e^{-u} / (1 - e^{-u}). *)

let exp_model =
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

let truncated_mean u = 1.0 -. (u *. exp (-.u) /. (1.0 -. exp (-.u)))

let make_cost ?supervisor ?(kind = Generator.Chow_robbins) ?(delta = 0.01)
    ?(eps = 0.05) ?(seed = 1L) ?(horizon = 6.0)
    ?(query = "E[c ; <> [0, 6] v]") () =
  let net = load exp_model in
  let g = goal net "v" in
  let cv = cost_var net "c" in
  match
    Cost_run.create ~seed ?supervisor net ~goal:g ~horizon
      ~strategy:Strategy.Asap ~cost_var:cv ~query ~kind ~delta ~eps ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "cost create failed: %s" (Path.error_to_string e)

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "cost run failed: %s" (Path.error_to_string e)

let test_expected_cost_analytic () =
  let truth = truncated_mean 6.0 in
  List.iter
    (fun seed ->
      (* Chow-Robbins: stop when the cost mean's CLT half-width is below
         eps *)
      let r = ok (Cost_run.drive (make_cost ~seed ())) in
      if not (r.Cost_run.cost_ci_low <= truth && truth <= r.Cost_run.cost_ci_high)
      then
        Alcotest.failf
          "seed %Ld (chow-robbins): analytic E[cost] %.6f outside CI [%.6f, \
           %.6f]"
          seed truth r.Cost_run.cost_ci_low r.Cost_run.cost_ci_high;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: half-width at most eps" seed)
        true
        ((r.Cost_run.cost_ci_high -. r.Cost_run.cost_ci_low) /. 2.0
        <= 0.05 +. 1e-9);
      (* fixed-N: the Chernoff generator runs its planned path count and
         the cost interval covers whatever sat paths that bought *)
      let r2 =
        ok
          (Cost_run.drive
             (make_cost ~seed ~kind:Generator.Chernoff ~delta:0.01 ~eps:0.02 ()))
      in
      Alcotest.(check (option int))
        (Printf.sprintf "seed %Ld: chernoff runs its planned count" seed)
        (Generator.planned_samples
           (Generator.create Generator.Chernoff ~delta:0.01 ~eps:0.02))
        (Some r2.Cost_run.reach.Campaign.paths);
      if
        not
          (r2.Cost_run.cost_ci_low <= truth
          && truth <= r2.Cost_run.cost_ci_high)
      then
        Alcotest.failf
          "seed %Ld (chernoff): analytic E[cost] %.6f outside CI [%.6f, %.6f]"
          seed truth r2.Cost_run.cost_ci_low r2.Cost_run.cost_ci_high)
    [ 1L; 2L; 3L ]

(* --- determinism: cost accumulation never perturbs verdicts --- *)

let test_cost_off_on_bit_identical () =
  let net = load exp_model in
  let g = goal net "v" in
  let cv = cost_var net "c" in
  let cfg = Path.default_config ~horizon:6.0 in
  let n = 400 in
  let seed = 42L in
  (* the reference generator: with and without the cost observer *)
  let run_interp cost path =
    let rng = Rng.for_path ~seed ~path in
    fst (Path_oracle.generate ?cost net cfg Strategy.Asap rng ~goal:g)
  in
  let cell = ref nan in
  let interp_costs = ref [] in
  for path = 0 to n - 1 do
    let plain = run_interp None path in
    cell := nan;
    let priced = run_interp (Some (cv, cell)) path in
    if plain <> priced then
      Alcotest.failf "path %d: verdict changed with cost accumulation on" path;
    match priced with
    | Ok (Path.Sat _) -> interp_costs := !cell :: !interp_costs
    | _ -> ()
  done;
  (* the compiled generator: verdicts bit-identical to the oracle's, and
     the extracted costs float-equal to the oracle's *)
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let s = Compiled.scratch c in
  let ccell = ref nan in
  let compiled_costs = ref [] in
  for path = 0 to n - 1 do
    let rng = Rng.for_path ~seed ~path in
    ccell := nan;
    let v = Path.generate ~cost:(cv, ccell) c s q cfg Strategy.Asap rng in
    let rng' = Rng.for_path ~seed ~path in
    let v' = fst (Path_oracle.generate net cfg Strategy.Asap rng' ~goal:g) in
    if v <> v' then
      Alcotest.failf "path %d: compiled verdict differs from the oracle's" path;
    match v with
    | Ok (Path.Sat _) -> compiled_costs := !ccell :: !compiled_costs
    | _ -> ()
  done;
  Alcotest.(check bool) "some sat paths were observed" true
    (List.length !interp_costs > 0);
  Alcotest.(check (list (float 0.0))) "oracle-exact cost values"
    (List.rev !interp_costs) (List.rev !compiled_costs);
  (* the cost is the Sat crossing time here (unit-rate clock, never
     reset), so the extraction is exact by construction *)
  List.iter
    (fun c ->
      if c <> c || c < 0.0 || c > 6.0 then
        Alcotest.failf "cost %.17g outside [0, horizon]" c)
    !interp_costs

(* --- golden: the D[...] rendering at a fixed seed ---

   Mirrors examples/models/gps_nominal.slim: acquisition takes a
   non-deterministic 10..120 s, and the progressive strategy samples the
   delay uniformly, so the distribution has real spread.  Everything
   printed by pp_distribution is a deterministic function of the bucket
   counts — no wall clock — so the output is pinned byte for byte. *)

let gps_nominal =
  {|
device GPS
features
  measurement: out data port bool := false;
end GPS;
device implementation GPS.Imp
subcomponents
  x: data clock;
modes
  acquisition: initial mode while x <= 120.0;
  active: mode;
transitions
  acquisition -[when x >= 10.0 then measurement := true]-> active;
end GPS.Imp;
root GPS.Imp;
|}

let test_distribution_golden () =
  let net = load gps_nominal in
  let g = goal net "measurement" in
  let cv = cost_var net "x" in
  let t =
    match
      Cost_run.create ~seed:1L net ~goal:g ~horizon:300.0
        ~strategy:Strategy.Progressive ~cost_var:cv
        ~query:"D[x ; <> [0, 300] measurement]" ~kind:Generator.Chernoff
        ~delta:0.05 ~eps:0.05 ()
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "create failed: %s" (Path.error_to_string e)
  in
  let r = ok (Cost_run.drive t) in
  let got = Fmt.str "%a" Cost_run.pp_distribution r in
  let expected =
    "cost distribution (5903 sat paths):\n\
    \  mean 65.2269  ci [64.4159, 66.0379]  min 10.0008  max 119.987\n\
    \  quantiles:  p10 <= 32  p25 <= 64  p50 <= 128  p75 <= 128  p90 <= 128  \
     p95 <= 128  p99 <= 128\n\
    \  (8, 16]                   322  ####\n\
    \  (16, 32]                  875  ###########\n\
    \  (32, 64]                 1668  #####################\n\
    \  (64, 128]                3038  ########################################\n"
  in
  Alcotest.(check string) "pinned distribution rendering" expected got

(* --- checkpointing: round-trip, resume, and cross-resume rejection --- *)

let with_tmp f =
  let file = Filename.temp_file "slimsim_cost" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let test_checkpoint_roundtrip () =
  with_tmp (fun file ->
      let buckets = Array.make Metrics.n_buckets 0 in
      buckets.(33) <- 3;
      buckets.(40) <- 2;
      let st =
        {
          Supervisor.Checkpoint.seed = 7L;
          kind = Generator.Chow_robbins;
          delta = 0.05;
          eps = 0.1;
          next_path = 9;
          trials = 9;
          successes = 5;
          deadlocks = 1;
          violated = 0;
          errors = 0;
          diverged = 0;
          dropped = 0;
          leases = [];
          mlmc = None;
          cost =
            Some
              {
                Supervisor.Checkpoint.c_query = "E[c ; <> [0, 6] v]";
                c_count = 5;
                c_mean = 1.25;
                c_m2 = 0.5;
                c_min = 0.25;
                c_max = 3.5;
                c_buckets = buckets;
              };
        }
      in
      Supervisor.Checkpoint.save ~file st;
      match Supervisor.Checkpoint.load ~file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok st' ->
        Alcotest.(check bool) "identical state" true (st = st'))

(* One table for every cross-resume: a checkpoint taken by each kind of
   campaign (rows), resumed through [create] by each kind (columns).
   The diagonal resumes at the checkpoint's cursor; every other cell is
   refused with its own message.  Single-level and multilevel campaigns
   differ in generator kind, so the header check tells them apart
   first. *)

let q1 = "E[c ; <> [0, 6] v]"
let q2 = "E[c ; <> [0, 99] v]"

type taker = Classic | Cost of string | Multilevel of int

let taker_name = function
  | Classic -> "classic"
  | Cost q -> "cost " ^ q
  | Multilevel l -> Printf.sprintf "mlmc L=%d" l

(* [Ok (cursor, take)]: the created campaign's resume cursor, and an
   action stepping it 20 samples then parking it (which checkpoints). *)
let open_campaign taker ~supervisor =
  let net = load exp_model in
  let g = goal net "v" in
  let delta = 0.05 and eps = 0.1 and seed = 7L in
  let opened = function
    | Ok c ->
      Ok
        ( Campaign.consumed c,
          fun () ->
            ignore (Campaign.step ~quota:20 c);
            Campaign.park c )
    | Error e -> Error e
  in
  match taker with
  | Classic ->
    opened
      (Campaign.create ~seed ~supervisor net ~goal:g ~horizon:6.0
         ~strategy:Strategy.Asap
         ~generator:(Generator.create Generator.Chow_robbins ~delta ~eps)
         ())
  | Cost query ->
    opened
      (Cost_run.create ~seed ~supervisor net ~goal:g ~horizon:6.0
         ~strategy:Strategy.Asap ~cost_var:(cost_var net "c") ~query
         ~kind:Generator.Chow_robbins ~delta ~eps ())
  | Multilevel levels ->
    opened
      (Mlmc_run.create ~seed ~supervisor ~levels net ~goal:g ~horizon:6.0
         ~strategy:Strategy.Asap ~delta ~eps ())

let test_cross_resume_rejected () =
  let generator =
    Error
      "cannot resume: checkpoint was taken with a different statistical \
       generator"
  in
  let no_cost =
    Error
      "cannot resume: checkpoint has no cost-accumulator state (it was taken \
       by a plain reachability campaign)"
  in
  let columns = [ Classic; Cost q1; Cost q2; Multilevel 4; Multilevel 3 ] in
  let table =
    [
      (Classic, [ Ok (); no_cost; no_cost; generator; generator ]);
      ( Cost q1,
        [
          Error
            "cannot resume: checkpoint carries cost-accumulator state; resume \
             it with the same cost query";
          Ok ();
          Error
            (Printf.sprintf
               "cannot resume: checkpoint was taken for query %s, not %s" q1 q2);
          generator;
          generator;
        ] );
      ( Multilevel 4,
        [
          generator;
          generator;
          generator;
          Ok ();
          Error "cannot resume: checkpoint was taken with 4 levels, not 3";
        ] );
    ]
  in
  List.iter
    (fun (taker, expected) ->
      with_tmp (fun file ->
          let sup resume =
            Supervisor.create ~checkpoint:{ Supervisor.file; every = 1000 }
              ~resume ()
          in
          (match open_campaign taker ~supervisor:(sup false) with
          | Ok (_, take) -> take ()
          | Error e ->
            Alcotest.failf "%s: create failed: %s" (taker_name taker)
              (Path.error_to_string e));
          List.iter2
            (fun resumer want ->
              let cell =
                Printf.sprintf "%s checkpoint -> %s" (taker_name taker)
                  (taker_name resumer)
              in
              match (open_campaign resumer ~supervisor:(sup true), want) with
              | Ok (cursor, _), Ok () ->
                Alcotest.(check int) (cell ^ ": cursor restored") 20 cursor
              | Error (Path.Model_error msg), Error want ->
                Alcotest.(check string) cell want msg
              | Ok _, Error want ->
                Alcotest.failf "%s: resumed, expected %S" cell want
              | Error e, _ ->
                Alcotest.failf "%s: unexpected error %s" cell
                  (Path.error_to_string e))
            columns expected))
    table

let test_resume_reproduces_uninterrupted () =
  let uninterrupted = ok (Cost_run.drive (make_cost ~seed:5L ())) in
  with_tmp (fun file ->
      (* run the first slice with periodic checkpoints, abandon it, then
         resume from the file: the final accumulator must be identical *)
      let sup1 =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 } ()
      in
      let t1 = make_cost ~supervisor:sup1 ~seed:5L () in
      (match Cost_run.step ~quota:130 t1 with
      | Cost_run.Running -> ()
      | Cost_run.Done _ -> Alcotest.fail "converged before the interrupt point"
      | Cost_run.Failed e ->
        Alcotest.failf "first slice failed: %s" (Path.error_to_string e));
      let sup2 =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 }
          ~resume:true ()
      in
      let t2 = make_cost ~supervisor:sup2 ~seed:5L () in
      let resumed = ok (Cost_run.drive t2) in
      Alcotest.(check int) "same sat count" uninterrupted.Cost_run.cost_samples
        resumed.Cost_run.cost_samples;
      Alcotest.(check (float 0.0)) "same mean" uninterrupted.Cost_run.cost_mean
        resumed.Cost_run.cost_mean;
      Alcotest.(check (float 0.0)) "same ci low"
        uninterrupted.Cost_run.cost_ci_low resumed.Cost_run.cost_ci_low;
      Alcotest.(check (float 0.0)) "same ci high"
        uninterrupted.Cost_run.cost_ci_high resumed.Cost_run.cost_ci_high;
      Alcotest.(check (float 0.0)) "same min" uninterrupted.Cost_run.cost_min
        resumed.Cost_run.cost_min;
      Alcotest.(check (float 0.0)) "same max" uninterrupted.Cost_run.cost_max
        resumed.Cost_run.cost_max;
      Alcotest.(check (array int)) "same buckets"
        uninterrupted.Cost_run.cost_buckets resumed.Cost_run.cost_buckets;
      Alcotest.(check int) "same total paths"
        uninterrupted.Cost_run.reach.Campaign.paths
        resumed.Cost_run.reach.Campaign.paths)

let test_mlmc_kind_rejected () =
  let net = load exp_model in
  let g = goal net "v" in
  let cv = cost_var net "c" in
  match
    Cost_run.create net ~goal:g ~horizon:6.0 ~strategy:Strategy.Asap
      ~cost_var:cv ~query:"E[c ; <> [0, 6] v]" ~kind:Generator.Mlmc
      ~delta:0.05 ~eps:0.05 ()
  with
  | Error (Path.Model_error _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e)
  | Ok _ -> Alcotest.fail "mlmc generator accepted for a cost query"

(* Cost-bounded reachability has an unbounded horizon, so there are no
   truncation levels: the facade refuses the multilevel generator with
   a specific error (and the CLI exits 1) instead of quietly running a
   single-level sequential rule. *)
let test_mlmc_cost_bounded_rejected () =
  let query = "P(<> [c <= 5] v)" in
  let m =
    match Slimsim.load_string exp_model with
    | Ok m -> m
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  (match
     Slimsim.check_cost ~generator:Generator.Mlmc m ~query
       ~strategy:Strategy.Asap ~delta:0.05 ~eps:0.05 ()
   with
  | Error msg ->
    Alcotest.(check bool) "names the cost-bounded form" true
      (Astring_contains.contains msg "cost-bounded reachability")
  | Ok _ -> Alcotest.fail "mlmc accepted for cost-bounded reachability");
  let bin =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/slimsim_cli.exe"
  in
  let model = Filename.temp_file "slimsim_cost" ".slim" in
  Fun.protect
    ~finally:(fun () -> Sys.remove model)
    (fun () ->
      Out_channel.with_open_bin model (fun oc -> output_string oc exp_model);
      let code =
        Sys.command
          (Filename.quote_command bin ~stdout:Filename.null
             ~stderr:Filename.null
             [ "simulate"; model; "--query"; query; "-g"; "mlmc"; "--seed"; "1" ])
      in
      Alcotest.(check int) "CLI exit code" 1 code)

(* Every query form under every generator family through every facade
   front-end: each cell runs, or fails with its own specific error.
   [""] stands for [Ok] (for [check_cost], of the form's outcome). *)
let test_query_form_table () =
  let m =
    match
      Slimsim.load_file
        (Filename.concat
           (Filename.dirname Sys.executable_name)
           "../examples/models/mm1k_priced.slim")
    with
    | Ok m -> m
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  let forms =
    [
      ("P reach", "P(<> [0, 5] q = 4)");
      ("P invariance", "P([] [0, 5] q < 4)");
      ("cost-bounded P", "P(<> [w <= 3] q = 4)");
      ("E", "E[w ; <> [0, 5] q = 4]");
      ("D", "D[w ; <> [0, 5] q = 4]");
    ]
  in
  let cost = "estimates a cost, not a probability"
  and truncates = "cost-bounded reachability: the multilevel generator"
  and not_a_cost = "the multilevel generator estimates a probability"
  and serve = "not supported in serve mode"
  and coupled = "generator mlmc is not supported by the campaign service" in
  (* front-end, form: chernoff, chow-robbins, mlmc *)
  let table =
    [
      ("check", "P reach", ("", "", ""));
      ("check", "P invariance", ("", "", ""));
      ("check", "cost-bounded P", ("", "", truncates));
      ("check", "E", (cost, cost, cost));
      ("check", "D", (cost, cost, cost));
      ("check_cost", "P reach", ("", "", ""));
      ("check_cost", "P invariance", ("", "", ""));
      ("check_cost", "cost-bounded P", ("", "", truncates));
      ("check_cost", "E", ("", "", not_a_cost));
      ("check_cost", "D", ("", "", not_a_cost));
      ("prepare", "P reach", ("", "", coupled));
      ("prepare", "P invariance", ("", "", coupled));
      ("prepare", "cost-bounded P", (serve, serve, serve));
      ("prepare", "E", (serve, serve, serve));
      ("prepare", "D", (serve, serve, serve));
    ]
  in
  List.iter
    (fun (front, form, (chernoff, chow_robbins, mlmc)) ->
      let query = List.assoc form forms in
      List.iter
        (fun (generator, expected) ->
          let cell =
            Printf.sprintf "%s, %s, %s" front form
              (Generator.kind_to_string generator)
          in
          let run f = f ~strategy:Strategy.Asap ~delta:0.1 ~eps:0.2 () in
          let outcome =
            match front with
            | "check" ->
              Result.map ignore
                (run (Slimsim.check ~generator m ~property:query))
            | "check_cost" ->
              Result.bind
                (run (Slimsim.check_cost ~generator m ~query))
                (fun o ->
                  match (form, o) with
                  | "E", Slimsim.Cost_expected _
                  | "D", Slimsim.Cost_distribution _
                  | ("P reach" | "P invariance" | "cost-bounded P"),
                    Slimsim.Cost_probability _ ->
                    Ok ()
                  | _ -> Error "wrong outcome kind")
            | _ ->
              Result.map ignore
                (run (Slimsim.prepare ~generator m ~property:query))
          in
          match (expected, outcome) with
          | "", Ok () -> ()
          | "", Error e -> Alcotest.failf "%s: unexpected error: %s" cell e
          | _, Ok () -> Alcotest.failf "%s: accepted, expected %S" cell expected
          | _, Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S in %S" cell expected e)
              true
              (Astring_contains.contains e expected))
        [
          (Generator.Chernoff, chernoff);
          (Generator.Chow_robbins, chow_robbins);
          (Generator.Mlmc, mlmc);
        ])
    table

let test_resolve_cost_rejects_discrete () =
  let net = load exp_model in
  (match Pattern.resolve_cost net "v" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "discrete variable accepted as a cost observer");
  match Pattern.resolve_cost net "c >= 1.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compound expression accepted as a cost observer"

let suite =
  [
    Alcotest.test_case "bucket: exact powers of two" `Quick
      test_bucket_powers_of_two;
    Alcotest.test_case "metrics: label escaping" `Quick test_label_escaping;
    Alcotest.test_case "parser: non-finite bounds rejected" `Quick
      test_nonfinite_bounds;
    Alcotest.test_case "E[cost] matches the truncated mean" `Slow
      test_expected_cost_analytic;
    Alcotest.test_case "cost observer leaves verdicts bit-identical" `Quick
      test_cost_off_on_bit_identical;
    Alcotest.test_case "D[...] rendering is pinned" `Quick
      test_distribution_golden;
    Alcotest.test_case "checkpoint: cost block round-trips" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: cross-resume rejected" `Quick
      test_cross_resume_rejected;
    Alcotest.test_case "checkpoint: resume reproduces the run" `Quick
      test_resume_reproduces_uninterrupted;
    Alcotest.test_case "mlmc generator rejected" `Quick test_mlmc_kind_rejected;
    Alcotest.test_case "cost observer must be clock/continuous" `Quick
      test_resolve_cost_rejects_discrete;
    Alcotest.test_case "mlmc rejected for cost-bounded reachability" `Quick
      test_mlmc_cost_bounded_rejected;
    Alcotest.test_case "query forms x generators x front-ends" `Quick
      test_query_form_table;
  ]
