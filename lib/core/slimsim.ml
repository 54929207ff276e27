module Strategy = Slimsim_sim.Strategy
module Generator = Slimsim_stats.Generator
module Loader = Slimsim_slim.Loader
module Pattern = Slimsim_props.Pattern
module Engine = Slimsim_sim.Engine
module Campaign = Slimsim_sim.Campaign
module Path = Slimsim_sim.Path

let tool_version = "1.1.0"

type model = Loader.loaded

let load_string = Loader.load_string
let load_file = Loader.load_file
let network (m : model) = m.Loader.network
let ast (m : model) = m.Loader.ast
let tables (m : model) = m.Loader.tables

let lint (m : model) =
  Slimsim_analyze.Lint.run m.Loader.tables m.Loader.network

let ( let* ) = Result.bind

let enum_lookup (m : model) x =
  Option.map snd (Slimsim_slim.Sema.enum_literal m.Loader.tables x)

let parse_pattern_full (m : model) src =
  let* pat = Pattern.parse src in
  let* goal, hold, horizon =
    Pattern.resolve ~enum:(enum_lookup m) m.Loader.network pat
  in
  Ok (goal, hold, horizon, pat.Pattern.complement)

let parse_property (m : model) src =
  let* goal, hold, horizon, _ = parse_pattern_full m src in
  Ok (goal, hold, horizon)

type estimate = {
  probability : float;
  ci_low : float;
  ci_high : float;
  paths : int;
  successes : int;
  deadlock_paths : int;
  violated_paths : int;
  errors : int;
  diverged_paths : int;
  dropped_paths : int;
  worker_restarts : int;
  interrupted : bool;
  wall_seconds : float;
  certificate : string option;
}

(* --- the qualitative pre-pass (§II-C) --- *)

module Prepass = Slimsim_analyze.Prepass

(* Map the skeleton outcome (computed on the resolved, possibly negated
   goal) to a certificate about the user's property. *)
let certificate_of ~complement (outcome : Prepass.outcome) =
  match Prepass.certificate_string outcome, complement with
  | Some "P0", false | Some "P1", true -> Some "P0"
  | Some "P0", true | Some "P1", false -> Some "P1"
  | _ -> None

let prepass ?max_nodes (m : model) ~property =
  let* goal, hold, _horizon, complement = parse_pattern_full m property in
  let report = Prepass.analyze ?max_nodes ?hold m.Loader.network ~goal in
  Ok (report, complement)

(* Property-directed lint: turn a conclusive pre-pass into an I002
   (statically certain) or I003 (statically vacuous) diagnostic.  A raw
   P1 outcome always carries a witness trace — for an invariance
   pattern that trace reaches the negated goal, i.e. it is a concrete
   violation of the user's invariant. *)
let lint_property ?max_nodes (m : model) ~property =
  let module D = Slimsim_analyze.Diagnostic in
  let module C = Slimsim_analyze.Codes in
  match prepass ?max_nodes m ~property with
  | Error e ->
    [
      D.make ~code:C.parse_error ~severity:D.Error ~pos:Slimsim_slim.Ast.no_pos
        (Printf.sprintf "property %S: %s" property e);
    ]
  | Ok (report, complement) -> (
    let trace =
      match report.Prepass.outcome with
      | Prepass.P1 { witness; _ } -> witness
      | _ -> []
    in
    match certificate_of ~complement report.Prepass.outcome with
    | Some "P1" ->
      [
        D.make ~code:C.statically_certain ~severity:D.Info
          ~pos:Slimsim_slim.Ast.no_pos ~trace
          (Printf.sprintf
             "property %S is statically certain (P = 1): every run surely \
              satisfies it; simulation would only confirm the answer"
             property);
      ]
    | Some "P0" ->
      [
        D.make ~code:C.statically_vacuous ~severity:D.Info
          ~pos:Slimsim_slim.Ast.no_pos ~trace
          (Printf.sprintf
             "property %S is statically vacuous (P = 0): no run can satisfy \
              it; sampling cannot produce a success"
             property);
      ]
    | _ -> [])

(* --- campaigns as values (the serve-mode workhorse) --- *)

type prepared = {
  campaign : Campaign.t;
  complement : bool;
  horizon : float;
}

let make_config ?max_steps ?max_sim_time ?max_wall_per_path ~on_deadlock
    ~horizon () =
  let base = { (Path.default_config ~horizon) with Path.on_deadlock } in
  {
    base with
    Path.max_steps =
      (match max_steps with Some n -> n | None -> base.Path.max_steps);
    max_sim_time;
    max_wall_per_path;
  }

let prepare ?workers ?seed ?(generator = Generator.Chernoff)
    ?(on_deadlock = `Falsify) ?engine ?on_error ?supervisor ?progress
    ?max_steps ?max_sim_time ?max_wall_per_path ?compiled (m : model)
    ~property ~strategy ~delta ~eps () =
  let* goal, hold, horizon, complement = parse_pattern_full m property in
  let gen = Generator.create generator ~delta ~eps in
  let config =
    make_config ?max_steps ?max_sim_time ?max_wall_per_path ~on_deadlock
      ~horizon ()
  in
  match
    Campaign.create ?workers ?seed ~config ?engine ?on_error ?hold ?supervisor
      ?progress ?compiled m.Loader.network ~goal ~horizon ~strategy
      ~generator:gen ()
  with
  | Ok c -> Ok { campaign = c; complement; horizon }
  | Error e -> Error (Path.error_to_string e)

(* invariance patterns report the complement; "successes" keeps counting
   the paths that reached the negated goal *)
let estimate_of ~complement (r : Campaign.result) =
  let pr, lo, hi =
    if complement then
      (1.0 -. r.Campaign.probability, 1.0 -. r.Campaign.ci_high,
       1.0 -. r.Campaign.ci_low)
    else (r.Campaign.probability, r.Campaign.ci_low, r.Campaign.ci_high)
  in
  {
    probability = pr;
    ci_low = lo;
    ci_high = hi;
    paths = r.Campaign.paths;
    successes = r.Campaign.successes;
    deadlock_paths = r.Campaign.deadlock_paths;
    violated_paths = r.Campaign.violated_paths;
    errors = r.Campaign.errors;
    diverged_paths = r.Campaign.diverged_paths;
    dropped_paths = r.Campaign.dropped_paths;
    worker_restarts = r.Campaign.worker_restarts;
    interrupted = r.Campaign.stopped = Campaign.Interrupted;
    wall_seconds = r.Campaign.wall_seconds;
    certificate = None;
  }

let estimate_of_result p r = estimate_of ~complement:p.complement r

let prepass_metric result =
  if Slimsim_obs.Metrics.enabled () then
    Slimsim_obs.Metrics.incr
      (Slimsim_obs.Metrics.counter ~labels:[ ("result", result) ]
         "slimsim_prepass_total"
         ~help:"pre-pass runs by result (p0 / p1 / inconclusive)")

(* The qualitative shortcut shared by every checking front-end: [Some
   (p, report)] when the skeleton pre-pass answers the property exactly.
   The Scripted strategy hands control to a user callback (which may
   Abort or Advance arbitrarily), so certificates about the measure of
   all runs must not preempt it. *)
let prepass_shortcut ~prepass ~strategy ?hold ~config ~max_wall_per_path
    (m : model) ~goal =
  let scripted = match strategy with Strategy.Scripted _ -> true | _ -> false in
  if not (prepass && not scripted) then None
  else begin
    let report = Prepass.analyze ?hold m.Loader.network ~goal in
    let answer =
      match report.Prepass.outcome with
      | Prepass.P0 _ -> Some 0.0
      | Prepass.P1 { depth; _ }
      (* All runs reach the goal within [depth] delay-free moves at
         elapsed time 0, so no step / sim-time budget with room for
         [depth] steps can reclassify them; a wall-clock watchdog
         could, so its presence disables the shortcut. *)
        when depth < config.Path.max_steps && max_wall_per_path = None ->
        Some 1.0
      | _ -> None
    in
    (match answer with
    | Some _ ->
      prepass_metric
        (match report.Prepass.outcome with
        | Prepass.P0 _ -> "p0"
        | _ -> "p1")
    | None -> prepass_metric "inconclusive");
    Slimsim_obs.Log.emit ~event:"prepass"
      [
        ( "result",
          Slimsim_obs.Json.String
            (match report.Prepass.outcome with
            | Prepass.P0 _ -> "p0"
            | Prepass.P1 _ -> "p1"
            | Prepass.Inconclusive _ -> "inconclusive") );
        ("shortcut", Slimsim_obs.Json.Bool (answer <> None));
        ("wall_seconds", Slimsim_obs.Json.Float report.Prepass.wall_seconds);
      ];
    Option.map (fun p -> (p, report)) answer
  end

(* Exact answer, no sampling: the certificate stands in for the whole
   campaign.  The reported probability is complement-mapped exactly like
   an estimated one. *)
let exact_estimate ~complement (p_raw, report) =
  let p = if complement then 1.0 -. p_raw else p_raw in
  {
    probability = p;
    ci_low = p;
    ci_high = p;
    paths = 0;
    successes = 0;
    deadlock_paths = 0;
    violated_paths = 0;
    errors = 0;
    diverged_paths = 0;
    dropped_paths = 0;
    worker_restarts = 0;
    interrupted = false;
    wall_seconds = report.Prepass.wall_seconds;
    certificate = certificate_of ~complement report.Prepass.outcome;
  }

(* Drive a freshly created campaign to its result; the heartbeat line
   is cleared either way. *)
let run_campaign ?progress created =
  let result =
    match created with
    | Error e -> Error e
    | Ok c -> Campaign.drive c
  in
  (match progress with
  | Some pr -> Slimsim_obs.Progress.finish pr
  | None -> ());
  Result.map_error Path.error_to_string result

(* The probability front-ends: parse, then either the pre-pass answers
   exactly or [sample] estimates. *)
let sample_property ~on_deadlock ?max_steps ?max_sim_time ?max_wall_per_path
    ~prepass ~strategy (m : model) ~property sample =
  let* goal, hold, horizon, complement = parse_pattern_full m property in
  let config =
    make_config ?max_steps ?max_sim_time ?max_wall_per_path ~on_deadlock
      ~horizon ()
  in
  match
    prepass_shortcut ~prepass ~strategy ?hold ~config ~max_wall_per_path m
      ~goal
  with
  | Some shortcut -> Ok (exact_estimate ~complement shortcut)
  | None ->
    Result.map (estimate_of ~complement) (sample ~goal ~hold ~horizon ~config)

let check ?workers ?seed ?(generator = Generator.Chernoff)
    ?(on_deadlock = `Falsify) ?engine ?on_error ?supervisor ?progress
    ?max_steps ?max_sim_time ?max_wall_per_path ?(prepass = true) (m : model)
    ~property ~strategy ~delta ~eps () =
  sample_property ~on_deadlock ?max_steps ?max_sim_time ?max_wall_per_path
    ~prepass ~strategy m ~property (fun ~goal ~hold ~horizon ~config ->
      run_campaign ?progress
        (Campaign.create ?workers ?seed ~config ?engine ?on_error ?hold
           ?supervisor ?progress m.Loader.network ~goal ~horizon ~strategy
           ~generator:(Generator.create generator ~delta ~eps) ()))

(* The multilevel front-end: the same parse / complement mapping /
   pre-pass shortcut as [check], over the coupled coarse/fine campaign
   of {!Slimsim_sim.Mlmc_run} (sequential: the pair shares scratch state
   and the allocator is consulted between samples). *)
let check_mlmc ?seed ?(on_deadlock = `Falsify) ?engine ?on_error ?supervisor
    ?progress ?max_steps ?max_sim_time ?max_wall_per_path ?(prepass = true)
    ?levels ?warmup (m : model) ~property ~strategy ~delta ~eps () =
  let module Mlmc_run = Slimsim_sim.Mlmc_run in
  sample_property ~on_deadlock ?max_steps ?max_sim_time ?max_wall_per_path
    ~prepass ~strategy m ~property (fun ~goal ~hold ~horizon ~config ->
      let* r =
        run_campaign ?progress
          (Mlmc_run.create ?seed ~config ?engine ?on_error ?hold ?supervisor
             ?progress ?levels ?warmup m.Loader.network ~goal ~horizon
             ~strategy ~delta ~eps ())
      in
      (* The telescoped CLT interval is not confined to [0,1] the way a
         Bernoulli estimator's is; clamp before the complement mapping
         so the report stays a probability. *)
      let clamp x = Float.min 1.0 (Float.max 0.0 x) in
      Ok
        {
          Campaign.probability = clamp r.Mlmc_run.probability;
          ci_low = clamp r.Mlmc_run.ci_low;
          ci_high = clamp r.Mlmc_run.ci_high;
          paths = r.Mlmc_run.paths;
          successes = r.Mlmc_run.sat_paths;
          deadlock_paths = r.Mlmc_run.deadlock_paths;
          violated_paths = r.Mlmc_run.violated_paths;
          errors = r.Mlmc_run.errors;
          diverged_paths = r.Mlmc_run.diverged_paths;
          dropped_paths = r.Mlmc_run.dropped_samples;
          worker_restarts = 0;
          stopped = r.Mlmc_run.stopped;
          wall_seconds = r.Mlmc_run.wall_seconds;
        })

(* --- priced-STA cost queries (UPPAAL-SMC style, arXiv:1207.1272) --- *)

module Cost_run = Slimsim_sim.Cost_run

type cost_outcome =
  | Cost_probability of estimate
  | Cost_expected of Cost_run.result
  | Cost_distribution of Cost_run.result

(* The one place a query form meets its campaign: plain probabilities
   go to [check], cost-bounded reachability to the Bernoulli campaign
   with a cost hold, E[...]/D[...] to the cost accumulator.  The
   multilevel generator truncates a finite time horizon to estimate a
   probability, so no cost form takes it: cost-bounded reachability has
   no time horizon (refused here), E[...]/D[...] estimate a cost
   (refused by [Cost_run.create]). *)
let check_cost ?workers ?seed ?(generator = Generator.Chernoff)
    ?(on_deadlock = `Falsify) ?engine ?on_error ?supervisor ?progress
    ?max_steps ?max_sim_time ?max_wall_per_path ?(prepass = true) (m : model)
    ~query ~strategy ~delta ~eps () =
  let* q = Pattern.parse_query query in
  match q with
  | Pattern.Prob _ ->
    let* e =
      check ?workers ?seed ~generator ~on_deadlock ?engine ?on_error
        ?supervisor ?progress ?max_steps ?max_sim_time ?max_wall_per_path
        ~prepass m ~property:query ~strategy ~delta ~eps ()
    in
    Ok (Cost_probability e)
  | Pattern.Cost_reach _ when generator = Generator.Mlmc ->
    Error
      "cost-bounded reachability: the multilevel generator's levels \
       truncate the time horizon, and P(<> [c <= C] ...) has none (its \
       horizon is unbounded); use a fixed-size or chow-robbins generator"
  | Pattern.Cost_reach { cost_src; cost_bound; goal_src } -> (
    (* Cost-bounded reachability is bounded until in cost space: hold
       [c <= C], no time bound (the watchdog budgets backstop paths
       whose cost observer stalls below the bound). *)
    let module Expr = Slimsim_sta.Expr in
    let* cv =
      Pattern.resolve_cost ~enum:(enum_lookup m) m.Loader.network cost_src
    in
    let* goal =
      Loader.parse_goal ~enum:(enum_lookup m) m.Loader.network goal_src
    in
    let hold = Expr.Binop (Expr.Le, Expr.var cv, Expr.real cost_bound) in
    let horizon = infinity in
    let config =
      make_config ?max_steps ?max_sim_time ?max_wall_per_path ~on_deadlock
        ~horizon ()
    in
    match
      prepass_shortcut ~prepass ~strategy ~hold ~config ~max_wall_per_path m
        ~goal
    with
    | Some shortcut ->
      Ok (Cost_probability (exact_estimate ~complement:false shortcut))
    | None ->
      let* r =
        run_campaign ?progress
          (Campaign.create ?workers ?seed ~config ?engine ?on_error ~hold
             ?supervisor ?progress m.Loader.network ~goal ~horizon ~strategy
             ~generator:(Generator.create generator ~delta ~eps) ())
      in
      Ok (Cost_probability (estimate_of ~complement:false r)))
  | Pattern.Cost_expect { cost_src; prob } | Pattern.Cost_dist { cost_src; prob }
    -> (
    let* cv =
      Pattern.resolve_cost ~enum:(enum_lookup m) m.Loader.network cost_src
    in
    let* goal, hold, horizon =
      Pattern.resolve ~enum:(enum_lookup m) m.Loader.network prob
    in
    let config =
      make_config ?max_steps ?max_sim_time ?max_wall_per_path ~on_deadlock
        ~horizon ()
    in
    (* A P=0 certificate means no path ever reaches the goal: the
       conditional expectation is undefined and sampling can only stall.
       A P=1 certificate does NOT shortcut — the cost values still have
       to be sampled. *)
    match
      prepass_shortcut ~prepass ~strategy ?hold ~config ~max_wall_per_path m
        ~goal
    with
    | Some (p, _) when p = 0.0 ->
      Error
        (Printf.sprintf
           "expected cost undefined: the pre-pass certifies P = 0 for %s — \
            no path ever reaches the goal"
           (Pattern.to_string prob))
    | _ ->
      let* r =
        run_campaign ?progress
          (Cost_run.create ?workers ?seed ~config ?engine ?on_error ?hold
             ?supervisor ?progress m.Loader.network ~goal ~horizon ~strategy
             ~cost_var:cv ~query:(Pattern.query_to_string q) ~kind:generator
             ~delta ~eps ())
      in
      Ok (match q with Pattern.Cost_dist _ -> Cost_distribution r | _ -> Cost_expected r))

type exact = {
  exact_probability : float;
  states : int;
  lumped_states : int;
  analysis_seconds : float;
}

let check_exact ?max_states ?lump (m : model) ~property =
  let* goal, hold, horizon, complement = parse_pattern_full m property in
  match
    Slimsim_ctmc.Analysis.check ?max_states ?hold ?lump m.Loader.network ~goal
      ~horizon
  with
  | Ok r ->
    Ok
      {
        exact_probability =
          (if complement then 1.0 -. r.Slimsim_ctmc.Analysis.probability
           else r.Slimsim_ctmc.Analysis.probability);
        states = r.Slimsim_ctmc.Analysis.stable_states;
        lumped_states = r.Slimsim_ctmc.Analysis.lumped_states;
        analysis_seconds = r.Slimsim_ctmc.Analysis.total_seconds;
      }
  | Error e -> Error e

let simulate_one ?(seed = 1L) ?(record = true) (m : model) ~property ~strategy =
  let* goal, hold, horizon = parse_property m property in
  let config = Path.default_config ~horizon in
  let rng = Slimsim_stats.Rng.for_path ~seed ~path:0 in
  let verdict, steps =
    Path.generate ~record ?hold m.Loader.network config strategy rng ~goal
  in
  match verdict with
  | Ok v -> Ok (v, steps)
  | Error e -> Error (Path.error_to_string e)

let fault_tree ?max_order (m : model) ~goal ~top =
  let* goal_expr = Slimsim_slim.Loader.parse_goal m.Loader.network goal in
  Slimsim_safety.Cutsets.fault_tree ?max_order m.Loader.network ~goal:goal_expr ~top

let fmea (m : model) ~goal =
  let* goal_expr = Slimsim_slim.Loader.parse_goal m.Loader.network goal in
  Slimsim_safety.Fmea.analyze m.Loader.network ~goal:goal_expr

let fdir ?settle_time (m : model) ~observables =
  Slimsim_safety.Fdir.analyze ?settle_time m.Loader.network ~observables

let verify_invariant ?max_states (m : model) ~invariant =
  let* prop = Slimsim_slim.Loader.parse_goal m.Loader.network invariant in
  Slimsim_ctmc.Qualitative.check_invariant ?max_states m.Loader.network ~prop

let diagnosability ?max_faults (m : model) ~observables ~diagnosis =
  let* d = Slimsim_slim.Loader.parse_goal m.Loader.network diagnosis in
  Slimsim_safety.Diagnosability.check ?max_faults m.Loader.network ~observables
    ~diagnosis:d

let dot_process (m : model) name =
  match Slimsim_sta.Network.find_proc m.Loader.network name with
  | Some p -> Ok (Slimsim_sta.Dot.automaton m.Loader.network p)
  | None -> Error (Printf.sprintf "unknown process %s" name)

let dot_network (m : model) = Slimsim_sta.Dot.network m.Loader.network

let pp_estimate ppf e =
  Fmt.pf ppf "p = %.6f in [%.6f, %.6f] (%d/%d paths, %d dead/timelocked, %.2fs)"
    e.probability e.ci_low e.ci_high e.successes e.paths e.deadlock_paths
    e.wall_seconds;
  if e.violated_paths > 0 then Fmt.pf ppf " (%d hold-violated)" e.violated_paths;
  if e.errors > 0 then Fmt.pf ppf " (%d errored)" e.errors;
  if e.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d dropped)" e.diverged_paths e.dropped_paths;
  if e.worker_restarts > 0 then
    Fmt.pf ppf " (%d worker restarts)" e.worker_restarts;
  if e.interrupted then Fmt.pf ppf " [interrupted]";
  match e.certificate with
  | Some c -> Fmt.pf ppf " [certificate %s: exact]" c
  | None -> ()

let pp_exact ppf e =
  Fmt.pf ppf "p = %.9f (%d states, %d after lumping, %.2fs)" e.exact_probability
    e.states e.lumped_states e.analysis_seconds

let pp_cost_outcome ppf = function
  | Cost_probability e -> pp_estimate ppf e
  | Cost_expected r | Cost_distribution r -> Cost_run.pp_result ppf r
