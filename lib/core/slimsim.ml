module Strategy = Slimsim_sim.Strategy
module Generator = Slimsim_stats.Generator
module Loader = Slimsim_slim.Loader
module Pattern = Slimsim_props.Pattern
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

(* --- the one query resolver --- *)

(* Every front-end reads a query through [plan]: the parsed form, the
   resolved goal / hold / time bound, whether the reported probability
   is the complement of the estimated one (invariance patterns), the
   cost observer of E[...] / D[...] and the path configuration. *)
type plan = {
  query : Pattern.query;
  goal : Slimsim_sta.Expr.t;
  hold : Slimsim_sta.Expr.t option;
  horizon : float;
  complement : bool;
  cost_var : int option;
  config : Path.config;
}

let plan ?max_steps ?max_sim_time ?max_wall_per_path ?(on_deadlock = `Falsify)
    (m : model) src =
  let enum = enum_lookup m and net = m.Loader.network in
  let* query = Pattern.parse_query src in
  let* cost_var, (goal, hold, horizon), complement =
    match query with
    | Pattern.Prob p ->
      let* resolved = Pattern.resolve ~enum net p in
      Ok (None, resolved, p.Pattern.complement)
    | Pattern.Cost_reach { cost_src; cost_bound; goal_src } ->
      (* bounded until in cost space: hold [c <= C], no time bound (the
         watchdog budgets backstop paths whose cost observer stalls
         below the bound) *)
      let module Expr = Slimsim_sta.Expr in
      let* cv = Pattern.resolve_cost ~enum net cost_src in
      let* goal = Loader.parse_goal ~enum net goal_src in
      let hold = Expr.Binop (Expr.Le, Expr.var cv, Expr.real cost_bound) in
      Ok (None, (goal, Some hold, infinity), false)
    | Pattern.Cost_expect { cost_src; prob } | Pattern.Cost_dist { cost_src; prob }
      ->
      let* cv = Pattern.resolve_cost ~enum net cost_src in
      let* resolved = Pattern.resolve ~enum net prob in
      Ok (Some cv, resolved, false)
  in
  let config =
    Path.make_config ?max_steps ?max_sim_time ?max_wall_per_path ~on_deadlock
      ~horizon ()
  in
  Ok { query; goal; hold; horizon; complement; cost_var; config }

(* The probability front-ends take every P form; E[...] / D[...]
   estimate a cost. *)
let probability_plan ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock
    m src =
  let* p = plan ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock m src in
  match p.query with
  | Pattern.Cost_expect _ | Pattern.Cost_dist _ ->
    Error
      (Printf.sprintf
         "%s estimates a cost, not a probability; check it as a cost query"
         (Pattern.query_to_string p.query))
  | Pattern.Prob _ | Pattern.Cost_reach _ -> Ok p

let parse_property (m : model) src =
  let* p = probability_plan m src in
  Ok (p.goal, p.hold, p.horizon)

let query_complement (m : model) ~query =
  let* p = plan m query in
  Ok (match p.query with Pattern.Prob _ -> Some p.complement | _ -> None)

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
  let* p = plan m property in
  Ok (Prepass.analyze ?max_nodes ?hold:p.hold m.Loader.network ~goal:p.goal,
      p.complement)

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
    let info code what =
      [
        D.make ~code ~severity:D.Info ~pos:Slimsim_slim.Ast.no_pos ~trace
          (Printf.sprintf "property %S is %s" property what);
      ]
    in
    match certificate_of ~complement report.Prepass.outcome with
    | Some "P1" ->
      info C.statically_certain
        "statically certain (P = 1): every run surely satisfies it; \
         simulation would only confirm the answer"
    | Some "P0" ->
      info C.statically_vacuous
        "statically vacuous (P = 0): no run can satisfy it; sampling cannot \
         produce a success"
    | _ -> [])

(* --- one route from a plan to its campaign --- *)

module Cost_run = Slimsim_sim.Cost_run
module Mlmc_run = Slimsim_sim.Mlmc_run

type cost_outcome =
  | Cost_probability of estimate
  | Cost_expected of Cost_run.result
  | Cost_distribution of Cost_run.result

type prepared = { campaign : Campaign.t; complement : bool }

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

(* The telescoped CLT interval is not confined to [0,1] the way a
   Bernoulli estimator's is; clamp before the complement mapping so the
   report stays a probability.  [paths] counts both halves of a pair. *)
let of_mlmc (r : Mlmc_run.result) =
  let clamp x = Float.min 1.0 (Float.max 0.0 x) in
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
  }

let bernoulli ?workers ?seed ?on_error ?supervisor ?progress ?compiled
    (m : model) (p : plan) ~generator ~strategy ~delta ~eps =
  Campaign.create ?workers ?seed ~config:p.config ?on_error ?hold:p.hold
    ?supervisor ?progress ?compiled m.Loader.network ~goal:p.goal
    ~horizon:p.horizon ~strategy
    ~generator:(Generator.create generator ~delta ~eps) ()

let drive map created =
  Result.bind created (fun c -> Result.map map (Campaign.drive c))

(* The one place a query form meets its campaign: P forms go to the
   Bernoulli campaign or, under the multilevel generator, to the coupled
   sampler of {!Slimsim_sim.Mlmc_run}; E[...] / D[...] go to the cost
   accumulator.  Refusals and warnings are decided here, before the
   pre-pass; the returned thunk creates and drives the campaign, after
   it.  The multilevel generator truncates a finite time horizon, so
   cost-bounded reachability (no time bound) refuses it here and
   E[...] / D[...] (a cost, not a probability) in [Cost_run.create]. *)
let route ?workers ?seed ?on_error ?supervisor ?progress ?levels ?warmup
    (m : model) (p : plan) ~generator ~strategy ~delta ~eps =
  let net = m.Loader.network and goal = p.goal and hold = p.hold in
  let probability r = Cost_probability (estimate_of ~complement:p.complement r) in
  match p.query, generator with
  | (Pattern.Cost_expect _ | Pattern.Cost_dist _), kind ->
    let wrap r =
      match p.query with
      | Pattern.Cost_dist _ -> Cost_distribution r
      | _ -> Cost_expected r
    in
    Ok
      (fun () ->
        drive wrap
          (Cost_run.create ?workers ?seed ~config:p.config ?on_error ?hold
             ?supervisor ?progress net ~goal ~horizon:p.horizon ~strategy
             ~cost_var:(Option.get p.cost_var)
             ~query:(Pattern.query_to_string p.query) ~kind ~delta ~eps ()))
  | Pattern.Cost_reach _, Generator.Mlmc ->
    Error
      "cost-bounded reachability: the multilevel generator's levels \
       truncate the time horizon, and P(<> [c <= C] ...) has none (its \
       horizon is unbounded); use a fixed-size or chow-robbins generator"
  | Pattern.Prob _, Generator.Mlmc ->
    (* sequential: the pair shares scratch state and the allocator is
       consulted between samples *)
    let w = Option.value workers ~default:1 in
    if w > 1 then
      Slimsim_obs.Log.warn
        ~fields:[ ("requested_workers", Slimsim_obs.Json.Int w) ]
        (Printf.sprintf
           "the mlmc generator drives a coupled sequential sampler; running \
            with workers = 1 (requested %d)"
           w);
    Ok
      (fun () ->
        drive
          (fun r -> probability (of_mlmc r))
          (Mlmc_run.create ?seed ~config:p.config ?on_error ?hold ?supervisor
             ?progress ?levels ?warmup net ~goal ~horizon:p.horizon ~strategy
             ~delta ~eps ()))
  | (Pattern.Prob _ | Pattern.Cost_reach _), generator ->
    Ok
      (fun () ->
        drive probability
          (bernoulli ?workers ?seed ?on_error ?supervisor ?progress m p
             ~generator ~strategy ~delta ~eps))

let prepare ?workers ?seed ?(generator = Generator.Chernoff) ?on_deadlock
    ?on_error ?supervisor ?progress ?max_steps ?max_sim_time ?max_wall_per_path
    ?compiled (m : model) ~property ~strategy ~delta ~eps () =
  let* p =
    plan ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock m property
  in
  match p.query, generator with
  | (Pattern.Cost_reach _ | Pattern.Cost_expect _ | Pattern.Cost_dist _), _ ->
    (* a prepared campaign is driven slice by slice and reports a
       probability estimate; a cost accumulator has no channel there *)
    Error
      "cost queries (P(<> [c <= C] ...), E[...], D[...]) are not \
       supported in serve mode; run them with 'slimsim simulate --query'"
  | Pattern.Prob _, Generator.Mlmc ->
    (* the multilevel sampler is a sequential driver of its own, not a
       stopping rule for a Bernoulli campaign *)
    Error
      "generator mlmc is not supported by the campaign service; use \
       `slimsim simulate --generator mlmc` (or chow-robbins here)"
  | Pattern.Prob _, generator ->
    bernoulli ?workers ?seed ?on_error ?supervisor ?progress ?compiled m p
      ~generator ~strategy ~delta ~eps
    |> Result.map (fun c -> { campaign = c; complement = p.complement })
    |> Result.map_error Path.error_to_string

(* The qualitative shortcut: [Some (p, report)] when the skeleton
   pre-pass answers the plan's reachability exactly.  The Scripted
   strategy hands control to a user callback (which may Abort or
   Advance arbitrarily), so certificates about the measure of all runs
   must not preempt it. *)
let prepass_shortcut ~prepass ~strategy (m : model) (p : plan) =
  let scripted = match strategy with Strategy.Scripted _ -> true | _ -> false in
  if not (prepass && not scripted) then None
  else begin
    let module Metrics = Slimsim_obs.Metrics in
    let module Json = Slimsim_obs.Json in
    let report = Prepass.analyze ?hold:p.hold m.Loader.network ~goal:p.goal in
    let answer, result =
      match report.Prepass.outcome with
      | Prepass.P0 _ -> (Some 0.0, "p0")
      | Prepass.P1 { depth; _ }
      (* All runs reach the goal within [depth] delay-free moves at
         elapsed time 0, so no step / sim-time budget with room for
         [depth] steps can reclassify them; a wall-clock watchdog
         could, so its presence disables the shortcut. *)
        when depth < p.config.Path.max_steps
             && p.config.Path.max_wall_per_path = None ->
        (Some 1.0, "p1")
      | Prepass.P1 _ -> (None, "p1")
      | Prepass.Inconclusive _ -> (None, "inconclusive")
    in
    if Metrics.enabled () then
      Metrics.incr
        (Metrics.counter
           ~labels:[ ("result", if answer = None then "inconclusive" else result) ]
           "slimsim_prepass_total"
           ~help:"pre-pass runs by result (p0 / p1 / inconclusive)");
    Slimsim_obs.Log.emit ~event:"prepass"
      [
        ("result", Json.String result);
        ("shortcut", Json.Bool (answer <> None));
        ("wall_seconds", Json.Float report.Prepass.wall_seconds);
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

(* Plan, route, then either the pre-pass answers exactly or the campaign
   runs.  P forms take a certificate as the answer; for E[...] / D[...]
   a P=0 certificate means no path ever reaches the goal (the
   conditional expectation is undefined and sampling can only stall),
   and a P=1 certificate does not shortcut: the cost values still have
   to be sampled.  [resolve] is [plan] or [probability_plan]. *)
let check_query resolve ?workers ?seed ?(generator = Generator.Chernoff)
    ?on_deadlock ?on_error ?supervisor ?progress ?max_steps ?max_sim_time
    ?max_wall_per_path ?(prepass = true) ?levels ?warmup (m : model) ~query
    ~strategy ~delta ~eps () =
  let* p =
    resolve ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock m query
  in
  let* run =
    route ?workers ?seed ?on_error ?supervisor ?progress ?levels ?warmup m p
      ~generator ~strategy ~delta ~eps
  in
  match prepass_shortcut ~prepass ~strategy m p, p.query with
  | Some (0.0, _), (Pattern.Cost_expect { prob; _ } | Pattern.Cost_dist { prob; _ })
    ->
    Error
      (Printf.sprintf
         "expected cost undefined: the pre-pass certifies P = 0 for %s — no \
          path ever reaches the goal"
         (Pattern.to_string prob))
  | Some shortcut, (Pattern.Prob _ | Pattern.Cost_reach _) ->
    Ok (Cost_probability (exact_estimate ~complement:p.complement shortcut))
  | _ ->
    let outcome = run () in
    (* the heartbeat line is cleared either way *)
    Option.iter Slimsim_obs.Progress.finish progress;
    Result.map_error Path.error_to_string outcome

let check_cost = check_query plan

let check ?workers ?seed ?generator ?on_deadlock ?on_error ?supervisor
    ?progress ?max_steps ?max_sim_time ?max_wall_per_path ?prepass ?levels
    ?warmup (m : model) ~property ~strategy ~delta ~eps () =
  check_query probability_plan ?workers ?seed ?generator ?on_deadlock
    ?on_error ?supervisor ?progress ?max_steps ?max_sim_time ?max_wall_per_path
    ?prepass ?levels ?warmup m ~query:property ~strategy ~delta ~eps ()
  |> Result.map (function
       | Cost_probability e -> e
       | Cost_expected _ | Cost_distribution _ -> assert false (* probability_plan *))

type exact = {
  exact_probability : float;
  states : int;
  lumped_states : int;
  analysis_seconds : float;
}

let check_exact ?max_states ?lump (m : model) ~property =
  let module Analysis = Slimsim_ctmc.Analysis in
  let* p = probability_plan m property in
  let* r =
    Analysis.check ?max_states ?hold:p.hold ?lump m.Loader.network ~goal:p.goal
      ~horizon:p.horizon
  in
  Ok
    {
      exact_probability =
        (if p.complement then 1.0 -. r.Analysis.probability
         else r.Analysis.probability);
      states = r.Analysis.stable_states;
      lumped_states = r.Analysis.lumped_states;
      analysis_seconds = r.Analysis.total_seconds;
    }

let simulate_one ?(seed = 1L) (m : model) ~property ~strategy =
  let* p = plan m property in
  let rng = Slimsim_stats.Rng.for_path ~seed ~path:0 in
  let c = Slimsim_sta.Compiled.compile m.Loader.network in
  let q = Path.compile_query ?hold:p.hold c ~goal:p.goal in
  let steps = ref [] in
  match
    Path.generate ~record:steps c (Slimsim_sta.Compiled.scratch c) q p.config
      strategy rng
  with
  | Ok v -> Ok (v, !steps)
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
