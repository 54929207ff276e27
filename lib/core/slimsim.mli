(** slimsim — statistical model checking of timed reachability for SLIM
    (AADL-dialect) models, after "A Statistical Approach for Timed
    Reachability in AADL Models" (DSN 2015).

    This facade wires the pipeline together:

    {v
    SLIM text --Loader--> network of stochastic timed automata
    property  --Pattern--> goal expression + time bound
    (model, property, strategy, generator) --Campaign--> estimate
    (model, property)                      --Ctmc-->     exact probability
    v}

    Quickstart:
    {[
      let model = Slimsim.load_string my_slim_source |> Result.get_ok in
      match
        Slimsim.check model ~property:"P(<> [0, 300] sys.failed)"
          ~strategy:Slimsim.Strategy.Asap ~delta:0.05 ~eps:0.01 ()
      with
      | Ok r -> Format.printf "%a@." Slimsim.pp_estimate r
      | Error e -> prerr_endline e
    ]} *)

module Strategy = Slimsim_sim.Strategy
module Generator = Slimsim_stats.Generator
module Campaign = Slimsim_sim.Campaign

val tool_version : string
(** The tool version stamped into the lint JSON envelope, printed by
    [slimsim version] and exchanged in the serve protocol handshake. *)

type model

val load_string : string -> (model, string) result
val load_file : string -> (model, string) result

val network : model -> Slimsim_sta.Network.t
val ast : model -> Slimsim_slim.Ast.model
val tables : model -> Slimsim_slim.Sema.tables

val lint : model -> Slimsim_analyze.Diagnostic.t list
(** Run every static check ({!Slimsim_analyze.Lint.run}) over a loaded
    model.  Sorted by source position. *)

val parse_property :
  model ->
  string ->
  (Slimsim_sta.Expr.t * Slimsim_sta.Expr.t option * float, string) result
(** Returns (goal, hold, horizon).  Accepts [P(<> [0,u] goal)],
    the bounded until [P(hold U [0,u] goal)],
    [probability that goal within u], or cost-bounded reachability
    [P(<> [c <= C] goal)] (hold [c <= C], horizon [infinity]); an
    E[...] / D[...] query is an error.  For an invariance pattern the
    goal is negated (see {!query_complement}). *)

val query_complement : model -> query:string -> (bool option, string) result
(** Resolve any query form as {!check_cost} does, without running
    anything.  [Some c] for a plain or invariance probability, where [c]
    tells whether the campaign estimates the negated goal (pass it to
    {!estimate_of}); [None] for the cost forms. *)

type estimate = {
  probability : float;
  ci_low : float;
  ci_high : float;
  paths : int;
  successes : int;
  deadlock_paths : int;
  violated_paths : int;
      (** bounded-until checks: paths on which the hold condition failed
          before the goal was reached *)
  errors : int;  (** errored paths fed as failures ([`Unsat] policy) *)
  diverged_paths : int;  (** paths cut off by a watchdog budget *)
  dropped_paths : int;
      (** diverged paths discarded and re-planned ([`Drop] policy) *)
  worker_restarts : int;  (** crashed workers brought back up *)
  interrupted : bool;
      (** the run was stopped early (SIGINT/SIGTERM or a supervisor stop
          request); the interval reflects the achieved confidence *)
  wall_seconds : float;
  certificate : string option;
      (** ["P0"] / ["P1"] when the qualitative pre-pass proved the
          answer exactly and the estimate was produced without sampling
          ([paths = 0], zero-width interval); [None] on the normal
          Monte Carlo path *)
}

val check :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?on_deadlock:[ `Error | `Falsify ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  ?prepass:bool ->
  ?levels:int ->
  ?warmup:int ->
  model ->
  property:string ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (estimate, string) result
(** Monte Carlo estimation (the paper's tool) of any P form, cost-bounded
    reachability included: {!check_cost} restricted to the probability
    forms (an E[...] / D[...] query is an error).  [generator] defaults
    to the Chernoff–Hoeffding bound; [on_error] to aborting the run on
    the first path-level error.

    [generator = Mlmc] runs the multilevel estimator
    ({!Slimsim_sim.Mlmc_run}): coupled coarse/fine path pairs over a
    horizon-truncation hierarchy of [levels] (default 4) fidelities,
    allocated by the n_l ∝ sqrt(V_l/C_l) rule above a floor of [warmup]
    (default 100) samples per level, so most samples run at cheap
    levels.  It is
    sequential by construction: [workers > 1] is downgraded to one with
    a warning.  In its estimate [paths] counts simulations (both halves
    of a pair), [successes] counts [Sat] verdicts across them, and the
    interval is the telescoped CLT interval clamped to [0,1].  [levels]
    and [warmup] are ignored by the other generators.

    [supervisor] carries the campaign robustness policies (divergence
    handling, crash restarts, checkpoint/resume, graceful stop) — see
    {!Slimsim_sim.Supervisor}; the watchdog budgets [max_steps] (default
    1_000_000), [max_sim_time] and [max_wall_per_path] classify runaway
    paths as diverged, and the supervisor's policy decides how those
    count.

    [prepass] (default [true]) runs the qualitative pre-pass
    ({!Slimsim_analyze.Prepass}) before sampling.  When it certifies
    P=0 or P=1, [check] returns the exact answer without spawning any
    workers: [paths = 0], a zero-width interval and
    [certificate = Some "P0"/"P1"].  When it is inconclusive — or
    disabled with [?prepass:false] — the estimation runs exactly as it
    would have without the pre-pass: identical seeds, identical verdict
    stream, identical estimate.  A P=1 certificate only short-circuits
    when its witness depth fits under [max_steps] and no
    [max_wall_per_path] watchdog is set (a wall-clock budget could
    reclassify real paths that the certificate counts as successes);
    the [Scripted] strategy disables the pre-pass, since a script may
    abort runs arbitrarily. *)

(** {1 Campaigns as values}

    [check] is a convenience: prepare a campaign, drive it to
    completion, map the result.  A resident service does the same three
    things, but drives the campaign incrementally ({!Campaign.step} /
    {!Campaign.park}) under its own scheduler. *)

type prepared = {
  campaign : Campaign.t;
  complement : bool;
      (** invariance patterns are estimated via their negation; map the
          final result through {!estimate_of}, which undoes this *)
}

val prepare :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?on_deadlock:[ `Error | `Falsify ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  ?compiled:Slimsim_sta.Compiled.t ->
  model ->
  property:string ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (prepared, string) result
(** Parse [property] against the model and create the (unstarted)
    Bernoulli campaign for it.  Parameters are those of {!check}, minus
    the pre-pass (a service decides itself whether to run one) and the
    multilevel ones, plus [compiled]: an already-staged network (from
    [Slimsim_sta.Compiled.compile (network m)]) so a resident process
    can amortize staging across many campaigns over the same model.
    Cost queries (cost-bounded reachability included) and the [Mlmc]
    generator are refused: a prepared campaign reports a probability
    estimate from one Bernoulli stream. *)

val estimate_of : complement:bool -> Campaign.result -> estimate
(** Map a finished campaign's raw result to the user-facing estimate,
    reporting [1 - p] (and the mirrored interval) when [complement].
    [certificate] is [None]. *)

val prepass :
  ?max_nodes:int ->
  model ->
  property:string ->
  (Slimsim_analyze.Prepass.report * bool, string) result
(** Run only the qualitative pre-pass on a property.  Returns the raw
    report together with the pattern's complement flag: the report's
    outcome speaks about the {e resolved} goal (invariance patterns are
    checked via their negation), so a [P0] outcome with
    [complement = true] certifies P=1 for the user's property, and vice
    versa.  Used by [slimsim lint --property]. *)

val certificate_of :
  complement:bool -> Slimsim_analyze.Prepass.outcome -> string option
(** The user-facing certificate of a pre-pass outcome: [Some "P0"] /
    [Some "P1"] with the complement mapping of {!prepass} applied,
    [None] when inconclusive. *)

val lint_property :
  ?max_nodes:int ->
  model ->
  property:string ->
  Slimsim_analyze.Diagnostic.t list
(** Property-directed lint: run the pre-pass and report a conclusive
    outcome as a diagnostic — [I002] (statically certain, P=1) or
    [I003] (statically vacuous, P=0), carrying the delay-free witness
    trace when one exists (for an invariance pattern the P=0 witness is
    a concrete invariant violation).  Inconclusive outcomes produce no
    diagnostic; an unparseable property is reported as an error. *)

(** {1 Priced-STA cost queries}

    UPPAAL-SMC-style queries over a cost observer — any clock or
    continuous variable of the model (constant derivatives per mode, so
    linear advance makes its value at a crossing exact):

    - [P(<> [c <= C] goal)] — cost-bounded reachability, checked as a
      bounded until with hold [c <= C] and no time bound
    - [E[c ; <> [0,u] goal]] — the expected value of [c] at the first
      goal crossing, over paths that reach the goal in time
    - [D[c ; <> [0,u] goal]] — the empirical distribution of the same
      quantity (mean, CI, quantiles, histogram)

    Plain probability queries are accepted too and behave exactly like
    {!check}: [check] is [check_cost] restricted to the P forms. *)

type cost_outcome =
  | Cost_probability of estimate
      (** a [P(...)] form — plain or cost-bounded reachability *)
  | Cost_expected of Slimsim_sim.Cost_run.result  (** an [E[...]] query *)
  | Cost_distribution of Slimsim_sim.Cost_run.result
      (** a [D[...]] query; render with
          {!Slimsim_sim.Cost_run.pp_distribution} *)

val check_cost :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?on_deadlock:[ `Error | `Falsify ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  ?prepass:bool ->
  ?levels:int ->
  ?warmup:int ->
  model ->
  query:string ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (cost_outcome, string) result
(** Check any query form ({!Slimsim_props.Pattern.parse_query}).
    Parameters are those of {!check}.  [P] forms route through the
    classic campaign, or the multilevel one under [generator = Mlmc]
    (cost-bounded reachability constructs the hold [c <= C] and runs
    with an unbounded horizon — the watchdog budgets backstop paths
    whose cost observer stalls under the bound; the qualitative
    pre-pass applies as in {!check}).  [E]/[D] forms run the
    {!Slimsim_sim.Cost_run} accumulator on the same campaign, on
    [workers] domains with a result independent of their number, and a
    pre-pass P=0 certificate is reported as an error (the conditional
    expectation is undefined when no path can reach the goal).  Cost
    forms refuse [generator = Mlmc]: its levels truncate a finite time
    horizon and estimate a probability. *)

val pp_cost_outcome : Format.formatter -> cost_outcome -> unit
(** {!pp_estimate} for probability forms, [Cost_run.pp_result] for
    cost forms ([D] callers typically also print
    {!Slimsim_sim.Cost_run.pp_distribution}). *)

type exact = {
  exact_probability : float;
  states : int;
  lumped_states : int;
  analysis_seconds : float;
}

val check_exact :
  ?max_states:int ->
  ?lump:bool ->
  model ->
  property:string ->
  (exact, string) result
(** The baseline CTMC pipeline (§IV); untimed models only. *)

val simulate_one :
  ?seed:int64 ->
  model ->
  property:string ->
  strategy:Strategy.t ->
  ( Slimsim_sim.Path.verdict * Slimsim_sim.Path.step_record list,
    string )
  result
(** Generate path 0 of [seed] (default 1) and record its steps (e.g. to
    inspect a trace or to drive the scripted Input strategy). *)

val fault_tree :
  ?max_order:int ->
  model ->
  goal:string ->
  top:string ->
  (Slimsim_safety.Cutsets.fault_tree, string) result
(** Safety analysis (§II-C): the minimal cut sets of the goal expression
    (a Boolean over the model, not a timed property), as a fault tree. *)

val fmea :
  model -> goal:string -> (Slimsim_safety.Fmea.row list, string) result
(** FMEA table: one row per failure mode (basic event). *)

val fdir :
  ?settle_time:float ->
  model ->
  observables:string list ->
  (Slimsim_safety.Fdir.verdict list, string) result
(** FDIR analysis (§II-C): per failure mode, whether it can be detected,
    isolated and recovered from, given the observable variables. *)

val verify_invariant :
  ?max_states:int ->
  model ->
  invariant:string ->
  (Slimsim_ctmc.Qualitative.outcome, string) result
(** Qualitative correctness analysis (§II-C): exhaustive invariant
    checking on the untimed abstraction, with a counterexample trace on
    violation. *)

val diagnosability :
  ?max_faults:int ->
  model ->
  observables:string list ->
  diagnosis:string ->
  (Slimsim_safety.Diagnosability.report, string) result
(** Diagnosability (§II-C): report observation classes in which the
    diagnosis expression is ambiguous. *)

val dot_process : model -> string -> (string, string) result
(** Graphviz rendering of one process (cf. the paper's Figure 2). *)

val dot_network : model -> string
(** Graphviz overview of the whole network. *)

val pp_estimate : Format.formatter -> estimate -> unit
val pp_exact : Format.formatter -> exact -> unit
