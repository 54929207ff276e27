(* The priced-campaign accumulator: the simulation-side half of the cost
   queries E[c ; <> [0,u] goal] and D[c ; <> [0,u] goal].

   Each path is a classic full-horizon reachability path run by the
   campaign kernel — same per-path RNG streams, same step loop, same
   error/divergence policies, same workers — plus a cost observer: on a
   Sat verdict, Path hands back the exact value of the designated clock
   or continuous variable at the crossing instant (step-start value plus
   rate × dt, the linear-advance rule).  The accumulator folds the sat-path
   costs into a Welford accumulator (mean, CLT interval), tracks the
   observed range, and fills the 64 log2 histogram buckets
   (Metrics.bucket_of convention) that back the quantile table and the
   distribution rendering.

   Stopping: the fixed-size generators (chernoff/hoeffding/gauss) run
   their planned path count unchanged — the reachability probability
   comes out with its usual guarantee, and the cost interval reflects
   however many sat paths that bought.  The sequential chow-robbins rule
   re-targets the CLT half-width at the *cost mean* instead of the
   probability: stop once the Welford half-width is at most eps (with
   the same minimum sample count as the Bernoulli rule).

   Determinism: the verdict stream is the classic campaign's stream for
   the same (model, property, strategy, seed) — cost extraction runs
   after each verdict is decided and draws nothing from the RNG — and
   the accumulator state is a fold over it in path order, so the whole
   result is a function of (model, query, strategy, seed) and
   checkpoint/resume is bit-identical. *)

module Generator = Slimsim_stats.Generator
module Welford = Slimsim_stats.Welford
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Json = Slimsim_obs.Json

(* A sequential rule conditioned on reaching the goal cannot converge
   if the goal is never reached; give up after this many consecutive
   paths without a sat verdict instead of spinning forever. *)
let no_sat_stall_limit = 100_000

type result = {
  query : string;  (* canonical query string *)
  reach : Campaign.result;
      (* the underlying reachability estimate and tallies *)
  cost_samples : int;  (* sat paths folded into the accumulator *)
  cost_mean : float;  (* nan when no path reached the goal *)
  cost_ci_low : float;
  cost_ci_high : float;
  cost_min : float;  (* +inf / -inf when no sat paths *)
  cost_max : float;
  cost_buckets : int array;  (* Metrics.bucket_of convention *)
}

type t = result Campaign.campaign

(* Cost-specific observability, single-writer (only the collecting
   thread feeds the accumulator): the cost-value histogram is what lands
   the distribution rows in --metrics output. *)
type cost_obs = {
  h_value : Metrics.histogram;
  c_sat : Metrics.counter;
  c_unsat : Metrics.counter;
}

let make_cost_obs () =
  let paths verdict =
    Metrics.counter
      ~labels:[ ("verdict", verdict) ]
      "slimsim_cost_paths_total"
      ~help:"Paths consumed by the cost campaign, by verdict class"
  in
  {
    h_value =
      Metrics.histogram "slimsim_cost_value"
        ~help:"Cost observer value at the goal crossing, over sat paths";
    c_sat = paths "sat";
    c_unsat = paths "unsat";
  }

type acc = {
  query : string;
  gen : Generator.t;
  prob : Campaign.result Campaign.accumulator;  (* Bernoulli, over [gen] *)
  cobs : cost_obs;
  mutable wf : Welford.t;
  buckets : int array;
  mutable cost_min : float;
  mutable cost_max : float;
  mutable no_sat_run : int;
}

(* The Bernoulli generator sees every sample; a kept sat sample's cost
   is folded on top. *)
let feed a s =
  a.prob.Campaign.feed s;
  match s with
  | Campaign.Sat cost ->
    a.no_sat_run <- 0;
    Welford.add a.wf cost;
    let b = Metrics.bucket_of cost in
    a.buckets.(b) <- a.buckets.(b) + 1;
    if cost < a.cost_min then a.cost_min <- cost;
    if cost > a.cost_max then a.cost_max <- cost;
    Metrics.observe a.cobs.h_value cost;
    Metrics.incr a.cobs.c_sat
  | Campaign.Unsat | Campaign.Pair _ | Campaign.Dropped ->
    a.no_sat_run <- a.no_sat_run + 1;
    Metrics.incr a.cobs.c_unsat

(* Fixed-size generators keep their planned path count (the probability
   estimate keeps its guarantee); the sequential rule stops on the cost
   mean's CLT half-width, and gives up when the goal stops being
   reached. *)
let stop a () =
  match Generator.kind a.gen with
  | Generator.Chernoff | Generator.Hoeffding | Generator.Gauss ->
    a.prob.Campaign.stop ()
  | Generator.Chow_robbins | Generator.Mlmc ->
    if
      (* the Bernoulli generators' minimum, counted in sat paths *)
      Welford.count a.wf >= Generator.min_sequential_samples
      && Welford.half_width_z a.wf ~z:(Generator.z a.gen) <= Generator.eps a.gen
    then `Converged
    else if a.no_sat_run >= no_sat_stall_limit then
      `Fail
        (Path.Model_error
           (Printf.sprintf
              "cost query: %d consecutive paths never reached the goal; the \
               expected cost conditioned on reaching it cannot converge \
               (check the property, or use a fixed-size generator to \
               estimate the probability first)"
              a.no_sat_run))
    else `Continue

let summary a tally ~stopped ~wall =
  let reach = a.prob.Campaign.summary tally ~stopped ~wall in
  let lo, hi = Welford.confidence_interval a.wf ~delta:(Generator.delta a.gen) in
  let n = Welford.count a.wf in
  let r =
    {
      query = a.query;
      reach;
      cost_samples = n;
      cost_mean = (if n = 0 then nan else Welford.mean a.wf);
      cost_ci_low = lo;
      cost_ci_high = hi;
      cost_min = a.cost_min;
      cost_max = a.cost_max;
      cost_buckets = Array.copy a.buckets;
    }
  in
  Log.emit ~event:"cost_end"
    [
      ("query", Json.String a.query);
      ( "stopped",
        Json.String
          (match stopped with
          | Campaign.Converged -> "converged"
          | Campaign.Interrupted -> "interrupted") );
      ("cost_samples", Json.Int n);
      ("cost_mean", Json.Float r.cost_mean);
      ("cost_ci_low", Json.Float r.cost_ci_low);
      ("cost_ci_high", Json.Float r.cost_ci_high);
      ("paths", Json.Int reach.Campaign.paths);
      ("probability", Json.Float reach.Campaign.probability);
      ("wall_seconds", Json.Float reach.Campaign.wall_seconds);
    ];
  r

let save a tally ~seed ~next_path =
  let n, mean, m2 = Welford.state a.wf in
  {
    (a.prob.Campaign.save tally ~seed ~next_path) with
    Supervisor.Checkpoint.cost =
      Some
        {
          Supervisor.Checkpoint.c_query = a.query;
          c_count = n;
          c_mean = mean;
          c_m2 = m2;
          c_min = a.cost_min;
          c_max = a.cost_max;
          c_buckets = Array.copy a.buckets;
        };
  }

(* The block must be present and carry the same canonical query — a cost
   accumulator is meaningless under a different cost variable or
   formula. *)
let restore a st =
  match st.Supervisor.Checkpoint.cost with
  | None ->
    Error
      "checkpoint has no cost-accumulator state (it was taken by a plain \
       reachability campaign)"
  | Some c when c.Supervisor.Checkpoint.c_query <> a.query ->
    Error
      (Printf.sprintf "checkpoint was taken for query %s, not %s"
         c.Supervisor.Checkpoint.c_query a.query)
  | Some c ->
    Result.map
      (fun () ->
        a.wf <- Welford.restore ~n:c.c_count ~mean:c.c_mean ~m2:c.c_m2;
        Array.blit c.c_buckets 0 a.buckets 0 (Array.length a.buckets);
        a.cost_min <- c.c_min;
        a.cost_max <- c.c_max)
      (a.prob.Campaign.restore st)

let estimate a () =
  let lo, hi = Welford.confidence_interval a.wf ~delta:(Generator.delta a.gen) in
  (Welford.mean a.wf, lo, hi, Welford.count a.wf)

let accumulator ~query gen =
  let a =
    {
      query;
      gen;
      prob = Campaign.bernoulli gen;
      cobs = make_cost_obs ();
      wf = Welford.create ();
      buckets = Array.make Metrics.n_buckets 0;
      cost_min = infinity;
      cost_max = neg_infinity;
      no_sat_run = 0;
    }
  in
  {
    Campaign.feed = feed a;
    stop = stop a;
    summary = summary a;
    save = save a;
    restore = restore a;
    estimate = estimate a;
    remaining = a.prob.Campaign.remaining;
  }

let create ?workers ?seed ?config ?on_error ?hold ?supervisor ?progress
    ?compiled net ~goal ~horizon ~strategy ~cost_var ~query ~kind ~delta ~eps
    () =
  match kind with
  | Generator.Mlmc ->
    Error
      (Path.Model_error
         "cost queries: the multilevel generator estimates a probability \
          over coupled horizons, not a cost; use a fixed-size or \
          chow-robbins generator")
  | _ ->
    Campaign.create_with ?workers ?seed ?config ?on_error ?hold
      ?supervisor ?progress ?compiled ~cost_var net ~goal ~horizon ~strategy
      (accumulator ~query (Generator.create kind ~delta ~eps))

let drive = Campaign.drive

(* ------------------------------------------------------------------ *)
(* Rendering.  The quantile table and histogram are deterministic
   functions of the bucket counts — no wall-clock, no float summaries
   beyond the accumulator — so a fixed-seed distribution rendering is
   reproducible byte for byte (the golden test pins one). *)

let quantile_levels = [| 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99 |]

(* The log2 buckets give quantiles as upper bounds: the q-quantile is
   at most the le bound of the first bucket whose cumulative count
   reaches ceil(q·n). *)
let quantile_bound buckets ~count q =
  let target =
    Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count)))
  in
  let n = Array.length buckets in
  let rec go i cum =
    if i >= n then Metrics.bucket_upper (n - 1)
    else
      let cum = cum + buckets.(i) in
      if cum >= target then Metrics.bucket_upper i else go (i + 1) cum
  in
  go 0 0

let bucket_label i =
  if i = 0 then "<= 0"
  else if i = Metrics.n_buckets - 1 then
    "> " ^ Metrics.bucket_upper (Metrics.n_buckets - 2)
  else
    Printf.sprintf "(%s, %s]"
      (Metrics.bucket_upper (i - 1))
      (Metrics.bucket_upper i)

let pp_distribution ppf r =
  if r.cost_samples = 0 then
    Fmt.pf ppf "cost distribution: no path reached the goal@."
  else begin
    Fmt.pf ppf "cost distribution (%d sat paths):@." r.cost_samples;
    Fmt.pf ppf "  mean %.6g  ci [%.6g, %.6g]  min %.6g  max %.6g@."
      r.cost_mean r.cost_ci_low r.cost_ci_high r.cost_min r.cost_max;
    Fmt.pf ppf "  quantiles:";
    Array.iter
      (fun q ->
        Fmt.pf ppf "  p%g <= %s" (100.0 *. q)
          (quantile_bound r.cost_buckets ~count:r.cost_samples q))
      quantile_levels;
    Fmt.pf ppf "@.";
    let peak = Array.fold_left Stdlib.max 1 r.cost_buckets in
    Array.iteri
      (fun i n ->
        if n > 0 then
          Fmt.pf ppf "  %-20s %8d  %s@." (bucket_label i) n
            (String.make (Stdlib.max 1 (n * 40 / peak)) '#'))
      r.cost_buckets
  end

let pp_result ppf r =
  let c = r.reach in
  if r.cost_samples = 0 then
    Fmt.pf ppf
      "E[cost] undefined: no sat paths  (p = %.6f  [%.6f, %.6f], %d paths, \
       %.2fs)"
      c.Campaign.probability c.Campaign.ci_low c.Campaign.ci_high
      c.Campaign.paths c.Campaign.wall_seconds
  else
    Fmt.pf ppf
      "E[cost] = %.6g  [%.6g, %.6g]  (%d sat paths; p = %.6f  [%.6f, %.6f], \
       %d paths, %.2fs)"
      r.cost_mean r.cost_ci_low r.cost_ci_high r.cost_samples
      c.Campaign.probability c.Campaign.ci_low c.Campaign.ci_high
      c.Campaign.paths c.Campaign.wall_seconds;
  if c.Campaign.deadlock_paths > 0 then
    Fmt.pf ppf " (%d dead/timelocked)" c.Campaign.deadlock_paths;
  if c.Campaign.violated_paths > 0 then
    Fmt.pf ppf " (%d hold-violated)" c.Campaign.violated_paths;
  if c.Campaign.errors > 0 then Fmt.pf ppf " (%d errored)" c.Campaign.errors;
  if c.Campaign.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d dropped)" c.Campaign.diverged_paths
      c.Campaign.dropped_paths;
  if c.Campaign.stopped = Campaign.Interrupted then Fmt.pf ppf " [interrupted]"
