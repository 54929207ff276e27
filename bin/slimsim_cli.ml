(* slimsim command-line interface (the CLI integration of §II-F):

     slimsim info MODEL
     slimsim lint MODEL [--format text|json] [--fail-on error|warning]
     slimsim simulate MODEL -p PROP [-s STRATEGY] [-d DELTA] [-e EPS] ...
     slimsim exact MODEL -p PROP [--no-lump]
     slimsim trace MODEL -p PROP [-s STRATEGY] [--seed N]
     slimsim interactive MODEL -p PROP        (the Input strategy)
*)

open Cmdliner

module S = Slimsim
module Strategy = Slimsim_sim.Strategy
module I = Slimsim_intervals.Interval_set
module Diag = Slimsim_analyze.Diagnostic
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Json = Slimsim_obs.Json

let version = S.tool_version

let load file =
  match S.load_file file with
  | Ok m -> Ok m
  | Error e -> Error (Printf.sprintf "%s: %s" file e)

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline e;
    exit 1

(* Refuse a flag outside its range: exit 1, as [simulate]'s checks do. *)
let check_flag ok flag range =
  if not ok then or_die (Error (Printf.sprintf "slimsim: --%s must be %s" flag range))

(* --- common arguments --- *)

let model_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"SLIM model file")

let prop_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "property" ] ~docv:"PROP"
        ~doc:"Property: 'P(<> [0, u] goal)' or 'probability that goal within u'.")

let strategy_conv =
  let parse s = Strategy.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf s = Fmt.string ppf (Strategy.to_string s) in
  Arg.conv (parse, print)

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Strategy.Asap
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Strategy for non-determinism: asap, progressive, local or maxtime.")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* --- info --- *)

let info_cmd =
  let run file =
    let m = or_die (load file) in
    let net = S.network m in
    Fmt.pr "%a@." Slimsim_sta.Network.pp_summary net;
    Array.iteri
      (fun i p ->
        Fmt.pr "  process %d: %a@." i Slimsim_sta.Automaton.pp p)
      net.Slimsim_sta.Network.procs;
    Array.iteri
      (fun i (v : Slimsim_sta.Network.var_info) ->
        Fmt.pr "  var %d: %s (%s) := %a@." i v.var_name
          (match v.kind with
          | Slimsim_sta.Network.Discrete -> "discrete"
          | Slimsim_sta.Network.Clock -> "clock"
          | Slimsim_sta.Network.Continuous -> "continuous")
          Slimsim_sta.Value.pp v.init)
      net.Slimsim_sta.Network.vars
  in
  Cmd.v (Cmd.info "info" ~doc:"Show the translated network")
    Term.(const run $ model_arg)

(* --- lint --- *)

let lint_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")

let fail_on_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("error", Diag.Error); ("warning", Diag.Warning); ("info", Diag.Info) ])
        Diag.Error
    & info [ "fail-on" ] ~docv:"SEV"
        ~doc:
          "Exit with status 1 when a diagnostic of at least this severity is \
           reported: $(b,error), $(b,warning) or $(b,info).")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ] ~doc:"Skip the static-analysis pass before simulating.")

(* Advisory lint pass run automatically before simulation; findings go
   to stderr and never block the run.  The summary is routed through the
   structured logger so a campaign driven with --log-json keeps a
   machine-readable record of pre-run findings; the rendered diagnostics
   stay on stderr for humans. *)
let advisory_lint ~no_lint file m =
  if not no_lint then begin
    match S.lint m with
    | [] -> ()
    | diags ->
      let n = List.length diags in
      Log.warn
        ~fields:
          [
            ("source", Json.String "lint");
            ("model", Json.String file);
            ("findings", Json.Int n);
          ]
        (Printf.sprintf "static analysis reported %d finding%s on %s" n
           (if n = 1 then "" else "s")
           file);
      Fmt.epr "%s@." (Diag.render_text diags);
      Fmt.epr "(run 'slimsim lint %s' to triage, or pass --no-lint to \
               silence)@."
        file
  end

let lint_props_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "property" ] ~docv:"PROP"
        ~doc:
          "Also run the qualitative pre-pass on $(docv) (repeatable) and \
           report conclusive outcomes as diagnostics: $(b,I002) statically \
           certain (P=1), $(b,I003) statically vacuous (P=0), each with a \
           delay-free witness trace when one exists.")

let lint_cmd =
  let run file format fail_on props =
    match Slimsim_analyze.Lint.lint_file file with
    | Error e ->
      prerr_endline e;
      exit 3
    | Ok diags ->
      (* The property pre-pass needs a loaded model; when the frontend
         already failed, [diags] carries those errors and the properties
         are skipped. *)
      let model = Result.to_option (S.load_file file) in
      let diags =
        match model with
        | Some m when props <> [] ->
          Diag.sort
            (diags
            @ List.concat_map (fun p -> S.lint_property m ~property:p) props)
        | _ -> diags
      in
      (match format with
      | `Text ->
        if diags = [] then Fmt.pr "%s: no issues found@." file
        else print_endline (Diag.render_text diags)
      | `Json ->
        let network_hash =
          Option.map
            (fun m -> Slimsim_analyze.Lint.network_hash (S.network m))
            model
        in
        print_endline
          (Diag.render_json ~tool_version:version ?network_hash diags));
      if Diag.exceeds ~threshold:fail_on diags then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: dead transitions, unreachable modes, unused \
          declarations, unsynchronizable events, uninitialized reads, \
          divergent invariants.  With --property, also the qualitative \
          pre-pass (P=0/P=1 certificates).  Exit status: 0 clean (below the \
          --fail-on threshold), 1 findings at or above it, 3 unreadable \
          input.")
    Term.(const run $ model_arg $ lint_format_arg $ fail_on_arg $ lint_props_arg)

(* --- simulate --- *)

let simulate_cmd =
  let prop_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "property" ] ~docv:"PROP"
          ~doc:
            "Property: 'P(<> [0, u] goal)' or 'probability that goal within \
             u'; any $(b,--query) form is accepted too.")
  and query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"QUERY"
          ~doc:
            "Any query form: a property as for $(b,-p), or a priced-STA \
             cost query over a clock or continuous variable c — \
             cost-bounded reachability 'P(<> [c <= C] goal)', expected \
             cost 'E[c ; <> [0, u] goal]', or the empirical cost \
             distribution 'D[c ; <> [0, u] goal]' (mean, confidence \
             interval, quantile table and histogram).  Use exactly one \
             of $(b,-p) and $(b,--query).")
  and delta =
    Arg.(value & opt float 0.05 & info [ "d"; "delta" ] ~doc:"Confidence parameter.")
  and eps =
    Arg.(value & opt float 0.01 & info [ "e"; "eps" ] ~doc:"Error bound.")
  and workers =
    Arg.(
      value & opt int 1
      & info [ "j"; "workers" ]
          ~doc:
            "Path generators: this domain plus $(docv)-1 worker domains that \
             draw contiguous path-id ranges, consumed in path order, so the \
             estimate is bit-identical to $(b,-j 1) at the same seed."
          ~docv:"N")
  and generator =
    let generator_conv =
      let parse s =
        S.Generator.kind_of_string s |> Result.map_error (fun e -> `Msg e)
      in
      let print ppf k = Fmt.string ppf (S.Generator.kind_to_string k) in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt generator_conv S.Generator.Chernoff
      & info [ "g"; "generator" ]
          ~doc:
            "Sample-count rule: chernoff, hoeffding, gauss, chow-robbins or \
             mlmc (multilevel Monte Carlo over coupled coarse/fine paths; \
             see --mlmc-levels).")
  and mlmc_levels =
    Arg.(
      value & opt int 4
      & info [ "mlmc-levels" ] ~docv:"L"
          ~doc:
            "With --generator mlmc: the fidelity hierarchy depth.  Level l \
             simulates at horizon H/2^(L-1-l); level L-1 is the full \
             property horizon, and L=1 degenerates to the classic \
             single-level campaign (bit-identical path streams).")
  and deadlock_error =
    Arg.(
      value & flag
      & info [ "deadlock-error" ]
          ~doc:"Abort on dead/timelocks instead of falsifying the property.")
  and on_error =
    let policy_conv =
      let parse = function
        | "abort" -> Ok `Abort
        | "unsat" -> Ok `Unsat
        | s -> Error (`Msg (Printf.sprintf "unknown error policy %S" s))
      in
      let print ppf = function
        | `Abort -> Fmt.string ppf "abort"
        | `Unsat -> Fmt.string ppf "unsat"
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt policy_conv `Abort
      & info [ "on-error" ]
          ~doc:
            "What a path-level error does: $(b,abort) the run (default) or \
             count the path as $(b,unsat) and keep sampling.")
  and max_steps =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Watchdog: classify a path as diverged after $(docv) steps.")
  and max_sim_time =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-sim-time" ] ~docv:"T"
          ~doc:
            "Watchdog: classify a path as diverged once its simulated time \
             exceeds $(docv) (independently of the property horizon).")
  and max_wall_per_path =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-wall-per-path" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog: classify a path as diverged after $(docv) wall-clock \
             seconds.  Unlike the step and simulated-time budgets this makes \
             the verdict machine-dependent; prefer it only as a last-resort \
             liveness guarantee.")
  and on_divergence =
    let divergence_conv =
      let parse s =
        Slimsim_sim.Supervisor.divergence_policy_of_string s
        |> Result.map_error (fun e -> `Msg e)
      in
      let print ppf p =
        Fmt.string ppf (Slimsim_sim.Supervisor.divergence_policy_to_string p)
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt divergence_conv `Abort
      & info [ "on-divergence" ]
          ~doc:
            "What a diverged (watchdog-expired) path does: $(b,abort) the run \
             (default), count it as $(b,unsat) (conservative), or $(b,drop) \
             it and re-plan the sample count.")
  and checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically persist campaign state (seed, path cursor, \
             estimator counters) to $(docv), atomically via tmp-file + \
             rename, and once more on exit.")
  and checkpoint_every =
    Arg.(
      value & opt int 10_000
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint after every $(docv) consumed paths.")
  and resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the --checkpoint file if it exists (fresh start \
             otherwise).  The resumed campaign reaches the same verdict \
             stream and final estimate as an uninterrupted run.")
  and metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect campaign metrics (phase timings, steps per path, \
             firings by kind, verdict breakdown, per-worker utilization, \
             buffer occupancy, restarts, checkpoint writes) and write them \
             to $(docv) in Prometheus text format, atomically, at exit and \
             at every checkpoint.  Collection never changes the verdict \
             stream: estimates are bit-identical with or without this flag.")
  and log_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:
            "Append structured campaign events to $(docv), one JSON object \
             per line: campaign configuration, phase timings, worker \
             lifecycle, divergences, warnings, checkpoints and the final \
             summary.")
  and progress =
    Arg.(
      value
      & opt ~vopt:(Some 1.0) (some float) None
      & info [ "progress" ] ~docv:"SECONDS"
          ~doc:
            "Print a single-line heartbeat to stderr (paths consumed, \
             paths/s, running estimate and achieved half-width), at most \
             once per $(docv) seconds (default 1; use --progress=$(docv) to \
             override).")
  and no_prepass =
    Arg.(
      value & flag
      & info [ "no-prepass" ]
          ~doc:
            "Skip the qualitative pre-pass.  By default a property proved \
             P=0 or P=1 on the discrete skeleton is answered exactly with a \
             certificate and zero sampled paths; with this flag (or whenever \
             the pre-pass is inconclusive) the Monte Carlo campaign runs \
             unchanged — same seeds, same verdict stream, same estimate.")
  and buffer =
    Arg.(
      value & opt int 256
      & info [ "buffer" ] ~docv:"N"
          ~doc:
            "With $(b,-j) > 1: the largest path-id range a generator claims \
             at once, and so a bound on how far it may run ahead of the \
             collector (it holds at most two unconsumed ranges).  Ranges are \
             sized ceil(R / 4G) for a plan of R paths on G generators, \
             clamped to [1, $(docv)]; a sequential stopping rule gets \
             $(docv).  With --distribute: verdicts per batch frame.  The \
             verdict stream is independent of the value.")
  and drop_stall_limit =
    Arg.(
      value & opt int 10_000
      & info [ "drop-stall-limit" ] ~docv:"N"
          ~doc:
            "Under --on-divergence drop, abort after $(docv) consecutive \
             dropped samples — a campaign whose paths (almost) all diverge \
             can never converge, only spin.")
  and max_restarts =
    Arg.(
      value & opt int 3
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Per-worker crash budget.  An in-process worker domain that \
             crashes once more aborts the campaign; a distributed worker \
             process is quarantined instead and the campaign degrades to \
             the remaining workers.")
  and distribute =
    Arg.(
      value
      & opt (some int) None
      & info [ "distribute" ] ~docv:"N"
          ~doc:
            "Run the campaign across $(docv) worker processes (spawned via \
             --worker-cmd) instead of in-process domains.  Path-id leases \
             are granted to workers and their verdict batches merged in \
             path order, so the estimate is bit-identical to a \
             single-process run at the same seed, under any worker count \
             and any failure schedule.  Workers that die or stall are \
             respawned with backoff up to --max-restarts, then \
             quarantined.  The qualitative pre-pass runs first, as in one \
             process; cost queries and $(b,-j) > 1 are refused; --buffer \
             sets the verdicts-per-batch frame size.")
  and worker_cmd =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-cmd" ] ~docv:"CMD"
          ~doc:
            "Shell command whose stdin/stdout speak the worker protocol — \
             anything that ends up running $(b,slimsim work), e.g. \
             'ssh host slimsim work'.  Default: this executable's own \
             $(b,work) subcommand.")
  and lease =
    Arg.(
      value
      & opt (some int) None
      & info [ "lease" ] ~docv:"N"
          ~doc:
            "Paths per granted lease under --distribute.  Default: derived \
             from the plan, ceil(R / 4W) for R planned paths on W workers, \
             clamped to [1, 1024] (1024 for a sequential stopping rule).  \
             Smaller leases reassign less work when a worker dies; larger \
             ones amortize grant round-trips.")
  and dist_heartbeat =
    Arg.(
      value & opt float 1.0
      & info [ "dist-heartbeat" ] ~docv:"SECONDS"
          ~doc:"Worker heartbeat interval.")
  and dist_liveness =
    Arg.(
      value & opt float 10.0
      & info [ "dist-liveness" ] ~docv:"SECONDS"
          ~doc:
            "Declare a worker dead after this long without a frame; must \
             comfortably exceed the heartbeat interval plus the longest \
             single path.")
  and chaos =
    Arg.(
      value & opt string ""
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Fault injection for distributed runs (testing): \
             ';'-separated rules [w<k>:][a<k>:]action@{path|boot}[:arg] \
             with actions kill, exit, stall, corrupt, dup, delay — e.g. \
             'w1:kill@120;a0:stall@300'.")
  in
  let run file prop query strategy delta eps workers generator mlmc_levels
      deadlock_error on_error seed no_lint max_steps max_sim_time
      max_wall_per_path on_divergence checkpoint checkpoint_every resume
      metrics log_json progress no_prepass buffer drop_stall_limit max_restarts
      distribute worker_cmd lease dist_heartbeat dist_liveness chaos =
    (* Observability comes up before the model loads so the front-end
       phase timings land in the metrics and the event log. *)
    if metrics <> None then Metrics.set_enabled true;
    let log_teardown =
      match log_json with
      | None -> Fun.id
      | Some file ->
        let write, close = Log.file_sink file in
        Log.set_sink (Some write);
        fun () ->
          Log.set_sink None;
          close ()
    in
    let teardown () =
      Option.iter Metrics.write_file metrics;
      log_teardown ()
    in
    let die code msg =
      prerr_endline msg;
      teardown ();
      exit code
    in
    (* -p and --query take the same query forms; every query, on every
       topology, goes to [S.check_cost]. *)
    let src =
      match (prop, query) with
      | Some _, Some _ ->
        die 1 "slimsim: use exactly one of -p/--property and --query"
      | None, None ->
        die 1 "slimsim: a property is required: -p PROP or --query QUERY"
      | Some q, None | None, Some q -> q
    in
    let m =
      match load file with Ok m -> m | Error e -> die 1 e
    in
    advisory_lint ~no_lint file m;
    let on_deadlock = if deadlock_error then `Error else `Falsify in
    if resume && checkpoint = None then
      die 1 "slimsim: --resume requires --checkpoint FILE";
    let checkpoint =
      Option.map
        (fun file -> { Slimsim_sim.Supervisor.file; every = checkpoint_every })
        checkpoint
    in
    (match
       Result.bind (S.Generator.check ~delta ~eps)
         (Slimsim_sim.Path.check_budgets ~max_steps ?max_sim_time
            ?max_wall_per_path)
     with
    | Error e -> die 1 ("slimsim: " ^ e)
    | Ok () -> ());
    if buffer <= 0 then die 1 "slimsim: --buffer must be positive";
    if checkpoint_every <= 0 then
      die 1 "slimsim: --checkpoint-every must be positive";
    if Option.fold ~none:false ~some:(fun s -> not (s > 0.0)) progress then
      die 1 "slimsim: --progress must be positive";
    if drop_stall_limit <= 0 then
      die 1 "slimsim: --drop-stall-limit must be positive";
    if max_restarts < 0 then die 1 "slimsim: --max-restarts must be >= 0";
    if Option.fold ~none:false ~some:(fun n -> n < 1) distribute then
      die 1 "slimsim: --distribute must be >= 1";
    if distribute <> None && workers > 1 then
      die 1 "slimsim: use at most one of -j/--workers and --distribute";
    let supervisor =
      Slimsim_sim.Supervisor.create ~on_divergence ?checkpoint ~resume
        ?metrics_file:metrics ~max_buffer:buffer ~drop_stall_limit
        ~max_restarts ()
    in
    Slimsim_sim.Supervisor.install_signal_handlers supervisor;
    let progress =
      Option.map (fun interval -> Slimsim_obs.Progress.create ~interval ()) progress
    in
    Log.emit ~event:"campaign_start"
      [
        ("model", Json.String file);
        ("property", Json.String src);
        ("strategy", Json.String (Strategy.to_string strategy));
        ("delta", Json.Float delta);
        ("eps", Json.Float eps);
        (* worker domains, or worker processes under --distribute *)
        ("workers", Json.Int (Option.value distribute ~default:workers));
        ("seed", Json.String (Int64.to_string seed));
        ("generator", Json.String (S.Generator.kind_to_string generator));
        ( "on_divergence",
          Json.String
            (Slimsim_sim.Supervisor.divergence_policy_to_string on_divergence)
        );
      ];
    if mlmc_levels < 1 || mlmc_levels > 16 then
      die 1 "slimsim: --mlmc-levels must be between 1 and 16";
    let fail e =
      Log.emit ~event:"campaign_error" [ ("error", Json.String e) ];
      die 1 e
    in
    (* The one report: every outcome is printed here, and a campaign
       stopped early exits 4 with its achieved confidence, or 5 when it
       stopped because a --distribute pool lost every worker. *)
    let print outcome =
      Fmt.pr "%a@." S.pp_cost_outcome outcome;
      match outcome with
      | S.Cost_distribution r ->
        Fmt.pr "%a" Slimsim_sim.Cost_run.pp_distribution r
      | S.Cost_probability _ | S.Cost_expected _ -> ()
    in
    (* the quarantined workers, once a --distribute pool lost them all *)
    let lost = ref None in
    let exit_if_interrupted outcome =
      let interrupted, paths, half =
        match outcome with
        | S.Cost_probability e ->
          (e.S.interrupted, e.S.paths, (e.S.ci_high -. e.S.ci_low) /. 2.0)
        | S.Cost_expected r | S.Cost_distribution r ->
          let module Cost_run = Slimsim_sim.Cost_run in
          let c = r.Cost_run.reach in
          ( c.Slimsim_sim.Campaign.stopped = Slimsim_sim.Campaign.Interrupted,
            c.Slimsim_sim.Campaign.paths,
            (r.Cost_run.cost_ci_high -. r.Cost_run.cost_ci_low) /. 2.0 )
      in
      if interrupted then begin
        (match !lost with
        | Some quarantined ->
          Log.warn
            ~fields:
              [
                ("source", Json.String "distribute");
                ("paths", Json.Int paths);
                ("quarantined", Json.Int quarantined);
              ]
            (Printf.sprintf
               "every worker exhausted its restart budget; partial estimate \
                after %d paths"
               paths)
        | None ->
          Log.warn
            ~fields:
              [
                ("source", Json.String "interrupt");
                ("paths", Json.Int paths);
                ("achieved_half_width", Json.Float half);
                ("requested_eps", Json.Float eps);
              ]
            (Printf.sprintf
               "interrupted after %d paths; achieved half-width %.6f \
                (requested %g)"
               paths half eps));
        teardown ();
        exit (if !lost = None then 4 else 5)
      end
    in
    (* --distribute: the Bernoulli campaign runs on the coordinator's
       worker pool, reached through the facade like every topology. *)
    let runner =
      Option.map
        (fun nworkers ->
          let module Coordinator = Slimsim_dist.Coordinator in
          let source =
            try In_channel.with_open_bin file In_channel.input_all
            with Sys_error e -> die 1 e
          in
          let worker_argv =
            match worker_cmd with
            (* exec so signals reach the worker, not an intermediate shell *)
            | Some cmd -> [| "/bin/sh"; "-c"; "exec " ^ cmd |]
            | None -> [| Sys.executable_name; "work" |]
          in
          let cfg =
            try
              Coordinator.config ~workers:nworkers ~worker_cmd:worker_argv
                ?lease_size:lease ~batch:buffer ~heartbeat:dist_heartbeat
                ~liveness:dist_liveness ~chaos ()
            with Invalid_argument e -> die 1 ("slimsim: " ^ e)
          in
          let job =
            {
              Coordinator.model_source = source;
              property = src;
              strategy = Strategy.to_string strategy;
              engine = "compiled";
              seed;
              on_error;
              max_steps;
              max_sim_time;
              max_wall_per_path;
              on_deadlock = (if deadlock_error then "error" else "falsify");
            }
          in
          fun generator ->
            match Coordinator.run ~supervisor ?progress cfg job ~generator with
            | Ok o ->
              Log.emit ~event:"dist_summary"
                [
                  ("workers", Json.Int nworkers);
                  ("leases_granted", Json.Int o.Coordinator.leases_granted);
                  ("leases_reassigned", Json.Int o.Coordinator.leases_reassigned);
                  ("duplicate_paths", Json.Int o.Coordinator.duplicate_paths);
                  ("frames_rejected", Json.Int o.Coordinator.frames_rejected);
                  ("heartbeats_missed", Json.Int o.Coordinator.heartbeats_missed);
                  ("quarantined", Json.Int o.Coordinator.quarantined);
                ];
              if o.Coordinator.all_lost then
                lost := Some o.Coordinator.quarantined;
              Ok o.Coordinator.result
            | Error (Slimsim_sim.Path.Refused e) ->
              (* a flag combination, reported like the flag checks *)
              Error (Slimsim_sim.Path.Refused ("slimsim: " ^ e))
            | Error e -> Error e)
        distribute
    in
    match
      S.check_cost ?runner ~workers ~seed ~generator ~on_deadlock ~on_error
        ~supervisor ?progress ~max_steps ?max_sim_time ?max_wall_per_path
        ~prepass:(not no_prepass) ~levels:mlmc_levels m ~query:src ~strategy
        ~delta ~eps ()
    with
    | Error e -> fail e
    | Ok outcome ->
      print outcome;
      exit_if_interrupted outcome;
      teardown ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Monte Carlo estimation of a timed reachability property.  Exit \
          status: 0 converged, 1 aborted (path error, divergence under \
          --on-divergence abort, or unusable input), 4 interrupted \
          (SIGINT/SIGTERM; a partial estimate with its achieved confidence \
          was printed), 5 every distributed worker was lost (a partial \
          estimate was printed).")
    Term.(
      const run $ model_arg $ prop_opt $ query $ strategy_arg $ delta $ eps
      $ workers
      $ generator $ mlmc_levels $ deadlock_error $ on_error
      $ seed_arg $ no_lint_arg
      $ max_steps $ max_sim_time $ max_wall_per_path $ on_divergence
      $ checkpoint $ checkpoint_every $ resume $ metrics $ log_json $ progress
      $ no_prepass $ buffer $ drop_stall_limit $ max_restarts $ distribute
      $ worker_cmd $ lease $ dist_heartbeat $ dist_liveness $ chaos)

(* --- exact --- *)

let exact_cmd =
  let no_lump =
    Arg.(value & flag & info [ "no-lump" ] ~doc:"Skip the lumping reduction.")
  and max_states =
    Arg.(value & opt int 2_000_000 & info [ "max-states" ] ~doc:"State-space cap.")
  and log_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:
            "Write the pipeline's phase timings to $(docv), one JSON object \
             per line: a $(b,phase) event each for parse, sema, translate, \
             stage, explore, lump and transient.  The answer is the same \
             with or without this flag.")
  in
  let run file prop no_lump max_states log_json =
    check_flag (max_states > 0) "max-states" "positive";
    (* the sink comes up before the model loads, so the front-end phases
       are logged; it writes each line through, so an exit on an error
       loses none *)
    Option.iter (fun file -> Log.set_sink (Some (fst (Log.file_sink file)))) log_json;
    let m = or_die (load file) in
    Fmt.pr "%a@." S.pp_exact
      (or_die (S.check_exact ~max_states ~lump:(not no_lump) m ~property:prop))
  in
  Cmd.v (Cmd.info "exact" ~doc:"Exact CTMC analysis (untimed models)")
    Term.(const run $ model_arg $ prop_arg $ no_lump $ max_states $ log_json)

(* --- trace --- *)

let trace_cmd =
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the trace as CSV (RFC 4180).")
  in
  let run file prop strategy seed csv =
    let m = or_die (load file) in
    let verdict, steps =
      or_die (S.simulate_one ~seed m ~property:prop ~strategy)
    in
    if csv then print_string (Slimsim_sim.Trace.to_csv steps)
    else begin
      Fmt.pr "%a" Slimsim_sim.Trace.pp steps;
      Fmt.pr "verdict: %s@." (Slimsim_sim.Path.verdict_to_string verdict)
    end
  in
  Cmd.v (Cmd.info "trace" ~doc:"Generate and print a single random path")
    Term.(const run $ model_arg $ prop_arg $ strategy_arg $ seed_arg $ csv)

(* --- safety analysis (fault trees and FMEA, §II-C) --- *)

let goal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "goal" ] ~docv:"EXPR"
        ~doc:"Boolean failure condition over the model (SLIM expression).")

let cutsets_cmd =
  let max_order =
    Arg.(value & opt int 3 & info [ "max-order" ] ~doc:"Largest cut-set size.")
  and horizon =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ] ~docv:"T"
          ~doc:"Also evaluate cut-set probabilities at this horizon.")
  and dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print the fault tree as Graphviz dot.")
  in
  let run file goal max_order horizon dot =
    check_flag (max_order >= 0) "max-order" ">= 0";
    Option.iter (fun h -> check_flag (h >= 0.0) "horizon" ">= 0") horizon;
    let m = or_die (load file) in
    let t = or_die (S.fault_tree ~max_order m ~goal ~top:goal) in
    if dot then print_string (Slimsim_safety.Cutsets.to_dot t)
    else begin
      Fmt.pr "%a@." Slimsim_safety.Cutsets.pp_fault_tree t;
      match horizon with
      | None -> ()
      | Some h ->
        List.iteri
          (fun i cs ->
            Fmt.pr "P(MCS %d by %g) = %.3e@." (i + 1) h
              (Slimsim_safety.Cutsets.cut_set_probability cs ~horizon:h))
          t.Slimsim_safety.Cutsets.cut_sets;
        Fmt.pr "P(top by %g) ~ %.3e  (Esary-Proschan)@." h
          (Slimsim_safety.Cutsets.top_probability
             t.Slimsim_safety.Cutsets.cut_sets ~horizon:h)
    end
  in
  Cmd.v (Cmd.info "cutsets" ~doc:"Fault-tree generation: minimal cut sets")
    Term.(const run $ model_arg $ goal_arg $ max_order $ horizon $ dot)

let fmea_cmd =
  let run file goal =
    let m = or_die (load file) in
    Fmt.pr "%a@." Slimsim_safety.Fmea.pp_table (or_die (S.fmea m ~goal))
  in
  Cmd.v (Cmd.info "fmea" ~doc:"Failure Mode and Effects Analysis table")
    Term.(const run $ model_arg $ goal_arg)

(* The observables of [fdir] and [diagnosability], resolved by
   [Fdir.resolve_observables]. *)
let observables_arg =
  Arg.(
    required
    & opt (some (list string)) None
    & info [ "o"; "observables" ] ~docv:"VARS"
        ~doc:"Comma-separated observable variables (qualified names).")

let fdir_cmd =
  let settle =
    Arg.(
      value & opt float 0.0
      & info [ "settle" ] ~docv:"T"
          ~doc:"Fault-free settling time before the nominal baseline is taken.")
  in
  let run file observables settle =
    check_flag (settle >= 0.0) "settle" ">= 0";
    let m = or_die (load file) in
    Fmt.pr "%a@." Slimsim_safety.Fdir.pp_table
      (or_die (S.fdir ~settle_time:settle m ~observables))
  in
  Cmd.v
    (Cmd.info "fdir" ~doc:"Fault Detection, Isolation and Recovery analysis")
    Term.(const run $ model_arg $ observables_arg $ settle)

let verify_cmd =
  let invariant =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "invariant" ] ~docv:"EXPR"
          ~doc:"Boolean invariant that must hold in every reachable state.")
  and max_states =
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~doc:"State-space cap.")
  in
  let run file invariant max_states =
    check_flag (max_states > 0) "max-states" "positive";
    let m = or_die (load file) in
    let outcome = or_die (S.verify_invariant ~max_states m ~invariant) in
    Fmt.pr "%a@." Slimsim_ctmc.Qualitative.pp_outcome outcome;
    match outcome with
    | Slimsim_ctmc.Qualitative.Violated _ -> exit 2
    | Slimsim_ctmc.Qualitative.Holds _ -> ()
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Qualitative invariant checking (untimed abstraction)")
    Term.(const run $ model_arg $ invariant $ max_states)

let diagnosability_cmd =
  let diagnosis =
    Arg.(
      required
      & opt (some string) None
      & info [ "diagnosis" ] ~docv:"EXPR" ~doc:"The diagnosis expression.")
  and max_faults =
    Arg.(value & opt int 2 & info [ "max-faults" ] ~doc:"Faults injected per scenario.")
  in
  let run file observables diagnosis max_faults =
    check_flag (max_faults >= 0) "max-faults" ">= 0";
    let m = or_die (load file) in
    Fmt.pr "%a@." Slimsim_safety.Diagnosability.pp_report
      (or_die (S.diagnosability ~max_faults m ~observables ~diagnosis))
  in
  Cmd.v (Cmd.info "diagnosability" ~doc:"Check that observations determine the diagnosis")
    Term.(const run $ model_arg $ observables_arg $ diagnosis $ max_faults)

let dot_cmd =
  let process =
    Arg.(
      value
      & opt (some string) None
      & info [ "process" ] ~docv:"NAME"
          ~doc:"Render one process instead of the network overview.")
  in
  let run file process =
    let m = or_die (load file) in
    print_string
      (match process with
      | None -> S.dot_network m
      | Some name -> or_die (S.dot_process m name))
  in
  Cmd.v (Cmd.info "dot" ~doc:"Graphviz export of the network or a process")
    Term.(const run $ model_arg $ process)

(* --- interactive (the Input strategy, §III-B) --- *)

let interactive_cmd =
  let run file prop =
    let m = or_die (load file) in
    let net = S.network m in
    let script (alt : Strategy.alternatives) =
      Fmt.pr "@.--- step %d, state ---@.%a@." alt.Strategy.step
        (Slimsim_sta.State.pp net) alt.Strategy.state;
      Fmt.pr "admissible delays: %a@." I.pp alt.Strategy.inv_window;
      List.iteri
        (fun i (tm : Slimsim_sta.Moves.timed) ->
          Fmt.pr "  [%d] %s  in %a@." i
            (Slimsim_sta.Moves.describe net tm.Slimsim_sta.Moves.move)
            I.pp tm.Slimsim_sta.Moves.window)
        alt.Strategy.timed;
      List.iteri
        (fun i (p, _, r) ->
          Fmt.pr "  [m%d] rate %g transition of %s@." i r
            (Slimsim_sta.Network.proc_name net p))
        alt.Strategy.markov;
      Fmt.pr "choose: <index> <delay> | m<index> <delay> | a <delay> | q@.> %!";
      match String.split_on_char ' ' (String.trim (read_line ())) with
      | [ "q" ] -> Strategy.Abort
      | [ "a"; d ] -> Strategy.Advance (float_of_string d)
      | [ idx; d ] when String.length idx > 0 && idx.[0] = 'm' ->
        Strategy.Fire_markov
          {
            index = int_of_string (String.sub idx 1 (String.length idx - 1));
            delay = float_of_string d;
          }
      | [ idx; d ] -> Strategy.Fire { index = int_of_string idx; delay = float_of_string d }
      | _ -> Strategy.Abort
    in
    let verdict, _ =
      or_die
        (S.simulate_one m ~property:prop ~strategy:(Strategy.Scripted script))
    in
    Fmt.pr "verdict: %s@." (Slimsim_sim.Path.verdict_to_string verdict)
  in
  Cmd.v
    (Cmd.info "interactive" ~doc:"Drive a single path by hand (the Input strategy)")
    Term.(const run $ model_arg $ prop_arg)

(* --- serve / client (the resident campaign service) --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let cache =
    Arg.(
      value & opt int 8
      & info [ "cache" ] ~docv:"N"
          ~doc:"Compiled STA networks kept resident (LRU eviction beyond).")
  and slice =
    Arg.(
      value & opt int 64
      & info [ "slice" ] ~docv:"N"
          ~doc:
            "Paths one campaign consumes per scheduling turn before the \
             fair-share scheduler rotates to the next tenant.")
  and max_campaigns =
    Arg.(
      value & opt int 4
      & info [ "max-campaigns" ] ~docv:"N"
          ~doc:
            "Admission control: unfinished campaigns one tenant may hold; \
             further submissions are rejected, not queued.")
  and max_paths =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-paths" ] ~docv:"N"
          ~doc:
            "Per-campaign path budget; a campaign that exceeds it is stopped \
             cooperatively and reports a partial, interrupted estimate \
             tagged budget=paths.")
  and max_wall =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-wall" ] ~docv:"SECONDS"
          ~doc:
            "Per-campaign active-stepping budget (parked time is not \
             billed); exceeding it stops the campaign with budget=wall.")
  and max_workers =
    Arg.(
      value & opt int 4
      & info [ "max-workers" ] ~docv:"N"
          ~doc:"Cap on the worker domains any one submission may request.")
  and metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the Prometheus exposition (slimsim_serve_* series \
             included) to $(docv) at shutdown; the metrics op serves it \
             live.")
  and log_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:"Append serve lifecycle events to $(docv), one JSON per line.")
  in
  let run socket cache slice max_campaigns max_paths max_wall max_workers
      metrics log_json =
    if cache <= 0 then or_die (Error "slimsim: --cache must be positive");
    if slice <= 0 then or_die (Error "slimsim: --slice must be positive");
    let cfg =
      {
        (Slimsim_serve.Service.default_config ~socket_path:socket) with
        cache_capacity = cache;
        slice;
        max_campaigns_per_tenant = max_campaigns;
        max_paths_per_campaign = max_paths;
        max_wall_per_campaign = max_wall;
        max_workers;
        metrics_file = metrics;
        event_log = log_json;
      }
    in
    Slimsim_serve.Service.run cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident campaign service: a persistent process that \
          caches compiled networks, admits campaigns per tenant and \
          time-slices them fairly.  Protocol: one JSON object per line \
          over the Unix socket (see docs/SERVICE.md).  Exit status: 0 on a \
          shutdown request or SIGINT/SIGTERM.")
    Term.(
      const run $ socket_arg $ cache $ slice $ max_campaigns $ max_paths
      $ max_wall $ max_workers $ metrics $ log_json)

let client_cmd =
  let model_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"SLIM model file")
  and prop_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "property" ] ~docv:"PROP" ~doc:"Property to estimate.")
  and delta =
    Arg.(value & opt float 0.05 & info [ "d"; "delta" ] ~doc:"Confidence parameter.")
  and eps = Arg.(value & opt float 0.01 & info [ "e"; "eps" ] ~doc:"Error bound.")
  and workers =
    Arg.(value & opt int 1 & info [ "j"; "workers" ] ~doc:"Requested workers.")
  and generator =
    Arg.(
      value & opt string "chernoff"
      & info [ "g"; "generator" ]
          ~doc:"Sample-count rule: chernoff, hoeffding, gauss, chow-robbins or mlmc.")
  and tenant =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant identity for admission control.")
  and no_wait =
    Arg.(
      value & flag
      & info [ "no-wait" ]
          ~doc:"Print the submission receipt and return without waiting.")
  and raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON"
          ~doc:
            "Send one raw request object instead of submitting a model \
             (e.g. '{\"op\":\"stats\"}' or '{\"op\":\"shutdown\"}').")
  and connect_retries =
    Arg.(
      value & opt int 3
      & info [ "connect-retries" ] ~docv:"N"
          ~doc:
            "Retry a refused or missing socket up to $(docv) times with \
             capped exponential backoff (covers the race against a service \
             still starting up).  0 fails on the first attempt.")
  in
  let run socket model prop strategy seed delta eps workers generator tenant
      no_wait raw connect_retries =
    if connect_retries < 0 then
      or_die (Error "slimsim client: --connect-retries must be >= 0");
    let backoff = Slimsim_sim.Supervisor.default () in
    let rec connect attempt =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error (e, _, _) -> (
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        match e with
        | (Unix.ECONNREFUSED | Unix.ENOENT) when attempt < connect_retries ->
          let delay = Slimsim_sim.Supervisor.backoff_delay backoff ~attempt in
          Fmt.epr "slimsim client: %s: %s; retrying in %.2fs (%d/%d)@." socket
            (Unix.error_message e) delay (attempt + 1) connect_retries;
          Unix.sleepf delay;
          connect (attempt + 1)
        | _ ->
          or_die
            (Error
               (Printf.sprintf "%s: cannot connect (%s)" socket
                  (Unix.error_message e))))
    in
    let fd = connect 0 in
    let ic = Unix.in_channel_of_descr fd in
    let send line =
      let line = line ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line))
    in
    let recv () =
      match input_line ic with
      | line -> line
      | exception End_of_file -> or_die (Error "connection closed by the service")
    in
    let is_ok line =
      match Json.parse line with
      | Ok j -> Json.member "ok" j = Some (Json.Bool true)
      | Error _ -> false
    in
    let field line key =
      match Json.parse line with Ok j -> Json.member key j | Error _ -> None
    in
    (match raw with
    | Some req ->
      send req;
      let reply = recv () in
      print_endline reply;
      if not (is_ok reply) then exit 1
    | None ->
      let file =
        match model with
        | Some f -> f
        | None -> or_die (Error "slimsim client: MODEL required (or use --raw)")
      in
      let property =
        match prop with
        | Some p -> p
        | None -> or_die (Error "slimsim client: --property required (or use --raw)")
      in
      let source =
        try In_channel.with_open_bin file In_channel.input_all
        with Sys_error e -> or_die (Error e)
      in
      let generator =
        match S.Generator.kind_of_string generator with
        | Ok g -> g
        | Error e -> or_die (Error e)
      in
      let submit =
        {
          Slimsim_serve.Protocol.submit_defaults with
          tenant;
          model_source = Some source;
          property;
          strategy;
          delta;
          eps;
          seed;
          generator;
          workers;
        }
      in
      send (Json.to_string (Slimsim_serve.Protocol.submit_to_json submit));
      let receipt = recv () in
      print_endline receipt;
      if not (is_ok receipt) then exit 1;
      if not no_wait then begin
        let id =
          match field receipt "id" with
          | Some (Json.String id) -> id
          | _ -> or_die (Error "malformed receipt: no campaign id")
        in
        send
          (Json.to_string
             (Json.Obj [ ("op", Json.String "wait"); ("id", Json.String id) ]));
        let final = recv () in
        print_endline final;
        if not (is_ok final) then exit 1;
        match field final "state" with
        | Some (Json.String "done") -> (
          (* a tenant budget cut reports state "done" with a "budget"
             tag and a partial estimate — that is an interruption, not
             convergence *)
          match field final "budget" with
          | Some (Json.String _) -> exit 4
          | _ -> ())
        | Some (Json.String "cancelled") -> exit 4
        | _ -> exit 1
      end);
    close_in_noerr ic
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit a campaign to a running service and (by default) wait for \
          its estimate, printing the service's JSON responses.  Exit \
          status: 0 converged, 1 rejected or failed, 4 cancelled or cut by \
          a tenant budget.")
    Term.(
      const run $ socket_arg $ model_opt $ prop_opt $ strategy_arg $ seed_arg
      $ delta $ eps $ workers $ generator $ tenant $ no_wait $ raw
      $ connect_retries)

let work_cmd =
  let run () = exit (Slimsim_dist.Worker.run ()) in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Serve as a distributed-campaign worker: speak length-prefixed \
          JSON frames over stdin/stdout, simulating path-id leases granted \
          by a 'simulate --distribute' coordinator (which spawns this \
          subcommand itself, or via --worker-cmd over e.g. ssh).  Exit \
          status: 0 shutdown or coordinator EOF, 1 internal crash, 2 \
          unusable handshake.")
    Term.(const run $ const ())

let version_cmd =
  let run () = print_endline version in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the tool version (the same string stamped into the lint \
          JSON envelope and exchanged in the serve protocol handshake).")
    Term.(const run $ const ())

let () =
  let doc = "statistical model checking of timed reachability for SLIM/AADL models" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "slimsim" ~version ~doc)
          [
            info_cmd; lint_cmd; simulate_cmd; exact_cmd; trace_cmd;
            interactive_cmd; cutsets_cmd; fmea_cmd; fdir_cmd;
            diagnosability_cmd; verify_cmd; dot_cmd; serve_cmd; client_cmd;
            work_cmd; version_cmd;
          ]))
