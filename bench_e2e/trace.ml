(* Trace child of the end-to-end benchmark (bench_e2e/run.py).

   It takes the argument list of one [slimsim simulate] or [slimsim
   exact] invocation and replays it by calling each layer's public
   functions in the order the CLI command does, timing every call from
   outside.  Its stdout is the command's own report line, checked by the
   harness exactly like the CLI's, followed by one JSON line: the layer
   spans in call order, the metric exposition ([Metrics.render]) and the
   few values the exposition does not carry.

     trace.exe [--cli SLIMSIM] [--count] [--setup-only] simulate MODEL ARGS...
     trace.exe [--cli SLIMSIM] [--count] [--setup-only] exact MODEL ARGS...
     trace.exe models DIR

   [--cli] names the slimsim executable whose [work] subcommand serves
   [--distribute] workers.  Metric collection is on exactly when the
   command asks for [--metrics], as in the CLI, so the spans time the
   same work; [--count] turns it on regardless, for the counts.
   [--setup-only] stops where the first path (or the state-space
   exploration) would start and prints only the set-up time.  [models]
   writes the generated models the exact workloads read and prints their
   reference answers.

   Deviations from the CLI, all outside the timed hot loops: the network
   is staged once before [Campaign.create] instead of inside it, and the
   property is resolved once where [Slimsim.check] resolves it twice. *)

module Json = Slimsim_obs.Json
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Phase = Slimsim_obs.Phase
module Pattern = Slimsim_props.Pattern
module Sema = Slimsim_slim.Sema
module Campaign = Slimsim_sim.Campaign
module Cost_run = Slimsim_sim.Cost_run
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
module Prepass = Slimsim_analyze.Prepass
module Coordinator = Slimsim_dist.Coordinator

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("trace: " ^ s);
      exit 2)
    fmt

let ok what = function Ok v -> v | Error e -> die "%s: %s" what e

(* --- spans, recorded around each call into a layer --- *)

let spans = ref []

let span name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  spans := (name, Unix.gettimeofday () -. t0) :: !spans;
  r

let spans_total ?(prefix = "") () =
  List.fold_left
    (fun acc (n, s) -> if String.starts_with ~prefix n then acc +. s else acc)
    0.0 !spans

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

let finish fields =
  print_json
    (( "spans",
       Json.List
         (List.rev_map
            (fun (n, s) -> Json.List [ Json.String n; Json.Float s ])
            !spans) )
    :: ("metrics", Json.String (Metrics.render ()))
    :: fields)

(* --- the subset of the CLI's flags the workloads use --- *)

type args = {
  model : string;
  prop : string option;
  query : string option;
  strategy : Strategy.t;
  delta : float;
  eps : float;
  generator : Generator.kind;
  workers : int;
  distribute : int option;
  checkpoint : string option;
  checkpoint_every : int;
  metrics : string option;
  log_json : string option;
  seed : int64;
}

let parse_args model rest =
  let num conv flag v =
    match conv v with Some x -> x | None -> die "%s: bad value %S" flag v
  in
  let rec go a = function
    | [] -> a
    | [ flag ] -> die "%s needs a value" flag
    | flag :: v :: tl ->
      let a =
        match flag with
        | "-p" | "--property" -> { a with prop = Some v }
        | "--query" -> { a with query = Some v }
        | "-s" | "--strategy" -> { a with strategy = ok flag (Strategy.of_string v) }
        | "-d" | "--delta" -> { a with delta = num float_of_string_opt flag v }
        | "-e" | "--eps" -> { a with eps = num float_of_string_opt flag v }
        | "-g" | "--generator" ->
          { a with generator = ok flag (Generator.kind_of_string v) }
        | "-j" | "--workers" -> { a with workers = num int_of_string_opt flag v }
        | "--distribute" ->
          { a with distribute = Some (num int_of_string_opt flag v) }
        | "--checkpoint" -> { a with checkpoint = Some v }
        | "--checkpoint-every" ->
          { a with checkpoint_every = num int_of_string_opt flag v }
        | "--metrics" -> { a with metrics = Some v }
        | "--log-json" -> { a with log_json = Some v }
        | "--seed" -> { a with seed = num Int64.of_string_opt flag v }
        | _ -> die "unsupported flag %s" flag
      in
      go a tl
  in
  go
    {
      model;
      prop = None;
      query = None;
      strategy = Strategy.Asap;
      delta = 0.05;
      eps = 0.01;
      generator = Generator.Chernoff;
      workers = 1;
      distribute = None;
      checkpoint = None;
      checkpoint_every = 10_000;
      metrics = None;
      log_json = None;
      seed = 1L;
    }
    rest

(* --- layers shared by both commands --- *)

let frontend file =
  let src =
    span "io.read" (fun () ->
        try In_channel.with_open_text file In_channel.input_all
        with Sys_error e -> die "%s" e)
  in
  let ast =
    span "slim.parse" (fun () ->
        Phase.run "parse" (fun () -> Slimsim_slim.Parser.parse_model src))
    |> ok file
  in
  let tables =
    span "slim.sema" (fun () ->
        Phase.run "sema" (fun () ->
            Sema.analyze ast |> Result.map_error Sema.errors_to_string))
    |> ok file
  in
  let net =
    span "slim.translate" (fun () ->
        Phase.run "translate" (fun () -> Slimsim_slim.Translate.translate tables))
    |> ok file
  in
  (tables, net)

let enum_of tables x = Option.map snd (Sema.enum_literal tables x)

let resolve tables net src =
  let pat = ok "property" (Pattern.parse src) in
  let goal, hold, horizon =
    ok "property" (Pattern.resolve ~enum:(enum_of tables) net pat)
  in
  (goal, hold, horizon, pat.Pattern.complement)

(* The estimate the CLI prints, complement-mapped as [Slimsim] does. *)
let estimate ~complement (r : Campaign.result) =
  let pr, lo, hi =
    if complement then
      (1.0 -. r.probability, 1.0 -. r.ci_high, 1.0 -. r.ci_low)
    else (r.probability, r.ci_low, r.ci_high)
  in
  {
    Slimsim.probability = pr;
    ci_low = lo;
    ci_high = hi;
    paths = r.paths;
    successes = r.successes;
    deadlock_paths = r.deadlock_paths;
    violated_paths = r.violated_paths;
    errors = r.errors;
    diverged_paths = r.diverged_paths;
    dropped_paths = r.dropped_paths;
    worker_restarts = r.worker_restarts;
    interrupted = r.stopped = Campaign.Interrupted;
    wall_seconds = r.wall_seconds;
    certificate = None;
  }

(* --- simulate --- *)

let prepass ?hold net ~goal =
  span "analyze.prepass" (fun () -> Prepass.analyze ?hold net ~goal)

let stage net = span "sta.stage" (fun () -> Slimsim_sta.Compiled.compile net)

let sampled name f =
  let w0 = Gc.minor_words () in
  let r = span name f in
  (r, Gc.minor_words () -. w0)

let simulate ~cli ~count ~setup_only a =
  if a.metrics <> None || count then Metrics.set_enabled true;
  let close_log =
    match a.log_json with
    | None -> Fun.id
    | Some file ->
      let write, close = Log.file_sink file in
      Log.set_sink (Some write);
      fun () ->
        Log.set_sink None;
        close ()
  in
  let tables, net = frontend a.model in
  span "analyze.lint" (fun () -> ignore (Slimsim_analyze.Lint.run tables net));
  let supervisor =
    Supervisor.create
      ?checkpoint:
        (Option.map
           (fun file -> { Supervisor.file; every = a.checkpoint_every })
           a.checkpoint)
      ?metrics_file:a.metrics ()
  in
  Supervisor.install_signal_handlers supervisor;
  let fail e = die "%s" (Path.error_to_string e) in
  (* Each branch returns the report printer, the minor words the sampling
     layer allocated and its extra JSON fields; [None] in set-up-only
     mode. *)
  let run =
    match (a.prop, a.query, a.distribute) with
    | None, Some q, None -> (
      match ok "query" (Pattern.parse_query q) with
      | Pattern.Cost_expect { cost_src; prob } ->
        let cost_var, (goal, hold, horizon) =
          span "props.resolve" (fun () ->
              let enum = enum_of tables in
              ( ok "cost" (Pattern.resolve_cost ~enum net cost_src),
                ok "property" (Pattern.resolve ~enum net prob) ))
        in
        (match (prepass ?hold net ~goal).Prepass.outcome with
        | Prepass.P0 _ -> die "the pre-pass certifies P = 0: no cost to sample"
        | _ -> ());
        let compiled = stage net in
        if setup_only then None
        else
          let r, words =
            sampled "sim.sampling" (fun () ->
                match
                  Cost_run.create ~seed:a.seed ~config:(Path.default_config ~horizon)
                    ?hold ~supervisor ~compiled net ~goal ~horizon
                    ~strategy:a.strategy ~cost_var
                    ~query:(Pattern.query_to_string (Pattern.Cost_expect { cost_src; prob }))
                    ~kind:a.generator ~delta:a.delta ~eps:a.eps ()
                with
                | Error e -> fail e
                | Ok t -> ( match Cost_run.drive t with Ok r -> r | Error e -> fail e))
          in
          Some
            ( (fun () ->
                Fmt.pr "%a@." Slimsim.pp_cost_outcome (Slimsim.Cost_expected r)),
              words,
              [ ("cost_sat_paths", Json.Int r.Cost_run.cost_samples) ] )
      | _ -> die "only E[...] cost queries are traced")
    | Some p, None, Some nworkers ->
      (* the CLI's --distribute path: no pre-pass, no local staging *)
      let _, _, _, complement =
        span "props.resolve" (fun () -> resolve tables net p)
      in
      if setup_only then None
      else
        let source = In_channel.with_open_bin a.model In_channel.input_all in
        let cfg =
          Coordinator.config ~workers:nworkers ~worker_cmd:[| cli; "work" |] ()
        in
        let job =
          {
            Coordinator.model_source = source;
            property = p;
            strategy = Strategy.to_string a.strategy;
            engine = "compiled";
            seed = a.seed;
            on_error = `Abort;
            max_steps = 1_000_000;
            max_sim_time = None;
            max_wall_per_path = None;
            on_deadlock = "falsify";
          }
        in
        let gen = Generator.create a.generator ~delta:a.delta ~eps:a.eps in
        let o, words =
          sampled "dist.run" (fun () ->
              match Coordinator.run ~supervisor cfg job ~generator:gen with
              | Ok o -> o
              | Error e -> fail e)
        in
        Some
          ( (fun () ->
              Fmt.pr "%a@." Slimsim.pp_estimate
                (estimate ~complement o.Coordinator.result)),
            words,
            [
              ("dist_leases_granted", Json.Int o.Coordinator.leases_granted);
              ("dist_leases_reassigned", Json.Int o.Coordinator.leases_reassigned);
              ("dist_duplicate_paths", Json.Int o.Coordinator.duplicate_paths);
            ] )
    | Some p, None, None ->
      let goal, hold, horizon, complement =
        span "props.resolve" (fun () -> resolve tables net p)
      in
      (match (prepass ?hold net ~goal).Prepass.outcome with
      | Prepass.Inconclusive _ -> ()
      | _ -> die "the pre-pass answers %s; nothing to sample" p);
      let compiled = stage net in
      if setup_only then None
      else
        let r, words =
          sampled "sim.sampling" (fun () ->
              let generator = Generator.create a.generator ~delta:a.delta ~eps:a.eps in
              match
                Campaign.create ~workers:a.workers ~seed:a.seed
                  ~config:(Path.default_config ~horizon) ?hold ~supervisor
                  ~compiled net ~goal ~horizon ~strategy:a.strategy ~generator ()
              with
              | Error e -> fail e
              | Ok c -> ( match Campaign.drive c with Ok r -> r | Error e -> fail e))
        in
        Some ((fun () -> Fmt.pr "%a@." Slimsim.pp_estimate (estimate ~complement r)), words, [])
    | _ -> die "give exactly one of -p and --query (and --distribute only with -p)"
  in
  match run with
  | None -> print_json [ ("setup_s", Json.Float (spans_total ())) ]
  | Some (report, minor_words, extra) ->
    span "report" (fun () ->
        report ();
        Option.iter Metrics.write_file a.metrics;
        close_log ());
    finish (("minor_words", Json.Float minor_words) :: extra)

(* --- exact --- *)

let exact ~setup_only a =
  let module Explorer = Slimsim_ctmc.Explorer in
  let module Ctmc = Slimsim_ctmc.Ctmc in
  let tables, net = frontend a.model in
  let p =
    match a.prop with Some p -> p | None -> die "exact needs -p PROPERTY"
  in
  let goal, hold, horizon, complement =
    span "props.resolve" (fun () -> resolve tables net p)
  in
  if setup_only then print_json [ ("setup_s", Json.Float (spans_total ())) ]
  else begin
    let chain, stats =
      span "ctmc.explore" (fun () ->
          try Explorer.explore ~max_states:2_000_000 ?hold net ~goal with
          | Explorer.Not_untimed m -> die "model is not untimed: %s" m
          | Explorer.Immediate_cycle m -> die "%s" m
          | Explorer.Too_many_states n -> die "state space exceeds %d states" n)
    in
    let lumped = span "ctmc.lump" (fun () -> Slimsim_ctmc.Lumping.lump chain) in
    let q = lumped.Slimsim_ctmc.Lumping.quotient in
    let prob =
      span "ctmc.transient" (fun () ->
          Slimsim_ctmc.Transient.reach_probability q ~horizon)
    in
    (* the uniformisation rate of the chain with goal and bad states made
       absorbing, as Transient computes it *)
    let rate = ref 0.0 in
    for s = 0 to q.Ctmc.n_states - 1 do
      if not (q.Ctmc.goal.(s) || q.Ctmc.bad.(s)) then
        rate := Float.max !rate (Ctmc.exit_rate q s)
    done;
    let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    span "report" (fun () ->
        Fmt.pr "%a@." Slimsim.pp_exact
          {
            Slimsim.exact_probability = (if complement then 1.0 -. prob else prob);
            states = stats.Explorer.stable_states;
            lumped_states = q.Ctmc.n_states;
            analysis_seconds = spans_total ~prefix:"ctmc." ();
          });
    finish
      [
        ("ctmc_stable_states", Json.Int stats.Explorer.stable_states);
        ("ctmc_transitions", Json.Int stats.Explorer.transitions);
        ("ctmc_vanishing_visits", Json.Int stats.Explorer.vanishing_visits);
        ("ctmc_lumped_states", Json.Int q.Ctmc.n_states);
        ( "ctmc_heap_peak_mb",
          Json.Float (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0) );
        ("ctmc_uniformisation_lambda", Json.Float (!rate *. horizon));
      ]
  end

(* --- generated models --- *)

let models dir =
  let module Sf = Slimsim_models.Sensor_filter in
  let module Q = Slimsim_models.Queue_model in
  let write name src =
    let file = Filename.concat dir name in
    Out_channel.with_open_text file (fun oc -> output_string oc src);
    file
  in
  let sf n =
    ( string_of_int n,
      Json.Obj
        [
          ("file", Json.String (write (Printf.sprintf "sensor_filter_%d.slim" n) (Sf.source ~n)));
          ("goal", Json.String (Sf.goal_all_failed ~n));
          ("closed_form_1800", Json.Float (Sf.closed_form ~n ~horizon:1800.0));
        ] )
  in
  print_json
    [
      ("sensor_filter", Json.Obj [ sf 4; sf 8 ]);
      ( "queue",
        Json.Obj
          [
            ( "file",
              Json.String
                (write "mm1k_20.slim"
                   (Q.source ~arrival:0.8 ~service:1.0 ~capacity:20)) );
            ("goal", Json.String (Q.goal_full ~capacity:20));
          ] );
    ]

let () =
  let rec go ~cli ~count ~setup_only = function
    | "--cli" :: path :: rest -> go ~cli:path ~count ~setup_only rest
    | "--count" :: rest -> go ~cli ~count:true ~setup_only rest
    | "--setup-only" :: rest -> go ~cli ~count ~setup_only:true rest
    | [ "models"; dir ] -> models dir
    | "simulate" :: model :: rest ->
      simulate ~cli ~count ~setup_only (parse_args model rest)
    | "exact" :: model :: rest -> exact ~setup_only (parse_args model rest)
    | _ ->
      die
        "usage: trace.exe [--cli SLIMSIM] [--count] [--setup-only] \
         (simulate|exact) MODEL ARGS... | trace.exe models DIR"
  in
  go ~cli:"slimsim" ~count:false ~setup_only:false
    (List.tl (Array.to_list Sys.argv))
