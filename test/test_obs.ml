(* Tests for the observability layer (Slimsim_obs): the hand-rolled
   JSON encoder/parser, metric cells and their Prometheus rendering,
   the JSONL event log, the progress heartbeat and the phase timers.

   Metrics are globally gated; every test that enables them restores
   the disabled default and resets the registry so the rest of the
   suite (and the bit-identity tests) see a clean slate. *)

module Json = Slimsim_obs.Json
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Progress = Slimsim_obs.Progress
module Phase = Slimsim_obs.Phase

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let with_sink events f =
  Log.set_sink (Some (fun line -> events := line :: !events));
  Fun.protect f ~finally:(fun () -> Log.set_sink None)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let test_json_render () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.String "x\"y\n\t");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 0.5 ]);
      ]
  in
  Alcotest.(check string) "compact rendering"
    {|{"a":3,"b":"x\"y\n\t","c":[true,null,0.5]}|} (Json.to_string j)

let test_json_non_finite () =
  (* non-finite floats must still produce valid JSON (as strings) *)
  let line = Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]) in
  match Json.parse line with
  | Ok (Json.List [ Json.String "nan"; Json.String "inf" ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "non-finite rendering is not valid JSON: %s" e

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "escape \\ \"quotes\" and \x01 control";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj [ ("nested", Json.Obj [ ("k", Json.String "v") ]) ];
    ]
  in
  List.iter
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' ->
        Alcotest.(check string) "round-trips" (Json.to_string j)
          (Json.to_string j')
      | Error e -> Alcotest.failf "%s did not parse: %s" (Json.to_string j) e)
    cases

let test_json_parse_errors () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Error _ -> ()
      | Ok j -> Alcotest.failf "%S parsed as %s" src (Json.to_string j))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_member () =
  let j = Json.Obj [ ("a", Json.Int 1) ] in
  Alcotest.(check bool) "present" true (Json.member "a" j = Some (Json.Int 1));
  Alcotest.(check bool) "absent" true (Json.member "b" j = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" (Json.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (Metrics.enabled ());
  let c = Metrics.counter "slimsim_test_noop_total" ~help:"t" in
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "counter untouched while disabled" 0
    (Metrics.counter_value c);
  let h = Metrics.histogram "slimsim_test_noop_seconds" ~help:"t" in
  Metrics.observe h 1.0;
  Alcotest.(check int) "histogram untouched while disabled" 0
    (Metrics.histogram_count h)

(* Metrics is the one switch: a series is registered only while metrics
   are on.  One first requested while they are off is never rendered,
   even after they are turned on; one registered while they are on is
   the same cell when requested again after they are turned off. *)
let test_metrics_register_only_when_on () =
  let rendered name = Astring_contains.contains (Metrics.render ()) name in
  let early = Metrics.counter "slimsim_test_early_total" ~help:"t" in
  let early_h = Metrics.histogram "slimsim_test_early_seconds" ~help:"t" in
  with_metrics @@ fun () ->
  Metrics.incr early;
  Metrics.observe early_h 1.0;
  Alcotest.(check bool) "counter requested while off: not rendered" false
    (rendered "slimsim_test_early_total");
  Alcotest.(check bool) "histogram requested while off: not rendered" false
    (rendered "slimsim_test_early_seconds");
  let c = Metrics.counter "slimsim_test_late_total" ~help:"t" in
  let h = Metrics.histogram "slimsim_test_late_seconds" ~help:"t" in
  Metrics.incr c;
  Metrics.observe h 0.5;
  Alcotest.(check bool) "registered while on: rendered" true
    (rendered "slimsim_test_late_total 1");
  Metrics.set_enabled false;
  Alcotest.(check int) "counter found again while off" 1
    (Metrics.counter_value (Metrics.counter "slimsim_test_late_total" ~help:"t"));
  Alcotest.(check int) "histogram found again while off" 1
    (Metrics.histogram_count
       (Metrics.histogram "slimsim_test_late_seconds" ~help:"t"))

let test_metrics_counter () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "slimsim_test_total" ~labels:[ ("k", "a") ] ~help:"t" in
  Metrics.incr c;
  Metrics.add c 2;
  Alcotest.(check int) "counts" 3 (Metrics.counter_value c);
  (* find-or-create: the same (name, labels) is the same cell — a
     respawned worker keeps its counts *)
  let c' = Metrics.counter "slimsim_test_total" ~labels:[ ("k", "a") ] ~help:"t" in
  Metrics.incr c';
  Alcotest.(check int) "same cell" 4 (Metrics.counter_value c);
  let other = Metrics.counter "slimsim_test_total" ~labels:[ ("k", "b") ] ~help:"t" in
  Alcotest.(check int) "distinct labels are distinct cells" 0
    (Metrics.counter_value other)

let test_metrics_histogram () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "slimsim_test_seconds" ~help:"t" in
  List.iter (Metrics.observe h) [ 0.001; 0.5; 3.0; -1.0 ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 2.501 (Metrics.histogram_sum h)

let test_metrics_render () =
  with_metrics @@ fun () ->
  (* names unique to this test: the registry is per-process, and help
     text sticks to whoever registered a series first *)
  let c = Metrics.counter "slimsim_test_render_total" ~labels:[ ("k", "a") ] ~help:"a counter" in
  Metrics.add c 7;
  let h = Metrics.histogram "slimsim_test_render_seconds" ~help:"a histogram" in
  Metrics.observe h 0.25;
  let text = Metrics.render () in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "render has %S" frag) true
        (Astring_contains.contains text frag))
    [
      "# HELP slimsim_test_render_total a counter";
      "# TYPE slimsim_test_render_total counter";
      "slimsim_test_render_total{k=\"a\"} 7";
      "# TYPE slimsim_test_render_seconds histogram";
      "slimsim_test_render_seconds_sum 0.25";
      "slimsim_test_render_seconds_count 1";
      "le=\"+Inf\"";
    ];
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  Alcotest.(check int) "reset zeroes histograms" 0 (Metrics.histogram_count h)

let test_metrics_write_file () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "slimsim_test_file_total" ~help:"t" in
  Metrics.incr c;
  let file = Filename.temp_file "slimsim_metrics" ".prom" in
  Fun.protect
    (fun () ->
      Metrics.write_file file;
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "file holds the exposition" true
        (Astring_contains.contains text "slimsim_test_file_total 1"))
    ~finally:(fun () -> Sys.remove file)

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)

let test_log_emit () =
  let events = ref [] in
  Alcotest.(check bool) "inactive without a sink" false (Log.active ());
  Log.emit ~event:"dropped" []; (* no sink: must be a no-op, not a crash *)
  (with_sink events @@ fun () ->
   Alcotest.(check bool) "active with a sink" true (Log.active ());
   Log.emit ~event:"first" [ ("n", Json.Int 1) ];
   Log.emit ~event:"second" []);
  Log.emit ~event:"late" []; (* sink removed again *)
  let lines = List.rev !events in
  Alcotest.(check int) "two events captured" 2 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "line %d is not JSON: %s" i e
      | Ok json ->
        (match Json.member "ts" json with
        | Some (Json.Float _) -> ()
        | _ -> Alcotest.failf "line %d lacks a float ts" i);
        Alcotest.(check bool)
          (Printf.sprintf "line %d seq" i)
          true
          (Json.member "seq" json = Some (Json.Int i)))
    lines;
  match Json.parse (List.hd lines) with
  | Ok json ->
    Alcotest.(check bool) "event kind" true
      (Json.member "event" json = Some (Json.String "first"));
    Alcotest.(check bool) "payload field" true
      (Json.member "n" json = Some (Json.Int 1))
  | Error e -> Alcotest.failf "first line: %s" e

let test_log_warn () =
  let events = ref [] in
  (with_sink events @@ fun () ->
   Log.warn ~fields:[ ("ctx", Json.String "test" ) ] "something odd");
  match !events with
  | [ line ] -> (
    match Json.parse line with
    | Ok json ->
      Alcotest.(check bool) "warning event" true
        (Json.member "event" json = Some (Json.String "warning"));
      Alcotest.(check bool) "message carried" true
        (Json.member "message" json = Some (Json.String "something odd"));
      Alcotest.(check bool) "extra fields carried" true
        (Json.member "ctx" json = Some (Json.String "test"))
    | Error e -> Alcotest.failf "warn line: %s" e)
  | l -> Alcotest.failf "expected one event, got %d" (List.length l)

let test_log_file_sink () =
  let file = Filename.temp_file "slimsim_events" ".jsonl" in
  Fun.protect
    (fun () ->
      let write, close = Log.file_sink file in
      Log.set_sink (Some write);
      Log.emit ~event:"a" [];
      Log.emit ~event:"b" [ ("x", Json.Bool true) ];
      Log.set_sink None;
      close ();
      let ic = open_in file in
      let rec lines acc =
        match input_line ic with
        | line -> lines (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let ls = lines [] in
      close_in ic;
      Alcotest.(check int) "one line per event" 2 (List.length ls);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "file line %S: %s" line e)
        ls)
    ~finally:(fun () -> Sys.remove file)

(* ------------------------------------------------------------------ *)
(* Progress and phases                                                 *)

let test_progress () =
  Alcotest.check_raises "non-positive interval rejected"
    (Invalid_argument "Progress.create: interval must be positive") (fun () ->
      ignore (Progress.create ~interval:0.0 ()));
  let file = Filename.temp_file "slimsim_progress" ".txt" in
  Fun.protect
    (fun () ->
      let out = open_out file in
      let p = Progress.create ~interval:1e-9 ~out () in
      (* the throttle compares gettimeofday readings, whose resolution
         can exceed the interval — tick until the clock has advanced *)
      for _ = 1 to 1000 do
        Progress.tick p ~paths:123 (fun () -> (0.5, 0.01))
      done;
      Progress.finish p;
      close_out out;
      let ic = open_in_bin file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "heartbeat mentions the path count" true
        (Astring_contains.contains text "123"))
    ~finally:(fun () -> Sys.remove file)

let test_progress_lazy_stats () =
  (* a throttled tick must not compute the estimate *)
  let null = open_out Filename.null in
  Fun.protect
    (fun () ->
      let p = Progress.create ~interval:3600.0 ~out:null () in
      Progress.tick p ~paths:1 (fun () -> (0.0, 0.0));
      (* first tick may print; the immediate second one must be throttled *)
      Progress.tick p ~paths:2 (fun () ->
          Alcotest.fail "throttled tick computed stats");
      Progress.finish p)
    ~finally:(fun () -> close_out null)

let test_phase () =
  (* identity when observability is completely off *)
  Alcotest.(check int) "identity when off" 9 (Phase.run "test_off" (fun () -> 9));
  with_metrics @@ fun () ->
  let events = ref [] in
  (with_sink events @@ fun () ->
   Alcotest.(check string) "returns the thunk's value" "ok"
     (Phase.run "test_phase" (fun () -> "ok")));
  let h =
    Metrics.histogram "slimsim_phase_seconds"
      ~labels:[ ("phase", "test_phase") ]
      ~help:"Wall time of pipeline phases"
  in
  Alcotest.(check int) "phase timed into its histogram" 1
    (Metrics.histogram_count h);
  match !events with
  | [ line ] ->
    (match Json.parse line with
    | Ok json ->
      Alcotest.(check bool) "phase event" true
        (Json.member "event" json = Some (Json.String "phase"));
      Alcotest.(check bool) "phase name" true
        (Json.member "phase" json = Some (Json.String "test_phase"))
    | Error e -> Alcotest.failf "phase line: %s" e)
  | l -> Alcotest.failf "expected one phase event, got %d" (List.length l)

(* [Analysis.check]'s three steps are phases: with a log sink installed
   (and metrics off), sensor/filter n = 4 logs them in pipeline order.
   Exploration's staging of the network logs its own "stage" phase,
   unless that network was the last one staged. *)
let test_exact_phases () =
  let n = 4 in
  let net = Fixture.load (Slimsim_models.Sensor_filter.source ~n) in
  let goal = Fixture.goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n) in
  let events = ref [] in
  (with_sink events @@ fun () ->
   match Slimsim_ctmc.Analysis.check net ~goal ~horizon:1800.0 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "exact: %s" e);
  let steps = [ "explore"; "lump"; "transient" ] in
  let step line =
    match Json.parse line with
    | Ok json when Json.member "event" json = Some (Json.String "phase") -> (
      match Json.member "phase" json with
      | Some (Json.String p) when List.mem p steps -> Some p
      | _ -> None)
    | _ -> None
  in
  Alcotest.(check (list string)) "phases" steps (List.filter_map step (List.rev !events))

(* ------------------------------------------------------------------ *)
(* The trial-fire counter                                              *)

(* The launcher query of the CI pin (Chernoff, 369 paths at seed 1):
   each path adds the moves it fired on trial, so the counter is the
   sum of the per-path counts of the paths generated.  At -j 1 those
   are the 369 consumed; at -j 2, with one-path ranges, the generators
   can run one path past the plan. *)
let test_trial_fires () =
  let module Campaign = Slimsim_sim.Campaign in
  let module Path = Slimsim_sim.Path in
  let module Compiled = Slimsim_sta.Compiled in
  let net = Fixture.bundled_model "launcher_recoverable.slim" in
  let goal = Fixture.goal net Slimsim_models.Launcher.goal_failure in
  let strategy = Slimsim_sim.Strategy.Progressive and horizon = 100.0 and seed = 1L in
  let per_path =
    let c = Compiled.compile net in
    let q = Path.compile_query c ~goal and s = Compiled.scratch c in
    let cfg = Path.default_config ~horizon in
    Array.init 371 (fun i ->
        let before = Compiled.trials s in
        ignore (Path.generate c s q cfg strategy (Slimsim_stats.Rng.for_path ~seed ~path:i));
        Compiled.trials s - before)
  in
  let first n = Array.fold_left ( + ) 0 (Array.sub per_path 0 n) in
  let run workers =
    with_metrics @@ fun () ->
    let generator =
      Slimsim_stats.Generator.create Slimsim_stats.Generator.Chernoff ~delta:0.05 ~eps:0.2
    in
    let supervisor = Slimsim_sim.Supervisor.create ~max_buffer:1 () in
    match
      Fixture.run ~workers ~seed ~supervisor net ~goal ~horizon ~strategy ~generator ()
    with
    | Error e -> Alcotest.failf "campaign failed: %s" (Path.error_to_string e)
    | Ok r ->
      Alcotest.(check (pair int int)) "31 of 369 paths" (31, 369)
        (r.Campaign.successes, r.Campaign.paths);
      let sum series count =
        List.fold_left ( + ) 0
          (List.init workers (fun w ->
               count (series ~labels:[ ("worker", string_of_int w) ])))
      in
      ( sum (fun ~labels -> Metrics.counter ~labels "slimsim_trial_fires_total" ~help:"")
          Metrics.counter_value,
        sum (fun ~labels -> Metrics.histogram ~labels "slimsim_path_steps" ~help:"")
          Metrics.histogram_count )
  in
  let trials, paths = run 1 in
  Alcotest.(check int) "-j 1: 369 paths generated" 369 paths;
  Alcotest.(check int) "-j 1: the paths' trial fires" (first 369) trials;
  Alcotest.(check int) "-j 1: the launcher's count at seed 1" 9660 trials;
  let trials, paths = run 2 in
  if paths > 370 then Alcotest.failf "-j 2 generated %d paths, at most 370 expected" paths;
  Alcotest.(check int) "-j 2: the paths' trial fires" (first paths) trials

let suite =
  [
    Alcotest.test_case "json render" `Quick test_json_render;
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json member" `Quick test_json_member;
    Alcotest.test_case "metrics disabled no-op" `Quick test_metrics_disabled_noop;
    Alcotest.test_case "metrics registered only while on" `Quick
      test_metrics_register_only_when_on;
    Alcotest.test_case "metrics counter" `Quick test_metrics_counter;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics render" `Quick test_metrics_render;
    Alcotest.test_case "metrics write file" `Quick test_metrics_write_file;
    Alcotest.test_case "log emit" `Quick test_log_emit;
    Alcotest.test_case "log warn" `Quick test_log_warn;
    Alcotest.test_case "log file sink" `Quick test_log_file_sink;
    Alcotest.test_case "progress heartbeat" `Quick test_progress;
    Alcotest.test_case "progress lazy stats" `Quick test_progress_lazy_stats;
    Alcotest.test_case "phase timing" `Quick test_phase;
    Alcotest.test_case "exact phases" `Quick test_exact_phases;
    Alcotest.test_case "trial fires: -j 1 and -j 2" `Quick test_trial_fires;
  ]
