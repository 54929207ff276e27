(* Campaign-as-a-value tests: a campaign stepped with arbitrary quotas,
   parked and resumed at arbitrary points — including mid-batch under
   parallel workers — must produce the same verdict stream, estimate and
   checkpoints as one driven to completion in a single call, across both
   fixed-size (Chernoff) and sequential (Chow–Robbins) stopping rules,
   and for the cost accumulator as well as the Bernoulli one.  This is
   the contract Engine.run and the serve scheduler build on. *)

module Loader = Slimsim_slim.Loader
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Engine = Slimsim_sim.Engine
module Campaign = Slimsim_sim.Campaign
module Cost_run = Slimsim_sim.Cost_run
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator

let load src =
  match Loader.load_string src with
  | Ok l -> l.Loader.network
  | Error e -> Alcotest.failf "load failed: %s" e

let goal net src =
  match Loader.parse_goal net src with
  | Ok g -> g
  | Error e -> Alcotest.failf "goal failed: %s" e

(* A fair race with short paths: ~2/3 of the paths set v before the
   horizon, so both stopping rules converge in a few hundred samples. *)
let race_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  start: initial mode;
  good: mode;
  idle: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
  start -[rate 0.5]-> idle;
end D.I;
root D.I;
|}

let make ?supervisor ?(workers = 1) ?(kind = Generator.Chernoff)
    ?(delta = 0.1) ?(eps = 0.1) ?(seed = 11L) () =
  let net = load race_model in
  let g = goal net "v" in
  let generator = Generator.create kind ~delta ~eps in
  match
    Campaign.create ~workers ~seed ?supervisor net ~goal:g ~horizon:2.0
      ~strategy:Strategy.Asap ~generator ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "campaign create failed: %s" (Path.error_to_string e)

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign failed: %s" (Path.error_to_string e)

let same_result name (a : Campaign.result) (b : Campaign.result) =
  Alcotest.(check (float 0.0)) (name ^ ": probability") a.Campaign.probability
    b.Campaign.probability;
  Alcotest.(check (float 0.0)) (name ^ ": ci_low") a.Campaign.ci_low
    b.Campaign.ci_low;
  Alcotest.(check (float 0.0)) (name ^ ": ci_high") a.Campaign.ci_high
    b.Campaign.ci_high;
  Alcotest.(check int) (name ^ ": paths") a.Campaign.paths b.Campaign.paths;
  Alcotest.(check int) (name ^ ": successes") a.Campaign.successes
    b.Campaign.successes;
  Alcotest.(check int) (name ^ ": deadlocks") a.Campaign.deadlock_paths
    b.Campaign.deadlock_paths;
  Alcotest.(check int) (name ^ ": violated") a.Campaign.violated_paths
    b.Campaign.violated_paths;
  Alcotest.(check int) (name ^ ": errors") a.Campaign.errors b.Campaign.errors;
  Alcotest.(check int) (name ^ ": diverged") a.Campaign.diverged_paths
    b.Campaign.diverged_paths;
  Alcotest.(check int) (name ^ ": dropped") a.Campaign.dropped_paths
    b.Campaign.dropped_paths

(* Drive with a cycle of awkward quotas (none aligned to any worker
   count), parking after every slice so workers are torn down and
   respawned mid-batch each time. *)
let drive_chopped ?(park = true) c =
  let quotas = [| 1; 7; 3; 29; 5 |] in
  let rec loop i =
    if i > 100_000 then Alcotest.fail "campaign did not converge";
    match Campaign.step ~quota:quotas.(i mod Array.length quotas) c with
    | Campaign.Running ->
      if park then Campaign.park c;
      loop (i + 1)
    | Campaign.Done r -> r
    | Campaign.Failed e ->
      Alcotest.failf "campaign failed: %s" (Path.error_to_string e)
  in
  loop 0

let test_drive_matches_engine () =
  let net = load race_model in
  let g = goal net "v" in
  let generator () = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1 in
  let e =
    match
      Engine.run ~workers:1 ~seed:11L net ~goal:g ~horizon:2.0
        ~strategy:Strategy.Asap ~generator:(generator ()) ()
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "engine failed: %s" (Path.error_to_string e)
  in
  let r = ok (Campaign.drive (make ())) in
  (* Engine.result is definitionally Campaign.result *)
  same_result "engine vs drive" e r

let chopped_case ~name ~kind ~workers () =
  let reference = ok (Campaign.drive (make ~kind ~workers ())) in
  let chopped = drive_chopped (make ~kind ~workers ()) in
  same_result (name ^ ": park+resume") reference chopped;
  (* quota slicing without parking (workers keep running ahead) *)
  let sliced = drive_chopped ~park:false (make ~kind ~workers ()) in
  same_result (name ^ ": sliced hot") reference sliced

(* The cost accumulator rides the same kernel: its E[...] result is a
   fold over the same path-ordered sample stream, so it too must be
   bit-identical across worker counts, quota slicing and park/resume.
   The race again, with a clock to price the hit time. *)
let priced_race_model =
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
  idle: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
  start -[rate 0.5]-> idle;
end D.I;
root D.I;
|}

let make_cost ?(workers = 1) () =
  let net = load priced_race_model in
  let cost_var =
    match Slimsim_props.Pattern.resolve_cost net "c" with
    | Ok v -> v
    | Error e -> Alcotest.failf "cost var failed: %s" e
  in
  match
    Cost_run.create ~workers ~seed:11L net ~goal:(goal net "v") ~horizon:2.0
      ~strategy:Strategy.Asap ~cost_var ~query:"E[c ; <> [0, 2] v]"
      ~kind:Generator.Chow_robbins ~delta:0.1 ~eps:0.05 ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "cost create failed: %s" (Path.error_to_string e)

let same_cost name (a : Cost_run.result) (b : Cost_run.result) =
  same_result name a.Cost_run.reach b.Cost_run.reach;
  Alcotest.(check int) (name ^ ": cost samples") a.Cost_run.cost_samples
    b.Cost_run.cost_samples;
  Alcotest.(check (float 0.0)) (name ^ ": cost mean") a.Cost_run.cost_mean
    b.Cost_run.cost_mean;
  Alcotest.(check (float 0.0)) (name ^ ": cost ci_low") a.Cost_run.cost_ci_low
    b.Cost_run.cost_ci_low;
  Alcotest.(check (float 0.0)) (name ^ ": cost ci_high")
    a.Cost_run.cost_ci_high b.Cost_run.cost_ci_high;
  Alcotest.(check (float 0.0)) (name ^ ": cost min") a.Cost_run.cost_min
    b.Cost_run.cost_min;
  Alcotest.(check (float 0.0)) (name ^ ": cost max") a.Cost_run.cost_max
    b.Cost_run.cost_max;
  Alcotest.(check (array int)) (name ^ ": cost buckets")
    a.Cost_run.cost_buckets b.Cost_run.cost_buckets

let cost_case ~workers () =
  let reference = ok (Cost_run.drive (make_cost ())) in
  same_cost "E[cost]: one-shot" reference
    (ok (Cost_run.drive (make_cost ~workers ())));
  same_cost "E[cost]: park+resume" reference
    (drive_chopped (make_cost ~workers ()));
  same_cost "E[cost]: sliced hot" reference
    (drive_chopped ~park:false (make_cost ~workers ()))

let test_status_and_snapshot () =
  let c = make () in
  (match Campaign.status c with
  | Campaign.Running -> ()
  | _ -> Alcotest.fail "fresh campaign should report Running");
  Alcotest.(check int) "nothing consumed yet" 0 (Campaign.consumed c);
  (match Campaign.step ~quota:10 c with
  | Campaign.Running -> ()
  | _ -> Alcotest.fail "10 samples cannot satisfy the rule here");
  Alcotest.(check int) "quota consumed" 10 (Campaign.consumed c);
  let _, _, _, trials = Campaign.snapshot c in
  Alcotest.(check int) "snapshot trials" 10 trials;
  let r = ok (Campaign.drive c) in
  Alcotest.(check int) "consumed = paths" r.Campaign.paths (Campaign.consumed c);
  (* a finished campaign keeps answering with the same result *)
  match Campaign.step c with
  | Campaign.Done r' -> same_result "sticky result" r r'
  | _ -> Alcotest.fail "finished campaign must stay Done"

(* Parking writes the checkpoint; a brand-new campaign resuming from it
   must land on the same estimate as the uninterrupted reference. *)
let test_park_checkpoint_resume () =
  let file = Filename.temp_file "slimsim_campaign" ".ckpt" in
  let sup resume =
    Supervisor.create
      ~checkpoint:{ Supervisor.file; every = 1_000_000 }
      ~resume ()
  in
  let reference = ok (Campaign.drive (make ())) in
  let first = make ~supervisor:(sup false) () in
  (match Campaign.step ~quota:37 first with
  | Campaign.Running -> ()
  | _ -> Alcotest.fail "expected Running after 37 samples");
  Campaign.park first;
  (* discard [first]; a fresh process picks the checkpoint up *)
  let resumed = make ~supervisor:(sup true) () in
  Alcotest.(check int) "cursor restored" 37 (Campaign.consumed resumed);
  let r = ok (Campaign.drive resumed) in
  Sys.remove file;
  same_result "checkpoint resume" reference r

let suite =
  let chopped name kind workers =
    Alcotest.test_case
      (Printf.sprintf "%s, %d worker(s): chopped = one-shot" name workers)
      `Quick
      (chopped_case ~name ~kind ~workers)
  in
  [
    Alcotest.test_case "drive = Engine.run" `Quick test_drive_matches_engine;
    Alcotest.test_case "status, snapshot, sticky Done" `Quick
      test_status_and_snapshot;
    Alcotest.test_case "park -> checkpoint -> resume" `Quick
      test_park_checkpoint_resume;
    chopped "chernoff" Generator.Chernoff 1;
    chopped "chernoff" Generator.Chernoff 2;
    chopped "chernoff" Generator.Chernoff 4;
    chopped "chow-robbins" Generator.Chow_robbins 1;
    chopped "chow-robbins" Generator.Chow_robbins 2;
    chopped "chow-robbins" Generator.Chow_robbins 4;
  ]
  @ List.map
      (fun workers ->
        Alcotest.test_case
          (Printf.sprintf "E[cost], %d worker(s): chopped = one-shot" workers)
          `Quick (cost_case ~workers))
      [ 1; 2; 4 ]
