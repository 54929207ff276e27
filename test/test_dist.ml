(* Distributed-campaign tests: the wire framing, the chaos grammar, the
   lease table's duplicate suppression, and — the point of the whole
   subsystem — determinism under failure: the estimate from coordinator +
   worker processes must be bit-identical to an in-process campaign at the
   same seed, for every worker count and every chaos schedule, including
   schedules that force lease reassignment and worker quarantine. *)

module Coordinator = Slimsim_dist.Coordinator
module Worker = Slimsim_dist.Worker
module Wire = Slimsim_dist.Wire
module Chaos = Slimsim_dist.Chaos
module Lease = Slimsim_sim.Lease
module Campaign = Slimsim_sim.Campaign
module Supervisor = Slimsim_sim.Supervisor
module Strategy = Slimsim_sim.Strategy
module Path = Slimsim_sim.Path
module Loader = Slimsim_slim.Loader
module Generator = Slimsim_stats.Generator
module Json = Slimsim_obs.Json
module Log = Slimsim_obs.Log

let bin =
  match Sys.getenv_opt "SLIMSIM_BIN" with
  | Some b -> b
  | None ->
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/slimsim_cli.exe"

let model_source = Slimsim_models.Gps.source
let prop = Printf.sprintf "P(<> [0, 300] %s)" Slimsim_models.Gps.goal_no_fix
let seed = 7L

(* --- wire framing --- *)

let feed_string r s =
  Wire.feed r (Bytes.of_string s) (String.length s)

let test_wire_roundtrip () =
  let frames =
    [
      Wire.Ready { version = Supervisor.Checkpoint.format_version; pid = 42 };
      Wire.Heartbeat { path = 17 };
      Wire.Failed { msg = "boom" };
      Wire.Batch
        {
          lease = 3;
          start = 128;
          verdicts = "sshvdge";
          divs = [ (133, Path.Step_budget 9); (134, Path.Time_budget 1.5) ];
          errs = [ (135, Path.Model_error "bad") ];
        };
    ]
  in
  let buf = Buffer.create 256 in
  let oc_frames =
    List.map (fun f -> Json.to_string (Wire.report_to_json f)) frames
  in
  List.iter
    (fun payload ->
      Buffer.add_string buf
        (Printf.sprintf "%d\n%s\n" (String.length payload) payload))
    oc_frames;
  let r = Wire.reader () in
  (* feed one byte at a time: the decoder must handle arbitrary splits *)
  String.iter (fun c -> feed_string r (String.make 1 c)) (Buffer.contents buf);
  List.iter
    (fun expected ->
      match Wire.next r with
      | Ok (Some j) -> (
        match Wire.report_of_json j with
        | Ok got ->
          Alcotest.(check bool) "frame round-trips" true (got = expected)
        | Error e -> Alcotest.failf "report decode failed: %s" e)
      | Ok None -> Alcotest.fail "frame expected"
      | Error e -> Alcotest.failf "decode error: %s" e)
    frames;
  Alcotest.(check bool) "stream drained" true (Wire.next r = Ok None)

let test_wire_torn_and_corrupt () =
  (* a torn frame (announced length never delivered) stays pending *)
  let r = Wire.reader () in
  feed_string r "4096\ntorn";
  Alcotest.(check bool) "torn frame never completes" true (Wire.next r = Ok None);
  (* garbage where the length should be is an immediate error *)
  let r = Wire.reader () in
  feed_string r "not-a-length\n{}\n";
  (match Wire.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt length must be rejected");
  (* an oversized announced length is rejected without buffering it *)
  let r = Wire.reader () in
  feed_string r (Printf.sprintf "%d\n" (Wire.max_frame + 1));
  (match Wire.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame must be rejected");
  (* a missing terminator is a framing violation *)
  let r = Wire.reader () in
  feed_string r "2\n{}X";
  match Wire.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing terminator must be rejected"

let test_wire_version_mismatch () =
  let hello =
    {
      Wire.version = Supervisor.Checkpoint.format_version + 1;
      worker = 0;
      attempt = 0;
      seed;
      model_source = "m";
      property = "p";
      strategy = "asap";
      max_steps = 10;
      max_sim_time = None;
      max_wall_per_path = None;
      on_deadlock = "falsify";
      batch = 1;
      heartbeat = 1.0;
      chaos = "";
    }
  in
  match Wire.hello_of_json (Wire.hello_to_json hello) with
  | Ok _ -> Alcotest.fail "a future version must be rejected"
  | Error msg ->
    Alcotest.(check bool) "names both versions" true
      (Astring_contains.contains msg
         (string_of_int (Supervisor.Checkpoint.format_version + 1))
      && Astring_contains.contains msg
           (string_of_int Supervisor.Checkpoint.format_version))

(* --- chaos grammar --- *)

let test_chaos_parse () =
  (match Chaos.parse "w1:exit@40:9" with
  | Ok t -> (
    Alcotest.(check bool) "w0 does not match" true
      (Chaos.fire t ~worker:0 ~attempt:0 ~path:40 = None);
    match Chaos.fire t ~worker:1 ~attempt:2 ~path:40 with
    | Some (Chaos.Exit 9) -> ()
    | _ -> Alcotest.fail "w1:exit@40:9 must fire Exit 9 for worker 1")
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Chaos.parse "a0:kill@120;w2a1:stall@boot;dup@5;delay@7:0.25" with
  | Ok t ->
    (* attempt selector: only the first incarnation is killed *)
    Alcotest.(check bool) "attempt 1 survives path 120" true
      (Chaos.fire t ~worker:0 ~attempt:1 ~path:120 = None);
    Alcotest.(check bool) "attempt 0 is killed" true
      (Chaos.fire t ~worker:0 ~attempt:0 ~path:120 = Some Chaos.Kill);
    (* each rule fires at most once *)
    Alcotest.(check bool) "a rule fires once" true
      (Chaos.fire t ~worker:3 ~attempt:0 ~path:120 = None);
    Alcotest.(check bool) "boot trigger" true
      (Chaos.fire t ~worker:2 ~attempt:1 ~path:(-1) = Some Chaos.Stall);
    Alcotest.(check bool) "delay arg" true
      (Chaos.fire t ~worker:0 ~attempt:0 ~path:7 = Some (Chaos.Delay 0.25))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Chaos.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" bad)
    [ "kill"; "frobnicate@3"; "kill@minus"; "x9:kill@3"; "exit@3:0" ]

(* --- lease table --- *)

(* The collector's read: banked outcomes in path order from [cursor]
   through [Lease.head]/[Lease.outcome], up to the first missing path;
   returns the new cursor. *)
let consume_ready t ~cursor ~f =
  let rec go cur =
    match Lease.head t ~cursor:cur with
    | Some l when cur >= l.Lease.lo && cur - l.Lease.lo < l.Lease.filled -> (
      match Lease.outcome l cur with
      | Ok o ->
        f cur (Lease.code o);
        go (cur + 1)
      | Error e -> Alcotest.failf "path %d: %s" cur e)
    | _ -> cur
  in
  go cursor

let test_lease_dedup () =
  let t = Lease.create ~base:0 ~size:4 ~payload:ignore in
  let a = Lease.grant t ~owner:0 ~limit:max_int in
  let b = Lease.grant t ~owner:1 ~limit:max_int in
  Alcotest.(check (list (triple int int int)))
    "carved in order"
    [ (a.Lease.id, 0, 4); (b.Lease.id, 4, 8) ]
    (Lease.outstanding t);
  (* bank a prefix, then kill the owner: the range goes pending with its
     verdicts kept *)
  (match Lease.record t ~lease_id:a.Lease.id ~start:0 "sh" [] with
  | `New (2, 0) -> ()
  | _ -> Alcotest.fail "fresh prefix");
  Alcotest.(check int) "one lease reclaimed" 1 (Lease.fail_owner t 0);
  Alcotest.(check int) "pending pool" 1 (Lease.pending t);
  let a' = Lease.grant t ~owner:1 ~limit:max_int in
  Alcotest.(check int) "pending range regranted first" a.Lease.id a'.Lease.id;
  Alcotest.(check int) "regrant counted" 2 a'.Lease.grants;
  (* the replacement regenerates from lo: the overlap is duplicate *)
  (match Lease.record t ~lease_id:a.Lease.id ~start:0 "shdv" [] with
  | `New (2, 2) -> ()
  | r ->
    Alcotest.failf "expected 2 fresh / 2 dup, got %s"
      (match r with
      | `New (f, d) -> Printf.sprintf "`New (%d, %d)" f d
      | `Duplicate -> "`Duplicate"
      | `Unknown -> "`Unknown"
      | `Gap -> "`Gap"));
  (match Lease.record t ~lease_id:a.Lease.id ~start:0 "sh" [] with
  | `Duplicate -> ()
  | _ -> Alcotest.fail "a fully-banked prefix is a duplicate");
  (* a batch starting beyond the prefix is a protocol violation *)
  (match Lease.record t ~lease_id:b.Lease.id ~start:6 "sv" [] with
  | `Gap -> ()
  | _ -> Alcotest.fail "gap must be rejected");
  (* in-order consumption stops at the first missing path *)
  let fed = ref [] in
  let cur = consume_ready t ~cursor:0 ~f:(fun p c -> fed := (p, c) :: !fed) in
  Alcotest.(check int) "cursor stops at the gap" 4 cur;
  Alcotest.(check (list (pair int char)))
    "fed in path order"
    [ (0, 's'); (1, 'h'); (2, 'd'); (3, 'v') ]
    (List.rev !fed);
  (* a late duplicate for a consumed-and-forgotten lease is unknown *)
  (match Lease.record t ~lease_id:b.Lease.id ~start:4 "ss" [] with
  | `New (2, 0) -> ()
  | _ -> Alcotest.fail "bank b");
  (match Lease.record t ~lease_id:b.Lease.id ~start:4 "ssss" [] with
  | `New (2, 2) -> ()
  | _ -> Alcotest.fail "finish b");
  let cur = consume_ready t ~cursor:cur ~f:(fun _ _ -> ()) in
  Alcotest.(check int) "b consumed" 8 cur;
  (match Lease.record t ~lease_id:b.Lease.id ~start:4 "ssss" [] with
  | `Unknown -> ()
  | _ -> Alcotest.fail "late duplicate for a forgotten lease");
  (* the next fresh range takes over the forgotten one's buffers, and
     starts with nothing banked *)
  let c = Lease.grant t ~owner:0 ~limit:max_int in
  Alcotest.(check (pair int int)) "fresh range" (8, 0) (c.Lease.lo, c.Lease.filled);
  Alcotest.(check bool) "no verdict left over" true
    (Result.is_error (Lease.outcome c 8))

(* One rule sizes the ranges of both topologies: a quarter of each
   generator's share of the plan, clamped to [1, cap]. *)
let test_range_size_rule () =
  let size ?(cap = 1024) remaining workers =
    Lease.range_size ~remaining ~workers ~cap
  in
  Alcotest.(check int) "plan smaller than the worker count" 1 (size (Some 3) 4);
  Alcotest.(check int) "nothing left to plan" 1 (size (Some 0) 2);
  Alcotest.(check (option int)) "gps -e 0.01 plans 147,556 paths"
    (Some 147_556)
    (Generator.planned_samples
       (Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.01));
  Alcotest.(check int) "gps -e 0.01 at --distribute 2" 1024
    (size (Some 147_556) 2);
  Alcotest.(check int) "gps -e 0.01 on 2 domains (--buffer 256)" 256
    (size ~cap:256 (Some 147_556) 2);
  Alcotest.(check int) "launcher at 2 generators" 47 (size (Some 369) 2);
  Alcotest.(check int) "unplanned rule" 1024 (size None 2);
  Alcotest.(check int) "unplanned rule on domains" 256 (size ~cap:256 None 4)

(* --- distributed campaigns vs the in-process campaign --- *)

let load = Fixture.load

let reference ?(kind = Generator.Chernoff) () =
  let net = load model_source in
  let goal =
    match Loader.parse_goal net Slimsim_models.Gps.goal_no_fix with
    | Ok g -> g
    | Error e -> Alcotest.failf "goal failed: %s" e
  in
  let generator = Generator.create kind ~delta:0.1 ~eps:0.1 in
  match
    Fixture.run ~workers:1 ~seed net ~goal ~horizon:300.0 ~strategy:Strategy.Asap
      ~generator ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "reference run failed: %s" (Path.error_to_string e)

let job =
  {
    Coordinator.model_source;
    property = prop;
    strategy = "asap";
    engine = "compiled";
    seed;
    on_error = `Abort;
    max_steps = 1_000_000;
    max_sim_time = None;
    max_wall_per_path = None;
    on_deadlock = "falsify";
  }

let dist ?(workers = 2) ?(kind = Generator.Chernoff) ?(chaos = "")
    ?(lease = 64) ?(batch = 16) ?(heartbeat = 0.1) ?(liveness = 5.0) ?supervisor
    () =
  let cfg =
    Coordinator.config ~workers ~worker_cmd:[| bin; "work" |] ~lease_size:lease
      ~batch ~heartbeat ~liveness ~chaos ()
  in
  let generator = Generator.create kind ~delta:0.1 ~eps:0.1 in
  Coordinator.run ?supervisor cfg job ~generator

let dist_ok ?workers ?kind ?chaos ?lease ?batch ?heartbeat ?liveness ?supervisor
    () =
  match dist ?workers ?kind ?chaos ?lease ?batch ?heartbeat ?liveness
          ?supervisor ()
  with
  | Ok o -> o
  | Error e ->
    Alcotest.failf "distributed run failed: %s" (Path.error_to_string e)

(* Everything that must be schedule- and failure-independent: the
   estimate and every counter derived from the verdict stream.  Wall
   time and restart counts legitimately differ. *)
let same_estimate name (a : Campaign.result) (b : Campaign.result) =
  Alcotest.(check (float 0.0)) (name ^ ": probability") b.Campaign.probability
    a.Campaign.probability;
  Alcotest.(check (float 0.0)) (name ^ ": ci_low") b.Campaign.ci_low
    a.Campaign.ci_low;
  Alcotest.(check (float 0.0)) (name ^ ": ci_high") b.Campaign.ci_high
    a.Campaign.ci_high;
  Alcotest.(check int) (name ^ ": paths") b.Campaign.paths a.Campaign.paths;
  Alcotest.(check int) (name ^ ": successes") b.Campaign.successes
    a.Campaign.successes;
  Alcotest.(check int) (name ^ ": deadlocks") b.Campaign.deadlock_paths
    a.Campaign.deadlock_paths;
  Alcotest.(check int) (name ^ ": violated") b.Campaign.violated_paths
    a.Campaign.violated_paths;
  Alcotest.(check int) (name ^ ": errors") b.Campaign.errors a.Campaign.errors;
  Alcotest.(check int) (name ^ ": diverged") b.Campaign.diverged_paths
    a.Campaign.diverged_paths;
  Alcotest.(check int) (name ^ ": dropped") b.Campaign.dropped_paths
    a.Campaign.dropped_paths;
  Alcotest.(check bool) (name ^ ": converged") true
    (a.Campaign.stopped = Campaign.Converged)

let test_determinism_matrix () =
  List.iter
    (fun kind ->
      let baseline = reference ~kind () in
      List.iter
        (fun workers ->
          List.iter
            (fun (chaos, faulty) ->
              let name =
                Printf.sprintf "%s, %d workers, chaos=%S"
                  (Generator.kind_to_string kind)
                  workers chaos
              in
              (* stall recovery needs a tight liveness deadline to stay
                 fast; everything else can use a lax one *)
              let liveness = if faulty then 0.6 else 5.0 in
              let o = dist_ok ~workers ~kind ~chaos ~liveness () in
              same_estimate name o.Coordinator.result baseline;
              if faulty then
                Alcotest.(check bool)
                  (name ^ ": a lease was reassigned")
                  true
                  (o.Coordinator.leases_reassigned >= 1))
            [ ("", false); ("a0:kill@40", true); ("a0:stall@40", true) ])
        [ 1; 2; 4 ])
    [ Generator.Chernoff; Generator.Chow_robbins ]

(* A job naming any path generator other than the compiled one is
   refused before a worker is spawned. *)
let test_job_engine_validated () =
  match
    Coordinator.run
      (Coordinator.config ~workers:1 ~worker_cmd:[| bin; "work" |] ())
      { job with Coordinator.engine = "interpreted" }
      ~generator:(Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1)
  with
  | Error (Path.Model_error msg) ->
    Alcotest.(check bool) "names the engine" true
      (Astring_contains.contains msg "unknown engine \"interpreted\"")
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e)
  | Ok _ -> Alcotest.fail "an interpreted job must be refused"

(* The coupled multilevel sampler is sequential: the coordinator refuses
   it with the message the CLI prints, before spawning anything (the
   worker command would leave a marker file). *)
let test_mlmc_refused () =
  let marker = Filename.temp_file "slimsim_dist" ".spawned" in
  Sys.remove marker;
  let worker_cmd =
    [| "/bin/sh"; "-c"; Printf.sprintf "touch %s; exec %s work"
                          (Filename.quote marker) (Filename.quote bin) |]
  in
  (match
     Coordinator.run
       (Coordinator.config ~workers:2 ~worker_cmd ())
       job
       ~generator:(Generator.create Generator.Mlmc ~delta:0.1 ~eps:0.1)
   with
  | Error (Path.Refused msg) ->
    Alcotest.(check string) "message"
      "--generator mlmc is not supported with --distribute (the coupled \
       sampler is sequential); drop one of the two flags"
      msg
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e)
  | Ok _ -> Alcotest.fail "the multilevel generator must be refused");
  Alcotest.(check bool) "no worker spawned" false (Sys.file_exists marker)

(* A plan of a few hundred long paths used to fit one fixed 1024-path
   lease, so one worker ran it all; the derived lease size spreads it. *)
let test_launcher_derived_lease () =
  let source = Slimsim_models.Launcher.source ~variant:`Recoverable in
  let goal_src = Slimsim_models.Launcher.goal_failure in
  let gen () = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.1 in
  let net = load source in
  let baseline =
    match
      Fixture.run ~workers:1 ~seed net
        ~goal:
          (match Loader.parse_goal net goal_src with
          | Ok g -> g
          | Error e -> Alcotest.failf "goal failed: %s" e)
        ~horizon:100.0 ~strategy:Strategy.Progressive ~generator:(gen ()) ()
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "reference run failed: %s" (Path.error_to_string e)
  in
  let cfg =
    Coordinator.config ~workers:2 ~worker_cmd:[| bin; "work" |] ~heartbeat:0.1 ()
  in
  let job =
    {
      job with
      Coordinator.model_source = source;
      property = Printf.sprintf "P(<> [0, 100] %s)" goal_src;
      strategy = "progressive";
    }
  in
  match Coordinator.run cfg job ~generator:(gen ()) with
  | Error e -> Alcotest.failf "distributed run failed: %s" (Path.error_to_string e)
  | Ok o ->
    Alcotest.(check bool) "more than one lease granted" true
      (o.Coordinator.leases_granted > 1);
    same_estimate "launcher, derived lease" o.Coordinator.result baseline

let test_quarantine_degrades () =
  let baseline = reference () in
  (* worker 1 exits at every boot; after max_restarts + 1 failures it is
     quarantined and the campaign degrades to worker 0 alone.  The delay
     on worker 0 keeps the campaign alive long enough for worker 1's
     respawn to boot and die again — the model is fast enough to
     converge before the backoff otherwise *)
  let supervisor = Supervisor.create ~max_restarts:1 ~restart_backoff:0.01 () in
  let o =
    dist_ok ~workers:2 ~chaos:"w1:exit@boot;w0:delay@100:0.4" ~supervisor ()
  in
  Alcotest.(check int) "one worker quarantined" 1 o.Coordinator.quarantined;
  Alcotest.(check bool) "campaign not lost" false o.Coordinator.all_lost;
  same_estimate "degraded to one worker" o.Coordinator.result baseline

let test_all_workers_lost () =
  let supervisor = Supervisor.create ~max_restarts:0 ~restart_backoff:0.01 () in
  let o = dist_ok ~workers:1 ~chaos:"w0:exit@boot" ~supervisor () in
  Alcotest.(check bool) "all lost" true o.Coordinator.all_lost;
  Alcotest.(check bool) "partial, interrupted estimate" true
    (o.Coordinator.result.Campaign.stopped = Campaign.Interrupted);
  Alcotest.(check int) "no paths consumed" 0 o.Coordinator.result.Campaign.paths

let test_duplicate_batches_suppressed () =
  let baseline = reference () in
  let o = dist_ok ~workers:2 ~chaos:"a0:dup@40" () in
  Alcotest.(check bool) "duplicates seen" true (o.Coordinator.duplicate_paths > 0);
  same_estimate "duplicates suppressed" o.Coordinator.result baseline

let test_corrupt_frame_recovery () =
  let baseline = reference () in
  let o = dist_ok ~workers:2 ~chaos:"w0a0:corrupt@40" () in
  Alcotest.(check bool) "frame rejected" true (o.Coordinator.frames_rejected >= 1);
  same_estimate "corrupt stream recovered" o.Coordinator.result baseline

let test_interrupt_and_resume () =
  let baseline = reference () in
  let file = Filename.temp_file "slimsim_dist" ".ckpt" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let checkpoint = { Supervisor.file; every = 64 } in
      let stop = Atomic.make false in
      let sup1 = Supervisor.create ~checkpoint ~stop () in
      (* a chaos delay pins one worker mid-lease while the stop flag is
         raised, so the first run reliably stops early *)
      let stopper =
        Thread.create
          (fun () ->
            Thread.delay 0.3;
            Atomic.set stop true)
          ()
      in
      let o1 = dist_ok ~workers:2 ~chaos:"a0:delay@100:2.0" ~supervisor:sup1 () in
      Thread.join stopper;
      Alcotest.(check bool) "first run interrupted" true
        (o1.Coordinator.result.Campaign.stopped = Campaign.Interrupted);
      Alcotest.(check bool) "first run partial" true
        (o1.Coordinator.result.Campaign.paths < baseline.Campaign.paths);
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists file);
      (* the checkpoint carries lease bookkeeping and resumes to the same
         estimate as an uninterrupted run *)
      let sup2 = Supervisor.create ~checkpoint ~resume:true () in
      let o2 = dist_ok ~workers:2 ~supervisor:sup2 () in
      same_estimate "resumed run" o2.Coordinator.result baseline)

(* Checkpoints are the kernel's under every topology: the same cursors
   (every exact multiple of [every], then the final one) and the same
   final state, whether the paths come from one domain, from two, or
   from two worker processes — one of them killed mid-lease.  Only the
   distributed lease bookkeeping differs, and is left out. *)
let test_checkpoints_topology_independent () =
  let net = load model_source in
  let goal = Fixture.goal net Slimsim_models.Gps.goal_no_fix in
  let gen () = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.05 in
  let file = Filename.temp_file "slimsim_topology" ".ckpt" in
  let supervisor () =
    Supervisor.create ~checkpoint:{ Supervisor.file; every = 64 } ()
  in
  let ok name = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" name (Path.error_to_string e)
  in
  let capture name run =
    Sys.remove file;
    let events = ref [] in
    Log.set_sink (Some (fun line -> events := line :: !events));
    Fun.protect ~finally:(fun () -> Log.set_sink None) (fun () -> ok name (run ()));
    let cursor line =
      match Json.parse line with
      | Ok j when Json.member "event" j = Some (Json.String "checkpoint") -> (
        match Json.member "next_path" j with Some (Json.Int n) -> Some n | _ -> None)
      | _ -> None
    in
    ( List.filter_map cursor (List.rev !events),
      In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> not (String.starts_with ~prefix:"lease" l)) )
  in
  let in_process workers () =
    Fixture.run ~workers ~seed:3L ~supervisor:(supervisor ()) net ~goal
      ~horizon:300.0 ~strategy:Strategy.Progressive ~generator:(gen ()) ()
  in
  let distributed chaos () =
    Coordinator.run ~supervisor:(supervisor ())
      (Coordinator.config ~workers:2 ~worker_cmd:[| bin; "work" |]
         ~heartbeat:0.1 ~chaos ())
      { job with Coordinator.seed = 3L; strategy = "progressive" }
      ~generator:(gen ())
    |> Result.map (fun o -> o.Coordinator.result)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let cursors, state = capture "workers 1" (in_process 1) in
      let paths = List.nth cursors (List.length cursors - 1) in
      Alcotest.(check (list int)) "every multiple of 64, then the final cursor"
        (List.init (paths / 64) (fun k -> 64 * (k + 1)) @ [ paths ])
        cursors;
      List.iter
        (fun (name, run) ->
          let c, st = capture name run in
          Alcotest.(check (list int)) (name ^ ": checkpoint cursors") cursors c;
          Alcotest.(check (list string)) (name ^ ": final checkpoint") state st)
        [
          ("workers 2", in_process 2);
          ("distribute 2", distributed "");
          ("distribute 2, a0:kill@40", distributed "a0:kill@40");
        ])

let suite =
  [
    Alcotest.test_case "wire: frames round-trip byte-at-a-time" `Quick
      test_wire_roundtrip;
    Alcotest.test_case "wire: torn and corrupt frames" `Quick
      test_wire_torn_and_corrupt;
    Alcotest.test_case "wire: handshake version mismatch" `Quick
      test_wire_version_mismatch;
    Alcotest.test_case "chaos: grammar and firing" `Quick test_chaos_parse;
    Alcotest.test_case "lease: dedup, regrant, in-order consumption" `Quick
      test_lease_dedup;
    Alcotest.test_case "lease: range size rule" `Quick test_range_size_rule;
    Alcotest.test_case "determinism: workers x generator x chaos" `Quick
      test_determinism_matrix;
    Alcotest.test_case "job: only the compiled engine" `Quick
      test_job_engine_validated;
    Alcotest.test_case "job: mlmc refused before any spawn" `Quick
      test_mlmc_refused;
    Alcotest.test_case "launcher: derived lease size, bit-identical" `Quick
      test_launcher_derived_lease;
    Alcotest.test_case "quarantine degrades, estimate unchanged" `Quick
      test_quarantine_degrades;
    Alcotest.test_case "all workers lost: partial estimate" `Quick
      test_all_workers_lost;
    Alcotest.test_case "duplicate batches are suppressed" `Quick
      test_duplicate_batches_suppressed;
    Alcotest.test_case "corrupt frame: worker replaced" `Quick
      test_corrupt_frame_recovery;
    Alcotest.test_case "interrupt, checkpoint, resume" `Quick
      test_interrupt_and_resume;
    Alcotest.test_case "checkpoints do not depend on the topology" `Quick
      test_checkpoints_topology_independent;
  ]
