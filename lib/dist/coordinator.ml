module Campaign = Slimsim_sim.Campaign
module Lease = Slimsim_sim.Lease
module Path = Slimsim_sim.Path
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
module Estimator = Slimsim_stats.Estimator
module Metrics = Slimsim_obs.Metrics
module Progress = Slimsim_obs.Progress
module Log = Slimsim_obs.Log
module Json = Slimsim_obs.Json

type config = {
  workers : int;
  worker_cmd : string array;
  lease_size : int option;
  batch : int;
  heartbeat : float;
  liveness : float;
  chaos : string;
}

let config ?lease_size ?(batch = 256) ?(heartbeat = 1.0) ?(liveness = 10.0)
    ?(chaos = "") ~workers ~worker_cmd () =
  if workers < 1 then invalid_arg "Coordinator.config: workers must be >= 1";
  if Array.length worker_cmd = 0 then invalid_arg "Coordinator.config: empty worker_cmd";
  if Option.fold ~none:false ~some:(fun n -> n < 1) lease_size then
    invalid_arg "Coordinator.config: lease_size must be >= 1";
  if batch < 1 then invalid_arg "Coordinator.config: batch must be >= 1";
  if heartbeat <= 0.0 then invalid_arg "Coordinator.config: heartbeat must be positive";
  if liveness <= 0.0 then invalid_arg "Coordinator.config: liveness must be positive";
  { workers; worker_cmd; lease_size; batch; heartbeat; liveness; chaos }

type job = {
  model_source : string;
  property : string;
  strategy : string;
  engine : string;
  seed : int64;
  on_error : [ `Abort | `Unsat ];
  max_steps : int;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_deadlock : string;
}

type outcome = {
  result : Campaign.result;
  all_lost : bool;
  leases_granted : int;
  leases_reassigned : int;
  duplicate_paths : int;
  frames_rejected : int;
  heartbeats_missed : int;
  quarantined : int;
}

(* --- distributed-campaign metric cells --- *)

type dobs = {
  m_live : Metrics.gauge;
  m_granted : Metrics.counter;
  m_reassigned : Metrics.counter;
  m_missed : Metrics.counter;
  m_rejected : Metrics.counter;
  m_dups : Metrics.counter;
  m_restarts : Metrics.counter;
  m_quarantined : Metrics.counter;
}

let make_dobs () =
  if not (Metrics.enabled ()) then None
  else
    Some
      {
        m_live =
          Metrics.gauge "slimsim_dist_workers_live"
            ~help:"Worker processes currently spawned and not failed";
        m_granted =
          Metrics.counter "slimsim_dist_leases_granted_total"
            ~help:"Path-id leases granted to workers (including re-grants)";
        m_reassigned =
          Metrics.counter "slimsim_dist_leases_reassigned_total"
            ~help:"Leases re-granted after their owner failed";
        m_missed =
          Metrics.counter "slimsim_dist_heartbeats_missed_total"
            ~help:"Worker liveness deadlines expired";
        m_rejected =
          Metrics.counter "slimsim_dist_frames_rejected_total"
            ~help:"Corrupt or protocol-violating frames from workers";
        m_dups =
          Metrics.counter "slimsim_dist_duplicate_paths_total"
            ~help:"Duplicate path verdicts suppressed by the lease prefix";
        m_restarts =
          Metrics.counter "slimsim_dist_worker_restarts_total"
            ~help:"Worker process respawns after a failure";
        m_quarantined =
          Metrics.counter "slimsim_dist_workers_quarantined_total"
            ~help:"Workers retired after exhausting their restart budget";
      }

(* --- worker slots --- *)

type wstate = Starting | Live | Down | Quarantined

type slot = {
  idx : int;
  mutable state : wstate;
  mutable pid : int;
  mutable to_worker : out_channel option;
  mutable from_worker : Unix.file_descr option;
  mutable reader : Wire.reader;
  mutable last_seen : float;
  mutable failures : int;
  mutable respawn_at : float;
  mutable lease_ids : int list;  (* granted and not yet fully banked *)
}

exception Abort_run of Path.error

let run_job ?supervisor ?progress cfg job ~generator =
  let sup = match supervisor with Some s -> s | None -> Supervisor.default () in
  let acc = Campaign.bernoulli generator in
  let tally = Campaign.new_tally () in
  let robs = Campaign.make_run_obs () in
  let dobs = make_dobs () in
  match Campaign.resume sup acc tally ~seed:job.seed with
  | Error e -> Error e
  | Ok base ->
    let t0 = Unix.gettimeofday () in
    let size =
      match cfg.lease_size with
      | Some n -> n
      | None ->
        Lease.range_size
          ~remaining:(Generator.remaining_samples generator)
          ~workers:cfg.workers ~cap:1024
    in
    let table = Lease.create ~base ~size ~payload:ignore in
    let cursor = ref base in
    let last_ckpt = ref base in
    let granted = ref 0
    and reassigned = ref 0
    and dups = ref 0
    and rejected = ref 0
    and missed = ref 0
    and quarantined = ref 0 in
    let dincr f = match dobs with Some d -> Metrics.incr (f d) | None -> () in
    let dadd f n = match dobs with Some d -> Metrics.add (f d) n | None -> () in
    let slots =
      Array.init cfg.workers (fun idx ->
          {
            idx;
            state = Down;  (* spawned by the first respawn sweep *)
            pid = -1;
            to_worker = None;
            from_worker = None;
            reader = Wire.reader ();
            last_seen = 0.0;
            failures = 0;
            respawn_at = 0.0;
            lease_ids = [];
          })
    in
    let live_count () =
      Array.fold_left
        (fun n s -> match s.state with Live | Starting -> n + 1 | _ -> n)
        0 slots
    in
    let set_live () =
      match dobs with Some d -> Metrics.set_gauge d.m_live (live_count ()) | None -> ()
    in
    let hello_of slot =
      {
        Wire.version = Supervisor.Checkpoint.format_version;
        worker = slot.idx;
        attempt = slot.failures;
        seed = job.seed;
        model_source = job.model_source;
        property = job.property;
        strategy = job.strategy;
        max_steps = job.max_steps;
        max_sim_time = job.max_sim_time;
        max_wall_per_path = job.max_wall_per_path;
        on_deadlock = job.on_deadlock;
        batch = cfg.batch;
        heartbeat = cfg.heartbeat;
        chaos = cfg.chaos;
      }
    in
    let spawn slot =
      let in_r, in_w = Unix.pipe () in
      let out_r, out_w = Unix.pipe () in
      Unix.set_close_on_exec in_w;
      Unix.set_close_on_exec out_r;
      let pid =
        Unix.create_process cfg.worker_cmd.(0) cfg.worker_cmd in_r out_w Unix.stderr
      in
      Unix.close in_r;
      Unix.close out_w;
      let oc = Unix.out_channel_of_descr in_w in
      set_binary_mode_out oc true;
      slot.pid <- pid;
      slot.to_worker <- Some oc;
      slot.from_worker <- Some out_r;
      slot.reader <- Wire.reader ();
      slot.state <- Starting;
      slot.last_seen <- Unix.gettimeofday ();
      Log.emit ~event:"dist_spawn"
        [
          ("worker", Json.Int slot.idx);
          ("pid", Json.Int pid);
          ("attempt", Json.Int slot.failures);
        ];
      (* a write failure here surfaces as an immediate EOF on the read side *)
      (try Wire.write_frame oc (Wire.directive_to_json (Wire.Hello (hello_of slot)))
       with Sys_error _ | Unix.Unix_error (_, _, _) -> ());
      set_live ()
    in
    let reap slot =
      (* close_out_noerr, not close_out: a flush to a dead worker raises
         and would leave the channel open with a dirty buffer, and then
         exit's flush_all retries the write after SIGPIPE is back to its
         default disposition — killing the whole process at exit *)
      (match slot.to_worker with Some oc -> close_out_noerr oc | None -> ());
      (match slot.from_worker with
      | Some fd -> ( try Unix.close fd with _ -> ())
      | None -> ());
      slot.to_worker <- None;
      slot.from_worker <- None;
      if slot.pid > 0 then begin
        (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
        (try ignore (Unix.waitpid [] slot.pid) with Unix.Unix_error (_, _, _) -> ());
        slot.pid <- -1
      end
    in
    let fail_worker slot reason =
      if slot.state <> Quarantined then begin
        (* kill first: once the pipe is closed no stale batch can arrive,
           so every batch banked into a lease came from its current owner *)
        reap slot;
        let lost = Lease.fail_owner table slot.idx in
        slot.lease_ids <- [];
        Log.emit ~event:"dist_worker_dead"
          [
            ("worker", Json.Int slot.idx);
            ("reason", Json.String reason);
            ("leases_lost", Json.Int lost);
          ];
        if lost > 0 then
          Log.emit ~event:"dist_lease_expired"
            [ ("worker", Json.Int slot.idx); ("count", Json.Int lost) ];
        slot.failures <- slot.failures + 1;
        if slot.failures > sup.Supervisor.max_restarts then begin
          slot.state <- Quarantined;
          incr quarantined;
          dincr (fun d -> d.m_quarantined);
          Log.emit ~event:"dist_quarantine"
            [ ("worker", Json.Int slot.idx); ("failures", Json.Int slot.failures) ]
        end
        else begin
          slot.state <- Down;
          slot.respawn_at <-
            Unix.gettimeofday ()
            +. Supervisor.backoff_delay sup ~attempt:(slot.failures - 1);
          Campaign.note_restart tally;
          dincr (fun d -> d.m_restarts)
        end;
        set_live ();
        if live_count () = 1 then
          Log.emit ~event:"dist_degraded" [ ("live", Json.Int 1) ]
      end
    in
    let should_carve () =
      Generator.needs_more generator
      && Lease.frontier table
         < Lease.carve_limit table ~cursor:!cursor
             ~remaining:(Generator.remaining_samples generator)
    in
    let grant slot =
      match slot.to_worker with
      | None -> ()
      | Some oc ->
        let continue = ref true in
        while
          !continue
          && List.length slot.lease_ids < 2
          && (Lease.pending table > 0 || should_carve ())
        do
          let l = Lease.grant table ~owner:slot.idx in
          incr granted;
          dincr (fun d -> d.m_granted);
          if l.Lease.grants > 1 then begin
            incr reassigned;
            dincr (fun d -> d.m_reassigned)
          end;
          Log.emit ~event:"dist_lease"
            [
              ("worker", Json.Int slot.idx);
              ("id", Json.Int l.Lease.id);
              ("lo", Json.Int l.Lease.lo);
              ("hi", Json.Int l.Lease.hi);
              ("reassigned", Json.Bool (l.Lease.grants > 1));
            ];
          slot.lease_ids <- l.Lease.id :: slot.lease_ids;
          try
            Wire.write_frame oc
              (Wire.directive_to_json
                 (Wire.Lease { id = l.Lease.id; lo = l.Lease.lo; hi = l.Lease.hi }))
          with Sys_error _ | Unix.Unix_error (_, _, _) ->
            continue := false;
            fail_worker slot "lease write failed"
        done
    in
    let progress_tick () =
      match progress with
      | None -> ()
      | Some p ->
        let est = Generator.estimator generator in
        Progress.tick p ~paths:(Estimator.trials est) (fun () ->
            let lo, hi =
              Estimator.confidence_interval est ~delta:(Generator.delta generator)
            in
            (Estimator.mean est, (hi -. lo) /. 2.0))
    in
    let drain () =
      cursor :=
        Lease.consume_ready table ~cursor:!cursor
          ~stop:(fun () ->
            (not (Generator.needs_more generator)) || Supervisor.stop_requested sup)
          ~f:(fun path c d ->
            match Lease.decode c d with
            | Error e -> raise (Abort_run (Path.Model_error ("wire: " ^ e)))
            | Ok outcome -> (
              match
                Campaign.consume ?robs ~on_error:job.on_error
                  ~on_divergence:sup.Supervisor.on_divergence
                  ~drop_stall_limit:sup.Supervisor.drop_stall_limit ~path acc
                  tally outcome
              with
              | Error e -> raise (Abort_run e)
              | Ok () -> progress_tick ()))
    in
    let checkpoint () =
      match sup.Supervisor.checkpoint with
      | None -> ()
      | Some { Supervisor.file; _ } ->
        let st =
          {
            (acc.Campaign.save tally ~seed:job.seed ~next_path:!cursor)
            with
            Supervisor.Checkpoint.leases = Lease.outstanding table;
          }
        in
        Campaign.write_checkpoint ?robs sup ~file st;
        last_ckpt := !cursor
    in
    let maybe_checkpoint () =
      match sup.Supervisor.checkpoint with
      | Some { Supervisor.every; _ } when every > 0 && !cursor / every > !last_ckpt / every
        ->
        checkpoint ()
      | _ -> ()
    in
    let handle_report slot = function
      | Wire.Ready _ ->
        if slot.state = Starting then slot.state <- Live;
        set_live ()
      | Wire.Heartbeat _ -> ()  (* any bytes already refreshed last_seen *)
      | Wire.Failed { msg } ->
        if slot.state = Starting then
          (* a handshake-stage failure (bad model, property, version) is
             deterministic: every replacement would fail identically, so
             surface the worker's message instead of spinning the budget *)
          raise (Abort_run (Path.Model_error msg))
        else fail_worker slot ("worker failed: " ^ msg)
      | Wire.Batch b -> (
        let details =
          List.map (fun (p, d) -> (p, Lease.Div d)) b.Wire.divs
          @ List.map (fun (p, e) -> (p, Lease.Err e)) b.Wire.errs
        in
        match
          Lease.record table ~lease_id:b.Wire.lease ~start:b.Wire.start b.Wire.verdicts
            details
        with
        | `New (_fresh, dup) ->
          if dup > 0 then begin
            dups := !dups + dup;
            dadd (fun d -> d.m_dups) dup
          end;
          (match Lease.find table b.Wire.lease with
          | Some l when l.Lease.filled >= l.Lease.hi - l.Lease.lo ->
            slot.lease_ids <- List.filter (fun id -> id <> b.Wire.lease) slot.lease_ids
          | _ -> ())
        | `Duplicate | `Unknown ->
          let n = String.length b.Wire.verdicts in
          dups := !dups + n;
          dadd (fun d -> d.m_dups) n
        | `Gap ->
          incr rejected;
          dincr (fun d -> d.m_rejected);
          fail_worker slot "batch beyond the banked prefix")
    in
    let pump slot =
      match slot.from_worker with
      | None -> ()
      | Some fd -> (
        let buf = Bytes.create 65536 in
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> fail_worker slot "eof"
        | n ->
          Wire.feed slot.reader buf n;
          slot.last_seen <- Unix.gettimeofday ();
          let continue = ref true in
          while !continue && (slot.state = Live || slot.state = Starting) do
            match Wire.next slot.reader with
            | Ok None -> continue := false
            | Error e ->
              incr rejected;
              dincr (fun d -> d.m_rejected);
              fail_worker slot ("corrupt frame: " ^ e)
            | Ok (Some j) -> (
              match Wire.report_of_json j with
              | Error e ->
                incr rejected;
                dincr (fun d -> d.m_rejected);
                fail_worker slot ("bad report: " ^ e)
              | Ok r -> handle_report slot r)
          done
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> fail_worker slot "read error")
    in
    let check_liveness now =
      Array.iter
        (fun slot ->
          match slot.state with
          | (Live | Starting) when now -. slot.last_seen > cfg.liveness ->
            incr missed;
            dincr (fun d -> d.m_missed);
            fail_worker slot "liveness timeout"
          | _ -> ())
        slots
    in
    let respawn_due now =
      Array.iter
        (fun slot -> if slot.state = Down && now >= slot.respawn_at then spawn slot)
        slots
    in
    (* sleep until the nearest liveness or respawn deadline, capped so
       the stop flag stays responsive *)
    let next_deadline now =
      Array.fold_left
        (fun acc slot ->
          match slot.state with
          | Live | Starting -> min acc (slot.last_seen +. cfg.liveness -. now)
          | Down -> min acc (slot.respawn_at -. now)
          | Quarantined -> acc)
        0.25 slots
      |> max 0.0 |> min 0.25
    in
    let teardown () =
      Array.iter
        (fun slot ->
          (match slot.to_worker with
          | Some oc -> (
            try Wire.write_frame oc (Wire.directive_to_json Wire.Shutdown)
            with _ -> ())
          | None -> ());
          reap slot)
        slots;
      set_live ()
    in
    let finish stopped ~all_lost =
      checkpoint ();
      teardown ();
      (match progress with Some p -> Progress.finish p | None -> ());
      let result =
        acc.Campaign.summary tally ~stopped ~wall:(Unix.gettimeofday () -. t0)
      in
      Ok
        {
          result;
          all_lost;
          leases_granted = !granted;
          leases_reassigned = !reassigned;
          duplicate_paths = !dups;
          frames_rejected = !rejected;
          heartbeats_missed = !missed;
          quarantined = !quarantined;
        }
    in
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let restore_sigpipe () =
      match old_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ()
    in
    let out =
      try
        let rec loop () =
          drain ();
          maybe_checkpoint ();
          if not (Generator.needs_more generator) then
            finish Campaign.Converged ~all_lost:false
          else if Supervisor.stop_requested sup then
            finish Campaign.Interrupted ~all_lost:false
          else begin
            let now = Unix.gettimeofday () in
            respawn_due now;
            check_liveness now;
            Array.iter
              (fun slot ->
                match slot.state with Live | Starting -> grant slot | _ -> ())
              slots;
            if Array.for_all (fun s -> s.state = Quarantined) slots then begin
              Log.emit ~event:"dist_degraded" [ ("live", Json.Int 0) ];
              drain ();
              finish Campaign.Interrupted ~all_lost:true
            end
            else begin
              let fds =
                Array.to_list slots
                |> List.filter_map (fun s ->
                       match (s.state, s.from_worker) with
                       | (Live | Starting), Some fd -> Some (fd, s)
                       | _ -> None)
              in
              let timeout = next_deadline (Unix.gettimeofday ()) in
              (match Unix.select (List.map fst fds) [] [] timeout with
              | readable, _, _ ->
                List.iter (fun (fd, slot) -> if List.memq fd readable then pump slot) fds
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              loop ()
            end
          end
        in
        loop ()
      with Abort_run e ->
        teardown ();
        (match progress with Some p -> Progress.finish p | None -> ());
        Error e
    in
    restore_sigpipe ();
    out

let run ?supervisor ?progress cfg job ~generator =
  if job.engine <> "compiled" then
    Error
      (Path.Model_error
         (Printf.sprintf
            "distributed job: unknown engine %S (the only path generator is \
             \"compiled\")"
            job.engine))
  else run_job ?supervisor ?progress cfg job ~generator
