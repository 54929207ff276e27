module Campaign = Slimsim_sim.Campaign
module Lease = Slimsim_sim.Lease
module Path = Slimsim_sim.Path
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
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

(* The coordinator is a sample source of the campaign kernel: [draw]
   hands [Campaign] the path at its cursor once a worker has banked it,
   and keeps the worker pool running while it waits.  Stopping,
   convergence, policies, checkpoints, the heartbeat and the summary are
   the kernel's, as under every other topology. *)
let run_job ?supervisor ?progress cfg job ~generator =
  let sup = match supervisor with Some s -> s | None -> Supervisor.default () in
  let acc = Campaign.bernoulli generator in
  (* The pool starts at the resume cursor, which the campaign knows once
     it has validated the checkpoint; [leases] and [draw] are filled in
     then.  Before that, checkpoint states carry no leases and nothing
     is drawn. *)
  let leases = ref None in
  let save tally ~seed ~next_path =
    let st = acc.Campaign.save tally ~seed ~next_path in
    match !leases with
    | Some table ->
      { st with Supervisor.Checkpoint.leases = Lease.outstanding table }
    | None -> st
  in
  let draw = ref (fun () -> assert false) in
  match
    Campaign.create_sequential ~seed:job.seed ~on_error:job.on_error
      ~supervisor:sup ?progress
      ~draw:(fun _ -> !draw ())
      { acc with Campaign.save }
  with
  | Error e -> Error e
  | Ok camp ->
    let dobs = make_dobs () in
    let size =
      match cfg.lease_size with
      | Some n -> n
      | None ->
        Lease.range_size
          ~remaining:(Generator.remaining_samples generator)
          ~workers:cfg.workers ~cap:1024
    in
    let table = Lease.create ~base:(Campaign.consumed camp) ~size ~payload:ignore in
    leases := Some table;
    let granted = ref 0
    and reassigned = ref 0
    and dups = ref 0
    and rejected = ref 0
    and missed = ref 0
    and quarantined = ref 0
    and all_lost = ref false in
    (* a pool counter and its metric cell *)
    let bump ?(n = 1) r f =
      r := !r + n;
      Metrics.add (f dobs) n
    in
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
      Metrics.set_gauge dobs.m_live (live_count ())
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
          bump quarantined (fun d -> d.m_quarantined);
          Log.emit ~event:"dist_quarantine"
            [ ("worker", Json.Int slot.idx); ("failures", Json.Int slot.failures) ]
        end
        else begin
          slot.state <- Down;
          slot.respawn_at <-
            Unix.gettimeofday ()
            +. Supervisor.backoff_delay sup ~attempt:(slot.failures - 1);
          Campaign.note_restart camp;
          Metrics.incr dobs.m_restarts
        end;
        set_live ();
        if live_count () = 1 then
          Log.emit ~event:"dist_degraded" [ ("live", Json.Int 1) ]
      end
    in
    let limit () =
      Lease.carve_limit ~cursor:(Campaign.consumed camp)
        ~remaining:(Generator.remaining_samples generator)
    in
    let should_carve () = Lease.frontier table < limit () in
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
          let l = Lease.grant table ~owner:slot.idx ~limit:(limit ()) in
          bump granted (fun d -> d.m_granted);
          if l.Lease.grants > 1 then bump reassigned (fun d -> d.m_reassigned);
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
    let reject slot reason =
      bump rejected (fun d -> d.m_rejected);
      fail_worker slot reason
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
          if dup > 0 then bump ~n:dup dups (fun d -> d.m_dups);
          (match Lease.find table b.Wire.lease with
          | Some l when l.Lease.filled >= l.Lease.hi - l.Lease.lo ->
            slot.lease_ids <- List.filter (fun id -> id <> b.Wire.lease) slot.lease_ids
          | _ -> ())
        | `Duplicate | `Unknown ->
          bump ~n:(String.length b.Wire.verdicts) dups (fun d -> d.m_dups)
        | `Gap -> reject slot "batch beyond the banked prefix")
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
            | Error e -> reject slot ("corrupt frame: " ^ e)
            | Ok (Some j) -> (
              match Wire.report_of_json j with
              | Error e -> reject slot ("bad report: " ^ e)
              | Ok r -> handle_report slot r)
          done
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> fail_worker slot "read error")
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
    (* One round of pool upkeep while the campaign waits for the path
       at its cursor; a stop request, or the last worker quarantined,
       ends the slice. *)
    let wait () =
      if Supervisor.stop_requested sup then raise Campaign.Stopped;
      let now = Unix.gettimeofday () in
      Array.iter
        (fun slot -> if slot.state = Down && now >= slot.respawn_at then spawn slot)
        slots;
      Array.iter
        (fun slot ->
          match slot.state with
          | (Live | Starting) when now -. slot.last_seen > cfg.liveness ->
            bump missed (fun d -> d.m_missed);
            fail_worker slot "liveness timeout"
          | _ -> ())
        slots;
      Array.iter
        (fun slot -> match slot.state with Live | Starting -> grant slot | _ -> ())
        slots;
      if Array.for_all (fun s -> s.state = Quarantined) slots then begin
        Log.emit ~event:"dist_degraded" [ ("live", Json.Int 0) ];
        all_lost := true;
        raise Campaign.Stopped
      end;
      let fds =
        Array.to_list slots
        |> List.filter_map (fun s ->
               match (s.state, s.from_worker) with
               | (Live | Starting), Some fd -> Some (fd, s)
               | _ -> None)
      in
      let timeout = next_deadline (Unix.gettimeofday ()) in
      match Unix.select (List.map fst fds) [] [] timeout with
      | readable, _, _ ->
        List.iter (fun (fd, slot) -> if List.memq fd readable then pump slot) fds
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    (* the path at the cursor, once banked, routed through the
       campaign's policies *)
    let rec next () =
      let i = Campaign.consumed camp in
      match Lease.head table ~cursor:i with
      | Some l when i - l.Lease.lo < l.Lease.filled -> (
        match Lease.outcome l i with
        | Error e -> Error (Path.Model_error ("wire: " ^ e))
        | Ok o -> (
          match Campaign.route camp ~path:i o with
          | `Sat -> Ok (Campaign.Sat nan)
          | `Unsat -> Ok Campaign.Unsat
          | `Drop -> Ok Campaign.Dropped
          | `Abort e -> Error e))
      | _ -> (
        match wait () with () -> next () | exception Abort_run e -> Error e)
    in
    draw := next;
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        teardown ();
        Option.iter Progress.finish progress;
        match old_sigpipe with
        | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
        | None -> ())
      (fun () ->
        Campaign.drive camp
        |> Result.map (fun result ->
               {
                 result;
                 all_lost = !all_lost;
                 leases_granted = !granted;
                 leases_reassigned = !reassigned;
                 duplicate_paths = !dups;
                 frames_rejected = !rejected;
                 heartbeats_missed = !missed;
                 quarantined = !quarantined;
               }))

let run ?supervisor ?progress cfg job ~generator =
  if Generator.kind generator = Generator.Mlmc then
    Error
      (Path.Refused
         "--generator mlmc is not supported with --distribute (the coupled \
          sampler is sequential); drop one of the two flags")
  else if job.engine <> "compiled" then
    Error
      (Path.Model_error
         (Printf.sprintf
            "distributed job: unknown engine %S (the only path generator is \
             \"compiled\")"
            job.engine))
  else run_job ?supervisor ?progress cfg job ~generator
