(* The slimsim campaign service: a single-threaded select loop that
   alternates protocol work with scheduling slices.  A submission starts
   where every [slimsim simulate] query does ([Slimsim.start]: plan,
   route, pre-pass), and its campaign is the value the one-shot engine
   drives to completion, here stepped, parked and resumed, so the
   service inherits its determinism: a campaign time-sliced across many
   turns produces the answer the same submission would get from
   [slimsim simulate].

   Concurrency model: the loop owns every mutable structure; worker
   domains live inside campaigns and never touch service state.  A slice
   parks its campaign afterwards whenever other work is queued, so the
   domain pool is shared fairly rather than monopolized by whichever
   campaign was submitted first. *)

module Json = Slimsim_obs.Json
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Supervisor = Slimsim_sim.Supervisor
module Campaign = Slimsim_sim.Campaign
module Path = Slimsim_sim.Path

type config = {
  socket_path : string;
  cache_capacity : int;
  slice : int;
  max_campaigns_per_tenant : int;
  max_paths_per_campaign : int option;
  max_wall_per_campaign : float option;
  max_workers : int;
  metrics_file : string option;
  event_log : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    cache_capacity = 8;
    slice = 64;
    max_campaigns_per_tenant = 4;
    max_paths_per_campaign = None;
    max_wall_per_campaign = None;
    max_workers = 4;
    metrics_file = None;
    event_log = None;
  }

(* ------------------------------------------------------------------ *)

(* A job samples through its session until it is finished; a query the
   pre-pass certifies is finished at submit. *)
type job = {
  id : string;
  tenant : string;
  sup : Supervisor.t;
  mutable active_seconds : float;
  mutable budget : string option;  (* "paths" / "wall" when a budget fired *)
  mutable cancelled : bool;
  mutable run :
    [ `Sampling of Slimsim.session
    | `Finished of (Slimsim.cost_outcome, string) result ];
  mutable waiters : Unix.file_descr list;
}

let running job = match job.run with `Sampling _ -> true | `Finished _ -> false

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;  (* replies accepted but not yet written to the socket *)
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  cache : Cache.t;
  sched : string Scheduler.t;
  jobs : (string, job) Hashtbl.t;
  done_order : string Queue.t;  (* finished job ids, oldest first *)
  clients : (Unix.file_descr, client) Hashtbl.t;
  mutable next_id : int;
  mutable alive : bool;
  (* metrics *)
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_running : Metrics.gauge;
  m_entries : Metrics.gauge;
  m_slice : Metrics.histogram;
}

let req_counter op =
  Metrics.counter "slimsim_serve_requests_total" ~labels:[ ("op", op) ]
    ~help:"Protocol requests handled, by op"

let tenant_paths tenant =
  Metrics.counter "slimsim_serve_paths_total" ~labels:[ ("tenant", tenant) ]
    ~help:"Sample paths simulated on behalf of each tenant"

let close_client st fd =
  Hashtbl.remove st.clients fd;
  Hashtbl.iter
    (fun _ job -> job.waiters <- List.filter (fun w -> w <> fd) job.waiters)
    st.jobs;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Client sockets are non-blocking and replies are buffered per client,
   drained opportunistically here and through select's write set in the
   main loop: a client that stops reading stalls only itself, never the
   loop, and is dropped once its backlog passes this bound. *)
let max_client_backlog = 4 * 1024 * 1024

let rec flush_client st fd =
  match Hashtbl.find_opt st.clients fd with
  | None -> ()
  | Some c ->
    let len = Buffer.length c.out in
    if len > 0 then begin
      match Unix.write_substring fd (Buffer.contents c.out) 0 len with
      | n when n >= len -> Buffer.clear c.out
      | n ->
        let rest = Buffer.sub c.out n (len - n) in
        Buffer.clear c.out;
        Buffer.add_string c.out rest
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_client st fd
      | exception Unix.Unix_error _ -> close_client st fd
    end

let send_line st fd line =
  match Hashtbl.find_opt st.clients fd with
  | None -> ()
  | Some c ->
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n';
    if Buffer.length c.out > max_client_backlog then close_client st fd
    else flush_client st fd

(* ---- job lifecycle ------------------------------------------------ *)

let unfinished_of_tenant st tenant =
  Hashtbl.fold
    (fun _ j acc -> if j.tenant = tenant && running j then acc + 1 else acc)
    st.jobs 0

let running_jobs st =
  Hashtbl.fold (fun _ j acc -> if running j then acc + 1 else acc) st.jobs 0

let estimate_fields (e : Slimsim.estimate) =
  [
    ("probability", Json.Float e.probability);
    ("ci_low", Json.Float e.ci_low);
    ("ci_high", Json.Float e.ci_high);
    ("paths", Json.Int e.paths);
    ("successes", Json.Int e.successes);
    ("deadlock_paths", Json.Int e.deadlock_paths);
    ("violated_paths", Json.Int e.violated_paths);
    ("errors", Json.Int e.errors);
    ("diverged_paths", Json.Int e.diverged_paths);
    ("dropped_paths", Json.Int e.dropped_paths);
    ("worker_restarts", Json.Int e.worker_restarts);
    ("interrupted", Json.Bool e.interrupted);
    ("wall_seconds", Json.Float e.wall_seconds);
  ]
  @ Option.fold ~none:[] ~some:(fun c -> [ ("certificate", Json.String c) ])
      e.certificate

(* E[...] / D[...]: the cost statistics, then the reachability fields of
   the campaign they were folded over *)
let outcome_fields = function
  | Slimsim.Cost_probability e -> estimate_fields e
  | Slimsim.Cost_expected r | Slimsim.Cost_distribution r ->
    let module C = Slimsim_sim.Cost_run in
    [
      ("cost_mean", Json.Float r.C.cost_mean);
      ("cost_ci_low", Json.Float r.C.cost_ci_low);
      ("cost_ci_high", Json.Float r.C.cost_ci_high);
      ("cost_min", Json.Float r.C.cost_min);
      ("cost_max", Json.Float r.C.cost_max);
      ("sat_paths", Json.Int r.C.cost_samples);
    ]
    @ estimate_fields (Slimsim.estimate_of ~complement:false r.C.reach)

let job_status_fields job =
  let base = [ ("id", Json.String job.id); ("tenant", Json.String job.tenant) ] in
  let budget =
    match job.budget with None -> [] | Some b -> [ ("budget", Json.String b) ]
  in
  match job.run with
  | `Finished (Ok o) ->
    base
    @ [ ("state", Json.String (if job.cancelled then "cancelled" else "done")) ]
    @ outcome_fields o @ budget
  | `Finished (Error msg) ->
    base @ [ ("state", Json.String "failed"); ("reason", Json.String msg) ]
  | `Sampling (Slimsim.Session (c, _)) ->
    let mean, lo, hi, trials = Campaign.snapshot c in
    base
    @ [
        ("state", Json.String "running");
        ("paths", Json.Int trials);
        ("mean", Json.Float mean);
        ("ci_low", Json.Float lo);
        ("ci_high", Json.Float hi);
      ]
    @ budget

(* Finished jobs stay queryable by [status] until this many newer ones
   finish; beyond that they are evicted so a long-lived service does not
   pin every past campaign (and its staged network) forever.  The
   result itself is always delivered: waiters are answered in [finish]
   before any eviction. *)
let max_finished_jobs = 256

let finish st job result =
  job.run <- `Finished result;
  Queue.push job.id st.done_order;
  while Queue.length st.done_order > max_finished_jobs do
    Hashtbl.remove st.jobs (Queue.pop st.done_order)
  done;
  Metrics.set_gauge st.m_running (running_jobs st);
  Log.emit ~event:"serve_done"
    [
      ("id", Json.String job.id);
      ("tenant", Json.String job.tenant);
      ( "state",
        Json.String
          (match result with
          | Ok _ when job.cancelled -> "cancelled"
          | Ok _ -> "done"
          | Error _ -> "failed") );
    ];
  let line = Protocol.ok_line (job_status_fields job) in
  List.iter (fun fd -> send_line st fd line) job.waiters;
  job.waiters <- []

let check_budgets st job c =
  if job.budget = None then begin
    (match st.cfg.max_paths_per_campaign with
    | Some n when Campaign.consumed c >= n ->
      job.budget <- Some "paths";
      Supervisor.request_stop job.sup
    | _ -> ());
    match st.cfg.max_wall_per_campaign with
    | Some s when job.active_seconds >= s ->
      job.budget <- Some "wall";
      Supervisor.request_stop job.sup
    | _ -> ()
  end

(* a step's status as a finished job's result; a campaign still running
   when the service stops is reported as interrupted *)
let result_of map = function
  | Campaign.Done r -> Ok (map r)
  | Campaign.Failed e -> Error (Path.error_to_string e)
  | Campaign.Running -> Error "interrupted"

let run_slice st job (Slimsim.Session (c, map)) =
  let before = Campaign.consumed c in
  let t0 = Unix.gettimeofday () in
  let status = Campaign.step ~quota:st.cfg.slice c in
  let dt = Unix.gettimeofday () -. t0 in
  job.active_seconds <- job.active_seconds +. dt;
  Metrics.observe st.m_slice dt;
  let consumed = Campaign.consumed c - before in
  Scheduler.charge st.sched ~tenant:job.tenant consumed;
  Metrics.add (tenant_paths job.tenant) consumed;
  match status with
  | Campaign.Running ->
    check_budgets st job c;
    (* share the domain pool: quiesce before yielding the slot when
       anyone else is waiting to run *)
    if Scheduler.pending st.sched > 0 then Campaign.park c;
    Scheduler.push st.sched ~tenant:job.tenant job.id
  | status -> finish st job (result_of map status)

(* ---- request handling --------------------------------------------- *)

let handle_submit st fd (s : Protocol.submit) =
  let ( let* ) = Result.bind in
  let resolve () =
    match (s.model_hash, s.model_source, s.model_file) with
    | Some h, _, _ ->
      Cache.find_hash st.cache h
      |> Option.map (fun e -> (e, `Hit))
      |> Option.to_result ~none:(Printf.sprintf "unknown model_hash %S (not resident)" h)
    | None, Some src, _ -> Cache.load st.cache ~source:src
    | None, None, Some file -> (
      match In_channel.with_open_bin file In_channel.input_all with
      | src -> Cache.load st.cache ~source:src
      | exception Sys_error e -> Error e)
    | None, None, None -> Error "submit without a model"
  in
  let sup = Supervisor.create ~on_divergence:s.on_divergence () in
  let admitted =
    let* () =
      if unfinished_of_tenant st s.tenant >= st.cfg.max_campaigns_per_tenant then
        Error
          (Printf.sprintf "admission: tenant %S is at its campaign limit (%d)"
             s.tenant st.cfg.max_campaigns_per_tenant)
      else Ok ()
    in
    let* entry, hit = resolve () in
    Metrics.incr (match hit with `Hit -> st.m_cache_hits | `Miss -> st.m_cache_misses);
    let* started =
      Slimsim.start ~workers:(max 1 (min s.workers st.cfg.max_workers))
        ~seed:s.seed ~generator:s.generator ~on_error:`Abort ~supervisor:sup
        ?max_steps:s.max_steps ?max_sim_time:s.max_sim_time
        ?max_wall_per_path:s.max_wall_per_path ~compiled:entry.Cache.compiled
        entry.Cache.model ~query:s.property ~strategy:s.strategy
        ~delta:s.delta ~eps:s.eps ()
    in
    Ok (entry, hit, started)
  in
  match admitted with
  | Error e -> send_line st fd (Protocol.error_line e)
  | Ok (entry, hit, started) -> (
    st.next_id <- st.next_id + 1;
    let id = Printf.sprintf "c%d" st.next_id in
    let run =
      match started with
      | Slimsim.Sampling session -> `Sampling session
      | Slimsim.Answered o -> `Finished (Ok o)
    in
    let job =
      {
        id;
        tenant = s.tenant;
        sup;
        active_seconds = 0.0;
        budget = None;
        cancelled = false;
        run;
        waiters = [];
      }
    in
    Hashtbl.replace st.jobs id job;
    if running job then Scheduler.push st.sched ~tenant:s.tenant id;
    Metrics.set_gauge st.m_running (running_jobs st);
    Metrics.set_gauge st.m_entries (Cache.length st.cache);
    let receipt =
      [
        ("id", Json.String id);
        ("tenant", Json.String s.tenant);
        ("network_hash", Json.String entry.Cache.hash);
        ("cache", Json.String (match hit with `Hit -> "hit" | `Miss -> "miss"));
      ]
    in
    Log.emit ~event:"serve_submit" receipt;
    send_line st fd (Protocol.ok_line receipt);
    (* a certified query is done at submit: no campaign to schedule *)
    match run with `Finished r -> finish st job r | `Sampling _ -> ())

let stats_fields st =
  let tenants =
    Hashtbl.fold
      (fun _ j acc -> if List.mem j.tenant acc then acc else j.tenant :: acc)
      st.jobs []
    |> List.sort compare
  in
  [
    ("campaigns", Json.Int (Hashtbl.length st.jobs));
    ("running", Json.Int (running_jobs st));
    ("queued", Json.Int (Scheduler.pending st.sched));
    ("cache_entries", Json.Int (Cache.length st.cache));
    ("cache_hits", Json.Int (Cache.hits st.cache));
    ("cache_misses", Json.Int (Cache.misses st.cache));
    ("cache_evictions", Json.Int (Cache.evictions st.cache));
    ( "tenants",
      Json.List
        (List.map
           (fun t ->
             Json.Obj
               [
                 ("tenant", Json.String t);
                 ("paths", Json.Int (Scheduler.charged st.sched ~tenant:t));
               ])
           tenants) );
  ]

let handle_line st fd line =
  match Protocol.request_of_line line with
  | Error e ->
    Metrics.incr (req_counter "invalid");
    send_line st fd (Protocol.error_line e)
  | Ok req -> (
    let op =
      match req with
      | Protocol.Hello -> "hello"
      | Submit _ -> "submit"
      | Status _ -> "status"
      | Wait _ -> "wait"
      | Cancel _ -> "cancel"
      | Stats -> "stats"
      | Metrics -> "metrics"
      | Shutdown -> "shutdown"
    in
    Metrics.incr (req_counter op);
    match req with
    | Protocol.Hello ->
      send_line st fd
        (Protocol.ok_line
           [
             ("tool_version", Json.String Slimsim.tool_version);
             ("protocol", Json.Int Protocol.protocol_version);
           ])
    | Submit s -> handle_submit st fd s
    | Status id -> (
      match Hashtbl.find_opt st.jobs id with
      | None -> send_line st fd (Protocol.error_line ("unknown campaign " ^ id))
      | Some job -> send_line st fd (Protocol.ok_line (job_status_fields job)))
    | Wait id -> (
      match Hashtbl.find_opt st.jobs id with
      | None -> send_line st fd (Protocol.error_line ("unknown campaign " ^ id))
      | Some job ->
        if running job then job.waiters <- fd :: job.waiters
        else send_line st fd (Protocol.ok_line (job_status_fields job)))
    | Cancel id -> (
      match Hashtbl.find_opt st.jobs id with
      | None -> send_line st fd (Protocol.error_line ("unknown campaign " ^ id))
      | Some job ->
        if running job then begin
          job.cancelled <- true;
          Supervisor.request_stop job.sup;
          Log.emit ~event:"serve_cancel" [ ("id", Json.String id) ]
        end;
        send_line st fd
          (Protocol.ok_line
             [
               ("id", Json.String id);
               ( "state",
                 Json.String (if running job then "cancelling" else "finished") );
             ]))
    | Stats -> send_line st fd (Protocol.ok_line (stats_fields st))
    | Metrics ->
      send_line st fd
        (Protocol.ok_line [ ("exposition", Json.String (Metrics.render ())) ])
    | Shutdown ->
      send_line st fd (Protocol.ok_line [ ("state", Json.String "shutting_down") ]);
      st.alive <- false)

let handle_accept st =
  match Unix.accept st.listen_fd with
  | cfd, _ ->
    Unix.set_nonblock cfd;
    Hashtbl.replace st.clients cfd
      { fd = cfd; inbuf = Buffer.create 256; out = Buffer.create 256 }
  | exception
      Unix.Unix_error
        ((Unix.ECONNABORTED | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    -> ()
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _) ->
    (* fd exhaustion: leave the connection in the listen backlog and wait
       for an existing client to become serviceable — readable traffic or
       a disconnect frees descriptors, so waking on it beats a fixed nap
       (and a capped timeout still guarantees the loop breathes) *)
    Log.emit ~event:"serve_accept_overload"
      [ ("error", Json.String (Unix.error_message e)) ];
    let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients [] in
    (match Unix.select client_fds [] [] 0.05 with
    | _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ())

let handle_readable st fd =
  if fd = st.listen_fd then handle_accept st
  else
    match Hashtbl.find_opt st.clients fd with
    | None -> ()
    | Some client -> (
      let chunk = Bytes.create 4096 in
      match Unix.read fd chunk 0 4096 with
      | 0 -> close_client st fd
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_client st fd
      | n ->
        Buffer.add_subbytes client.inbuf chunk 0 n;
        let rec drain () =
          let s = Buffer.contents client.inbuf in
          match String.index_opt s '\n' with
          | None -> ()
          | Some i ->
            let line = String.sub s 0 i in
            Buffer.clear client.inbuf;
            Buffer.add_string client.inbuf
              (String.sub s (i + 1) (String.length s - i - 1));
            if String.trim line <> "" then handle_line st fd (String.trim line);
            if st.alive then drain ()
        in
        drain ())

(* ---- main loop ---------------------------------------------------- *)

let shutdown st =
  (* stop every unfinished campaign cooperatively and answer its
     waiters with the partial estimate *)
  Hashtbl.iter
    (fun _ job -> if running job then Supervisor.request_stop job.sup)
    st.jobs;
  let rec drain () =
    match Scheduler.take st.sched with
    | None -> ()
    | Some (_, id) ->
      (match Hashtbl.find_opt st.jobs id with
      | Some ({ run = `Sampling (Slimsim.Session (c, map)); _ } as job) ->
        (* stop flag is set: this consumes no new samples *)
        finish st job (result_of map (Campaign.step ~quota:1 c))
      | _ -> ());
      drain ()
  in
  drain ();
  (* best-effort: give the waiter notifications buffered above a bounded
     moment to reach their clients before the fds are closed *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec flush_all () =
    let pending =
      Hashtbl.fold
        (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc)
        st.clients []
    in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] pending [] 0.1 with
      | _, writable, _ -> List.iter (flush_client st) writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      flush_all ()
    end
  in
  flush_all ();
  Log.emit ~event:"serve_shutdown" [];
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) st.clients;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink st.cfg.socket_path with Unix.Unix_error _ -> ());
  match st.cfg.metrics_file with
  | Some file -> Metrics.write_file file
  | None -> ()

let run cfg =
  Metrics.set_enabled true;
  let close_log =
    match cfg.event_log with
    | None -> fun () -> ()
    | Some file ->
      let write, close = Log.file_sink file in
      Log.set_sink (Some write);
      fun () ->
        Log.set_sink None;
        close ()
  in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  let st =
    {
      cfg;
      listen_fd;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      sched = Scheduler.create ();
      jobs = Hashtbl.create 32;
      done_order = Queue.create ();
      clients = Hashtbl.create 8;
      next_id = 0;
      alive = true;
      m_cache_hits =
        Metrics.counter "slimsim_serve_cache_hits_total"
          ~help:"Submissions answered from the compiled-network cache";
      m_cache_misses =
        Metrics.counter "slimsim_serve_cache_misses_total"
          ~help:"Submissions that ran load + stage before campaigning";
      m_running =
        Metrics.gauge "slimsim_serve_campaigns_running"
          ~help:"Unfinished campaigns resident in the service";
      m_entries =
        Metrics.gauge "slimsim_serve_cache_entries"
          ~help:"Compiled networks resident in the cache";
      m_slice =
        Metrics.histogram "slimsim_serve_slice_seconds"
          ~help:"Wall-clock duration of one scheduling slice";
    }
  in
  let stop_signal = Sys.Signal_handle (fun _ -> st.alive <- false) in
  let prev_int = Sys.signal Sys.sigint stop_signal in
  let prev_term = Sys.signal Sys.sigterm stop_signal in
  (* a write to a client that hung up must surface as EPIPE for the
     flush path to handle, not as a process-killing SIGPIPE *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Log.emit ~event:"serve_start"
    [ ("socket", Json.String cfg.socket_path); ("slice", Json.Int cfg.slice) ];
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigpipe prev_pipe;
      close_log ())
    (fun () ->
      while st.alive do
        let fds =
          st.listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients []
        in
        let wfds =
          Hashtbl.fold
            (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc)
            st.clients []
        in
        let timeout = if Scheduler.pending st.sched > 0 then 0.0 else 0.25 in
        (match Unix.select fds wfds [] timeout with
        | readable, writable, _ ->
          List.iter (flush_client st) writable;
          List.iter (handle_readable st) readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        if st.alive then
          match Scheduler.take st.sched with
          | None -> ()
          | Some (_, id) -> (
            match Hashtbl.find_opt st.jobs id with
            | Some ({ run = `Sampling s; _ } as job) -> run_slice st job s
            | _ -> ())
      done;
      shutdown st)
