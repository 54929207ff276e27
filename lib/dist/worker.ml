module Campaign = Slimsim_sim.Campaign
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Supervisor = Slimsim_sim.Supervisor

(* stdout carries only frames; anything human goes to stderr. *)

let send report = Wire.write_frame stdout (Wire.report_to_json report)

let die_failed msg code =
  (try send (Wire.Failed { msg }) with _ -> ());
  code

type session = {
  hello : Wire.hello;
  chaos : Chaos.t;
  runner : int -> (Path.verdict, Path.error) Result.t * float;
  reader : Wire.reader;
  leases : (int * int * int) Queue.t;
  mutable last_hb : float;
  mutable dup_next : bool;  (* chaos: send the next batch twice *)
}

(* --- stdin frame pump --- *)

let read_chunk s =
  let buf = Bytes.create 65536 in
  match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
  | 0 -> `Eof
  | n ->
    Wire.feed s.reader buf n;
    `Fed
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Fed

let wait_readable timeout =
  match Unix.select [ Unix.stdin ] [] [] timeout with
  | [], _, _ -> `Timeout
  | _ -> `Ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout

exception Quit of int

let handle_directive s = function
  | Wire.Lease { id; lo; hi } -> Queue.add (id, lo, hi) s.leases
  | Wire.Shutdown -> raise (Quit 0)
  | Wire.Hello _ -> raise (Quit (die_failed "unexpected second handshake" 2))

(* Drain every complete frame already buffered; optionally block up to
   [timeout] for the first byte. *)
let pump ?(timeout = 0.0) s =
  let rec frames () =
    match Wire.next s.reader with
    | Error e -> raise (Quit (die_failed ("coordinator stream: " ^ e) 2))
    | Ok None -> ()
    | Ok (Some j) -> (
      match Wire.directive_of_json j with
      | Error e -> raise (Quit (die_failed ("bad directive: " ^ e) 2))
      | Ok d ->
        handle_directive s d;
        frames ())
  in
  frames ();
  (if timeout > 0.0 && Queue.is_empty s.leases then
     match wait_readable timeout with
     | `Timeout -> ()
     | `Ready -> ( match read_chunk s with `Eof -> raise (Quit 0) | `Fed -> ()));
  (* opportunistic non-blocking top-up *)
  (match wait_readable 0.0 with
  | `Ready -> ( match read_chunk s with `Eof -> raise (Quit 0) | `Fed -> ())
  | `Timeout -> ());
  frames ()

let maybe_heartbeat s ~path =
  let now = Unix.gettimeofday () in
  if now -. s.last_hb >= s.hello.Wire.heartbeat then begin
    s.last_hb <- now;
    send (Wire.Heartbeat { path })
  end

(* --- chaos actions --- *)

let perform_chaos s ~path =
  match Chaos.fire s.chaos ~worker:s.hello.Wire.worker ~attempt:s.hello.Wire.attempt ~path with
  | None -> ()
  | Some Chaos.Kill ->
    (* announce a big frame, deliver a sliver, die: a torn frame *)
    output_string stdout "4096\ntorn";
    flush stdout;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some (Chaos.Exit code) -> raise (Quit code)
  | Some Chaos.Stall ->
    while true do
      Unix.sleepf 3600.0
    done
  | Some Chaos.Corrupt ->
    output_string stdout "not-a-length\n{\"type\":\"garbage\"}\n";
    flush stdout
  | Some Chaos.Dup -> s.dup_next <- true
  | Some (Chaos.Delay t) -> Unix.sleepf t

(* --- lease execution --- *)

let send_batch s b =
  send (Wire.Batch b);
  if s.dup_next then begin
    s.dup_next <- false;
    send (Wire.Batch b)
  end;
  s.last_hb <- Unix.gettimeofday ()

let run_lease s (id, lo, hi) =
  let batch = max 1 s.hello.Wire.batch in
  let buf = Buffer.create batch in
  let divs = ref [] and errs = ref [] in
  let start = ref lo in
  let flush_batch () =
    if Buffer.length buf > 0 then begin
      send_batch s
        {
          Wire.lease = id;
          start = !start;
          verdicts = Buffer.contents buf;
          divs = List.rev !divs;
          errs = List.rev !errs;
        };
      start := !start + Buffer.length buf;
      Buffer.clear buf;
      divs := [];
      errs := []
    end
  in
  for path = lo to hi - 1 do
    perform_chaos s ~path;
    let outcome, _ = s.runner path in
    Buffer.add_char buf (Slimsim_sim.Lease.code outcome);
    (match outcome with
    | Ok (Path.Diverged d) -> divs := (path, d) :: !divs
    | Error e -> errs := (path, e) :: !errs
    | Ok _ -> ());
    if Buffer.length buf >= batch then begin
      flush_batch ();
      (* between batches: pick up shutdown / fresh leases promptly *)
      pump s
    end
    else if path land 31 = 0 then maybe_heartbeat s ~path
  done;
  flush_batch ()

(* --- setup --- *)

let build_session hello =
  let ( let* ) = Result.bind in
  let* chaos = Chaos.parse hello.Wire.chaos in
  let* model = Slimsim.load_string hello.Wire.model_source in
  let* goal, hold, horizon = Slimsim.parse_property model hello.Wire.property in
  let* strategy = Strategy.of_string hello.Wire.strategy in
  let* on_deadlock =
    match hello.Wire.on_deadlock with
    | "error" -> Ok `Error
    | "falsify" -> Ok `Falsify
    | p -> Error (Printf.sprintf "unknown deadlock policy %S" p)
  in
  let cfg =
    {
      (Path.default_config ~horizon) with
      Path.max_steps = hello.Wire.max_steps;
      max_sim_time = hello.Wire.max_sim_time;
      max_wall_per_path = hello.Wire.max_wall_per_path;
      on_deadlock;
    }
  in
  let runner =
    Campaign.make_runner ~seed:hello.Wire.seed ?hold cfg
      (Slimsim.network model) ~goal ~strategy ~worker:hello.Wire.worker ()
  in
  Ok
    {
      hello;
      chaos;
      runner;
      reader = Wire.reader ();
      leases = Queue.create ();
      last_hb = Unix.gettimeofday ();
      dup_next = false;
    }

let read_hello reader =
  (* block until the handshake frame arrives *)
  let rec go () =
    match Wire.next reader with
    | Error e -> Error ("coordinator stream: " ^ e)
    | Ok (Some j) -> (
      match Wire.directive_of_json j with
      | Ok (Wire.Hello h) -> Ok h
      | Ok _ -> Error "first frame must be the handshake"
      | Error e -> Error e)
    | Ok None -> (
      match wait_readable 30.0 with
      | `Timeout -> Error "no handshake within 30s"
      | `Ready -> (
        let buf = Bytes.create 65536 in
        match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
        | 0 -> Error "coordinator closed the stream before the handshake"
        | n ->
          Wire.feed reader buf n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()))
  in
  go ()

let serve () =
  let reader = Wire.reader () in
  match read_hello reader with
  | Error e -> die_failed e 2
  | Ok hello -> (
    (match
       Chaos.parse hello.Wire.chaos
       |> Result.map (fun chaos ->
              match
                Chaos.fire chaos ~worker:hello.Wire.worker
                  ~attempt:hello.Wire.attempt ~path:(-1)
              with
              | Some (Chaos.Exit code) -> raise (Quit code)
              | Some Chaos.Kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
              | Some Chaos.Stall ->
                while true do
                  Unix.sleepf 3600.0
                done
              | _ -> ())
     with
    | Ok () | Error _ -> ());
    match build_session hello with
    | Error e -> die_failed e 2
    | Ok s ->
      (* the session must reuse the reader that consumed the handshake:
         lease grants may already be buffered behind it *)
      let s = { s with reader } in
      send (Wire.Ready { version = Supervisor.Checkpoint.format_version; pid = Unix.getpid () });
      let rec loop () =
        if Queue.is_empty s.leases then pump ~timeout:s.hello.Wire.heartbeat s
        else begin
          let lease = Queue.pop s.leases in
          run_lease s lease
        end;
        if Queue.is_empty s.leases then
          maybe_heartbeat s ~path:(-1);
        loop ()
      in
      loop ())

let run () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  match serve () with
  | code -> code
  | exception Quit code -> code
  | exception Sys_error _ -> 0 (* coordinator went away mid-write *)
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> 0
  | exception exn -> die_failed (Printexc.to_string exn) 1
