(* Length-prefixed JSON framing.  The length line makes torn writes
   detectable: a worker SIGKILLed mid-frame leaves fewer bytes than
   announced, which simply never completes a frame; garbage where the
   length should be is an immediate decode error.  Either way the
   coordinator treats the stream as dead — there is no resync. *)

module Json = Slimsim_obs.Json
module Supervisor = Slimsim_sim.Supervisor
module Path = Slimsim_sim.Path

let max_frame = 16 * 1024 * 1024

let write_frame oc json =
  let payload = Json.to_string json in
  Printf.fprintf oc "%d\n%s\n" (String.length payload) payload;
  flush oc

type reader = { buf : Buffer.t; mutable pos : int }

let reader () = { buf = Buffer.create 4096; pos = 0 }

let feed r bytes n = Buffer.add_subbytes r.buf bytes 0 n

(* [pos] is how much of [buf] is already consumed; compact once the
   dead prefix dominates so the buffer cannot grow without bound. *)
let compact r =
  if r.pos > 0 && r.pos >= Buffer.length r.buf / 2 then begin
    let rest = Buffer.sub r.buf r.pos (Buffer.length r.buf - r.pos) in
    Buffer.clear r.buf;
    Buffer.add_string r.buf rest;
    r.pos <- 0
  end

let find_newline r from =
  let n = Buffer.length r.buf in
  let rec go i = if i >= n then None else if Buffer.nth r.buf i = '\n' then Some i else go (i + 1) in
  go from

let next r =
  compact r;
  match find_newline r r.pos with
  | None ->
    if Buffer.length r.buf - r.pos > 32 then Error "corrupt frame: length line too long"
    else Ok None
  | Some nl -> (
    let len_s = Buffer.sub r.buf r.pos (nl - r.pos) in
    match int_of_string_opt (String.trim len_s) with
    | None -> Error (Printf.sprintf "corrupt frame: bad length %S" len_s)
    | Some len when len < 0 || len > max_frame ->
      Error (Printf.sprintf "corrupt frame: length %d out of bounds" len)
    | Some len ->
      (* payload plus its trailing newline *)
      if Buffer.length r.buf - nl - 1 < len + 1 then Ok None
      else begin
        let payload = Buffer.sub r.buf (nl + 1) len in
        let term = Buffer.nth r.buf (nl + 1 + len) in
        r.pos <- nl + 1 + len + 1;
        if term <> '\n' then Error "corrupt frame: missing terminator"
        else
          match Json.parse payload with
          | Ok j -> Ok (Some j)
          | Error e -> Error ("corrupt frame: " ^ e)
      end)

(* --- field helpers --- *)

let str = function Json.String s -> Some s | _ -> None
let num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None
let int_of = function Json.Int i -> Some i | Json.Float f -> Some (int_of_float f) | _ -> None

let field j k = Json.member k j

let req_int j k =
  match Option.bind (field j k) int_of with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let req_str j k =
  match Option.bind (field j k) str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" k)

let req_float j k =
  match Option.bind (field j k) num with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing number field %S" k)

let opt_float j k = Option.bind (field j k) num

let ( let* ) = Result.bind

(* --- hello --- *)

type hello = {
  version : int;
  worker : int;
  attempt : int;
  seed : int64;
  model_source : string;
  property : string;
  strategy : string;
  max_steps : int;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_deadlock : string;
  batch : int;
  heartbeat : float;
  chaos : string;
}

let hello_to_json h =
  Json.Obj
    ([
       ("type", Json.String "hello");
       ("magic", Json.String Supervisor.Checkpoint.magic);
       ("version", Json.Int h.version);
       ("worker", Json.Int h.worker);
       ("attempt", Json.Int h.attempt);
       ("seed", Json.String (Int64.to_string h.seed));
       ("model_source", Json.String h.model_source);
       ("property", Json.String h.property);
       ("strategy", Json.String h.strategy);
       ("max_steps", Json.Int h.max_steps);
       ("on_deadlock", Json.String h.on_deadlock);
       ("batch", Json.Int h.batch);
       ("heartbeat", Json.Float h.heartbeat);
       ("chaos", Json.String h.chaos);
     ]
    @ (match h.max_sim_time with Some t -> [ ("max_sim_time", Json.Float t) ] | None -> [])
    @
    match h.max_wall_per_path with
    | Some t -> [ ("max_wall_per_path", Json.Float t) ]
    | None -> [])

let hello_of_json j =
  let* magic = req_str j "magic" in
  if magic <> Supervisor.Checkpoint.magic then
    Error (Printf.sprintf "handshake magic %S is not %S" magic Supervisor.Checkpoint.magic)
  else
    let* version = req_int j "version" in
    if version <> Supervisor.Checkpoint.format_version then
      Error
        (Printf.sprintf
           "coordinator speaks wire/checkpoint format version %d, this worker \
            speaks version %d"
           version Supervisor.Checkpoint.format_version)
    else
      let* worker = req_int j "worker" in
      let* attempt = req_int j "attempt" in
      let* seed_s = req_str j "seed" in
      let* seed =
        match Int64.of_string_opt seed_s with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "bad seed %S" seed_s)
      in
      let* model_source = req_str j "model_source" in
      let* property = req_str j "property" in
      let* strategy = req_str j "strategy" in
      let* max_steps = req_int j "max_steps" in
      let* on_deadlock = req_str j "on_deadlock" in
      let* batch = req_int j "batch" in
      let* heartbeat = req_float j "heartbeat" in
      let* chaos = req_str j "chaos" in
      Ok
        {
          version;
          worker;
          attempt;
          seed;
          model_source;
          property;
          strategy;
          max_steps;
          max_sim_time = opt_float j "max_sim_time";
          max_wall_per_path = opt_float j "max_wall_per_path";
          on_deadlock;
          batch;
          heartbeat;
          chaos;
        }

(* --- directives --- *)

type directive =
  | Hello of hello
  | Lease of { id : int; lo : int; hi : int }
  | Shutdown

let directive_to_json = function
  | Hello h -> hello_to_json h
  | Lease { id; lo; hi } ->
    Json.Obj
      [
        ("type", Json.String "lease");
        ("id", Json.Int id);
        ("lo", Json.Int lo);
        ("hi", Json.Int hi);
      ]
  | Shutdown -> Json.Obj [ ("type", Json.String "shutdown") ]

let directive_of_json j =
  let* t = req_str j "type" in
  match t with
  | "hello" ->
    let* h = hello_of_json j in
    Ok (Hello h)
  | "lease" ->
    let* id = req_int j "id" in
    let* lo = req_int j "lo" in
    let* hi = req_int j "hi" in
    if lo < 0 || hi < lo then Error "bad lease range" else Ok (Lease { id; lo; hi })
  | "shutdown" -> Ok Shutdown
  | t -> Error (Printf.sprintf "unknown directive %S" t)

(* --- divergence / error transport --- *)

let divergence_to_json = function
  | Path.Step_budget n -> Json.Obj [ ("k", Json.String "steps"); ("v", Json.Int n) ]
  | Path.Time_budget t -> Json.Obj [ ("k", Json.String "time"); ("v", Json.Float t) ]
  | Path.Wall_budget t -> Json.Obj [ ("k", Json.String "wall"); ("v", Json.Float t) ]

let divergence_of_json j =
  let* k = req_str j "k" in
  match k with
  | "steps" ->
    let* n = req_int j "v" in
    Ok (Path.Step_budget n)
  | "time" ->
    let* t = req_float j "v" in
    Ok (Path.Time_budget t)
  | "wall" ->
    let* t = req_float j "v" in
    Ok (Path.Wall_budget t)
  | k -> Error (Printf.sprintf "unknown divergence kind %S" k)

let error_to_json = function
  | Path.Deadlock_error m -> Json.Obj [ ("k", Json.String "deadlock"); ("m", Json.String m) ]
  | Path.Aborted -> Json.Obj [ ("k", Json.String "aborted") ]
  | Path.Model_error m -> Json.Obj [ ("k", Json.String "model"); ("m", Json.String m) ]
  | Path.Worker_crash m -> Json.Obj [ ("k", Json.String "crash"); ("m", Json.String m) ]
  | Path.Diverged_path d -> Json.Obj [ ("k", Json.String "diverged"); ("d", divergence_to_json d) ]

let error_of_json j =
  let* k = req_str j "k" in
  match k with
  | "deadlock" ->
    let* m = req_str j "m" in
    Ok (Path.Deadlock_error m)
  | "aborted" -> Ok Path.Aborted
  | "model" ->
    let* m = req_str j "m" in
    Ok (Path.Model_error m)
  | "crash" ->
    let* m = req_str j "m" in
    Ok (Path.Worker_crash m)
  | "diverged" -> (
    match field j "d" with
    | Some dj ->
      let* d = divergence_of_json dj in
      Ok (Path.Diverged_path d)
    | None -> Error "diverged error without kind")
  | k -> Error (Printf.sprintf "unknown error kind %S" k)

(* --- reports --- *)

type batch = {
  lease : int;
  start : int;
  verdicts : string;
  divs : (int * Path.divergence) list;
  errs : (int * Path.error) list;
}

type report =
  | Ready of { version : int; pid : int }
  | Batch of batch
  | Heartbeat of { path : int }
  | Failed of { msg : string }

let report_to_json = function
  | Ready { version; pid } ->
    Json.Obj
      [ ("type", Json.String "ready"); ("version", Json.Int version); ("pid", Json.Int pid) ]
  | Heartbeat { path } -> Json.Obj [ ("type", Json.String "heartbeat"); ("path", Json.Int path) ]
  | Failed { msg } -> Json.Obj [ ("type", Json.String "failed"); ("msg", Json.String msg) ]
  | Batch b ->
    Json.Obj
      ([
         ("type", Json.String "batch");
         ("lease", Json.Int b.lease);
         ("start", Json.Int b.start);
         ("verdicts", Json.String b.verdicts);
       ]
      @ (if b.divs = [] then []
         else
           [
             ( "divs",
               Json.List
                 (List.map
                    (fun (p, d) -> Json.List [ Json.Int p; divergence_to_json d ])
                    b.divs) );
           ])
      @
      if b.errs = [] then []
      else
        [
          ( "errs",
            Json.List
              (List.map (fun (p, e) -> Json.List [ Json.Int p; error_to_json e ]) b.errs) );
        ])

let pairs_of_json j of_json =
  match j with
  | Json.List items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Json.List [ p; v ] -> (
          match int_of p with
          | Some p ->
            let* v = of_json v in
            Ok ((p, v) :: acc)
          | None -> Error "bad side-table path id")
        | _ -> Error "bad side-table entry")
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "bad side table"

let report_of_json j =
  let* t = req_str j "type" in
  match t with
  | "ready" ->
    let* version = req_int j "version" in
    let* pid = req_int j "pid" in
    Ok (Ready { version; pid })
  | "heartbeat" ->
    let* path = req_int j "path" in
    Ok (Heartbeat { path })
  | "failed" ->
    let* msg = req_str j "msg" in
    Ok (Failed { msg })
  | "batch" ->
    let* lease = req_int j "lease" in
    let* start = req_int j "start" in
    let* verdicts = req_str j "verdicts" in
    let* divs =
      match field j "divs" with None -> Ok [] | Some d -> pairs_of_json d divergence_of_json
    in
    let* errs =
      match field j "errs" with None -> Ok [] | Some e -> pairs_of_json e error_of_json
    in
    if start < 0 then Error "bad batch start"
    else Ok (Batch { lease; start; verdicts; divs; errs })
  | t -> Error (Printf.sprintf "unknown report %S" t)
