module Json = Slimsim_obs.Json

let protocol_version = 1

type submit = {
  tenant : string;
  model_source : string option;
  model_file : string option;
  model_hash : string option;
  property : string;
  strategy : Slimsim_sim.Strategy.t;
  delta : float;
  eps : float;
  seed : int64;
  generator : Slimsim_stats.Generator.kind;
  workers : int;
  max_steps : int option;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_divergence : [ `Abort | `Unsat | `Drop ];
}

type request =
  | Hello
  | Submit of submit
  | Status of string
  | Wait of string
  | Cancel of string
  | Stats
  | Metrics
  | Shutdown

let submit_defaults =
  {
    tenant = "default";
    model_source = None;
    model_file = None;
    model_hash = None;
    property = "";
    strategy = Slimsim_sim.Strategy.Asap;
    delta = 0.05;
    eps = 0.01;
    seed = 1L;
    generator = Slimsim_stats.Generator.Chernoff;
    workers = 1;
    max_steps = None;
    max_sim_time = None;
    max_wall_per_path = None;
    on_divergence = `Abort;
  }

(* ---- field accessors over Json.Obj, tolerant of Int-vs-Float ---- *)

let str j key = match Json.member key j with Some (Json.String s) -> Some s | _ -> None

let num j key =
  match Json.member key j with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let int_field j key =
  match Json.member key j with Some (Json.Int i) -> Some i | _ -> None

let ( let* ) = Result.bind

let parse_submit j =
  let d = submit_defaults in
  let* strategy =
    match str j "strategy" with
    | None -> Ok d.strategy
    | Some s -> Slimsim_sim.Strategy.of_string s
  in
  let* generator =
    match str j "generator" with
    | None -> Ok d.generator
    | Some s -> Slimsim_stats.Generator.kind_of_string s
  in
  let* on_divergence =
    match str j "on_divergence" with
    | None -> Ok d.on_divergence
    | Some "abort" -> Ok `Abort
    | Some "unsat" -> Ok `Unsat
    | Some "drop" -> Ok `Drop
    | Some s -> Error (Printf.sprintf "unknown on_divergence %S" s)
  in
  let* property =
    match str j "property" with
    | Some p when p <> "" -> Ok p
    | _ -> Error "submit: missing \"property\""
  in
  let model_source = str j "model_source" in
  let model_file = str j "model_file" in
  let model_hash = str j "model_hash" in
  if model_source = None && model_file = None && model_hash = None then
    Error "submit: one of \"model_source\", \"model_file\", \"model_hash\" is required"
  else
    Ok
      (Submit
         {
           tenant = Option.value (str j "tenant") ~default:d.tenant;
           model_source;
           model_file;
           model_hash;
           property;
           strategy;
           delta = Option.value (num j "delta") ~default:d.delta;
           eps = Option.value (num j "eps") ~default:d.eps;
           seed =
             (match int_field j "seed" with
             | Some s -> Int64.of_int s
             | None -> d.seed);
           generator;
           workers = Option.value (int_field j "workers") ~default:d.workers;
           max_steps = int_field j "max_steps";
           max_sim_time = num j "max_sim_time";
           max_wall_per_path = num j "max_wall_per_path";
           on_divergence;
         })

let with_id j k =
  match str j "id" with
  | Some id -> Ok (k id)
  | None -> Error "missing \"id\""

let request_of_line line =
  match Json.parse line with
  | Error e -> Error ("malformed request: " ^ e)
  | Ok j -> (
    match str j "op" with
    | None -> Error "missing \"op\""
    | Some op -> (
      match op with
      | "hello" -> Ok Hello
      | "submit" -> parse_submit j
      | "status" -> with_id j (fun id -> Status id)
      | "wait" -> with_id j (fun id -> Wait id)
      | "cancel" -> with_id j (fun id -> Cancel id)
      | "stats" -> Ok Stats
      | "metrics" -> Ok Metrics
      | "shutdown" -> Ok Shutdown
      | op -> Error (Printf.sprintf "unknown op %S" op)))

let submit_to_json s =
  let opt k f v rest = match v with None -> rest | Some v -> (k, f v) :: rest in
  let base =
    [
      ("op", Json.String "submit");
      ("tenant", Json.String s.tenant);
      ("property", Json.String s.property);
      ("strategy", Json.String (Slimsim_sim.Strategy.to_string s.strategy));
      ("delta", Json.Float s.delta);
      ("eps", Json.Float s.eps);
      ("seed", Json.Int (Int64.to_int s.seed));
      ( "generator",
        Json.String (Slimsim_stats.Generator.kind_to_string s.generator) );
      ("workers", Json.Int s.workers);
      ( "on_divergence",
        Json.String
          (match s.on_divergence with
          | `Abort -> "abort"
          | `Unsat -> "unsat"
          | `Drop -> "drop") );
    ]
  in
  Json.Obj
    (opt "model_source" (fun v -> Json.String v) s.model_source
    @@ opt "model_file" (fun v -> Json.String v) s.model_file
    @@ opt "model_hash" (fun v -> Json.String v) s.model_hash
    @@ opt "max_steps" (fun v -> Json.Int v) s.max_steps
    @@ opt "max_sim_time" (fun v -> Json.Float v) s.max_sim_time
    @@ opt "max_wall_per_path" (fun v -> Json.Float v) s.max_wall_per_path
    @@ base)

let ok_line fields = Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))

let error_line msg =
  Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ])
