(* Shared test fixtures: loading a network and a goal, one-shot
   campaigns ([Campaign.create] followed by [Campaign.drive]), and the
   same campaign over the reference path generator of [Path_oracle]. *)

module Loader = Slimsim_slim.Loader
module Campaign = Slimsim_sim.Campaign
module Path = Slimsim_sim.Path
module Rng = Slimsim_stats.Rng

let load src =
  match Loader.load_string src with
  | Ok l -> l.Loader.network
  | Error e -> Alcotest.failf "load failed: %s" e

let goal net src =
  match Loader.parse_goal net src with
  | Ok g -> g
  | Error e -> Alcotest.failf "goal failed: %s" e

let run ?workers ?seed ?config ?on_error ?hold ?supervisor ?progress net ~goal
    ~horizon ~strategy ~generator () =
  Result.bind
    (Campaign.create ?workers ?seed ?config ?on_error ?hold ?supervisor
       ?progress net ~goal ~horizon ~strategy ~generator ())
    Campaign.drive

(* The campaign's loop, policies and accumulator, with path [i] drawn
   from the oracle at the RNG of [(seed, i)], as [Campaign.create]'s
   default seed and config do it. *)
let oracle ?(seed = 0x51135113L) ?config ?on_error ?hold ?supervisor net ~goal
    ~horizon ~strategy ~generator () =
  let cfg =
    match config with
    | Some c -> { c with Path.horizon }
    | None -> Path.default_config ~horizon
  in
  let draw camp =
    let path = Campaign.consumed camp in
    let v, _ =
      Path_oracle.generate ?hold net cfg strategy (Rng.for_path ~seed ~path) ~goal
    in
    match Campaign.route camp ~path v with
    | `Sat -> Ok (Campaign.Sat nan)
    | `Unsat -> Ok Campaign.Unsat
    | `Drop -> Ok Campaign.Dropped
    | `Abort e -> Error e
  in
  Result.bind
    (Campaign.create_sequential ~seed ?on_error ?supervisor ~draw
       (Campaign.bernoulli generator))
    Campaign.drive

(* What [Slimsim.start] started, driven as the service drives it:
   [quota] samples per slice, parked between slices. *)
let sliced ?(quota = 7) = function
  | Slimsim.Answered o -> Ok o
  | Slimsim.Sampling (Slimsim.Session (c, map)) ->
    let rec go () =
      match Campaign.step ~quota c with
      | Campaign.Running ->
        Campaign.park c;
        go ()
      | Campaign.Done r -> Ok (map r)
      | Campaign.Failed e -> Error (Path.error_to_string e)
    in
    go ()

(* An outcome with its wall-clock time zeroed, the one field two runs
   of the same campaign may disagree on; compare with [compare], which
   equates NaN cost statistics. *)
let without_wall = function
  | Slimsim.Cost_probability e ->
    Slimsim.Cost_probability { e with Slimsim.wall_seconds = 0.0 }
  | Slimsim.Cost_expected r ->
    Slimsim.Cost_expected
      { r with reach = { r.Slimsim_sim.Cost_run.reach with wall_seconds = 0.0 } }
  | Slimsim.Cost_distribution r ->
    Slimsim.Cost_distribution
      { r with reach = { r.Slimsim_sim.Cost_run.reach with wall_seconds = 0.0 } }
