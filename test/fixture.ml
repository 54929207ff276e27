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
