type report = {
  probability : float;
  stable_states : int;
  transitions : int;
  lumped_states : int;
  explore_seconds : float;
  lump_seconds : float;
  transient_seconds : float;
  transient_steps : int;
  steady_state : bool;
  total_seconds : float;
}

let check ?max_states ?hold ?(lump = true) net ~goal ~horizon =
  let phase = Slimsim_obs.Phase.run in
  Slimsim_sta.Walker.protect @@ fun () ->
  match phase "explore" (fun () -> Explorer.explore ?max_states ?hold net ~goal) with
  | exception Explorer.Not_untimed msg -> Error ("model is not untimed: " ^ msg)
  | exception Explorer.Immediate_cycle msg -> Error msg
  | exception Explorer.Too_many_states n ->
    Error (Printf.sprintf "state space exceeds %d states" n)
  | ctmc, stats ->
    let lumped, lump_seconds =
      if lump then
        let r = phase "lump" (fun () -> Lumping.lump ctmc) in
        (r.Lumping.quotient, r.Lumping.refine_seconds)
      else (ctmc, 0.0)
    in
    let t0 = Unix.gettimeofday () in
    let transient = phase "transient" (fun () -> Transient.reach lumped ~horizon) in
    let transient_seconds = Unix.gettimeofday () -. t0 in
    Ok
      {
        probability = transient.Transient.probability;
        stable_states = stats.Explorer.stable_states;
        transitions = stats.Explorer.transitions;
        lumped_states = lumped.Ctmc.n_states;
        explore_seconds = stats.Explorer.explore_seconds;
        lump_seconds;
        transient_seconds;
        transient_steps = transient.Transient.steps;
        steady_state = transient.Transient.steady_state;
        total_seconds =
          stats.Explorer.explore_seconds +. lump_seconds +. transient_seconds;
      }
