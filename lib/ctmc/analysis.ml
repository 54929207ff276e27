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
  peak_words : float;
}

let check ?max_states ?hold ?(lump = true) net ~goal ~horizon =
  Slimsim_sta.Walker.protect @@ fun () ->
  match Explorer.explore ?max_states ?hold net ~goal with
  | exception Explorer.Not_untimed msg -> Error ("model is not untimed: " ^ msg)
  | exception Explorer.Immediate_cycle msg -> Error msg
  | exception Explorer.Too_many_states n ->
    Error (Printf.sprintf "state space exceeds %d states" n)
  | ctmc, stats ->
    let lumped, lump_seconds =
      if lump then
        let r = Lumping.lump ctmc in
        (r.Lumping.quotient, r.Lumping.refine_seconds)
      else (ctmc, 0.0)
    in
    let t0 = Unix.gettimeofday () in
    let transient = Transient.reach lumped ~horizon in
    let transient_seconds = Unix.gettimeofday () -. t0 in
    let gc = Gc.quick_stat () in
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
        peak_words = float_of_int gc.Gc.top_heap_words;
      }

let pp_report ppf r =
  Fmt.pf ppf
    "p = %.6f  (%d states -> %d lumped, %d transitions; explore %.2fs, lump %.2fs, transient %.2fs, %d steps%s)"
    r.probability r.stable_states r.lumped_states r.transitions
    r.explore_seconds r.lump_seconds r.transient_seconds r.transient_steps
    (if r.steady_state then ", steady state" else "")
