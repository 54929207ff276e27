type move =
  | Local of { proc : int; tr : int }
  | Sync of { event : int; parts : (int * int) list }

type timed = { move : move; window : Slimsim_intervals.Interval_set.t }

let describe (net : Network.t) = function
  | Local { proc; tr } ->
    let p = net.procs.(proc) in
    let t = p.Automaton.transitions.(tr) in
    Fmt.str "%s: %s -> %s%s" p.proc_name
      p.locations.(t.src).loc_name p.locations.(t.dst).loc_name
      (match t.guard with
      | Automaton.Rate r -> Fmt.str " (rate %g)" r
      | Automaton.Guard _ -> "")
  | Sync { event; parts } ->
    Fmt.str "sync %s [%s]" net.events.(event)
      (String.concat "; "
         (List.map
            (fun (p, ti) ->
              let proc = net.procs.(p) in
              let t = proc.Automaton.transitions.(ti) in
              Fmt.str "%s: %s -> %s" proc.proc_name
                proc.locations.(t.src).loc_name proc.locations.(t.dst).loc_name)
            parts))
