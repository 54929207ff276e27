open Slimsim_sta

type ambiguity = {
  observation : (string * string) list;
  positive_witness : string;
  negative_witness : string;
}

type report = {
  diagnosable : bool;
  states_explored : int;
  classes : int;
  ambiguities : ambiguity list;
}

let describe_state (net : Network.t) s =
  Array.to_list net.procs
  |> List.mapi (fun p (proc : Automaton.t) ->
         Printf.sprintf "%s@%s" proc.proc_name
           proc.locations.(s.State.locs.(p)).Automaton.loc_name)
  |> String.concat ", "

let check ?(max_faults = 2) ?(max_expansions = 200_000) (net : Network.t)
    ~observables ~diagnosis =
  let w = Walker.create ~budget:max_expansions net in
  Result.bind (Fdir.resolve_observables net observables) @@ fun obs ->
  Walker.protect @@ fun () ->
  try
    (* Stable states, injecting up to [max_faults] basic events per
       round, newest first within a round; deduplicate on the timeless
       state key *)
    let table = Walker.Table.create () in
    let push s = ignore (Walker.Table.intern table s ~parent:(-1)) in
    List.iter push (Cutsets.stable_states w (State.initial net));
    let round_start = ref 0 in
    for _round = 1 to max_faults do
      let round_end = Walker.Table.length table in
      for i = round_end - 1 downto !round_start do
        let s = Walker.Table.state table i in
        List.iter
          (fun (p, ti, _) ->
            let s' = Walker.successor w s (Moves.Local { proc = p; tr = ti }) in
            List.iter push (Cutsets.stable_states w s'))
          (Walker.markovian w s)
      done;
      round_start := round_end
    done;
    (* group by observation, newest state first *)
    let n = Walker.Table.length table in
    let classes = Hashtbl.create 64 in
    for i = n - 1 downto 0 do
      let s = Walker.Table.state table i in
      let key = List.map (fun (_, v) -> Value.to_string s.State.vals.(v)) obs in
      Hashtbl.replace classes key
        (s :: Option.value ~default:[] (Hashtbl.find_opt classes key))
    done;
    let ambiguities = ref [] in
    Hashtbl.iter
      (fun _key states ->
        match List.partition (fun s -> State.eval_bool s diagnosis) states with
        | p :: _, n :: _ ->
          ambiguities :=
            {
              observation =
                List.map
                  (fun (name, v) ->
                    (name, Value.to_string p.State.vals.(v)))
                  obs;
              positive_witness = describe_state net p;
              negative_witness = describe_state net n;
            }
            :: !ambiguities
        | _ -> ())
      classes;
    Ok
      {
        diagnosable = !ambiguities = [];
        states_explored = n;
        classes = Hashtbl.length classes;
        ambiguities = !ambiguities;
      }
  with Walker.Exhausted _ -> Error "diagnosability expansion budget exhausted"

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s (%d states, %d observation classes)@,"
    (if r.diagnosable then "diagnosable" else "NOT diagnosable")
    r.states_explored r.classes;
  List.iter
    (fun a ->
      Fmt.pf ppf "ambiguous observation {%s}:@,  diagnosis holds:   %s@,  diagnosis fails:   %s@,"
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n v) a.observation))
        a.positive_witness a.negative_witness)
    r.ambiguities;
  Fmt.pf ppf "@]"
