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
       state key.  A closure's stable states are numbered last found
       first: [leaves] holds them while the closure runs. *)
    let table = Walker.Table.create net and leaves = Walker.Table.create net in
    let push_closure () =
      Walker.close w ~on_cycle:ignore
        (fun _ found -> Walker.Table.add leaves w ~parent:(-1) :: found)
        []
      |> List.iter (fun j ->
             Walker.Table.load leaves j w;
             ignore (Walker.Table.add table w ~parent:(-1)))
    in
    Walker.reset w;
    push_closure ();
    (* a round that adds no state ends the search *)
    let round = ref 0 and round_start = ref 0 in
    while !round < max_faults && !round_start < Walker.Table.length table do
      incr round;
      let round_end = Walker.Table.length table in
      for i = round_end - 1 downto !round_start do
        Walker.Table.load table i w;
        Walker.fold_rates w (fun _ () -> push_closure ()) ()
      done;
      round_start := round_end
    done;
    (* group by observation, newest state first *)
    let n = Walker.Table.length table in
    let classes = Hashtbl.create 64 in
    for i = n - 1 downto 0 do
      Walker.Table.load table i w;
      let key = List.map (fun (_, v) -> Value.to_string (Walker.value w v)) obs in
      Hashtbl.replace classes key
        (i :: Option.value ~default:[] (Hashtbl.find_opt classes key))
    done;
    let holds = Walker.predicate w diagnosis in
    let diagnosed i =
      Walker.Table.load table i w;
      holds ()
    in
    let ambiguities = ref [] in
    Hashtbl.iter
      (fun _key states ->
        match List.partition diagnosed states with
        | p :: _, n :: _ ->
          let p = Walker.Table.state table p and n = Walker.Table.state table n in
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
