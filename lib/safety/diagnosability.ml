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

let immediate net s =
  Moves.discrete net s
  |> List.filter_map (fun { Moves.move; window } ->
         if Moves.I.mem 0.0 window then Some move else None)

exception Limit

let closure net budget s =
  let out = ref [] in
  let rec go s on_path =
    decr budget;
    if !budget < 0 then raise Limit;
    match immediate net s with
    | [] -> out := s :: !out
    | moves ->
      if not (List.exists (State.equal_timeless s) on_path) then
        List.iter (fun mv -> go (Moves.apply net s mv) (s :: on_path)) moves
  in
  go s [];
  !out

let describe_state (net : Network.t) s =
  Array.to_list net.procs
  |> List.mapi (fun p (proc : Automaton.t) ->
         Printf.sprintf "%s@%s" proc.proc_name
           proc.locations.(s.State.locs.(p)).Automaton.loc_name)
  |> String.concat ", "

let check ?(max_faults = 2) ?(max_expansions = 200_000) (net : Network.t)
    ~observables ~diagnosis =
  let budget = ref max_expansions in
  let resolve name =
    match Network.find_var net (name ^ "#inj") with
    | Some v -> Ok (name, v)
    | None -> (
      match Network.find_var net name with
      | Some v -> Ok (name, v)
      | None -> Error (Printf.sprintf "unknown observable %s" name))
  in
  let rec resolve_all = function
    | [] -> Ok []
    | n :: rest -> (
      match resolve n with
      | Error e -> Error e
      | Ok x -> ( match resolve_all rest with Ok xs -> Ok (x :: xs) | e -> e))
  in
  match resolve_all observables with
  | Error e -> Error e
  | Ok obs -> (
    try
      (* BFS over stable states, injecting up to [max_faults] basic
         events; deduplicate on the timeless state key *)
      let seen = State.Tbl.create 256 in
      let all_states = ref [] in
      let frontier = ref [] in
      let push s =
        if not (State.Tbl.mem seen s) then begin
          State.Tbl.add seen s ();
          all_states := s :: !all_states;
          frontier := s :: !frontier
        end
      in
      List.iter push (closure net budget (State.initial net));
      for _round = 1 to max_faults do
        let current = !frontier in
        frontier := [];
        List.iter
          (fun s ->
            List.iter
              (fun (p, ti, _) ->
                let s' = Moves.apply net s (Moves.Local { proc = p; tr = ti }) in
                List.iter push (closure net budget s'))
              (Moves.markovian net s))
          current
      done;
      (* group by observation *)
      let classes = Hashtbl.create 64 in
      List.iter
        (fun s ->
          let key =
            List.map (fun (_, v) -> Value.to_string s.State.vals.(v)) obs
          in
          let prev =
            match Hashtbl.find_opt classes key with Some l -> l | None -> []
          in
          Hashtbl.replace classes key (s :: prev))
        !all_states;
      let ambiguities = ref [] in
      Hashtbl.iter
        (fun _key states ->
          let pos = List.filter (fun s -> State.eval_bool s diagnosis) states
          and neg =
            List.filter (fun s -> not (State.eval_bool s diagnosis)) states
          in
          match pos, neg with
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
          states_explored = List.length !all_states;
          classes = Hashtbl.length classes;
          ambiguities = !ambiguities;
        }
    with Limit -> Error "diagnosability expansion budget exhausted")

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
