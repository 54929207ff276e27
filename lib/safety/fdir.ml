open Slimsim_sta

type verdict = {
  event : Cutsets.basic_event;
  detected : bool;
  isolated : bool;
  recovered : bool;
  signature : (string * string) list;
}

let witness w s = match Cutsets.stable_states w s with s' :: _ -> s' | [] -> s

(* The host instance path of a process: "a.b#EM" and "a.b" both live in
   the subtree rooted at "a.b". *)
let host_path name =
  match String.index_opt name '#' with
  | Some i -> String.sub name 0 i
  | None -> name

let prefixes path =
  (* "a.b.c" -> ["a.b.c"; "a.b"; "a"] *)
  let parts = String.split_on_char '.' path in
  let rec go = function
    | [] -> []
    | parts ->
      String.concat "." parts
      :: go (List.rev (List.tl (List.rev parts)))
  in
  go parts

(* The model's own recovery action for the subtree hosting [proc]: the
   innermost reset event covering it, if the model has one. *)
let reset_event_for (net : Network.t) proc =
  let host = host_path (Network.proc_name net proc) in
  List.find_map
    (fun prefix ->
      let name = "reset:" ^ prefix in
      let rec find e =
        if e >= Array.length net.events then None
        else if net.events.(e) = name then Some (e, prefix)
        else find (e + 1)
      in
      find 0)
    (prefixes host)

let in_subtree net prefix p =
  let name = Network.proc_name net p in
  name = prefix
  || (String.length name > String.length prefix
     && String.sub name 0 (String.length prefix) = prefix
     && (name.[String.length prefix] = '.' || name.[String.length prefix] = '#'))

(* Fire the reset synchronization restricted to the covered subtree (the
   resetter's own move is hypothetical in this analysis). *)
let apply_reset (net : Network.t) w s (ev, prefix) =
  let parts = ref [] in
  Array.iteri
    (fun p (proc : Automaton.t) ->
      if in_subtree net prefix p then
        match
          List.find_opt
            (fun ti ->
              proc.transitions.(ti).Automaton.label = Automaton.Event ev)
            proc.outgoing.(s.State.locs.(p))
        with
        | Some ti -> parts := (p, ti) :: !parts
        | None -> ())
    net.procs;
  if !parts = [] then s
  else Walker.successor w s (Moves.Sync { event = ev; parts = List.rev !parts })

let resolve_observables (net : Network.t) names =
  let resolve name =
    match (Network.find_var net (name ^ "#inj"), Network.find_var net name) with
    | Some v, _ | None, Some v -> Ok (name, v)
    | None, None -> Error (Printf.sprintf "unknown observable %s" name)
  in
  List.fold_right
    (fun name acc -> Result.bind (resolve name) (fun x -> Result.map (List.cons x) acc))
    names (Ok [])

let analyze ?(max_expansions = 100_000) ?(settle_time = 0.0) (net : Network.t)
    ~observables =
  let w = Walker.create ~budget:max_expansions net in
  Result.bind (resolve_observables net observables) @@ fun obs ->
  Walker.protect @@ fun () ->
  try
    (* Deterministic fault-free settling lets timed initialization
       (e.g. the GPS acquisition window) and timed self-repairs
       complete, so that verdicts are judged against the operational
       nominal state. *)
    let base =
      let s = witness w (State.initial net) in
      if settle_time > 0.0 then Walker.asap w ~horizon:settle_time s else s
    in
    let signature_of s =
      List.filter_map
        (fun (name, v) ->
          if Value.equal base.State.vals.(v) s.State.vals.(v) then None
          else Some (name, Value.to_string s.State.vals.(v)))
        obs
    in
    let raw =
      Cutsets.basic_events net
      |> List.map (fun (e : Cutsets.basic_event) ->
             let after =
               witness w
                 (Walker.successor w base
                    (Moves.Local { proc = e.Cutsets.be_proc; tr = e.Cutsets.be_tr }))
             in
             let signature = signature_of after in
             let recovered =
               match reset_event_for net e.Cutsets.be_proc with
               | None -> false
               | Some reset ->
                 let s' = witness w (apply_reset net w after reset) in
                 let s' =
                   if settle_time > 0.0 then
                     Walker.asap w ~horizon:(s'.State.time +. settle_time) s'
                   else s'
                 in
                 signature_of s' = []
             in
             (e, signature, recovered))
    in
    let verdicts =
      List.map
        (fun (e, signature, recovered) ->
          let detected = signature <> [] in
          let isolated =
            detected
            && not
                 (List.exists
                    (fun (e', sg', _) ->
                      e' != e && sg' = signature)
                    raw)
          in
          { event = e; detected; isolated; recovered; signature })
        raw
    in
    Ok verdicts
  with Walker.Exhausted _ -> Error "FDIR expansion budget exhausted"

let pp_table ppf verdicts =
  Fmt.pf ppf "@[<v>%-44s %-9s %-9s %-10s %s@," "failure mode" "detected"
    "isolated" "recovered" "signature";
  List.iter
    (fun v ->
      Fmt.pf ppf "%-44s %-9s %-9s %-10s %s@," v.event.Cutsets.be_label
        (if v.detected then "yes" else "NO")
        (if v.isolated then "yes" else "NO")
        (if v.recovered then "yes" else "NO")
        (String.concat ", "
           (List.map (fun (n, x) -> Printf.sprintf "%s=%s" n x) v.signature)))
    verdicts;
  Fmt.pf ppf "@]"
