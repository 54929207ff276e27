open Slimsim_sta

type verdict = {
  event : Cutsets.basic_event;
  detected : bool;
  isolated : bool;
  recovered : bool;
  signature : (string * string) list;
  enabled : bool;
}

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
let apply_reset (net : Network.t) w (ev, prefix) =
  let parts = ref [] in
  Array.iteri
    (fun p (proc : Automaton.t) ->
      if in_subtree net prefix p then
        match
          List.find_opt
            (fun ti ->
              proc.transitions.(ti).Automaton.label = Automaton.Event ev)
            proc.outgoing.(Walker.loc w p)
        with
        | Some ti -> parts := (p, ti) :: !parts
        | None -> ())
    net.procs;
  if !parts <> [] then Walker.apply w (Moves.Sync { event = ev; parts = List.rev !parts })

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
    Walker.reset w;
    Walker.witness w ignore;
    if settle_time > 0.0 then Walker.asap w ~horizon:settle_time;
    let base = List.map (fun (_, v) -> Walker.value w v) obs in
    (* the observables that differ from the base in the scratch's state *)
    let deviations () =
      List.concat
        (List.map2
           (fun (name, v) before ->
             let x = Walker.value w v in
             if Value.equal before x then [] else [ (name, Value.to_string x) ])
           obs base)
    in
    let enabled = Cutsets.enabled_at w in
    (* each basic event with its signature and recovery, [None] when it
       is not enabled at the base and so not injected *)
    let raw =
      Cutsets.basic_events net
      |> List.map (fun (e : Cutsets.basic_event) ->
             if not (enabled e) then (e, None)
             else
               Walker.trial w @@ fun () ->
               Walker.apply w (Moves.Local { proc = e.Cutsets.be_proc; tr = e.Cutsets.be_tr });
               Walker.witness w ignore;
               let signature = deviations () in
               let recovered =
                 match reset_event_for net e.Cutsets.be_proc with
                 | None -> false
                 | Some reset ->
                   apply_reset net w reset;
                   Walker.witness w ignore;
                   (* every state here has the base's time: the moves
                      since took no delay *)
                   if settle_time > 0.0 then
                     Walker.asap w ~horizon:(Walker.time w +. settle_time);
                   deviations () = []
               in
               (e, Some (signature, recovered)))
    in
    let verdict = function
      | e, None ->
        { event = e; detected = false; isolated = false; recovered = false; signature = [];
          enabled = false }
      | e, Some (signature, recovered) ->
        let detected = signature <> [] in
        let isolated =
          detected
          && not
               (List.exists
                  (function e', Some (sg', _) -> e' != e && sg' = signature | _ -> false)
                  raw)
        in
        { event = e; detected; isolated; recovered; signature; enabled = true }
    in
    Ok (List.map verdict raw)
  with Walker.Exhausted _ -> Error "FDIR expansion budget exhausted"

let pp_table ppf verdicts =
  Fmt.pf ppf "@[<v>%-44s %-9s %-9s %-10s %s@," "failure mode" "detected"
    "isolated" "recovered" "signature";
  List.iter
    (fun v ->
      let yes_no b = if not v.enabled then "-" else if b then "yes" else "NO" in
      Fmt.pf ppf "%-44s %-9s %-9s %-10s %s@," v.event.Cutsets.be_label (yes_no v.detected)
        (yes_no v.isolated) (yes_no v.recovered)
        (if not v.enabled then "not enabled initially"
         else String.concat ", " (List.map (fun (n, x) -> Printf.sprintf "%s=%s" n x) v.signature)))
    verdicts;
  Fmt.pf ppf "@]"
