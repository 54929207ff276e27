open Slimsim_sta

type verdict = {
  event : Cutsets.basic_event;
  detected : bool;
  isolated : bool;
  recovered : bool;
  signature : (string * string) list;
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

let witness net budget s =
  match closure net budget s with s' :: _ -> s' | [] -> s

(* Deterministic fault-free settling: advance along the ASAP schedule of
   guarded moves (rate transitions suppressed) until quiescence or the
   settle horizon.  This lets timed initialization (e.g. the GPS
   acquisition window) and timed self-repairs complete so that verdicts
   are judged against the operational nominal state. *)
let settle net budget horizon s =
  let eps = 1e-9 in
  let rec go s iterations =
    decr budget;
    if !budget < 0 then raise Limit;
    if iterations > 10_000 || s.State.time >= horizon then s
    else begin
      let timed = Moves.discrete net s in
      let first =
        List.filter_map
          (fun tm -> Moves.I.first_point ~eps tm.Moves.window)
          timed
        |> List.fold_left Float.min infinity
      in
      if first = infinity || s.State.time +. first > horizon then s
      else
        match Moves.enabled_after net s first timed with
        | [] -> State.advance net s (Float.max first eps)
        | mv :: _ -> go (Moves.apply net s ~delay:first mv) (iterations + 1)
    end
  in
  go s 0

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
let apply_reset (net : Network.t) s (ev, prefix) =
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
  else Moves.apply net s (Moves.Sync { event = ev; parts = List.rev !parts })

let analyze ?(max_expansions = 100_000) ?(settle_time = 0.0) (net : Network.t)
    ~observables =
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
      let base =
        let s = witness net budget (State.initial net) in
        if settle_time > 0.0 then settle net budget settle_time s else s
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
                 witness net budget
                   (Moves.apply net base
                      (Moves.Local { proc = e.Cutsets.be_proc; tr = e.Cutsets.be_tr }))
               in
               let signature = signature_of after in
               let recovered =
                 match reset_event_for net e.Cutsets.be_proc with
                 | None -> false
                 | Some reset ->
                   let s' = witness net budget (apply_reset net after reset) in
                   let s' =
                     if settle_time > 0.0 then
                       settle net budget (s'.State.time +. settle_time) s'
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
    with Limit -> Error "FDIR expansion budget exhausted")

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
