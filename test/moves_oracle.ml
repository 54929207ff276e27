(* The interpreted step semantics (§II-E) on immutable [State.t] values:
   the reference that [Compiled] and [Walker] are checked against, and
   the engine of [Path_oracle] and [Explorer_oracle]. *)

open Slimsim_sta
open Moves
module I = Slimsim_intervals.Interval_set

(* Current derivative of every variable: clocks tick at 1 and continuous
   variables follow their location's derivative while the owning process
   is active; everything else (and every variable of an inactive
   process) has derivative 0. *)
let rate_array (net : Network.t) (t : State.t) =
  let rates = Array.make (Array.length net.vars) 0.0 in
  Array.iteri
    (fun v (info : Network.var_info) ->
      let active =
        match info.owner with None -> true | Some p -> State.proc_active net t p
      in
      if active then
        match info.kind with
        | Network.Discrete -> ()
        | Network.Clock -> rates.(v) <- 1.0
        | Network.Continuous -> ())
    net.vars;
  (* Location-specific derivative overrides. *)
  Array.iteri
    (fun p (proc : Automaton.t) ->
      if State.proc_active net t p then
        List.iter
          (fun (v, r) -> rates.(v) <- r)
          proc.locations.(t.locs.(p)).derivs)
    net.procs;
  rates

(* Timed transition: let [d] time units pass. *)
let advance net ?rates (t : State.t) d =
  if d = 0.0 then t
  else begin
    let rates = match rates with Some r -> r | None -> rate_array net t in
    let vals = Array.copy t.vals in
    Array.iteri
      (fun v r ->
        if r <> 0.0 then vals.(v) <- Value.Real (Value.as_float vals.(v) +. (r *. d)))
      rates;
    { t with vals; time = t.time +. d }
  end

(* Discrete effects, applied left-to-right. *)
let apply_updates (t : State.t) updates =
  match updates with
  | [] -> t
  | _ ->
    let vals = Array.copy t.vals in
    let tmp = { t with vals } in
    List.iter (fun (v, e) -> vals.(v) <- State.eval tmp e) updates;
    { t with vals }

let set_loc (t : State.t) ~proc ~loc =
  let locs = Array.copy t.locs in
  locs.(proc) <- loc;
  { t with locs }

(* Reset a process to its initial location and its owned variables to
   their initial values (used by [Restart] reactivation). *)
let restart_proc (net : Network.t) (t : State.t) p =
  let locs = Array.copy t.locs in
  locs.(p) <- net.procs.(p).Automaton.initial_loc;
  let vals = Array.copy t.vals in
  List.iter (fun v -> vals.(v) <- net.vars.(v).Network.init) net.meta.(p).owned_vars;
  { t with locs; vals }

let nonneg = I.at_least 0.0

let sat net state rates e =
  ignore net;
  Linear.sat_set ~env:(State.env state) ~rate:(fun v -> rates.(v))
    ~at_loc:(State.at_loc state) e

(* Admissible delays: the connected component at 0 of the intersection
   of all active processes' invariant satisfaction sets (within
   [[0, +inf)]).  Empty iff some invariant is already violated. *)
let invariant_window ?rates (net : Network.t) state =
  let rates = match rates with Some r -> r | None -> rate_array net state in
  let inv_set =
    Array.to_list net.procs
    |> List.mapi (fun p proc -> (p, proc))
    |> List.fold_left
         (fun acc (p, (proc : Automaton.t)) ->
           if State.proc_active net state p then
             I.inter acc (sat net state rates proc.locations.(state.locs.(p)).invariant)
           else acc)
         I.full
  in
  match I.component_at 0.0 (I.inter inv_set nonneg) with
  | None -> I.empty
  | Some iv -> I.make iv.I.lo iv.I.hi

(* Per-process candidates on event [e] from the current location. *)
let event_candidates (net : Network.t) state rates inv_win p e =
  let proc = net.procs.(p) in
  List.filter_map
    (fun ti ->
      let tr = proc.Automaton.transitions.(ti) in
      match tr.label, tr.guard with
      | Automaton.Event e', Automaton.Guard g when e' = e ->
        let w = I.inter inv_win (sat net state rates g) in
        if I.is_empty w then None else Some (ti, w)
      | _ -> None)
    proc.Automaton.outgoing.(state.State.locs.(p))

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

(* All guarded moves with non-empty windows.  Windows account for
   source-side guards and global invariants; the target locations'
   invariants are checked at execution time by [enabled_after]. *)
let discrete ?rates ?inv_win (net : Network.t) state =
  let rates = match rates with Some r -> r | None -> rate_array net state in
  let inv_win =
    match inv_win with Some w -> w | None -> invariant_window ~rates net state
  in
  if I.is_empty inv_win then []
  else begin
    let moves = ref [] in
    (* Local τ moves. *)
    Array.iteri
      (fun p (proc : Automaton.t) ->
        if State.proc_active net state p then
          List.iter
            (fun ti ->
              let tr = proc.transitions.(ti) in
              match tr.label, tr.guard with
              | Automaton.Tau, Automaton.Guard g ->
                let w = I.inter inv_win (sat net state rates g) in
                if not (I.is_empty w) then
                  moves := { move = Local { proc = p; tr = ti }; window = w } :: !moves
              | _ -> ())
            proc.outgoing.(state.State.locs.(p)))
      net.procs;
    (* Multiway synchronizations: every active participant must offer a
       transition; inactive processes do not block (they are detached by
       dynamic reconfiguration). *)
    Array.iteri
      (fun e parts ->
        let active_parts = List.filter (State.proc_active net state) parts in
        if active_parts <> [] then begin
          let per_proc =
            List.map
              (fun p -> (p, event_candidates net state rates inv_win p e))
              active_parts
          in
          if List.for_all (fun (_, cs) -> cs <> []) per_proc then
            let combos =
              cartesian
                (List.map (fun (p, cs) -> List.map (fun c -> (p, c)) cs) per_proc)
            in
            List.iter
              (fun combo ->
                let w =
                  List.fold_left (fun acc (_, (_, wi)) -> I.inter acc wi) inv_win combo
                in
                if not (I.is_empty w) then
                  let parts = List.map (fun (p, (ti, _)) -> (p, ti)) combo in
                  moves := { move = Sync { event = e; parts }; window = w } :: !moves)
              combos
        end)
      net.participants;
    List.rev !moves
  end

(* Rate transitions available now: (process, transition, rate). *)
let markovian (net : Network.t) state =
  let out = ref [] in
  Array.iteri
    (fun p (proc : Automaton.t) ->
      if State.proc_active net state p then
        List.iter
          (fun ti ->
            match proc.transitions.(ti).guard with
            | Automaton.Rate r -> out := (p, ti, r) :: !out
            | Automaton.Guard _ -> ())
          proc.outgoing.(state.State.locs.(p)))
    net.procs;
  List.rev !out

(* All active processes' invariants hold in the state. *)
let invariants_hold (net : Network.t) state =
  let ok = ref true in
  Array.iteri
    (fun p (proc : Automaton.t) ->
      if
        !ok
        && State.proc_active net state p
        && not (State.eval_bool state proc.locations.(state.State.locs.(p)).invariant)
      then ok := false)
    net.procs;
  !ok

(* Execute the move after letting [delay] pass (default 0): advance
   time, apply participant updates left-to-right in participant order,
   switch locations, recompute data flows, and perform reactivation
   restarts for processes whose activation condition became true. *)
let apply (net : Network.t) state ?(delay = 0.0) move =
  let state = advance net state delay in
  let was_active = Array.init (Network.n_procs net) (State.proc_active net state) in
  let parts =
    match move with
    | Local { proc; tr } -> [ (proc, tr) ]
    | Sync { parts; _ } -> parts
  in
  (* Updates first (they read the pre-jump valuation at the fire time),
     then the location switches. *)
  let state =
    List.fold_left
      (fun st (p, ti) ->
        apply_updates st net.procs.(p).Automaton.transitions.(ti).updates)
      state parts
  in
  let state =
    List.fold_left
      (fun st (p, ti) ->
        set_loc st ~proc:p ~loc:net.procs.(p).Automaton.transitions.(ti).dst)
      state parts
  in
  let state = State.apply_flows net state in
  (* Dynamic reconfiguration: restart processes that just became active
     under a Restart policy. *)
  let state = ref state in
  Array.iteri
    (fun p meta ->
      if
        (not was_active.(p))
        && State.proc_active net !state p
        && meta.Network.reactivation = Network.Restart
      then state := restart_proc net !state p)
    net.meta;
  State.apply_flows net !state

(* The moves of [timed] whose window contains the given delay and whose
   execution lands in a state satisfying all invariants. *)
let enabled_after net state d timed_moves =
  List.filter_map
    (fun { move; window } ->
      if I.mem d window && invariants_hold net (apply net state ~delay:d move) then
        Some move
      else None)
    timed_moves
