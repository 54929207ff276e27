(* Property-directed qualitative pre-pass (the "prove it before you
   sample it" stage of the paper's §II-C pipeline).

   Two sound one-sided tests run before any statistical estimation:

   - P=1: {!Slimsim_ctmc.Qualitative.certain_reachability}, a concrete
     closure over the delay-free fragment — every path from the initial
     state hits the goal after finitely many zero-delay moves, under
     any strategy, so the time-bounded until holds with probability
     exactly 1 at any horizon.

   - P=0: an abstract reachability fixpoint over the discrete skeleton
     implemented here.  Nodes are location vectors; each carries one
     abstract store ({!Absint.t} per variable) joined over all visits
     and widened after repeated growth.  Timing is discarded entirely
     (delays, windows, invariants, rates), every structurally enabled
     transition may fire, and clocks/continuous variables are pinned at
     their domain abstraction — so the skeleton over-approximates the
     discrete support of every run prefix and unreachability of the
     goal transfers to the timed system: no run can ever satisfy the
     goal, hence P = 0. *)

open Slimsim_sta
module I = Slimsim_intervals.Interval_set

type outcome =
  | P0 of { states : int }
  | P1 of { depth : int; witness : string list; states : int }
  | Inconclusive of { reason : string }

type report = { outcome : outcome; wall_seconds : float }

exception Give_up of string

(* ------------------------------------------------------------------ *)
(* Abstract evaluation of translated expressions over a location vector
   and an abstract store.  Mirrors Absint.eval on surface expressions;
   Loc atoms are exact because the skeleton keeps locations concrete.  *)

let abs_of_value = function
  | Value.Bool b -> Absint.abool b (not b)
  | Value.Int n -> Absint.Num (I.point (float_of_int n))
  | Value.Real x -> Absint.Num (I.point x)

let rec aeval (locs : int array) (store : Absint.t array) (e : Expr.t) :
    Absint.t =
  match e with
  | Expr.Const v -> abs_of_value v
  | Expr.Var v -> store.(v)
  | Expr.Loc (p, l) -> Absint.abool (locs.(p) = l) (locs.(p) <> l)
  | Expr.Unop (Expr.Not, e1) -> Absint.not_ (aeval locs store e1)
  | Expr.Unop (Expr.Neg, e1) ->
    Absint.Num (I.neg (Absint.as_num (aeval locs store e1)))
  | Expr.Ite (c, a, b) -> (
    match Absint.as_bool (aeval locs store c) with
    | true, false -> aeval locs store a
    | false, true -> aeval locs store b
    | _ -> Absint.join (aeval locs store a) (aeval locs store b))
  | Expr.Binop (op, e1, e2) -> (
    let v1 = aeval locs store e1 and v2 = aeval locs store e2 in
    match op with
    | Expr.And -> Absint.and_ v1 v2
    | Expr.Or -> Absint.or_ v1 v2
    | Expr.Implies -> Absint.or_ (Absint.not_ v1) v2
    | Expr.Add -> Absint.Num (I.add (Absint.as_num v1) (Absint.as_num v2))
    | Expr.Sub -> Absint.Num (I.sub (Absint.as_num v1) (Absint.as_num v2))
    | Expr.Mul -> Absint.Num (I.mul (Absint.as_num v1) (Absint.as_num v2))
    | Expr.Div | Expr.Mod -> Absint.top_num
    | Expr.Min ->
      Absint.Num (I.pointwise_min (Absint.as_num v1) (Absint.as_num v2))
    | Expr.Max ->
      Absint.Num (I.pointwise_max (Absint.as_num v1) (Absint.as_num v2))
    | Expr.Eq | Expr.Neq -> (
      let can_t, can_f =
        match v1, v2 with
        | Absint.Abool b1, Absint.Abool b2 ->
          Absint.bool_eq (b1.can_t, b1.can_f) (b2.can_t, b2.can_f)
        | Absint.Num a, Absint.Num b -> Absint.num_eq a b
        | _ -> (true, true)
      in
      match op with
      | Expr.Eq -> Absint.abool can_t can_f
      | _ -> Absint.abool can_f can_t)
    | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> (
      let a = Absint.as_num v1 and b = Absint.as_num v2 in
      match op with
      | Expr.Lt -> Absint.abool (Absint.can_lt a b) (Absint.can_le b a)
      | Expr.Le -> Absint.abool (Absint.can_le a b) (Absint.can_lt b a)
      | Expr.Gt -> Absint.abool (Absint.can_lt b a) (Absint.can_le a b)
      | _ -> Absint.abool (Absint.can_le b a) (Absint.can_lt a b)))

let can_be_true v = Absint.can_be_true v

(* ------------------------------------------------------------------ *)
(* Clock pinning.  Clocks are abstracted by [0, +inf) — sound as long
   as no write can make them negative, since elapsing time only grows
   them.  A simple fixpoint marks "dirty" clocks (possibly written a
   negative value, directly or via another dirty clock); dirty clocks
   fall back to the full line.                                          *)

let can_be_negative v =
  match I.inf (Absint.as_num v) with
  | I.Neg_inf -> true
  | I.Fin (x, _) -> x < 0.0
  | I.Pos_inf -> false

let clock_pins (net : Network.t) : Absint.t array option =
  let n = Array.length net.vars in
  let dirty = Array.make n false in
  let pin i =
    match net.vars.(i).kind with
    | Network.Clock -> if dirty.(i) then Absint.top_num else Absint.Num (I.at_least 0.0)
    | Network.Continuous -> Absint.top_num
    | Network.Discrete -> Absint.Any
  in
  (* All writes to clock variables across the network. *)
  let writes =
    let acc = ref [] in
    Array.iter
      (fun (a : Automaton.t) ->
        Array.iter
          (fun (tr : Automaton.transition) ->
            List.iter
              (fun (v, e) ->
                if net.vars.(v).kind = Network.Clock then acc := (v, e) :: !acc)
              tr.updates)
          a.transitions)
      net.procs;
    Array.iter
      (fun (f : Network.flow) ->
        if net.vars.(f.target).kind = Network.Clock then
          acc := (f.target, f.expr) :: !acc)
      net.flows;
    (* negative initial value also dirties the clock *)
    Array.iteri
      (fun i (vi : Network.var_info) ->
        if vi.kind = Network.Clock && can_be_negative (abs_of_value vi.init)
        then dirty.(i) <- true)
      net.vars;
    !acc
  in
  (* Coarse store: every variable at its kind's pin (discrete data at
     top by value shape).  Locations are unknown, so use a dummy vector
     and rely on [aeval] only through variable reads — Loc atoms never
     reach guards of updates in translated models, but stay sound by
     evaluating them as unknown via a store-only evaluator. *)
  let rec coarse_eval store (e : Expr.t) : Absint.t =
    match e with
    | Expr.Loc _ -> Absint.top_bool
    | Expr.Const v -> abs_of_value v
    | Expr.Var v -> store.(v)
    | Expr.Unop (Expr.Not, e1) -> Absint.not_ (coarse_eval store e1)
    | Expr.Unop (Expr.Neg, e1) ->
      Absint.Num (I.neg (Absint.as_num (coarse_eval store e1)))
    | Expr.Ite (_, a, b) ->
      Absint.join (coarse_eval store a) (coarse_eval store b)
    | Expr.Binop (op, e1, e2) -> (
      let v1 = coarse_eval store e1 and v2 = coarse_eval store e2 in
      match op with
      | Expr.Add -> Absint.Num (I.add (Absint.as_num v1) (Absint.as_num v2))
      | Expr.Sub -> Absint.Num (I.sub (Absint.as_num v1) (Absint.as_num v2))
      | Expr.Mul -> Absint.Num (I.mul (Absint.as_num v1) (Absint.as_num v2))
      | Expr.Min ->
        Absint.Num (I.pointwise_min (Absint.as_num v1) (Absint.as_num v2))
      | Expr.Max ->
        Absint.Num (I.pointwise_max (Absint.as_num v1) (Absint.as_num v2))
      | _ -> Absint.Any)
  in
  let coarse_store () =
    Array.mapi
      (fun i (vi : Network.var_info) ->
        match vi.kind with
        | Network.Clock | Network.Continuous -> pin i
        | Network.Discrete -> (
          match vi.init with
          | Value.Bool _ -> Absint.top_bool
          | Value.Int _ | Value.Real _ -> Absint.top_num))
      net.vars
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n + 2 then raise (Give_up "clock dirtiness did not stabilize");
    let store = coarse_store () in
    List.iter
      (fun (v, e) ->
        if (not dirty.(v)) && can_be_negative (coarse_eval store e) then begin
          dirty.(v) <- true;
          changed := true
        end)
      writes
  done;
  Some (Array.init n pin)

(* ------------------------------------------------------------------ *)
(* The skeleton fixpoint.                                               *)

type cell = {
  mutable store : Absint.t array;
  mutable joins : int;
  mutable queued : bool;
}

let store_equal a b =
  let n = Array.length a in
  let rec go i = i >= n || (Absint.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let analyze_p0 ~max_nodes ~widen_after ?hold (net : Network.t) ~goal =
  let n_procs = Array.length net.procs in
  let pins =
    match clock_pins net with
    | Some p -> p
    | None -> raise (Give_up "clock analysis failed")
  in
  let is_pinned v = net.vars.(v).kind <> Network.Discrete in
  let init_store () =
    Array.mapi
      (fun i (vi : Network.var_info) ->
        if is_pinned i then pins.(i) else abs_of_value vi.init)
      net.vars
  in
  let apply_flows locs store =
    Array.iter
      (fun (f : Network.flow) ->
        if not (is_pinned f.target) then
          store.(f.target) <- aeval locs store f.expr)
      net.flows
  in
  (* Activation is decided purely by parent locations, so it is exact in
     the skeleton; a three-valued answer would make sync participation
     ambiguous and we conservatively give up (translated models never
     produce one). *)
  let active locs p =
    match Absint.as_bool (aeval locs [||] net.meta.(p).active_when) with
    | true, false -> true
    | false, true -> false
    | _ -> raise (Give_up "activation condition not determined by locations")
  in
  let table : (int array, cell) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let goal_seen = ref false in
  let reach locs store =
    (* A successor configuration was produced: check the goal, then
       join it into its location cell. *)
    if can_be_true (aeval locs store goal) then begin
      goal_seen := true;
      raise Exit
    end;
    let expand =
      match hold with Some h -> can_be_true (aeval locs store h) | None -> true
    in
    if expand then
      match Hashtbl.find_opt table locs with
      | None ->
        if Hashtbl.length table >= max_nodes then
          raise (Give_up "skeleton node budget exceeded");
        let cell = { store; joins = 0; queued = true } in
        Hashtbl.add table (Array.copy locs) cell;
        Queue.push (Array.copy locs) queue
      | Some cell ->
        let joined = Array.map2 Absint.join cell.store store in
        if not (store_equal joined cell.store) then begin
          cell.joins <- cell.joins + 1;
          let next =
            if cell.joins >= widen_after then
              Array.map2 (fun old v -> Absint.widen ~old v) cell.store joined
            else joined
          in
          cell.store <- next;
          if not cell.queued then begin
            cell.queued <- true;
            Queue.push (Array.copy locs) queue
          end
        end
  in
  let step locs store =
    let was_active = Array.init n_procs (active locs) in
    let fire parts =
      (* updates (pre-jump locations) -> location switch -> flows ->
         reactivation restarts -> flows, mirroring Compiled.apply *)
      let store' = Array.copy store in
      List.iter
        (fun (p, tr_idx) ->
          let tr = net.procs.(p).Automaton.transitions.(tr_idx) in
          List.iter
            (fun (v, e) ->
              if not (is_pinned v) then store'.(v) <- aeval locs store' e)
            tr.updates)
        parts;
      let locs' = Array.copy locs in
      List.iter
        (fun (p, tr_idx) ->
          locs'.(p) <- net.procs.(p).Automaton.transitions.(tr_idx).dst)
        parts;
      apply_flows locs' store';
      for p = 0 to n_procs - 1 do
        if
          (not was_active.(p))
          && active locs' p
          && net.meta.(p).reactivation = Network.Restart
        then begin
          locs'.(p) <- net.procs.(p).Automaton.initial_loc;
          List.iter
            (fun v ->
              if not (is_pinned v) then
                store'.(v) <- abs_of_value net.vars.(v).init)
            net.meta.(p).owned_vars
        end
      done;
      apply_flows locs' store';
      reach locs' store'
    in
    (* local tau and rate moves *)
    for p = 0 to n_procs - 1 do
      if was_active.(p) then
        List.iter
          (fun tr_idx ->
            let tr = net.procs.(p).Automaton.transitions.(tr_idx) in
            match tr.label, tr.guard with
            | Automaton.Tau, Automaton.Rate _ -> fire [ (p, tr_idx) ]
            | Automaton.Tau, Automaton.Guard g ->
              if can_be_true (aeval locs store g) then fire [ (p, tr_idx) ]
            | Automaton.Event _, _ -> ())
          net.procs.(p).Automaton.outgoing.(locs.(p))
    done;
    (* multiway synchronizations *)
    for e = 0 to Array.length net.events - 1 do
      let active_parts =
        List.filter (fun p -> was_active.(p)) (Network.event_participants net e)
      in
      if active_parts <> [] then begin
        let candidates =
          List.map
            (fun p ->
              List.filter_map
                (fun tr_idx ->
                  let tr = net.procs.(p).Automaton.transitions.(tr_idx) in
                  match tr.label, tr.guard with
                  | Automaton.Event e', Automaton.Guard g when e' = e ->
                    if can_be_true (aeval locs store g) then Some (p, tr_idx)
                    else None
                  | _ -> None)
                net.procs.(p).Automaton.outgoing.(locs.(p)))
            active_parts
        in
        if List.for_all (fun c -> c <> []) candidates then begin
          let rec combos acc = function
            | [] -> fire (List.rev acc)
            | cs :: rest -> List.iter (fun c -> combos (c :: acc) rest) cs
          in
          combos [] candidates
        end
      end
    done
  in
  let s0 = State.initial net in
  let locs0 = Array.copy s0.State.locs in
  let store0 = init_store () in
  apply_flows locs0 store0;
  let iterations = ref 0 in
  let result =
    try
      reach locs0 store0;
      while not (Queue.is_empty queue) do
        incr iterations;
        if !iterations > 100 * max_nodes then
          raise (Give_up "skeleton fixpoint did not stabilize");
        let locs = Queue.pop queue in
        match Hashtbl.find_opt table locs with
        | None -> ()
        | Some cell ->
          cell.queued <- false;
          step locs cell.store
      done;
      P0 { states = Hashtbl.length table }
    with
    | Exit -> Inconclusive { reason = "goal abstractly reachable" }
    | Give_up reason -> Inconclusive { reason }
  in
  result

(* ------------------------------------------------------------------ *)

let analyze ?(max_nodes = 20_000) ?(widen_after = 3) ?hold (net : Network.t)
    ~goal : report =
  Slimsim_obs.Phase.run "prepass" (fun () ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        try
          (* P=1 first: the concrete delay-free closure is cheap and
             catches initially-true goals instantly. *)
          match Slimsim_ctmc.Qualitative.certain_reachability ?hold net ~goal with
          | Ok (Slimsim_ctmc.Qualitative.Sure { states; depth; witness }) ->
            P1 { depth; witness; states }
          | Ok (Slimsim_ctmc.Qualitative.Not_sure _) | Error _ ->
            analyze_p0 ~max_nodes ~widen_after ?hold net ~goal
        with
        | Give_up reason -> Inconclusive { reason }
        | Value.Type_error msg ->
          Inconclusive { reason = "type error: " ^ msg }
        | Invalid_argument msg | Failure msg -> Inconclusive { reason = msg }
      in
      { outcome; wall_seconds = Unix.gettimeofday () -. t0 })

let pp_outcome ppf = function
  | P0 { states } ->
    Fmt.pf ppf "P=0 (goal unreachable; %d skeleton nodes)" states
  | P1 { depth; states; _ } ->
    Fmt.pf ppf "P=1 (goal certain within %d delay-free moves; %d states)" depth
      states
  | Inconclusive { reason } -> Fmt.pf ppf "inconclusive (%s)" reason

let certificate_string = function
  | P0 _ -> Some "P0"
  | P1 _ -> Some "P1"
  | Inconclusive _ -> None
