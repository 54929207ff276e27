(* Reference path generator: the step loop of §III on the interpreter
   ([State], [Moves_oracle], [Linear]) with immutable states.
   [Path.generate] runs the same loop on the compiled engine; the oracle
   tests require both to draw the same random numbers, reach the same
   verdicts, report the same errors and record the same steps, bit for
   bit.  Failure biasing (§VI) is built in: every exponential rate is
   multiplied by its bias factor, and the path's likelihood ratio w.r.t.
   the unbiased measure is returned next to the verdict. *)

open Slimsim_sta
open Slimsim_sim.Path
module I = Slimsim_intervals.Interval_set
module Rng = Slimsim_stats.Rng
module Dist = Slimsim_stats.Dist
module Strategy = Slimsim_sim.Strategy

exception Bail of error
exception Stop of verdict

(* The first points of the goal's delay set within [0, cap] of [s] and
   of the delays there where the hold fails outside it.  Exact for
   linear expressions; non-linear ones fall back to endpoint
   evaluation. *)
let crossing_points rates net s ~goal ~hold ~eps ~cap =
  let window = I.inter (I.at_least 0.0) (I.at_most cap) in
  let sat e =
    match
      Linear.sat_set ~env:(State.env s) ~rate:(fun v -> rates.(v))
        ~at_loc:(State.at_loc s) e
    with
    | set -> I.inter set window
    | exception Linear.Nonlinear _ ->
      if State.eval_bool (Moves_oracle.advance net ~rates s cap) e then I.point cap
      else I.empty
  in
  let b = sat goal in
  let v =
    if hold = Expr.true_ then I.empty
    else I.diff (I.inter (I.complement (sat hold)) window) b
  in
  (I.first_point ~eps b, I.first_point ~eps v)

(* The earliest goal crossing within [0, cap] of [s], unless the hold
   condition fails strictly earlier. *)
let until_crossing rates net s ~goal ~hold ~eps ~cap =
  if cap < 0.0 then None
  else
    let t0 = s.State.time in
    match crossing_points rates net s ~goal ~hold ~eps ~cap with
    | Some tb, Some tv when tv < tb -> Some (Unsat_violated (t0 +. tv))
    | Some tb, _ -> Some (Sat (t0 +. tb))
    | None, Some tv -> Some (Unsat_violated (t0 +. tv))
    | None, None -> None

(* For a holding time d with original total rate L and biased total L',
   surviving contributes e^{(L'-L)·d} to the likelihood ratio, and a
   rate transition firing additionally contributes 1/factor. *)
let generate_weighted ?(record = false) ?(hold = Expr.true_) ?(bias = 1.0)
    ?bias_of ?cost net cfg strategy rng ~goal =
  let factor = match bias_of with Some f -> f | None -> fun _ _ -> bias in
  let eps = cfg.eps_nudge in
  let dead kind msg =
    match cfg.on_deadlock with
    | `Error -> raise (Bail (Deadlock_error msg))
    | `Falsify -> kind
  in
  let steps = ref [] and log_lr = ref 0.0 and state = ref (State.initial net) in
  let step_n = ref 0 and zero_advances = ref 0 in
  let note s d description =
    if record then
      steps := { at_time = s.State.time; chose_delay = d; description } :: !steps
  in
  let no_progress msg =
    incr zero_advances;
    if !zero_advances > 1000 then raise (Bail (Model_error msg))
  in
  (* Budgets before the goal test.  The wall-clock budget is not
     modelled: its verdicts depend on the machine, not on the seed. *)
  let rec loop () =
    let s = !state in
    if !step_n > cfg.max_steps then raise (Stop (Diverged (Step_budget !step_n)));
    (match cfg.max_sim_time with
    | Some b when s.State.time > b -> raise (Stop (Diverged (Time_budget s.State.time)))
    | _ -> ());
    incr step_n;
    if State.eval_bool s goal then Sat s.State.time
    else if hold <> Expr.true_ && not (State.eval_bool s hold) then
      Unsat_violated s.State.time
    else
      let remaining = cfg.horizon -. s.State.time in
      if remaining < 0.0 then Unsat_horizon
      else
        let rates = Moves_oracle.rate_array net s in
        let inv_win = Moves_oracle.invariant_window ~rates net s in
        if I.is_empty inv_win then
          dead Unsat_timelock "invariant violated with no escape"
        else step s rates inv_win remaining
  and step s rates inv_win remaining =
    let timed = Moves_oracle.discrete ~rates ~inv_win net s in
    let markov = Moves_oracle.markovian net s in
    let total = List.fold_left (fun acc (_, _, r) -> acc +. r) 0.0 markov in
    let biased =
      List.fold_left (fun acc (p, tr, r) -> acc +. (r *. factor p tr)) 0.0 markov
    in
    let survive d =
      if biased <> total then log_lr := !log_lr +. ((biased -. total) *. d)
    in
    let race =
      match markov with
      | [] -> None
      | _ ->
        Dist.exponential_race rng
          ~rates:(Array.of_list (List.map (fun (p, tr, r) -> r *. factor p tr) markov))
    in
    let inv_unbounded = I.sup inv_win = I.Pos_inf in
    let cross d =
      until_crossing rates net s ~goal ~hold ~eps ~cap:(Float.min d remaining)
    in
    (* a crossing ends the path; a goal crossing pays survival up to it *)
    let crossed v =
      (match v with Sat t -> survive (t -. s.State.time) | _ -> ());
      v
    in
    let give_up () =
      let cap =
        match I.sup inv_win with I.Fin (b, _) -> Float.min b remaining | _ -> remaining
      in
      match until_crossing rates net s ~goal ~hold ~eps ~cap with
      | Some v -> crossed v
      | None -> Unsat_horizon
    in
    let advance d =
      match cross d with
      | Some v -> crossed v
      | None when d > remaining -> Unsat_horizon
      | None ->
        survive d;
        if d <= 0.0 then no_progress "no progress: repeated zero-time advances"
        else zero_advances := 0;
        note s d "advance";
        state := Moves_oracle.advance net s d;
        loop ()
    in
    let fire_markov p tr d =
      match cross d with
      | Some v -> crossed v
      | None when d > remaining -> Unsat_horizon
      | None ->
        survive d;
        let f = factor p tr in
        if f <> 1.0 then log_lr := !log_lr -. log f;
        let move = Moves.Local { proc = p; tr } in
        note s d (Moves.describe net move);
        state := Moves_oracle.apply net s ~delay:d move;
        zero_advances := 0;
        loop ()
    in
    let fire_disc d =
      match cross d with
      | Some v -> crossed v
      | None when d > remaining -> Unsat_horizon
      | None -> (
        survive d;
        match Moves_oracle.enabled_after net s d timed with
        | [] ->
          if d <= 0.0 then no_progress "no progress: enabled window is degenerate";
          note s d "advance (missed)";
          state := Moves_oracle.advance net s d;
          loop ()
        | moves ->
          let move = Dist.uniform_choice rng moves in
          note s d (Moves.describe net move);
          state := Moves_oracle.apply net s ~delay:d move;
          zero_advances := 0;
          loop ())
    in
    match strategy with
    | Strategy.Scripted script -> (
      let alts =
        { Strategy.step = !step_n; state = s; inv_window = inv_win; timed; markov }
      in
      match script alts with
      | Strategy.Abort -> raise (Bail Aborted)
      | Strategy.Advance d ->
        if d < 0.0 then raise (Bail (Model_error "script chose a negative delay"));
        advance d
      | Strategy.Fire { index; delay } -> (
        match List.nth_opt timed index with
        | None -> raise (Bail (Model_error "script chose an invalid move index"))
        | Some tm -> (
          if not (I.mem delay tm.Moves.window) then
            raise (Bail (Model_error "script chose a delay outside the move's window"));
          (* exactly the scripted move: no survival weight, no trial *)
          match cross delay with
          | Some v -> v
          | None when delay > remaining -> give_up ()
          | None ->
            note s delay (Moves.describe net tm.Moves.move);
            state := Moves_oracle.apply net s ~delay tm.Moves.move;
            loop ()))
      | Strategy.Fire_markov { index; delay } -> (
        match List.nth_opt markov index with
        | None -> raise (Bail (Model_error "script chose an invalid rate index"))
        | Some (p, tr, _) -> fire_markov p tr delay))
    | Strategy.Asap | Strategy.Progressive | Strategy.Local | Strategy.Max_time -> (
      let d_disc =
        if timed = [] then None
        else
          match strategy with
          | Strategy.Asap ->
            let first acc tm =
              match I.first_point ~eps tm.Moves.window with
              | Some d -> Float.min acc d
              | None -> acc
            in
            let d = List.fold_left first infinity timed in
            if d = infinity then None else Some d
          | Strategy.Progressive ->
            let union acc tm = I.union acc tm.Moves.window in
            let w = List.fold_left union I.empty timed in
            I.sample_uniform (Rng.below rng)
              (if I.is_bounded w then w else I.clamp_above remaining w)
          | Strategy.Local ->
            I.sample_uniform (Rng.below rng)
              (if I.is_bounded inv_win then inv_win else I.clamp_above remaining inv_win)
          | Strategy.Max_time ->
            if inv_unbounded then Some (remaining +. 1.0)
            else I.last_point_below ~eps infinity inv_win
          | Strategy.Scripted _ -> assert false
      in
      let race =
        match race with Some (i, t) when I.mem t inv_win -> Some (i, t) | _ -> None
      in
      match d_disc, race with
      | None, None ->
        if timed = [] && markov = [] then
          if inv_unbounded then dead Unsat_deadlock "no transition will ever be enabled"
          else dead Unsat_timelock "invariant stops time with no enabled transition"
        else if timed = [] && not inv_unbounded then
          dead Unsat_timelock "rate transition scheduled past an invariant deadline"
        else give_up ()
      | Some d, None -> fire_disc d
      | Some d, Some (_, t) when not (t < d) -> fire_disc d
      | _, Some (i, t) ->
        let p, tr, _ = List.nth markov i in
        fire_markov p tr t)
  in
  let result =
    match loop () with
    | v -> Ok (v, exp !log_lr)
    | exception Bail e -> Error e
    | exception Stop v -> Ok (v, exp !log_lr)
    | exception Value.Type_error msg -> Error (Model_error ("type error: " ^ msg))
    | exception Linear.Nonlinear msg ->
      Error (Model_error ("non-linear dynamics: " ^ msg))
  in
  (* The cost at a [Sat t] crossing: the step-start value plus rate × dt. *)
  (match cost, result with
  | Some (cv, out), Ok (Sat t, _) ->
    let s = !state in
    out :=
      Value.as_float (State.env s cv)
      +. ((Moves_oracle.rate_array net s).(cv) *. (t -. s.State.time))
  | _ -> ());
  (result, List.rev !steps)

let generate ?record ?hold ?cost net cfg strategy rng ~goal =
  let result, steps =
    generate_weighted ?record ?hold ?cost net cfg strategy rng ~goal
  in
  (Result.map fst result, steps)

(* The production generator in the oracle's shape: stage [net], run one
   path on a fresh scratch, and return the recorded steps when asked. *)
let compiled ?(record = false) ?hold ?weight ?cost net cfg strategy rng ~goal =
  let c = Compiled.compile net in
  let q = compile_query ?hold c ~goal in
  let steps = ref [] in
  let record = if record then Some steps else None in
  let v =
    Slimsim_sim.Path.generate ?record ?weight ?cost c (Compiled.scratch c) q
      cfg strategy rng
  in
  (v, !steps)

(* The production generator on path 0 of [seed], checked against the
   oracle on the same stream: verdicts, errors and recorded steps must
   be equal. *)
let checked ?(record = false) ?hold net cfg strategy ~seed ~goal =
  let rng () = Rng.for_path ~seed ~path:0 in
  let production = compiled ~record ?hold net cfg strategy (rng ()) ~goal in
  let oracle = generate ~record ?hold net cfg strategy (rng ()) ~goal in
  if compare production oracle <> 0 then
    failwith (Printf.sprintf "seed %Ld: the compiled path differs from the oracle's" seed);
  production

(* [Slimsim_sim.Rare.estimate] on the oracle: the same per-path seeds,
   the same Welford accumulation and the same interval. *)
let rare_estimate ?(seed = 0x0DDBA11L) ?bias_of net ~goal ~horizon ~strategy
    ~bias ~paths ~delta =
  let module Welford = Slimsim_stats.Welford in
  let cfg = default_config ~horizon in
  let w = Welford.create () in
  let hits = ref 0 in
  let rec go i =
    if i >= paths then begin
      let lo, hi = Welford.confidence_interval w ~delta in
      Ok (Welford.mean w, Float.max 0.0 lo, hi, !hits)
    end
    else
      let rng = Rng.for_path ~seed ~path:i in
      match fst (generate_weighted ~bias ?bias_of net cfg strategy rng ~goal) with
      | Ok (Sat _, ratio) ->
        incr hits;
        Welford.add w ratio;
        go (i + 1)
      | Ok (_, _) ->
        Welford.add w 0.0;
        go (i + 1)
      | Error e -> Error e
  in
  go 0
