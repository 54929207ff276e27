module I = Slimsim_intervals.Interval_set
module Rng = Slimsim_stats.Rng
module Dist = Slimsim_stats.Dist
module Metrics = Slimsim_obs.Metrics
open Slimsim_sta

type divergence =
  | Step_budget of int
  | Time_budget of float
  | Wall_budget of float

type verdict =
  | Sat of float
  | Unsat_horizon
  | Unsat_deadlock
  | Unsat_timelock
  | Unsat_violated of float
      (** for until properties: the hold condition failed before the
          goal was reached *)
  | Diverged of divergence

type error =
  | Deadlock_error of string
  | Aborted
  | Model_error of string
  | Worker_crash of string
  | Diverged_path of divergence

type config = {
  horizon : float;
  max_steps : int;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_deadlock : [ `Error | `Falsify ];
  eps_nudge : float;
}

let default_config ~horizon =
  {
    horizon;
    max_steps = 1_000_000;
    max_sim_time = None;
    max_wall_per_path = None;
    on_deadlock = `Falsify;
    eps_nudge = 1e-9;
  }

type step_record = { at_time : float; chose_delay : float; description : string }

(* Per-worker observability cell: one set of single-writer series per
   worker domain (merged only at exposition time), handed to the path
   generators by the engine.  With [obs = None] — the default, and
   always when metrics are disabled — the generators add one predictable
   branch per firing and one per path, nothing per step; and the
   instrumentation never draws from the RNG or touches simulation state,
   so verdict streams are bit-identical either way. *)
type obs = {
  obs_steps : Metrics.histogram;
  obs_sim_time : Metrics.histogram;
  obs_delay_firings : Metrics.counter;
  obs_markov_firings : Metrics.counter;
  obs_advances : Metrics.counter;
}

let obs_cell ~worker =
  let w = [ ("worker", string_of_int worker) ] in
  {
    obs_steps =
      Metrics.histogram ~labels:w "slimsim_path_steps"
        ~help:"Steps taken per simulated path";
    obs_sim_time =
      Metrics.histogram ~labels:w "slimsim_path_sim_time"
        ~help:"Simulated time reached per path";
    obs_delay_firings =
      Metrics.counter ~labels:(("kind", "delay") :: w) "slimsim_firings_total"
        ~help:"Transition firings by kind (delay = guarded, markov = rate race)";
    obs_markov_firings =
      Metrics.counter ~labels:(("kind", "markov") :: w) "slimsim_firings_total"
        ~help:"Transition firings by kind (delay = guarded, markov = rate race)";
    obs_advances =
      Metrics.counter ~labels:w "slimsim_advances_total"
        ~help:"Pure time advances (missed windows and scripted advances)";
  }

exception Bail of error

exception Bail_verdict of verdict
(* Early exit with a verdict rather than an error — used by the watchdog
   budgets, whose exhaustion is an observation about the path (it
   diverged), not a campaign failure. *)

(* Wall-budget checks are throttled to every 128th step so the syscall
   stays off the hot path; 127 steps of slack is negligible against any
   useful wall budget. *)
let wall_check_mask = 127

(* Resolve an until property along a delay of [cap] time units from
   [state]: the property is satisfied at the earliest goal crossing
   unless the hold condition fails strictly earlier ([hold = true] gives
   plain reachability).  Exact for linear expressions; non-linear ones
   fall back to endpoint evaluation. *)
let until_crossing ?rates net state ~goal ~hold ~eps ~cap =
  if cap < 0.0 then None
  else begin
    let rates =
      match rates with Some r -> r | None -> State.rate_array net state
    in
    let window = I.inter (I.at_least 0.0) (I.at_most cap) in
    let sat_or_endpoint e =
      match
        Linear.sat_set ~env:(State.env state) ~rate:(fun v -> rates.(v))
          ~at_loc:(State.at_loc state) e
      with
      | s -> I.inter s window
      | exception Linear.Nonlinear _ ->
        if State.eval_bool (State.advance net ~rates state cap) e then I.point cap
        else I.empty
    in
    let b_set = sat_or_endpoint goal in
    let v_set =
      if hold = Expr.true_ then I.empty
      else I.diff (I.inter (I.complement (sat_or_endpoint hold)) window) b_set
    in
    let base = state.State.time in
    match I.first_point ~eps b_set, I.first_point ~eps v_set with
    | Some tb, Some tv ->
      if tb <= tv then Some (Sat (base +. tb)) else Some (Unsat_violated (base +. tv))
    | Some tb, None -> Some (Sat (base +. tb))
    | None, Some tv -> Some (Unsat_violated (base +. tv))
    | None, None -> None
  end

(* What fires next, and when. *)
type decision =
  | Fire_disc of float
  | Fire_markov_tr of int * int * float  (* proc, transition, delay *)
  | Advance_only of float
  | Give_up of verdict

(* The weighted variant implements importance sampling by failure
   biasing: every exponential rate is multiplied by [bias] during
   simulation, and the path's likelihood ratio w.r.t. the original
   measure is accumulated so that the weighted indicator remains an
   unbiased estimator.  For a holding time d with original total rate L:
   surviving it contributes e^{(bias-1)·L·d}, and a rate transition
   firing at d additionally contributes 1/bias. *)
let generate_weighted ?(record = false) ?(hold = Expr.true_) ?(bias = 1.0)
    ?bias_of ?obs ?cost net cfg strategy rng ~goal =
  if bias <= 0.0 then invalid_arg "Path.generate_weighted: bias must be positive";
  let factor =
    match bias_of with
    | Some f -> f
    | None -> fun _proc _tr -> bias
  in
  let steps = ref [] in
  let note ~at_time ~chose_delay description =
    if record then steps := { at_time; chose_delay; description } :: !steps
  in
  let note_delay () =
    match obs with Some o -> Metrics.incr o.obs_delay_firings | None -> ()
  in
  let note_markov () =
    match obs with Some o -> Metrics.incr o.obs_markov_firings | None -> ()
  in
  let note_advance () =
    match obs with Some o -> Metrics.incr o.obs_advances | None -> ()
  in
  let eps = cfg.eps_nudge in
  let dead kind msg =
    match cfg.on_deadlock with
    | `Error -> raise (Bail (Deadlock_error msg))
    | `Falsify -> kind
  in
  let log_lr = ref 0.0 in
  (* Budgets are hoisted to plain float compares ([infinity] = no
     budget) so an unarmed watchdog costs one branch per step. *)
  let sim_budget = Option.value cfg.max_sim_time ~default:infinity in
  let wall_budget = Option.value cfg.max_wall_per_path ~default:infinity in
  (* Anchored lazily at the first throttled check so a path that never
     reaches step [wall_check_mask] pays no clock read at all. *)
  let wall_start = ref nan in
  (* [state] and [step_n] live outside the [try] so the per-path
     observations below see them after a bail-out too. *)
  let state = ref (State.initial net) in
  let step_n = ref 0 in
  let result =
    try
      let zero_advances = ref 0 in
      let verdict = ref None in
      while !verdict = None do
        let s = !state in
        (* Budgets are checked before the goal test, so a path that
           exhausts a budget on the very step where it would reach the
           goal is still classified as diverged; the compiled loop uses
           the same order, keeping the verdict streams identical.  The
           wall clock is only read every [wall_check_mask + 1] steps
           (and never on paths shorter than that), keeping the armed
           watchdogs' overhead in the low single digits. *)
        if !step_n > cfg.max_steps then
          raise (Bail_verdict (Diverged (Step_budget !step_n)));
        if s.State.time > sim_budget then
          raise (Bail_verdict (Diverged (Time_budget s.State.time)));
        if
          wall_budget < infinity
          && !step_n land wall_check_mask = wall_check_mask
        then begin
          let now = Unix.gettimeofday () in
          if Float.is_nan !wall_start then wall_start := now
          else begin
            let elapsed = now -. !wall_start in
            if elapsed > wall_budget then
              raise (Bail_verdict (Diverged (Wall_budget elapsed)))
          end
        end;
        incr step_n;
        if State.eval_bool s goal then verdict := Some (Sat s.State.time)
        else if hold <> Expr.true_ && not (State.eval_bool s hold) then
          verdict := Some (Unsat_violated s.State.time)
        else begin
          let remaining = cfg.horizon -. s.State.time in
          if remaining < 0.0 then verdict := Some Unsat_horizon
          else begin
            let step_rates = State.rate_array net s in
            let inv_win = Moves.invariant_window ~rates:step_rates net s in
            if I.is_empty inv_win then
              verdict :=
                Some (dead Unsat_timelock "invariant violated with no escape")
            else begin
              let timed = Moves.discrete ~rates:step_rates ~inv_win net s in
              let markov = Moves.markovian net s in
              let total_rate =
                List.fold_left (fun acc (_, _, r) -> acc +. r) 0.0 markov
              in
              let total_biased =
                List.fold_left
                  (fun acc (pr, tr, r) -> acc +. (r *. factor pr tr))
                  0.0 markov
              in
              let survival d =
                if total_biased <> total_rate then
                  log_lr := !log_lr +. ((total_biased -. total_rate) *. d)
              in
              let race =
                match markov with
                | [] -> None
                | _ ->
                  let rates =
                    Array.of_list
                      (List.map (fun (pr, tr, r) -> r *. factor pr tr) markov)
                  in
                  Dist.exponential_race rng ~rates
              in
              let inv_unbounded = I.sup inv_win = I.Pos_inf in
              let decision =
                match strategy with
                | Strategy.Scripted script ->
                  let alts =
                    {
                      Strategy.step = !step_n;
                      state = s;
                      inv_window = inv_win;
                      timed;
                      markov;
                    }
                  in
                  (match script alts with
                  | Strategy.Abort -> raise (Bail Aborted)
                  | Strategy.Advance d ->
                    if d < 0.0 then
                      raise (Bail (Model_error "script chose a negative delay"));
                    Advance_only d
                  | Strategy.Fire { index; delay } -> (
                    match List.nth_opt timed index with
                    | None ->
                      raise (Bail (Model_error "script chose an invalid move index"))
                    | Some tm ->
                      if not (I.mem delay tm.Moves.window) then
                        raise
                          (Bail
                             (Model_error
                                "script chose a delay outside the move's window"));
                      (* Execute exactly the scripted move. *)
                      let crossed =
                        until_crossing ~rates:step_rates net s ~goal ~hold ~eps
                          ~cap:(Float.min delay remaining)
                      in
                      (match crossed with
                      | Some v -> Give_up v
                      | None ->
                        if delay > remaining then Give_up Unsat_horizon
                        else begin
                          state := Moves.apply net s ~delay tm.Moves.move;
                          note ~at_time:s.State.time ~chose_delay:delay
                            (Moves.describe net tm.Moves.move);
                          note_delay ();
                          Advance_only (-1.0) (* sentinel: already executed *)
                        end))
                  | Strategy.Fire_markov { index; delay } -> (
                    match List.nth_opt markov index with
                    | None ->
                      raise (Bail (Model_error "script chose an invalid rate index"))
                    | Some (p, tr, _) -> Fire_markov_tr (p, tr, delay)))
                | _ ->
                  (* Automated strategies: propose a discrete schedule,
                     race it against the exponential winner. *)
                  let d_disc =
                    match timed with
                    | [] -> None
                    | _ -> (
                      match strategy with
                      | Strategy.Asap ->
                        timed
                        |> List.filter_map (fun tm ->
                               I.first_point ~eps tm.Moves.window)
                        |> List.fold_left Float.min infinity
                        |> fun d -> if d = infinity then None else Some d
                      | Strategy.Progressive ->
                        let w =
                          List.fold_left
                            (fun acc tm -> I.union acc tm.Moves.window)
                            I.empty timed
                        in
                        let w =
                          if I.is_bounded w then w else I.clamp_above remaining w
                        in
                        I.sample_uniform (Rng.below rng) w
                      | Strategy.Local ->
                        let w =
                          if I.is_bounded inv_win then inv_win
                          else I.clamp_above remaining inv_win
                        in
                        I.sample_uniform (Rng.below rng) w
                      | Strategy.Max_time ->
                        if inv_unbounded then Some (remaining +. 1.0)
                        else I.last_point_below ~eps infinity inv_win
                      | Strategy.Scripted _ -> assert false)
                  in
                  let exp_candidate =
                    match race with
                    | Some (idx, t) when I.mem t inv_win ->
                      let p, tr, _ = List.nth markov idx in
                      Some (p, tr, t)
                    | _ -> None
                  in
                  (match d_disc, exp_candidate with
                  | None, None ->
                    if timed = [] && markov = [] then
                      if inv_unbounded then
                        Give_up (dead Unsat_deadlock "no transition will ever be enabled")
                      else
                        Give_up
                          (dead Unsat_timelock
                             "invariant stops time with no enabled transition")
                    else if timed = [] && markov <> [] then
                      (* The exponential was scheduled past the invariant
                         deadline and no guard can save the model. *)
                      if inv_unbounded then Give_up Unsat_horizon
                      else
                        Give_up
                          (dead Unsat_timelock
                             "rate transition scheduled past an invariant deadline")
                    else
                      (* Guarded moves exist but only beyond the horizon. *)
                      Give_up Unsat_horizon
                  | Some d, None -> Fire_disc d
                  | None, Some (p, tr, t) -> Fire_markov_tr (p, tr, t)
                  | Some d, Some (p, tr, t) ->
                    if t < d then Fire_markov_tr (p, tr, t) else Fire_disc d)
              in
              match decision with
              | Give_up v ->
                (* Check whether the goal is crossed while time runs out. *)
                let v =
                  if v = Unsat_horizon then
                    let cap =
                      match I.sup inv_win with
                      | I.Fin (b, _) -> Float.min b remaining
                      | _ -> remaining
                    in
                    match until_crossing ~rates:step_rates net s ~goal ~hold ~eps ~cap with
                    | Some (Sat t as v') ->
                      survival (t -. s.State.time);
                      v'
                    | Some v' -> v'
                    | None -> v
                  else v
                in
                verdict := Some v
              | Advance_only d when d < 0.0 -> () (* scripted move already ran *)
              | Advance_only d -> (
                match
                  until_crossing ~rates:step_rates net s ~goal ~hold ~eps
                    ~cap:(Float.min d remaining)
                with
                | Some v ->
                  (match v with
                  | Sat t -> survival (t -. s.State.time)
                  | _ -> ());
                  verdict := Some v
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    survival d;
                    if d <= 0.0 then begin
                      incr zero_advances;
                      if !zero_advances > 1000 then
                        raise
                          (Bail (Model_error "no progress: repeated zero-time advances"))
                    end
                    else zero_advances := 0;
                    state := State.advance net s d;
                    note ~at_time:s.State.time ~chose_delay:d "advance";
                    note_advance ()
                  end)
              | Fire_markov_tr (p, tr, d) -> (
                match
                  until_crossing ~rates:step_rates net s ~goal ~hold ~eps
                    ~cap:(Float.min d remaining)
                with
                | Some v ->
                  (match v with
                  | Sat t -> survival (t -. s.State.time)
                  | _ -> ());
                  verdict := Some v
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    survival d;
                    let f = factor p tr in
                    if f <> 1.0 then log_lr := !log_lr -. log f;
                    let move = Moves.Local { proc = p; tr } in
                    state := Moves.apply net s ~delay:d move;
                    note ~at_time:s.State.time ~chose_delay:d
                      (Moves.describe net move);
                    note_markov ();
                    zero_advances := 0
                  end)
              | Fire_disc d -> (
                match
                  until_crossing ~rates:step_rates net s ~goal ~hold ~eps
                    ~cap:(Float.min d remaining)
                with
                | Some v ->
                  (match v with
                  | Sat t -> survival (t -. s.State.time)
                  | _ -> ());
                  verdict := Some v
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    survival d;
                    match Moves.enabled_after net s d timed with
                    | [] ->
                      (* The nudged time point missed every window (or the
                         landing state violates a target invariant): let
                         the time pass and try again. *)
                      if d <= 0.0 then begin
                        incr zero_advances;
                        if !zero_advances > 1000 then
                          raise
                            (Bail
                               (Model_error
                                  "no progress: enabled window is degenerate"))
                      end;
                      state := State.advance net s d;
                      note ~at_time:s.State.time ~chose_delay:d "advance (missed)";
                      note_advance ()
                    | moves ->
                      let move = Dist.uniform_choice rng moves in
                      state := Moves.apply net s ~delay:d move;
                      note ~at_time:s.State.time ~chose_delay:d
                        (Moves.describe net move);
                      note_delay ();
                      zero_advances := 0
                  end)
            end
          end
        end
      done;
      Ok (Option.get !verdict, exp !log_lr)
    with
    | Bail e -> Error e
    | Bail_verdict v -> Ok (v, exp !log_lr)
    | Value.Type_error msg -> Error (Model_error ("type error: " ^ msg))
    | Linear.Nonlinear msg -> Error (Model_error ("non-linear dynamics: " ^ msg))
  in
  (* Cost extraction is purely post-verdict: on [Sat t] the loop never
     advanced [state] past the step in which the crossing was found, so
     the cost variable's value at the crossing is its step-start value
     plus rate × (t - step-start time) — the same linear-advance rule
     [State.advance] applies, and [rate_array] is a pure function of the
     step-start state.  No RNG draw, no control-flow change: verdict
     streams with and without [cost] are identical by construction. *)
  (match cost, result with
  | Some (cv, out), Ok (Sat t, _) ->
    let s = !state in
    let rates = State.rate_array net s in
    out := Value.as_float (State.env s cv) +. (rates.(cv) *. (t -. s.State.time))
  | _ -> ());
  (match obs with
  | Some o ->
    Metrics.observe o.obs_steps (float_of_int !step_n);
    Metrics.observe o.obs_sim_time !state.State.time
  | None -> ());
  (result, List.rev !steps)

(* ------------------------------------------------------------------ *)
(* Compiled path generation: the same step loop as [generate_weighted]
   (bias 1, no recording) driven by the staged tables of
   [Slimsim_sta.Compiled] on a mutable per-worker scratch state.  Every
   float operation and every RNG draw happens in the same order as in
   the interpreter, so the verdict stream is bit-identical for a fixed
   seed; [test/test_compiled.ml] enforces this. *)

type compiled_query = { q_goal : Compiled.formula; q_hold : Compiled.formula }

let compile_query ?(hold = Expr.true_) c ~goal =
  {
    q_goal = Compiled.compile_formula c goal;
    q_hold = Compiled.compile_formula c hold;
  }

(* Mirror of [until_crossing] over the scratch state; the endpoint
   fallback for non-linear formulas runs on the trial buffer. *)
let until_crossing_c c s q ~eps ~cap =
  if cap < 0.0 then None
  else begin
    let window = I.inter (I.at_least 0.0) (I.at_most cap) in
    let sat_or_endpoint (f : Compiled.formula) =
      match f.Compiled.f_sat s with
      | set -> I.inter set window
      | exception Linear.Nonlinear _ ->
        if Compiled.eval_bool_after c s ~cap f.Compiled.f_bool then I.point cap
        else I.empty
    in
    let b_set = sat_or_endpoint q.q_goal in
    let v_set =
      if q.q_hold.Compiled.f_trivial then I.empty
      else I.diff (I.inter (I.complement (sat_or_endpoint q.q_hold)) window) b_set
    in
    let base = Compiled.time s in
    match I.first_point ~eps b_set, I.first_point ~eps v_set with
    | Some tb, Some tv ->
      if tb <= tv then Some (Sat (base +. tb)) else Some (Unsat_violated (base +. tv))
    | Some tb, None -> Some (Sat (base +. tb))
    | None, Some tv -> Some (Unsat_violated (base +. tv))
    | None, None -> None
  end

let generate_compiled ?obs ?cost c s q cfg strategy rng =
  match strategy with
  | Strategy.Scripted _ ->
    Error (Model_error "scripted strategies require the interpreted engine")
  | (Strategy.Asap | Strategy.Progressive | Strategy.Local | Strategy.Max_time) as
    strategy -> (
    let eps = cfg.eps_nudge in
    let dead kind msg =
      match cfg.on_deadlock with
      | `Error -> raise (Bail (Deadlock_error msg))
      | `Falsify -> kind
    in
    let sim_budget = Option.value cfg.max_sim_time ~default:infinity in
    let wall_budget = Option.value cfg.max_wall_per_path ~default:infinity in
    let wall_start = ref nan in
    let step_n = ref 0 in
    let u01 = Rng.below rng in
    let result =
    try
      Compiled.reset c s;
      let zero_advances = ref 0 in
      let verdict = ref None in
      while !verdict = None do
        (* Same budget-before-goal order (and the same wall-clock
           throttling) as [generate_weighted]. *)
        if !step_n > cfg.max_steps then
          raise (Bail_verdict (Diverged (Step_budget !step_n)));
        if Compiled.time s > sim_budget then
          raise (Bail_verdict (Diverged (Time_budget (Compiled.time s))));
        if
          wall_budget < infinity
          && !step_n land wall_check_mask = wall_check_mask
        then begin
          let now = Unix.gettimeofday () in
          if Float.is_nan !wall_start then wall_start := now
          else begin
            let elapsed = now -. !wall_start in
            if elapsed > wall_budget then
              raise (Bail_verdict (Diverged (Wall_budget elapsed)))
          end
        end;
        incr step_n;
        if q.q_goal.Compiled.f_bool s then verdict := Some (Sat (Compiled.time s))
        else if
          (not q.q_hold.Compiled.f_trivial) && not (q.q_hold.Compiled.f_bool s)
        then verdict := Some (Unsat_violated (Compiled.time s))
        else begin
          let remaining = cfg.horizon -. Compiled.time s in
          if remaining < 0.0 then verdict := Some Unsat_horizon
          else begin
            Compiled.set_rates c s;
            let inv_win = Compiled.invariant_window c s in
            if I.is_empty inv_win then
              verdict :=
                Some (dead Unsat_timelock "invariant violated with no escape")
            else begin
              let n_timed = Compiled.discrete c s inv_win in
              let n_markov = Compiled.markovian c s in
              let race =
                if n_markov = 0 then None
                else
                  Dist.exponential_race_n rng ~rates:(Compiled.markov_buf s)
                    ~n:n_markov
              in
              let inv_unbounded = I.sup inv_win = I.Pos_inf in
              let d_disc =
                if n_timed = 0 then None
                else
                  match strategy with
                  | Strategy.Asap ->
                    let d = Compiled.moves_first_point s ~eps in
                    if d = infinity then None else Some d
                  | Strategy.Progressive ->
                    Compiled.moves_sample_uniform s ~cap:remaining u01
                  | Strategy.Local ->
                    let w =
                      if I.is_bounded inv_win then inv_win
                      else I.clamp_above remaining inv_win
                    in
                    I.sample_uniform u01 w
                  | Strategy.Max_time ->
                    if inv_unbounded then Some (remaining +. 1.0)
                    else I.last_point_below ~eps infinity inv_win
                  | Strategy.Scripted _ -> assert false
              in
              let exp_candidate =
                match race with
                | Some (idx, t) when I.mem t inv_win ->
                  Some (Compiled.markov_proc s idx, Compiled.markov_tr s idx, t)
                | _ -> None
              in
              let decision =
                match d_disc, exp_candidate with
                | None, None ->
                  if n_timed = 0 && n_markov = 0 then
                    if inv_unbounded then
                      Give_up
                        (dead Unsat_deadlock "no transition will ever be enabled")
                    else
                      Give_up
                        (dead Unsat_timelock
                           "invariant stops time with no enabled transition")
                  else if n_timed = 0 then
                    if inv_unbounded then Give_up Unsat_horizon
                    else
                      Give_up
                        (dead Unsat_timelock
                           "rate transition scheduled past an invariant deadline")
                  else Give_up Unsat_horizon
                | Some d, None -> Fire_disc d
                | None, Some (p, tr, t) -> Fire_markov_tr (p, tr, t)
                | Some d, Some (p, tr, t) ->
                  if t < d then Fire_markov_tr (p, tr, t) else Fire_disc d
              in
              match decision with
              | Give_up v ->
                let v =
                  if v = Unsat_horizon then
                    let cap =
                      match I.sup inv_win with
                      | I.Fin (b, _) -> Float.min b remaining
                      | _ -> remaining
                    in
                    match until_crossing_c c s q ~eps ~cap with
                    | Some v' -> v'
                    | None -> v
                  else v
                in
                verdict := Some v
              | Advance_only _ -> assert false (* scripted only *)
              | Fire_markov_tr (p, tr, d) -> (
                match until_crossing_c c s q ~eps ~cap:(Float.min d remaining) with
                | Some v -> verdict := Some v
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    Compiled.apply c s ~delay:d (Moves.Local { proc = p; tr });
                    (match obs with
                    | Some o -> Metrics.incr o.obs_markov_firings
                    | None -> ());
                    zero_advances := 0
                  end)
              | Fire_disc d -> (
                match until_crossing_c c s q ~eps ~cap:(Float.min d remaining) with
                | Some v -> verdict := Some v
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    match Compiled.enabled_after c s d with
                    | 0 ->
                      if d <= 0.0 then begin
                        incr zero_advances;
                        if !zero_advances > 1000 then
                          raise
                            (Bail
                               (Model_error
                                  "no progress: enabled window is degenerate"))
                      end;
                      Compiled.advance c s d;
                      (match obs with
                      | Some o -> Metrics.incr o.obs_advances
                      | None -> ())
                    | n ->
                      let k = Dist.uniform_index rng n in
                      Compiled.apply_move c s ~delay:d (Compiled.enabled s k);
                      (match obs with
                      | Some o -> Metrics.incr o.obs_delay_firings
                      | None -> ());
                      zero_advances := 0
                  end)
            end
          end
        end
      done;
      Ok (Option.get !verdict)
    with
    | Bail e -> Error e
    | Bail_verdict v -> Ok v
    | Value.Type_error msg -> Error (Model_error ("type error: " ^ msg))
    | Linear.Nonlinear msg -> Error (Model_error ("non-linear dynamics: " ^ msg))
    in
    (* Post-verdict cost extraction, mirroring [generate_weighted]: on
       [Sat t] the scratch still holds the step-start state, and the
       rate vector is current for it whenever t exceeds the step-start
       time (the crossing came from [until_crossing_c], which runs
       after [set_rates]); at t = step-start time the dt factor is 0
       and the possibly stale rate is irrelevant. *)
    (match cost, result with
    | Some (cv, out), Ok (Sat t) ->
      out :=
        Compiled.var_float s cv
        +. (Compiled.rate s cv *. (t -. Compiled.time s))
    | _ -> ());
    (match obs with
    | Some o ->
      Metrics.observe o.obs_steps (float_of_int !step_n);
      Metrics.observe o.obs_sim_time (Compiled.time s)
    | None -> ());
    result)

let generate ?record ?hold ?obs ?cost net cfg strategy rng ~goal =
  let result, steps =
    generate_weighted ?record ?hold ?obs ?cost net cfg strategy rng ~goal
  in
  (Result.map fst result, steps)

let divergence_to_string = function
  | Step_budget n -> Printf.sprintf "step budget exhausted after %d steps" n
  | Time_budget t -> Printf.sprintf "simulated-time budget exhausted at t=%g" t
  | Wall_budget w ->
    Printf.sprintf "wall-clock budget exhausted after %.3gs" w

let verdict_to_string = function
  | Sat t -> Printf.sprintf "sat@%g" t
  | Unsat_horizon -> "unsat (horizon)"
  | Unsat_deadlock -> "unsat (deadlock)"
  | Unsat_timelock -> "unsat (timelock)"
  | Unsat_violated t -> Printf.sprintf "unsat (hold violated@%g)" t
  | Diverged d -> Printf.sprintf "diverged (%s)" (divergence_to_string d)

let error_to_string = function
  | Deadlock_error msg -> "deadlock error: " ^ msg
  | Aborted -> "aborted by script"
  | Model_error msg -> "model error: " ^ msg
  | Worker_crash msg -> "worker crashed: " ^ msg
  | Diverged_path d -> "divergent path: " ^ divergence_to_string d
