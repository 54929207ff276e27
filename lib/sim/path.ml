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
  | Refused of string

type config = {
  horizon : float;
  max_steps : int;
  max_sim_time : float option;
  max_wall_per_path : float option;
  on_deadlock : [ `Error | `Falsify ];
  eps_nudge : float;
}

let make_config ?(max_steps = 1_000_000) ?max_sim_time ?max_wall_per_path
    ~on_deadlock ~horizon () =
  { horizon; max_steps; max_sim_time; max_wall_per_path; on_deadlock;
    eps_nudge = 1e-9 }

let default_config ~horizon = make_config ~on_deadlock:`Falsify ~horizon ()

let check_budgets ?max_steps ?max_sim_time ?max_wall_per_path () =
  [ ("--max-steps", Option.map float_of_int max_steps);
    ("--max-sim-time", max_sim_time);
    ("--max-wall-per-path", max_wall_per_path) ]
  |> List.find_map (function
       | flag, Some t when not (t > 0.0) ->
         Some (Printf.sprintf "%s must be positive, got %g" flag t)
       | _ -> None)
  |> Option.fold ~none:(Ok ()) ~some:Result.error

type step_record = { at_time : float; chose_delay : float; description : string }

(* Per-worker observability cell: one set of single-writer series per
   worker domain (merged only at exposition time), handed to the path
   generator by the campaign.  With [obs = None] — the default, and
   always when metrics are disabled — the generator adds one predictable
   branch per firing and one per path, nothing per step; and the
   instrumentation never draws from the RNG or touches simulation state,
   so verdict streams are bit-identical either way. *)
type obs = {
  obs_steps : Metrics.histogram;
  obs_sim_time : Metrics.histogram;
  obs_delay_firings : Metrics.counter;
  obs_markov_firings : Metrics.counter;
  obs_advances : Metrics.counter;
  obs_trial_fires : Metrics.counter;
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
    obs_trial_fires =
      Metrics.counter ~labels:w "slimsim_trial_fires_total"
        ~help:"Moves fired on trial to test a landing state's invariants";
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

type compiled_query = {
  q_goal : Compiled.formula;
  q_hold : Compiled.formula;
  q_static : bool;  (* no delay changes the goal or the hold *)
}

let compile_query ?(hold = Expr.true_) c ~goal =
  let q_goal = Compiled.compile_formula c goal
  and q_hold = Compiled.compile_formula c hold in
  { q_goal; q_hold; q_static = q_goal.f_static && q_hold.f_static }

(* Resolve an until property along a delay of [cap] time units: the
   property is satisfied at the earliest goal crossing unless the hold
   condition fails strictly earlier (a trivial hold gives plain
   reachability).  [pts] is the caller's cell for the two crossing
   points of [Compiled.until_points].  The step calls it only once it
   has found the goal false and the hold true at its start; a static
   query stays so along the delay, and crosses nothing, so the step
   tests [q_static] before it builds the boxed [~cap]. *)
let until_crossing_c c s q ~eps ~cap pts =
  if cap < 0.0 then None
  else begin
    Compiled.until_points c s ~goal:q.q_goal ~hold:q.q_hold ~eps ~cap pts;
    let tb = pts.(0) and tv = pts.(1) in
    (* a negative point stands for none *)
    if tv >= 0.0 && (tb < 0.0 || tv < tb) then
      Some (Unsat_violated (Compiled.time s +. tv))
    else if tb >= 0.0 then Some (Sat (Compiled.time s +. tb))
    else None
  end

(* What fires next, and when. *)
type decision =
  | Fire_disc of float
  | Fire_race  (* the race's winner; its delay is in the race cell *)
  | Fire_markov of int  (* the rate transition a script chose; its delay too *)
  | Fire_scripted of int * float  (* buffered move, delay *)
  | Advance_only of float
  | Give_up of verdict

(* Failure biasing (§VI): every exponential rate is multiplied by
   [factor proc tr] during simulation, and the path's likelihood ratio
   w.r.t. the original measure is accumulated so that the weighted
   indicator remains an unbiased estimator.  For a holding time d with
   original total rate L and biased total L': surviving it contributes
   e^{(L'-L)·d}, and a rate transition firing at d additionally
   contributes 1/factor.  Allocated only for weighted paths, so the
   per-step helpers below cost one branch on [None]. *)
type bias = {
  factor : int -> int -> float;
  mutable log_lr : float;
  mutable total : float;  (** unscaled total rate of this step *)
  mutable biased : float;  (** scaled total rate of this step *)
}

let survive bias d =
  match bias with
  | Some b when b.biased <> b.total ->
    b.log_lr <- b.log_lr +. ((b.biased -. b.total) *. d)
  | _ -> ()

(* Scale the buffered rates in place, summing the unscaled and the
   scaled totals in buffer order. *)
let bias_rates b s n =
  let buf = Compiled.markov_buf s in
  let total = ref 0.0 and biased = ref 0.0 in
  for i = 0 to n - 1 do
    let r = buf.(i) in
    let r' = r *. b.factor (Compiled.markov_proc s i) (Compiled.markov_tr s i) in
    total := !total +. r;
    biased := !biased +. r';
    buf.(i) <- r'
  done;
  b.total <- !total;
  b.biased <- !biased

(* A crossing found during a delay ends the path; a goal crossing still
   pays the survival weight up to it. *)
let crossed bias s v =
  (match v with Sat t -> survive bias (t -. Compiled.time s) | _ -> ());
  v

(* The verdict of a path that gives up for lack of a move before the
   horizon: a goal crossing (or hold violation) before the invariant
   deadline or the horizon, whichever is first, else [Unsat_horizon]. *)
let horizon_verdict c s q ~eps pts bias remaining =
  if q.q_static then Unsat_horizon
  else
    let cap = Float.min (Compiled.inv_sup s) remaining in
    match until_crossing_c c s q ~eps ~cap pts with
    | Some v -> crossed bias s v
    | None -> Unsat_horizon

(* Steps are recorded before they run, stamped with the step-start time;
   descriptions are only built when recording. *)
let note record s d description =
  match record with
  | Some r ->
    r := { at_time = Compiled.time s; chose_delay = d; description } :: !r
  | None -> ()

let note_move record c s d move =
  note record s d (Moves.describe (Compiled.network c) move)

(* [note_move] of the [i]-th buffered move. *)
let note_buffered record c s d i =
  match record with
  | Some _ -> note_move record c s d (Compiled.move c s i)
  | None -> ()

(* [note_move] of the [i]-th buffered rate transition. *)
let note_markov record c s d i =
  match record with
  | Some _ ->
    note_move record c s d
      (Moves.Local { proc = Compiled.markov_proc s i; tr = Compiled.markov_tr s i })
  | None -> ()

let count obs counter =
  match obs with Some o -> Metrics.incr (counter o) | None -> ()

(* The script's view of the step: the interpreter's immutable state and
   lists, built from the scratch only on this (cold) branch.  [markov]
   holds the unscaled rates. *)
let scripted_decision c s script ~step ~n_timed ~markov race_t =
  let alts =
    {
      Strategy.step;
      state = Compiled.to_state c s;
      inv_window = Compiled.inv_window s;
      timed = Compiled.timed_moves c s;
      markov;
    }
  in
  match script alts with
  | Strategy.Abort -> raise (Bail Aborted)
  | Strategy.Advance d ->
    if d < 0.0 then raise (Bail (Model_error "script chose a negative delay"));
    Advance_only d
  | Strategy.Fire { index; delay } ->
    if index < 0 || index >= n_timed then
      raise (Bail (Model_error "script chose an invalid move index"));
    if not (Compiled.window_mem s index delay) then
      raise (Bail (Model_error "script chose a delay outside the move's window"));
    Fire_scripted (index, delay)
  | Strategy.Fire_markov { index; delay } ->
    if index < 0 || index >= List.length markov then
      raise (Bail (Model_error "script chose an invalid rate index"));
    race_t.(0) <- delay;
    Fire_markov index

let generate ?weight ?record ?obs ?cost c s q cfg strategy rng =
  let eps = cfg.eps_nudge in
  let dead kind msg =
    match cfg.on_deadlock with
    | `Error -> raise (Bail (Deadlock_error msg))
    | `Falsify -> kind
  in
  (* Budgets are hoisted to plain float compares ([infinity] = no
     budget) so an unarmed watchdog costs one branch per step. *)
  let sim_budget = Option.value cfg.max_sim_time ~default:infinity in
  let wall_budget = Option.value cfg.max_wall_per_path ~default:infinity in
  (* Anchored lazily at the first throttled check so a path that never
     reaches step [wall_check_mask] pays no clock read at all. *)
  let wall_start = ref nan in
  let step_n = ref 0 in
  let u01 = Rng.below rng in
  let scripted = match strategy with Strategy.Scripted _ -> true | _ -> false in
  let bias =
    match weight with
    | Some (factor, _) -> Some { factor; log_lr = 0.0; total = 0.0; biased = 0.0 }
    | None -> None
  in
  (* unboxed cells: the race's delay, the crossing points, and the
     scratch's own model time *)
  let race_t = [| 0.0 |] and pts = [| 0.0; 0.0 |] and clock = Compiled.time_cell s in
  (* the scratch counts its trials; the path's share is added at its end *)
  let trials = match obs with Some _ -> Compiled.trials s | None -> 0 in
  let result =
    try
      Compiled.reset c s;
      (match record with Some r -> r := [] | None -> ());
      let zero_advances = ref 0 in
      let verdict = ref None in
      while !verdict = None do
        (* Budgets are checked before the goal test, so a path that
           exhausts a budget on the very step where it would reach the
           goal is still classified as diverged.  The wall clock is only
           read every [wall_check_mask + 1] steps (and never on paths
           shorter than that), keeping the armed watchdogs' overhead in
           the low single digits. *)
        if !step_n > cfg.max_steps then
          raise (Bail_verdict (Diverged (Step_budget !step_n)));
        let now = clock.(0) in
        if now > sim_budget then raise (Bail_verdict (Diverged (Time_budget now)));
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
        if q.q_goal.Compiled.f_bool s then verdict := Some (Sat now)
        else if
          (not q.q_hold.Compiled.f_trivial) && not (q.q_hold.Compiled.f_bool s)
        then verdict := Some (Unsat_violated now)
        else begin
          let remaining = cfg.horizon -. now in
          if remaining < 0.0 then verdict := Some Unsat_horizon
          else begin
            Compiled.set_rates c s;
            Compiled.invariant_window c s;
            if Compiled.inv_is_empty s then
              verdict :=
                Some (dead Unsat_timelock "invariant violated with no escape")
            else begin
              let n_timed = Compiled.discrete c s in
              let n_markov = Compiled.markovian c s in
              (* A script sees the unscaled rates, read before biasing;
                 the race is drawn before the script runs. *)
              let markov =
                if scripted then
                  List.init n_markov (fun i ->
                      ( Compiled.markov_proc s i,
                        Compiled.markov_tr s i,
                        (Compiled.markov_buf s).(i) ))
                else []
              in
              (match bias with Some b -> bias_rates b s n_markov | None -> ());
              let race =
                if n_markov = 0 then -1
                else
                  Dist.exponential_race_n rng ~rates:(Compiled.markov_buf s)
                    ~n:n_markov ~delay:race_t
              in
              let inv_unbounded = Compiled.inv_unbounded s in
              let decision =
                match strategy with
                | Strategy.Scripted script ->
                  scripted_decision c s script ~step:!step_n ~n_timed ~markov race_t
                | Strategy.Asap | Strategy.Progressive | Strategy.Local
                | Strategy.Max_time -> (
                  (* Automated strategies: propose a discrete schedule,
                     race it against the exponential winner. *)
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
                        let inv_win = Compiled.inv_window s in
                        let w =
                          if I.is_bounded inv_win then inv_win
                          else I.clamp_above remaining inv_win
                        in
                        I.sample_uniform u01 w
                      | Strategy.Max_time ->
                        if inv_unbounded then Some (remaining +. 1.0)
                        else I.last_point_below ~eps infinity (Compiled.inv_window s)
                      | Strategy.Scripted _ -> assert false
                  in
                  (* an unbounded window is [0, +inf): [inv_mem] is the
                     test below *)
                  let exp_candidate =
                    race >= 0
                    &&
                    if inv_unbounded then race_t.(0) >= 0.0
                    else Compiled.inv_mem s race_t.(0)
                  in
                  match d_disc, exp_candidate with
                  | None, false ->
                    if n_timed = 0 && n_markov = 0 then
                      if inv_unbounded then
                        Give_up
                          (dead Unsat_deadlock "no transition will ever be enabled")
                      else
                        Give_up
                          (dead Unsat_timelock
                             "invariant stops time with no enabled transition")
                    else if n_timed = 0 then
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
                  | Some d, false -> Fire_disc d
                  | None, true -> Fire_race
                  | Some d, true -> if race_t.(0) < d then Fire_race else Fire_disc d)
              in
              match decision with
              | Give_up Unsat_horizon ->
                verdict := Some (horizon_verdict c s q ~eps pts bias remaining)
              | Give_up v -> verdict := Some v
              | Fire_scripted (i, delay) -> (
                (* Exactly the scripted move: no survival weight, no
                   target-invariant trial. *)
                match
                  if q.q_static then None
                  else until_crossing_c c s q ~eps ~cap:(Float.min delay remaining) pts
                with
                | Some v -> verdict := Some v
                | None ->
                  if delay > remaining then
                    verdict := Some (horizon_verdict c s q ~eps pts bias remaining)
                  else begin
                    note_buffered record c s delay i;
                    Compiled.apply_move c s ~delay i;
                    count obs (fun o -> o.obs_delay_firings)
                  end)
              | Advance_only d -> (
                match
                  if q.q_static then None
                  else until_crossing_c c s q ~eps ~cap:(Float.min d remaining) pts
                with
                | Some v -> verdict := Some (crossed bias s v)
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    survive bias d;
                    if d <= 0.0 then begin
                      incr zero_advances;
                      if !zero_advances > 1000 then
                        raise
                          (Bail (Model_error "no progress: repeated zero-time advances"))
                    end
                    else zero_advances := 0;
                    note record s d "advance";
                    Compiled.advance c s d;
                    count obs (fun o -> o.obs_advances)
                  end)
              | (Fire_race | Fire_markov _) as fire -> (
                let i = match fire with Fire_markov i -> i | _ -> race in
                let d = race_t.(0) in
                match
                  if q.q_static then None
                  else until_crossing_c c s q ~eps ~cap:(Float.min d remaining) pts
                with
                | Some v -> verdict := Some (crossed bias s v)
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    let p = Compiled.markov_proc s i and tr = Compiled.markov_tr s i in
                    (match bias with
                    | Some b ->
                      survive bias d;
                      let f = b.factor p tr in
                      if f <> 1.0 then b.log_lr <- b.log_lr -. log f
                    | None -> ());
                    note_markov record c s d i;
                    Compiled.apply_local c s race_t p tr;
                    count obs (fun o -> o.obs_markov_firings);
                    zero_advances := 0
                  end)
              | Fire_disc d -> (
                match
                  if q.q_static then None
                  else until_crossing_c c s q ~eps ~cap:(Float.min d remaining) pts
                with
                | Some v -> verdict := Some (crossed bias s v)
                | None ->
                  if d > remaining then verdict := Some Unsat_horizon
                  else begin
                    survive bias d;
                    match Compiled.enabled_after c s d with
                    | 0 ->
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
                      note record s d "advance (missed)";
                      Compiled.advance c s d;
                      count obs (fun o -> o.obs_advances)
                    | n ->
                      let i = Compiled.enabled s (Dist.uniform_index rng n) in
                      note_buffered record c s d i;
                      Compiled.apply_move c s ~delay:d i;
                      count obs (fun o -> o.obs_delay_firings);
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
  (* Cost extraction is purely post-verdict: on [Sat t] the scratch
     still holds the step-start state, so the cost variable's value at
     the crossing is its step-start value plus rate × (t - step-start
     time), the interpreter's linear-advance rule.  The rate
     vector is current for that state whenever t exceeds the step-start
     time (the crossing came from [until_crossing_c], which runs after
     [set_rates]); at t = step-start time the dt factor is 0 and a
     stale rate is irrelevant.  No RNG draw, no control-flow change:
     verdict streams with and without [cost] are identical. *)
  (match cost, result with
  | Some (cv, out), Ok (Sat t) ->
    out := Compiled.var_float s cv +. (Compiled.rate s cv *. (t -. Compiled.time s))
  | _ -> ());
  (match weight, bias, result with
  | Some (_, ratio), Some b, Ok _ -> ratio := exp b.log_lr
  | _ -> ());
  (match record with Some r -> r := List.rev !r | None -> ());
  (match obs with
  | Some o ->
    Metrics.observe o.obs_steps (float_of_int !step_n);
    Metrics.observe o.obs_sim_time (Compiled.time s);
    Metrics.add o.obs_trial_fires (Compiled.trials s - trials)
  | None -> ());
  result

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
  | Refused msg -> msg
