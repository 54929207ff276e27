(* Tests for the baseline CTMC pipeline: the chain representation,
   explicit-state exploration, lumping, and uniformization — validated
   against closed-form Markov chain solutions. *)

module Ctmc = Slimsim_ctmc.Ctmc
module Explorer = Slimsim_ctmc.Explorer
module Lumping = Slimsim_ctmc.Lumping
module Transient = Slimsim_ctmc.Transient
module Analysis = Slimsim_ctmc.Analysis

let load = Fixture.load
let goal = Fixture.goal

(* --- representation --- *)

let test_ctmc_make () =
  let c =
    Ctmc.make ~n_states:3
      ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, 2.0); (0, 1, 3.0); (1, 2, 1.0) ]
      ~goal:[| false; false; true |]
  in
  Alcotest.(check (float 1e-9)) "parallel edges merge" 5.0 (Ctmc.exit_rate c 0);
  Alcotest.(check int) "transition count" 2 (Ctmc.n_transitions c);
  Alcotest.(check (float 1e-9)) "max exit" 5.0 (Ctmc.max_exit_rate c);
  Alcotest.check_raises "bad initial mass"
    (Invalid_argument "Ctmc.make: initial distribution must sum to 1") (fun () ->
      ignore (Ctmc.make ~n_states:1 ~initial:[ (0, 0.5) ] ~transitions:[] ~goal:[| false |]))

(* NaN fails every comparison, so a NaN rate or initial probability
   passed the positivity and mass checks and [Transient.reach] never
   returned; +inf did the same for a rate. *)
let test_non_finite_rejected () =
  let chain ?(p = 1.0) r () =
    ignore
      (Ctmc.make ~n_states:2 ~initial:[ (0, p) ] ~transitions:[ (0, 1, r) ]
         ~goal:[| false; true |])
  in
  Alcotest.check_raises "NaN rate" (Invalid_argument "Ctmc.make: rate must be finite")
    (chain Float.nan);
  Alcotest.check_raises "infinite rate" (Invalid_argument "Ctmc.make: rate must be finite")
    (chain Float.infinity);
  Alcotest.check_raises "NaN initial probability"
    (Invalid_argument "Ctmc.make: initial probability must be finite")
    (chain ~p:Float.nan 1.0);
  Alcotest.check_raises "NaN rate in a row"
    (Invalid_argument "Ctmc.of_rows: rate must be finite") (fun () ->
      ignore
        (Ctmc.of_rows ~initial:[ (0, 1.0) ] ~rows:[| [| (1, Float.nan) |]; [||] |]
           ~goal:[| false; true |]));
  Alcotest.check_raises "unmerged row"
    (Invalid_argument "Ctmc.of_arrays: row not merged") (fun () ->
      ignore
        (Ctmc.of_arrays ~initial:[ (0, 1.0) ] ~targets:[| [| 1; 1 |]; [||] |]
           ~rates:[| Float.Array.of_list [ 1.0; 2.0 ]; Float.Array.create 0 |]
           ~goal:[| false; true |]))

let test_uniformized_rows () =
  let c =
    Ctmc.make ~n_states:2 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, 2.0) ]
      ~goal:[| false; true |]
  in
  let sum (u : Ctmc.uniformized) i =
    let total = ref 0.0 in
    for e = u.Ctmc.first.(i) to u.Ctmc.first.(i + 1) - 1 do
      total := !total +. Float.Array.get u.Ctmc.prob e
    done;
    !total
  in
  let p = Ctmc.uniformized_dtmc c ~q:4.0 ~live:[| true; true |] in
  for i = 0 to 1 do
    Alcotest.(check (float 1e-12)) "row sums to one" 1.0 (sum p i)
  done;
  (* with the goal state not live, its share moves into [into_goal] *)
  let p = Ctmc.uniformized_dtmc c ~q:4.0 ~live:[| true; false |] in
  Alcotest.(check (array int)) "live numbers" [| 0; -1 |] p.Ctmc.index;
  Alcotest.(check (float 0.0)) "self loop" 0.5 (sum p 0);
  Alcotest.(check (float 0.0)) "into goal" 0.5 p.Ctmc.into_goal.(0)

(* --- transient analysis against closed forms --- *)

let test_two_state_exponential () =
  let lambda = 0.3 in
  let c =
    Ctmc.make ~n_states:2 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, lambda) ]
      ~goal:[| false; true |]
  in
  List.iter
    (fun t ->
      let expected = 1.0 -. exp (-.lambda *. t) in
      Alcotest.(check (float 1e-8))
        (Printf.sprintf "1 - e^{-lt} at t=%g" t)
        expected
        (Transient.reach_probability c ~horizon:t))
    [ 0.0; 0.5; 1.0; 5.0; 20.0 ]

let test_erlang_chain () =
  (* a -> b -> c with equal rates: P(reach c by t) = 1 - e^{-lt}(1 + lt) *)
  let lambda = 0.5 in
  let c =
    Ctmc.make ~n_states:3 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, lambda); (1, 2, lambda) ]
      ~goal:[| false; false; true |]
  in
  List.iter
    (fun t ->
      let lt = lambda *. t in
      let expected = 1.0 -. (exp (-.lt) *. (1.0 +. lt)) in
      Alcotest.(check (float 1e-8))
        (Printf.sprintf "erlang-2 at t=%g" t)
        expected
        (Transient.reach_probability c ~horizon:t))
    [ 0.5; 2.0; 10.0 ]

let test_goal_absorbing () =
  (* passing through the goal counts even if the chain then leaves it:
     the analysis makes goal states absorbing *)
  let c =
    Ctmc.make ~n_states:2 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, 1.0); (1, 0, 1000.0) ]
      ~goal:[| false; true |]
  in
  let p = Transient.reach_probability c ~horizon:5.0 in
  Alcotest.(check bool) "visit counted despite fast return" true (p > 0.99)

let test_initial_goal_mass () =
  let c =
    Ctmc.make ~n_states:2
      ~initial:[ (0, 0.25); (1, 0.75) ]
      ~transitions:[] ~goal:[| false; true |]
  in
  Alcotest.(check (float 1e-12)) "horizon 0 returns initial mass" 0.75
    (Transient.reach_probability c ~horizon:0.0);
  Alcotest.(check (float 1e-12)) "absorbing chain stays" 0.75
    (Transient.reach_probability c ~horizon:100.0)

(* log of the Poisson(lambda) pmf at k, evaluated for each k on its own:
   -lambda + k log lambda - log k! directly for small k, otherwise with
   log k! from Stirling's series so that the k log k terms cancel
   analytically instead of in floating point. *)
let log_pmf lambda k =
  let x = float_of_int k in
  if k < 30 then begin
    let log_fact = ref 0.0 in
    for i = 2 to k do
      log_fact := !log_fact +. log (float_of_int i)
    done;
    -.lambda +. (x *. log lambda) -. !log_fact
  end
  else
    (x *. log (lambda /. x)) +. (x -. lambda)
    -. (0.5 *. log (2.0 *. Float.pi *. x))
    -. (1.0 /. (12.0 *. x))
    +. (1.0 /. (360.0 *. x *. x *. x))

let test_poisson_weights () =
  List.iter
    (fun lambda ->
      let name what = Printf.sprintf "%s (lambda = %g)" what lambda in
      let left, w = Transient.poisson_weights ~lambda ~epsilon:1e-10 in
      let total = ref 0.0 and window_mass = ref 0.0 and worst = ref 0.0 in
      let mode = ref 0 in
      Array.iteri
        (fun i x ->
          let pmf = exp (log_pmf lambda (left + i)) in
          total := !total +. x;
          window_mass := !window_mass +. pmf;
          worst := Float.max !worst (Float.abs (x -. pmf));
          if x > w.(!mode) then mode := i)
        w;
      Alcotest.(check (float 1e-9)) (name "weights sum to 1") 1.0 !total;
      Alcotest.(check (float 1e-9)) (name "window holds the mass") 1.0 !window_mass;
      Alcotest.(check (float 1e-9)) (name "weights are the pmf") 0.0 !worst;
      Alcotest.(check bool) (name "mode near lambda") true
        (Float.abs (float_of_int (left + !mode) -. lambda) <= 1.0))
    [ 7.3; 1e3; 1e6; 1e7 ]

(* The loop computes the Poisson window only from [window_floor] on,
   which must never pass the left truncation point. *)
let test_window_floor () =
  List.iter
    (fun epsilon ->
      List.iter
        (fun lambda ->
          let left, _ = Transient.poisson_weights ~lambda ~epsilon in
          let floor = Transient.window_floor ~lambda ~epsilon in
          if floor > float_of_int left then
            Alcotest.failf "lambda %g, epsilon %g: floor %g above the left point %d" lambda
              epsilon floor left;
          if lambda >= 1e4 && floor < 0.9 *. float_of_int left then
            Alcotest.failf "lambda %g, epsilon %g: floor %g far below the left point %d" lambda
              epsilon floor left)
        [ 0.0; 0.5; 7.3; 50.0; 500.0; 1e4; 2.7e5; 2.7e6; 1e7 ])
    [ 1e-12; 5e-11; 1e-6; 0.1 ];
  Alcotest.(check bool) "a horizon of 1e300 is never reached" true
    (Transient.window_floor ~lambda:1.8e300 ~epsilon:5e-11 > 1e299);
  Alcotest.(check bool) "nor an infinite one" true
    (Transient.window_floor ~lambda:Float.infinity ~epsilon:5e-11 = Float.infinity)

(* --- error bound against a naive reference --- *)

(* Plain uniformisation: goal and bad states absorbing, no pre-pass, no
   early stop, each weight from [log_pmf], summed to lambda + 10 sqrt
   lambda + 50 terms. *)
let reference_probability (c : Ctmc.t) ~horizon =
  let n = c.Ctmc.n_states in
  let absorbing s = c.Ctmc.goal.(s) || c.Ctmc.bad.(s) in
  let pi = Array.make n 0.0 in
  Array.iter (fun (s, x) -> pi.(s) <- pi.(s) +. x) c.Ctmc.initial;
  let goal_mass () =
    let acc = ref 0.0 in
    Array.iteri (fun s x -> if c.Ctmc.goal.(s) then acc := !acc +. x) pi;
    !acc
  in
  let q = ref 0.0 in
  for s = 0 to n - 1 do
    if not (absorbing s) then q := Float.max !q (Ctmc.exit_rate c s)
  done;
  if horizon <= 0.0 || !q = 0.0 then goal_mass ()
  else begin
    let q = !q in
    let p = Array.make_matrix n n 0.0 in
    for s = 0 to n - 1 do
      if absorbing s then p.(s).(s) <- 1.0
      else begin
        p.(s).(s) <- 1.0 -. (Ctmc.exit_rate c s /. q);
        Array.iter (fun (t, r) -> p.(s).(t) <- p.(s).(t) +. (r /. q)) (Ctmc.row c s)
      end
    done;
    let lambda = q *. horizon in
    let result = ref 0.0 in
    for k = 0 to int_of_float (lambda +. (10.0 *. sqrt lambda) +. 50.0) do
      if k > 0 then begin
        let next = Array.make n 0.0 in
        for s = 0 to n - 1 do
          for t = 0 to n - 1 do
            next.(t) <- next.(t) +. (pi.(s) *. p.(s).(t))
          done
        done;
        Array.blit next 0 pi 0 n
      end;
      result := !result +. (exp (log_pmf lambda k) *. goal_mass ())
    done;
    !result
  end

(* Random chains of 2..8 states with rates in [0.1, 10]; the last
   [traps] states form a goal-free closed class the others may fall
   into, so some mass can never reach the goal. *)
let gen_chain =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* traps = int_range 0 2 in
    let traps = min traps (n - 1) in
    let first_trap = n - traps in
    let* edges = list_size (return (n * n)) (pair (int_range 0 2) (float_range 0.1 10.0)) in
    let* goal = array_size (return n) (int_range 0 3) in
    let* bad = array_size (return n) (int_range 0 4) in
    let* i0 = int_range 0 (n - 1) and* i1 = int_range 0 (n - 1) in
    let transitions =
      List.concat
        (List.mapi
           (fun e (keep, rate) ->
             let s = e / n and t = e mod n in
             if keep = 0 && s <> t && (s < first_trap || t >= first_trap) then
               [ (s, t, rate) ]
             else [])
           edges)
    in
    let goal = Array.mapi (fun s g -> g = 0 && s < first_trap) goal in
    let bad = Array.mapi (fun s b -> b = 0 && s < first_trap) bad in
    let initial = if i0 = i1 then [ (i0, 1.0) ] else [ (i0, 0.5); (i1, 0.5) ] in
    return
      (Ctmc.with_bad (Ctmc.make ~n_states:n ~initial ~transitions ~goal) bad))

let print_chain (c : Ctmc.t) =
  let flags a = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a)) in
  Printf.sprintf "n=%d goal=%s bad=%s init=[%s] edges=[%s]" c.Ctmc.n_states
    (flags c.Ctmc.goal) (flags c.Ctmc.bad)
    (String.concat "; "
       (Array.to_list (Array.map (fun (s, x) -> Printf.sprintf "%d:%g" s x) c.Ctmc.initial)))
    (String.concat "; "
       (List.concat
          (List.init c.Ctmc.n_states (fun s ->
               Array.to_list
                 (Array.map (fun (t, r) -> Printf.sprintf "%d->%d %.3g" s t r) (Ctmc.row c s))))))

let test_error_bound =
  let precision = 1e-10 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"transient within 2 precision of the reference"
       ~print:print_chain gen_chain (fun c ->
         List.for_all
           (fun horizon ->
             let p = Transient.reach_probability ~precision c ~horizon in
             let expected = reference_probability c ~horizon in
             if p < 0.0 || p > 1.0 || Float.abs (p -. expected) > 2.0 *. precision then
               QCheck2.Test.fail_reportf "horizon %g: p = %.17g, reference %.17g" horizon p
                 expected
             else true)
           [ 0.1; 1.0; 10.0; 100.0; 1000.0 ]))

let test_slow_leak () =
  (* two live states swapping at rate 1, one leaking to the goal at rate
     eps: lambda = q t = 1e7 and most mass is still live at the horizon,
     so the loop runs to the right truncation point on the full Poisson
     window.  Closed form from the 2x2 generator's eigenvalues. *)
  let eps = 1e-7 and t = 1e7 in
  let c =
    Ctmc.make ~n_states:3 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, 1.0); (1, 0, 1.0); (0, 2, eps) ]
      ~goal:[| false; false; true |]
  in
  let l2 = (-.(2.0 +. eps) -. sqrt (((2.0 +. eps) ** 2.0) -. (4.0 *. eps))) /. 2.0 in
  let l1 = eps /. l2 in
  let survive =
    ((exp (l1 *. t) *. (-.eps -. l2)) -. (exp (l2 *. t) *. (-.eps -. l1))) /. (l1 -. l2)
  in
  let r = Transient.reach c ~horizon:t in
  Alcotest.(check bool) "no early stop" false r.Transient.steady_state;
  Alcotest.(check (float 1e-9)) "closed form at lambda 1e7" (1.0 -. survive)
    r.Transient.probability

let test_long_horizon_queue () =
  (* lambda = q t = 9e6, yet the mass is decided after ~85k steps *)
  let capacity = 20 in
  let net = load (Slimsim_models.Queue_model.source ~arrival:0.8 ~service:1.0 ~capacity) in
  let g = goal net (Slimsim_models.Queue_model.goal_full ~capacity) in
  match Analysis.check net ~goal:g ~horizon:5e6 with
  | Ok r ->
    Alcotest.(check (float 1e-9)) "the queue fills with certainty" 1.0 r.Analysis.probability;
    Alcotest.(check bool) "steady state detected" true r.Analysis.steady_state;
    Alcotest.(check bool)
      (Printf.sprintf "fewer than 2e5 steps (ran %d)" r.Analysis.transient_steps)
      true
      (r.Analysis.transient_steps < 200_000)
  | Error e -> Alcotest.fail e

(* --- explorer --- *)

let test_explorer_two_state () =
  let net = load {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 0.3 then v := true]-> b;
end D.I;
root D.I;
|} in
  let g = goal net "v" in
  let ctmc, stats = Explorer.explore net ~goal:g in
  Alcotest.(check int) "two stable states" 2 stats.Explorer.stable_states;
  Alcotest.(check int) "one transition" 1 stats.Explorer.transitions;
  Alcotest.(check (float 1e-8)) "matches closed form"
    (1.0 -. exp (-0.3 *. 4.0))
    (Transient.reach_probability ctmc ~horizon:4.0)

(* a rate transition into a vanishing state with two immediate exits *)
let hub_trap_model = {|
device D
features
  v: out data port int := 0;
end D;
device implementation D.I
modes
  a: initial mode;
  hub: mode;
  l: mode;
  r: mode;
transitions
  a -[rate 1.0]-> hub;
  hub -[then v := 1]-> l;
  hub -[then v := 2]-> r;
end D.I;
root D.I;
|}

let test_explorer_immediate_elimination () =
  (* the closure splits the mass equally (the simulator's rule) *)
  let net = load hub_trap_model in
  let g = goal net "v = 1" in
  let ctmc, stats = Explorer.explore net ~goal:g in
  (* hub is vanishing: only a, l, r remain *)
  Alcotest.(check int) "vanishing state eliminated" 3 stats.Explorer.stable_states;
  Alcotest.(check bool) "closure visited the hub" true (stats.Explorer.vanishing_visits > 0);
  let p = Transient.reach_probability ctmc ~horizon:1000.0 in
  Alcotest.(check (float 1e-6)) "half the mass goes left" 0.5 p;
  (* r is a goal-free trap: the pre-pass absorbs it, so the mass is
     decided after one step even at a horizon of 1e6 *)
  let long = Transient.reach ctmc ~horizon:1e6 in
  Alcotest.(check (float 1e-9)) "trap chain at 1e6" 0.5 long.Transient.probability;
  Alcotest.(check bool) "trap mass decided" true long.Transient.steady_state;
  Alcotest.(check bool) "a handful of steps" true (long.Transient.steps <= 2)

let test_explorer_rejects_timed () =
  let net = load Slimsim_models.Gps.nominal_only in
  let g = goal net "measurement" in
  match Explorer.explore net ~goal:g with
  | exception Explorer.Not_untimed _ -> ()
  | _ -> Alcotest.fail "timed models must be rejected"

let immediate_cycle_model = {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[]-> b;
  b -[]-> a;
end D.I;
root D.I;
|}

let test_explorer_immediate_cycle () =
  let net = load immediate_cycle_model in
  let g = goal net "v" in
  match Explorer.explore net ~goal:g with
  | exception Explorer.Immediate_cycle _ -> ()
  | _ -> Alcotest.fail "immediate cycles must be detected"

let test_explorer_state_cap () =
  let net = load (Slimsim_models.Sensor_filter.source ~n:3) in
  let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n:3) in
  match Explorer.explore ~max_states:10 net ~goal:g with
  | exception Explorer.Too_many_states _ -> ()
  | _ -> Alcotest.fail "the state cap must be enforced"

(* --- the production explorer against the interpreter oracle --- *)

(* An immediate closure that branches at depths 1, 5 and 6 of the walk
   from v0, where the moves to t1 and t2 leave x as the branch point
   had it (restores must return to the right snapshot, values
   included), with a self loop on v2 that counts x up to 2 (states with
   equal locations that differ in a value, told apart through the
   journal).  With [loop],
   v4 moves back to v2 with x = 2, a vanishing state four levels below
   the top of the branch: the cycle check must find it there. *)
let deep_closure_model ~loop =
  Printf.sprintf
    {|
device D
features
  x: out data port int := 0;
  loop: out data port bool := %b;
end D;
device implementation D.I
modes
  s: initial mode;
  v0: mode;
  v1: mode;
  v2: mode;
  v3: mode;
  v4: mode;
  t1: mode;
  t2: mode;
  t3: mode;
  t4: mode;
transitions
  s -[rate 1.0]-> v0;
  v0 -[then x := 0]-> v1;
  v1 -[]-> v2;
  v1 -[]-> t1;
  v2 -[when x < 2 then x := x + 1]-> v2;
  v2 -[when x = 2]-> v3;
  v3 -[]-> v4;
  v3 -[]-> t2;
  v4 -[when loop]-> v2;
  v4 -[then x := 3]-> t3;
  v4 -[then x := 4]-> t4;
  t1 -[rate 2.0]-> s;
  t2 -[rate 0.5]-> s;
  t3 -[rate 1.5]-> s;
  t4 -[rate 3.0 then x := 0]-> s;
end D.I;
root D.I;
|}
    loop

(* An immediate closure that reaches t by three paths, with weights
   1/3, 1/9 and 1/6 in the order the walk finds them.  Summed last
   found first, 1/3 + (1/9 + 1/6), they round differently from
   1/6 + (1/9 + 1/3), so the chain's bits show the order. *)
let fan_in_model =
  {|
device F
features
  x: out data port int := 0;
end F;
device implementation F.I
modes
  s: initial mode;
  v0: mode;
  v1: mode;
  v2: mode;
  t: mode;
  u: mode;
transitions
  s -[rate 1.0]-> v0;
  v0 -[]-> t;
  v0 -[]-> v1;
  v0 -[]-> v2;
  v1 -[]-> t;
  v1 -[]-> u;
  v1 -[then x := 1]-> u;
  v2 -[]-> t;
  v2 -[]-> u;
  t -[rate 2.0]-> s;
  u -[rate 0.5 then x := 0]-> s;
end F.I;
root F.I;
|}

let bits = Int64.bits_of_float

let check_same_chain name (a : Ctmc.t) (b : Ctmc.t) =
  let entries = Array.map (fun (i, x) -> (i, bits x)) in
  let check what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
  check "state count" (a.Ctmc.n_states = b.Ctmc.n_states);
  check "initial distribution" (entries a.Ctmc.initial = entries b.Ctmc.initial);
  let rows c = List.init c.Ctmc.n_states (fun s -> entries (Ctmc.row c s)) in
  check "rows" (rows a = rows b);
  check "goal labels" (a.Ctmc.goal = b.Ctmc.goal);
  check "bad labels" (a.Ctmc.bad = b.Ctmc.bad)

let check_same_stats name (a : Explorer.stats) (b : Explorer.stats) =
  Alcotest.(check (list int))
    (name ^ ": stable states, transitions, vanishing visits")
    [ a.Explorer.stable_states; a.Explorer.transitions; a.Explorer.vanishing_visits ]
    [ b.Explorer.stable_states; b.Explorer.transitions; b.Explorer.vanishing_visits ]

let test_explorer_matches_oracle () =
  let sf n =
    let net = load (Slimsim_models.Sensor_filter.source ~n) in
    let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n) in
    let hold = goal net "filters.f1.value = filters.f1.feed * 4" in
    (* at n = 1 every fault is a goal state, so no state is bad *)
    [
      (Printf.sprintf "sensor/filter n=%d" n, net, g, None, false);
      (Printf.sprintf "sensor/filter n=%d, hold" n, net, g, Some hold, n > 1);
    ]
  in
  let queue capacity =
    let net =
      load (Slimsim_models.Queue_model.source ~arrival:0.8 ~service:1.0 ~capacity)
    in
    let g = goal net (Slimsim_models.Queue_model.goal_full ~capacity) in
    [
      (Printf.sprintf "mm1k capacity %d" capacity, net, g, None, false);
      ( Printf.sprintf "mm1k capacity %d, hold" capacity,
        net,
        g,
        Some (goal net "served < 3"),
        true );
    ]
  in
  let hub = load hub_trap_model in
  let deep = load (deep_closure_model ~loop:false) in
  let fan = load fan_in_model in
  let lane = Fixture.lane_network () in
  let cases =
    List.concat_map sf [ 1; 2; 3; 4; 5; 6 ]
    @ queue 4 @ queue 20
    @ [
        ("hub/trap chain", hub, goal hub "v = 1", Some (goal hub "v != 2"), true);
        ("deep closure", deep, goal deep "x = 4", None, false);
        ("deep closure, hold", deep, goal deep "x = 4", Some (goal deep "x != 2"), true);
        ("fan-in closure", fan, goal fan "x = 1", None, false);
        (* ints, reals and Booleans written by updates and flows; the
           hold fails once r = n * 2.5 reaches 6 *)
        ( "lane network, hold",
          lane,
          Slimsim_sta.Expr.Binop (Gt, Var 3, Slimsim_sta.Expr.int 6),
          Some (Slimsim_sta.Expr.Binop (Lt, Var 1, Slimsim_sta.Expr.real 6.0)),
          true );
      ]
  in
  List.iter
    (fun (name, net, g, hold, some_bad) ->
      let ctmc, stats = Explorer.explore ?hold net ~goal:g in
      let ctmc', stats', _ = Explorer_oracle.explore ?hold net ~goal:g in
      Alcotest.(check bool) (name ^ ": some state is bad") some_bad
        (Array.exists Fun.id ctmc'.Ctmc.bad);
      check_same_chain name ctmc ctmc';
      check_same_stats name stats stats')
    cases;
  (* the cycle back to v2: a walk that cuts the branch keeps the other
     leaves with their weights, within a budget that a walk missing the
     cycle would exhaust; both explorers refuse the model *)
  let net = load (deep_closure_model ~loop:true) in
  let module Walker = Slimsim_sta.Walker in
  let at_v0 w =
    Walker.reset w;
    Walker.apply w (Slimsim_sta.Moves.Local { proc = 0; tr = 0 })
  in
  let show w =
    Printf.sprintf "%s x=%s"
      (Slimsim_sta.Network.loc_name net ~proc:0 (Walker.loc w 0))
      (Slimsim_sta.Value.to_string (Walker.value w 0))
  in
  let w = Walker.create ~budget:100 net in
  at_v0 w;
  let leaves = Walker.close w ~on_cycle:ignore (fun p acc -> (show w, bits p) :: acc) [] in
  Alcotest.(check (list (pair string int64)))
    "deep cycle cut: leaves and weights"
    [
      ("t3 x=3", bits (0.25 /. 3.0));
      ("t4 x=4", bits (0.25 /. 3.0));
      ("t2 x=2", bits 0.25);
      ("t1 x=0", bits 0.5);
    ]
    (List.rev leaves);
  Alcotest.(check int) "deep cycle cut: vanishing visits" 8 (Walker.vanishing_visits w);
  (* the safety analyses' walk: the same stable states, and the last
     one found left in the scratch *)
  let w = Walker.create ~budget:100 net in
  at_v0 w;
  let found = ref [] in
  Walker.witness w (fun () -> found := show w :: !found);
  Alcotest.(check (list string))
    "deep cycle cut: Walker.witness"
    [ "t1 x=0"; "t2 x=2"; "t4 x=4"; "t3 x=3" ]
    !found;
  Alcotest.(check string) "deep cycle cut: the witness" "t1 x=0" (show w);
  let g = goal net "x = 4" in
  let cycle explore =
    match explore () with
    | exception Explorer.Immediate_cycle msg -> msg
    | _ -> Alcotest.fail "the deep cycle must be reported"
  in
  Alcotest.(check string) "deep cycle: the oracle's message"
    (cycle (fun () -> Explorer_oracle.explore net ~goal:g))
    (cycle (fun () -> Explorer.explore net ~goal:g))

let test_explorer_oracle_failures () =
  let raises name f =
    match f () with
    | exception e -> e
    | _ -> Alcotest.failf "%s: expected an exception" name
  in
  let net = load immediate_cycle_model in
  let g = goal net "v" in
  (match
     ( raises "explorer" (fun () -> Explorer.explore net ~goal:g),
       raises "oracle" (fun () -> Explorer_oracle.explore net ~goal:g) )
   with
  | Explorer.Immediate_cycle a, Explorer.Immediate_cycle b ->
    Alcotest.(check string) "same cycle message" b a
  | _ -> Alcotest.fail "both explorers must report the immediate cycle");
  let net = load (Slimsim_models.Sensor_filter.source ~n:3) in
  let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n:3) in
  match
    ( raises "explorer" (fun () -> Explorer.explore ~max_states:10 net ~goal:g),
      raises "oracle" (fun () -> Explorer_oracle.explore ~max_states:10 net ~goal:g) )
  with
  | Explorer.Too_many_states a, Explorer.Too_many_states b ->
    Alcotest.(check int) "same cap" b a
  | _ -> Alcotest.fail "both explorers must enforce the state cap"

(* Exploration allocates little per transition: the walk steps on the
   compiled scratch, keeps a snapshot per vanishing state on the branch
   and packs keys in place, integer data stays in the unboxed int store,
   states are loaded without closures, rows are merged in reusable
   unboxed buffers, the rate transitions are folded without a closure
   or a boxed rate, and a flow whose value holds marks no reader.  On
   sensor/filter n = 6 it allocates ~10 minor words per explored
   transition, compiling the network included (the bound rounds that
   up); before flows skipped their readers it took 12.6, with a closure
   and a boxed rate per fold 17.0, with every integer boxed 32.7, with
   rows built from (int * float) lists ~82, and with a State.t per
   successor ~318. *)
let test_explorer_allocation () =
  let n = 6 in
  let net = load (Slimsim_models.Sensor_filter.source ~n) in
  let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n) in
  let before = Gc.minor_words () in
  let _, stats = Explorer.explore net ~goal:g in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (pair int int)) "stable states, transitions" (4159, 24705)
    (stats.Explorer.stable_states, stats.Explorer.transitions);
  let per = words /. float_of_int stats.Explorer.transitions in
  if per > 11.0 then
    Alcotest.failf "%.1f minor words per explored transition (at most 11)" per

(* A 64-bit FNV-1a fold over everything a chain holds: the state
   count, the initial distribution, each row's length, targets and rate
   bits, and the goal and bad labels. *)
let fingerprint (c : Ctmc.t) =
  let h = ref 0xcbf29ce484222325L in
  let int i = h := Int64.mul (Int64.logxor !h (Int64.of_int i)) 0x100000001b3L in
  let float x = h := Int64.mul (Int64.logxor !h (bits x)) 0x100000001b3L in
  int c.Ctmc.n_states;
  Array.iter (fun (s, p) -> int s; float p) c.Ctmc.initial;
  for s = 0 to c.Ctmc.n_states - 1 do
    let row = Ctmc.row c s in
    int (Array.length row);
    Array.iter (fun (t, r) -> int t; float r) row
  done;
  Array.iter (fun g -> int (Bool.to_int g)) c.Ctmc.goal;
  Array.iter (fun b -> int (Bool.to_int b)) c.Ctmc.bad;
  Printf.sprintf "%016Lx" !h

(* The chain and its lumped quotient on sensor/filter n = 6, 7 and 8,
   bit for bit: a change to how rows are built, merged or stored, to how
   the explorer reads the values that tell states apart, or to how the
   state table keys, hashes and numbers them, must leave every rate's
   bits where they were.  n = 8 (65,791 states) is Table I's largest row
   that runs in about a second. *)
let test_chain_fingerprint () =
  List.iter
    (fun (n, with_hold, chain, quotient) ->
      let net = load (Slimsim_models.Sensor_filter.source ~n) in
      let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n) in
      let hold =
        if with_hold then Some (goal net "filters.f1.value = filters.f1.feed * 4") else None
      in
      let name = Printf.sprintf "sensor/filter n=%d%s" n (if with_hold then ", hold" else "") in
      let c, _ = Explorer.explore ?hold net ~goal:g in
      let r = Lumping.lump c in
      Alcotest.(check string) (name ^ ": chain") chain (fingerprint c);
      Alcotest.(check string) (name ^ ": quotient") quotient
        (fingerprint r.Lumping.quotient
        ^ Digest.to_hex (Digest.string (Marshal.to_string r.Lumping.block_of []))))
    [
      (6, false, "88f4c2aec3f1b03b", "dad0ee55bf77e53e909a89e7511ebd172eff92ef1e0ff56b");
      (6, true, "5dfc4c0ccd626ab4", "aa6940843e18a04b2cbc1c5791cfd9e9e2bba78e2b689254");
      (7, false, "fe35d544463e1c3e", "5b2e4edcb7007d0edc424bf16dd75fea978f5f4d2da8b32c");
      (7, true, "dfbfcf26d7ced1dd", "c2094f4eb66b179b1189cfba5f02ff407331dd0aad11f927");
      (8, false, "8574736e837d2720", "f149e9168e5b6749da816ae35290958251f12fd98dcbb21e");
      (8, true, "f8541679419f4b8d", "d8a33e5b6b2f6849c407f1c07abf50917f304e251d1506cf");
    ]

(* The timeless equality the oracles use, and the one the packed table
   and the closure's cycle check implement: signed zeros and NaN
   payloads fold together, time is ignored. *)
let test_state_hash_agrees_with_equality () =
  let module State = Slimsim_sta.State in
  let module Value = Slimsim_sta.Value in
  let st x = { State.locs = [| 0; 3 |]; vals = [| Value.Int 1; Value.Real x |]; time = 0.0 } in
  let other_nan = Int64.float_of_bits 0x7ff8000000000001L in
  List.iter
    (fun (name, a, b) ->
      let a = st a and b = st b in
      Alcotest.(check bool) (name ^ ": equal") true (State.equal_timeless a b))
    [ ("signed zeros", 0.0, -0.0); ("NaN", Float.nan, other_nan) ];
  Alcotest.(check bool) "time is ignored" true
    (State.equal_timeless (st 1.0) { (st 1.0) with State.time = 5.0 });
  Alcotest.(check bool) "values are compared" false (State.equal_timeless (st 1.0) (st 2.0))

(* --- run-time type errors --- *)

let div_by_zero_model = {|
device D
features
  r: out data port int := 0;
  q: out data port int := 0;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 1 then r := 4 / q]-> b;
end D.I;
root D.I;
|}

let test_exact_type_error () =
  let net = load div_by_zero_model in
  (match Analysis.check net ~goal:(goal net "r = 1") ~horizon:10.0 with
  | Error e ->
    Alcotest.(check string) "reported like verify" "type error: integer division by zero" e
  | Ok _ -> Alcotest.fail "a division by zero must be an error");
  let bin =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/slimsim_cli.exe"
  in
  let model = Filename.temp_file "slimsim_div0" ".slim" in
  Fun.protect
    ~finally:(fun () -> Sys.remove model)
    (fun () ->
      Out_channel.with_open_bin model (fun oc -> output_string oc div_by_zero_model);
      let code =
        Sys.command
          (Filename.quote_command bin ~stdout:Filename.null ~stderr:Filename.null
             [ "exact"; model; "-p"; "P(<> [0, 10] r = 1)" ])
      in
      Alcotest.(check int) "CLI exit code" 1 code)

(* --- bounded until on the chain pipeline --- *)

let two_phase_model = {|
device D
features
  v: out data port int := 0;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
  c: mode;
transitions
  a -[rate 0.1 then v := 1]-> b;
  b -[rate 0.2 then v := 2]-> c;
end D.I;
root D.I;
|}

let test_until_pipeline () =
  let net = load two_phase_model in
  let g2 = goal net "v = 2" and g1 = goal net "v = 1" in
  let pass_through_b = goal net "v <= 1" and skip_b = goal net "v = 0" in
  let t = 8.0 in
  (* hold v<=1: same as plain reachability of v=2 *)
  let ctmc, _ = Explorer.explore ~hold:pass_through_b net ~goal:g2 in
  let l1, l2 = (0.1, 0.2) in
  let expected =
    1.0 -. ((l2 *. exp (-.l1 *. t)) -. (l1 *. exp (-.l2 *. t))) /. (l2 -. l1)
  in
  Alcotest.(check (float 1e-8)) "hold-free until = reachability" expected
    (Transient.reach_probability ctmc ~horizon:t);
  (* hold v=0: the path must reach v=2 without visiting v=1 — impossible *)
  let ctmc0, _ = Explorer.explore ~hold:skip_b net ~goal:g2 in
  Alcotest.(check (float 1e-12)) "blocked until is zero" 0.0
    (Transient.reach_probability ctmc0 ~horizon:t);
  (* hold v=0 with goal v=1 is the plain two-state form *)
  let ctmc1, _ = Explorer.explore ~hold:skip_b net ~goal:g1 in
  Alcotest.(check (float 1e-8)) "first phase" (1.0 -. exp (-.l1 *. t))
    (Transient.reach_probability ctmc1 ~horizon:t)

let test_until_lumping_preserves () =
  let net = load two_phase_model in
  let g2 = goal net "v = 2" in
  let skip_b = goal net "v = 0" in
  let ctmc, _ = Explorer.explore ~hold:skip_b net ~goal:g2 in
  let r = Lumping.lump ctmc in
  Alcotest.(check (float 1e-12)) "bad labels survive lumping"
    (Transient.reach_probability ctmc ~horizon:5.0)
    (Transient.reach_probability r.Lumping.quotient ~horizon:5.0)

(* --- qualitative invariant checking --- *)

let test_invariant_holds () =
  let net = load (Slimsim_models.Sensor_filter.source ~n:2) in
  (* exhaustion implies every sensor reads out of range *)
  let prop =
    goal net
      "(sensors.exhausted => (sensors.s1.value > 5 and sensors.s2.value > 5))"
  in
  match Slimsim_ctmc.Qualitative.check_invariant net ~prop with
  | Ok (Slimsim_ctmc.Qualitative.Holds { states }) ->
    Alcotest.(check bool) "explored some states" true (states > 10)
  | Ok (Slimsim_ctmc.Qualitative.Violated _) -> Alcotest.fail "invariant must hold"
  | Error e -> Alcotest.fail e

let test_invariant_violated_with_trace () =
  let net = load (Slimsim_models.Sensor_filter.source ~n:1) in
  let prop = goal net "not sensors.exhausted" in
  match Slimsim_ctmc.Qualitative.check_invariant net ~prop with
  | Ok (Slimsim_ctmc.Qualitative.Violated { trace; _ }) ->
    Alcotest.(check bool) "counterexample is non-empty" true (trace <> []);
    Alcotest.(check bool) "counterexample mentions the fault" true
      (List.exists (fun s -> Astring_contains.contains s "SensorFail") trace)
  | Ok (Slimsim_ctmc.Qualitative.Holds _) -> Alcotest.fail "expected a violation"
  | Error e -> Alcotest.fail e

let test_invariant_state_cap () =
  let net = load (Slimsim_models.Sensor_filter.source ~n:3) in
  let prop = goal net "true" in
  match Slimsim_ctmc.Qualitative.check_invariant ~max_states:5 net ~prop with
  | Error e -> Alcotest.(check bool) "cap reported" true (Astring_contains.contains e "exceeds")
  | Ok _ -> Alcotest.fail "expected the cap to trigger"

(* --- lumping --- *)

let test_lumping_symmetric_chain () =
  (* two parallel two-state components with identical rates are
     symmetric: lumping must shrink the product chain *)
  let net = load (Slimsim_models.Sensor_filter.source ~n:2) in
  let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n:2) in
  let ctmc, _ = Explorer.explore net ~goal:g in
  let r = Lumping.lump ctmc in
  Alcotest.(check bool) "reduction happened" true (r.Lumping.n_blocks < ctmc.Ctmc.n_states);
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "lumped probability preserved at %g" h)
        (Transient.reach_probability ctmc ~horizon:h)
        (Transient.reach_probability r.Lumping.quotient ~horizon:h))
    [ 100.0; 1800.0; 10000.0 ]

let test_lumping_respects_goal () =
  (* two structurally identical states with different labels must not
     be merged *)
  let c =
    Ctmc.make ~n_states:3 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, 1.0); (0, 2, 1.0) ]
      ~goal:[| false; true; false |]
  in
  let r = Lumping.lump c in
  Alcotest.(check int) "goal split kept" 3 r.Lumping.n_blocks;
  Alcotest.(check bool) "goal states map to goal blocks" true
    r.Lumping.quotient.Ctmc.goal.(r.Lumping.block_of.(1))

let test_lumping_merges_parallel_twins () =
  (* two goal states with identical future behaviour collapse *)
  let c =
    Ctmc.make ~n_states:3 ~initial:[ (0, 1.0) ]
      ~transitions:[ (0, 1, 1.0); (0, 2, 1.0) ]
      ~goal:[| false; true; true |]
  in
  let r = Lumping.lump c in
  Alcotest.(check int) "twins merged" 2 r.Lumping.n_blocks;
  Alcotest.(check (float 1e-9)) "rates added into the block" 2.0
    (Ctmc.exit_rate r.Lumping.quotient r.Lumping.block_of.(0))

(* Two mirrored birth-death chains of [m] states, each with its goal at
   the top: the twins merge, and every level stays apart (its distance
   to the goal), so one refinement pass meets [m] signatures, more than
   the arrays they start in hold. *)
let test_lumping_many_blocks () =
  let m = 300 in
  let transitions =
    List.concat_map
      (fun base ->
        List.concat
          (List.init (m - 1) (fun i ->
               [ (base + i, base + i + 1, 2.0); (base + i + 1, base + i, 1.0) ])))
      [ 0; m ]
  in
  let c =
    Ctmc.make ~n_states:(2 * m) ~initial:[ (0, 0.5); (m, 0.5) ] ~transitions
      ~goal:(Array.init (2 * m) (fun s -> s mod m = m - 1))
  in
  let r = Lumping.lump c in
  Alcotest.(check int) "one block per level" m r.Lumping.n_blocks;
  Alcotest.(check bool) "twins share a block" true
    (List.for_all (fun i -> r.Lumping.block_of.(i) = r.Lumping.block_of.(m + i)) (List.init m Fun.id));
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "lumped probability preserved at %g" h)
        (Transient.reach_probability c ~horizon:h)
        (Transient.reach_probability r.Lumping.quotient ~horizon:h))
    [ 100.0; 400.0 ]

(* --- full pipeline vs closed form --- *)

let test_pipeline_sensor_filter () =
  List.iter
    (fun n ->
      let net = load (Slimsim_models.Sensor_filter.source ~n) in
      let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n) in
      List.iter
        (fun horizon ->
          match Analysis.check net ~goal:g ~horizon with
          | Ok r ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "closed form at n=%d, horizon %g" n horizon)
              (Slimsim_models.Sensor_filter.closed_form ~n ~horizon)
              r.Analysis.probability
          | Error e -> Alcotest.fail e)
        [ 100.0; 1800.0; 1e4; 1e5 ])
    [ 1; 2; 3; 4 ]

let test_pipeline_lump_ablation () =
  let net = load (Slimsim_models.Sensor_filter.source ~n:2) in
  let g = goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n:2) in
  let with_lump = Analysis.check net ~goal:g ~horizon:1800.0 in
  let without = Analysis.check ~lump:false net ~goal:g ~horizon:1800.0 in
  match with_lump, without with
  | Ok a, Ok b ->
    Alcotest.(check (float 1e-9)) "same probability" a.Analysis.probability
      b.Analysis.probability;
    Alcotest.(check bool) "lumping shrinks" true
      (a.Analysis.lumped_states < b.Analysis.lumped_states)
  | _ -> Alcotest.fail "pipeline failed"

let suite =
  [
    Alcotest.test_case "ctmc construction" `Quick test_ctmc_make;
    Alcotest.test_case "uniformized rows" `Quick test_uniformized_rows;
    Alcotest.test_case "two-state closed form" `Quick test_two_state_exponential;
    Alcotest.test_case "erlang chain closed form" `Quick test_erlang_chain;
    Alcotest.test_case "goal made absorbing" `Quick test_goal_absorbing;
    Alcotest.test_case "initial goal mass" `Quick test_initial_goal_mass;
    Alcotest.test_case "poisson weights" `Quick test_poisson_weights;
    test_error_bound;
    Alcotest.test_case "non-finite values rejected" `Quick test_non_finite_rejected;
    Alcotest.test_case "poisson window floor" `Quick test_window_floor;
    Alcotest.test_case "long-horizon queue" `Quick test_long_horizon_queue;
    Alcotest.test_case "slow leak, no early stop" `Quick test_slow_leak;
    Alcotest.test_case "explorer two states" `Quick test_explorer_two_state;
    Alcotest.test_case "vanishing elimination" `Quick test_explorer_immediate_elimination;
    Alcotest.test_case "timed models rejected" `Quick test_explorer_rejects_timed;
    Alcotest.test_case "immediate cycle detected" `Quick test_explorer_immediate_cycle;
    Alcotest.test_case "state cap" `Quick test_explorer_state_cap;
    Alcotest.test_case "explorer matches the oracle" `Quick test_explorer_matches_oracle;
    Alcotest.test_case "oracle failures agree" `Quick test_explorer_oracle_failures;
    Alcotest.test_case "exploration allocation per transition" `Quick test_explorer_allocation;
    Alcotest.test_case "chain fingerprint" `Quick test_chain_fingerprint;
    Alcotest.test_case "state hash agrees with equality" `Quick
      test_state_hash_agrees_with_equality;
    Alcotest.test_case "exact: run-time type error" `Quick test_exact_type_error;
    Alcotest.test_case "invariant holds" `Quick test_invariant_holds;
    Alcotest.test_case "invariant violated" `Quick test_invariant_violated_with_trace;
    Alcotest.test_case "invariant state cap" `Quick test_invariant_state_cap;
    Alcotest.test_case "until pipeline" `Quick test_until_pipeline;
    Alcotest.test_case "until survives lumping" `Quick test_until_lumping_preserves;
    Alcotest.test_case "lumping symmetric chain" `Quick test_lumping_symmetric_chain;
    Alcotest.test_case "lumping respects goal" `Quick test_lumping_respects_goal;
    Alcotest.test_case "lumping merges twins" `Quick test_lumping_merges_parallel_twins;
    Alcotest.test_case "lumping past 128 blocks" `Quick test_lumping_many_blocks;
    Alcotest.test_case "pipeline vs closed form" `Quick test_pipeline_sensor_filter;
    Alcotest.test_case "lump ablation" `Quick test_pipeline_lump_ablation;
  ]
