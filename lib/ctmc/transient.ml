type result = { probability : float; steps : int; steady_state : bool }

(* log m! - (m log m - m): summed exactly for small m, otherwise Stirling's
   series, whose first omitted term is below 3e-12 from m = 16 on. *)
let stirling_remainder m =
  let x = float_of_int m in
  if m < 16 then begin
    let log_fact = ref 0.0 in
    for i = 2 to m do
      log_fact := !log_fact +. log (float_of_int i)
    done;
    !log_fact -. ((x *. log x) -. x)
  end
  else
    (0.5 *. log (2.0 *. Float.pi *. x))
    +. (1.0 /. (12.0 *. x))
    -. (1.0 /. (360.0 *. x *. x *. x))
    +. (1.0 /. (1260.0 *. x *. x *. x *. x *. x))

(* The Poisson(lambda) pmf at its mode m = floor lambda, in closed form:
   -lambda + m log lambda - log m! rewritten as
   m log(lambda/m) - (lambda - m) - stirling_remainder m, in which no term
   grows faster than log lambda, so nothing cancels catastrophically. *)
let mode_weight ~lambda m =
  if m = 0 then exp (-.lambda)
  else
    let x = float_of_int m in
    exp
      ((x *. Float.log1p ((lambda -. x) /. x))
      -. (lambda -. x)
      -. stirling_remainder m)

(* Fox–Glynn-style truncation points: walking out from the mode by the
   exact ratios w_(k+1)/w_k = lambda/(k+1), each tail beyond the current
   point is bounded by a geometric series, because the ratio only shrinks
   further out.  Stop once each tail bound is below epsilon/2. *)
let truncation_points ~lambda ~epsilon =
  let m = int_of_float (Float.floor lambda) in
  let wm = mode_weight ~lambda m in
  let half = epsilon /. 2.0 in
  (* sum_(j<l) w_j <= w_(l-1) / (1 - (l-1)/lambda) *)
  let rec left l w_l =
    if l = 0 then 0
    else
      let w = w_l *. float_of_int l /. lambda in
      if w /. (1.0 -. (float_of_int (l - 1) /. lambda)) <= half then l
      else left (l - 1) w
  in
  (* sum_(j>r) w_j <= w_(r+1) / (1 - lambda/(r+2)) *)
  let rec right r w_r =
    let w = w_r *. lambda /. float_of_int (r + 1) in
    if float_of_int (r + 2) > lambda
       && w /. (1.0 -. (lambda /. float_of_int (r + 2))) <= half
    then r
    else right (r + 1) w
  in
  (left m wm, right m wm)

let weights_between ~lambda left right =
  let m = int_of_float (Float.floor lambda) in
  let w = Array.make (right - left + 1) 0.0 in
  w.(m - left) <- 1.0;
  for k = m - 1 downto left do
    w.(k - left) <- w.(k + 1 - left) *. float_of_int (k + 1) /. lambda
  done;
  for k = m + 1 to right do
    w.(k - left) <- w.(k - 1 - left) *. lambda /. float_of_int k
  done;
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let poisson_weights ~lambda ~epsilon =
  let left, right = truncation_points ~lambda ~epsilon in
  (left, weights_between ~lambda left right)

(* The states that can reach a goal without first passing a bad state:
   backward reachability from the goal through states that are not bad.
   The others are the probability-0 states. *)
let can_reach_goal (c : Ctmc.t) =
  let n = c.Ctmc.n_states in
  (* the predecessors of [t] are [preds.(first.(t))] to
     [preds.(first.(t + 1) - 1)] *)
  let first = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun t -> first.(t + 1) <- first.(t + 1) + 1)) c.Ctmc.targets;
  for t = 1 to n do
    first.(t) <- first.(t) + first.(t - 1)
  done;
  let fill = Array.sub first 0 n in
  let preds = Array.make first.(n) 0 in
  Array.iteri
    (fun s row ->
      Array.iter
        (fun t ->
          preds.(fill.(t)) <- s;
          fill.(t) <- fill.(t) + 1)
        row)
    c.Ctmc.targets;
  let reach = Array.copy c.Ctmc.goal in
  let todo = Array.make n 0 and top = ref 0 in
  let add s =
    todo.(!top) <- s;
    incr top
  in
  Array.iteri (fun s g -> if g then add s) c.Ctmc.goal;
  while !top > 0 do
    decr top;
    let t = todo.(!top) in
    for e = first.(t) to first.(t + 1) - 1 do
      let s = preds.(e) in
      if not (reach.(s) || c.Ctmc.bad.(s)) then begin
        reach.(s) <- true;
        add s
      end
    done
  done;
  reach

(* A step index below which the loop can never need the Poisson window:
   for x = lambda - l + 1 >= 1 the pmf at l - 1 is at most
   exp(-x^2 / 2 lambda) (the Chernoff bound on the lower tail), so the
   left tail bound w_(l-1) lambda / x that [truncation_points] tests is
   at most lambda exp(-x^2 / 2 lambda), which is below epsilon/4 once
   x^2 >= 2 lambda log(4 lambda / epsilon).  The left truncation point is
   then at least l.  As a float, so that a horizon of any size yields a
   bound (one no step count reaches, past [max_int]); x is formed so
   that no intermediate overflows. *)
let window_floor ~lambda ~epsilon =
  if lambda = Float.infinity then Float.infinity
  else
    let x = sqrt (2.0 *. lambda) *. sqrt (log 4.0 +. log lambda -. log epsilon) in
    if Float.is_nan x || x < 1.0 then 0.0 else Float.max 0.0 (Float.floor (lambda -. x))

let reach ?(precision = 1e-10) (c : Ctmc.t) ~horizon =
  if not (precision > 0.0) then invalid_arg "Transient.reach: precision must be positive";
  let n = c.Ctmc.n_states in
  let initial_goal_mass =
    Array.fold_left
      (fun acc (s, p) -> if c.Ctmc.goal.(s) then acc +. p else acc)
      0.0 c.Ctmc.initial
  in
  let decided = { probability = initial_goal_mass; steps = 0; steady_state = false } in
  if horizon <= 0.0 then decided
  else begin
    (* Live states are the undecided ones.  Goal and bad states are
       absorbing, and so are the states that cannot reach a goal: their
       mass can never turn into goal mass, so it is dropped. *)
    let reaches = can_reach_goal c in
    let live = Array.init n (fun s -> reaches.(s) && not c.Ctmc.goal.(s)) in
    let n_live = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 live in
    if n_live = 0 then { decided with steady_state = true }
    else begin
      let q = ref 0.0 in
      for s = 0 to n - 1 do
        q := Float.max !q (if live.(s) then Ctmc.exit_rate c s else 0.0)
      done;
      let q = !q in
      (* The uniformised DTMC over the live states; the mass a step moves
         into a goal state is added to [goal] through [into_goal]. *)
      let { Ctmc.index; first; col; prob; into_goal } = Ctmc.uniformized_dtmc c ~q ~live in
      let pi = Array.make n_live 0.0 in
      Array.iter
        (fun (s, x) -> if live.(s) then pi.(index.(s)) <- pi.(index.(s)) +. x)
        c.Ctmc.initial;
      let scratch = Array.make n_live 0.0 in
      (* Half the error budget goes to the two Poisson tails, half to the
         undecided mass left when the loop stops early. *)
      let lambda = q *. horizon and epsilon = precision /. 2.0 in
      (* The window is computed only once the loop reaches [unneeded]: a
         long horizon on a chain that settles early never walks it. *)
      let unneeded = window_floor ~lambda ~epsilon in
      let window =
        lazy
          (let left, right = truncation_points ~lambda ~epsilon in
           (left, right, weights_between ~lambda left right))
      in
      (* Invariant at the top of each iteration: [pi] and [goal] are the
         live and goal mass after k steps; [acc] = sum_(j<k) w_j g_j and
         [used] = sum_(j<k) w_j.  Every later g_j lies in
         [goal, goal + undecided].  The loop keeps its floats in local
         refs so that it allocates nothing. *)
      let k = ref 0 and goal = ref initial_goal_mass in
      let acc = ref 0.0 and used = ref 0.0 in
      let steady_state = ref false and running = ref true in
      while !running do
        let undecided = ref 0.0 in
        for i = 0 to n_live - 1 do
          undecided := !undecided +. pi.(i)
        done;
        if !undecided <= precision /. 2.0 then begin
          acc := !acc +. (Float.max 0.0 (1.0 -. !used) *. !goal);
          steady_state := true;
          running := false
        end
        else begin
          let past_right =
            float_of_int !k >= unneeded
            &&
            let left, right, weights = Lazy.force window in
            if !k >= left then begin
              let w = weights.(!k - left) in
              acc := !acc +. (w *. !goal);
              used := !used +. w
            end;
            !k >= right
          in
          if past_right then running := false
          else begin
            Array.fill scratch 0 n_live 0.0;
            for i = 0 to n_live - 1 do
              let mass = pi.(i) in
              if mass > 0.0 then begin
                goal := !goal +. (mass *. into_goal.(i));
                for e = first.(i) to first.(i + 1) - 1 do
                  let t = col.(e) in
                  scratch.(t) <- scratch.(t) +. (mass *. Float.Array.get prob e)
                done
              end
            done;
            Array.blit scratch 0 pi 0 n_live;
            incr k
          end
        end
      done;
      {
        probability = Float.min 1.0 (Float.max 0.0 !acc);
        steps = !k;
        steady_state = !steady_state;
      }
    end
  end

let reach_probability ?precision c ~horizon = (reach ?precision c ~horizon).probability
