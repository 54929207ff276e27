(* 1 - u in (0,1] avoids log 0. *)
let[@inline] exp_of_uniform u rate = -.log (1.0 -. u) /. rate

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  exp_of_uniform (Rng.float rng) rate

let bernoulli rng ~p = Rng.float rng < p

(* Negative weights must be rejected outright, not merely balanced by a
   positive total: they make the cumulative scan non-monotone, so the
   draw [r < acc] can select an index whose own weight is negative (or
   skip a positive one), silently biasing the selection.  The check
   rides the summation loop that already walks the array. *)
let categorical rng ~weights =
  let total = ref 0.0 in
  Array.iter
    (fun w ->
      if w < 0.0 then invalid_arg "Dist.categorical: negative weight";
      total := !total +. w)
    weights;
  let total = !total in
  if total <= 0.0 then invalid_arg "Dist.categorical: total weight must be positive";
  let r = Rng.below rng total in
  let n = Array.length weights in
  let rec pick i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if r < acc then i else pick (i + 1) acc
  in
  pick 0 0.0

(* One length walk, one draw, one selection walk — the previous
   [List.nth xs (Rng.int rng (List.length xs))] walked the spine twice
   per draw, in the per-step hot path.  RNG consumption
   is unchanged (exactly one [Rng.int] for two or more elements, none
   otherwise), so verdict streams are bit-identical; the determinism
   suite in test/test_compiled.ml pins this down. *)
let uniform_index rng n =
  if n <= 0 then invalid_arg "Dist.uniform_index: no choice"
  else if n = 1 then 0
  else Rng.int rng n

let uniform_choice rng xs =
  match xs with
  | [] -> invalid_arg "Dist.uniform_choice: empty list"
  | _ -> List.nth xs (uniform_index rng (List.length xs))

let exponential_race rng ~rates =
  let total =
    Array.fold_left
      (fun acc r ->
        if r < 0.0 then invalid_arg "Dist.exponential_race: negative rate";
        acc +. r)
      0.0 rates
  in
  if total <= 0.0 then None
  else
    let t = exponential rng ~rate:total in
    let i = categorical rng ~weights:rates in
    Some (i, t)

let exponential_race_n rng ~rates ~n ~delay =
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let r = rates.(i) in
    if r < 0.0 then invalid_arg "Dist.exponential_race_n: negative rate";
    total := !total +. r
  done;
  let total = !total in
  if total <= 0.0 then -1
  else begin
    (* [exponential] and [Rng.below] with their float operations in
       order, each draw passing through the cell unboxed *)
    Rng.float_into rng delay 0;
    let t = exp_of_uniform delay.(0) total in
    Rng.float_into rng delay 0;
    let r = delay.(0) *. total in
    delay.(0) <- t;
    (* [categorical]'s scan as a loop: no closure, no boxed accumulator *)
    let i = ref 0 and acc = ref rates.(0) in
    while !i < n - 1 && not (r < !acc) do
      incr i;
      acc := !acc +. rates.(!i)
    done;
    !i
  end
