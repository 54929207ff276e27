module Generator = Slimsim_stats.Generator
module Cost_run = Slimsim_sim.Cost_run

let query = "E[w ; <> [0,100] served = 5]"
let eps = 0.3
let reference = 10.175

let misses m ~campaigns ~delta =
  let rec go seed acc =
    if seed > campaigns then Ok acc
    else
      match
        Slimsim.check_cost ~seed:(Int64.of_int seed) ~generator:Generator.Chow_robbins m
          ~query ~strategy:Slimsim_sim.Strategy.Asap ~delta ~eps ()
      with
      | Ok (Slimsim.Cost_expected r) ->
        let covered = r.Cost_run.cost_ci_low <= reference && reference <= r.cost_ci_high in
        go (seed + 1) (if covered then acc else acc + 1)
      | Ok _ -> Error (query ^ ": not an expected-cost answer")
      | Error e -> Error e
  in
  go 1 0

(* The pmf by its ratio recurrence, then the tail summed from the top
   so that no small tail is lost to cancellation. *)
let binomial_upper ~n ~p ~alpha =
  let pmf = Array.make (n + 1) 0.0 in
  pmf.(0) <- (1.0 -. p) ** float_of_int n;
  for k = 0 to n - 1 do
    pmf.(k + 1) <-
      pmf.(k) *. float_of_int (n - k) /. float_of_int (k + 1) *. p /. (1.0 -. p)
  done;
  (* [tail] is P(X > m) for the current [m] *)
  let rec down m tail =
    if m < 0 || tail +. pmf.(m) > alpha then m else down (m - 1) (tail +. pmf.(m))
  in
  down n 0.0

let max_misses ~campaigns ~delta = binomial_upper ~n:campaigns ~p:delta ~alpha:0.001 - 1
