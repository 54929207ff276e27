let check ~delta ~eps =
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Bound: delta must lie in (0,1)";
  if not (eps > 0.0) then invalid_arg "Bound: eps must be positive"

let chernoff_samples ~delta ~eps =
  check ~delta ~eps;
  int_of_float (ceil (4.0 *. log (2.0 /. delta) /. (eps *. eps)))

let hoeffding_samples ~delta ~eps =
  check ~delta ~eps;
  int_of_float (ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))

let hoeffding_eps ~delta ~n =
  if n <= 0 then invalid_arg "Bound.hoeffding_eps: n must be positive";
  sqrt (log (2.0 /. delta) /. (2.0 *. float_of_int n))

let hoeffding_delta ~eps ~n =
  if n <= 0 then invalid_arg "Bound.hoeffding_delta: n must be positive";
  2.0 *. exp (-2.0 *. float_of_int n *. eps *. eps)

(* Acklam's rational approximation to the probit function; its
   coefficient tables are built once. *)
let a =
  [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
     1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]

let b =
  [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
     6.680131188771972e+01; -1.328068155288572e+01 |]

let c =
  [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
     -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]

let d =
  [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
     3.754408661907416e+00 |]

let normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Bound.normal_quantile: p must lie in (0,1)";
  let p_low = 0.02425 in
  let p_high = 1.0 -. p_low in
  if p < p_low then
    let q = sqrt (-2.0 *. log p) in
    (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
    +. c.(5)
    |> fun num ->
    num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  else if p <= p_high then
    let q = p -. 0.5 in
    let r = q *. q in
    ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
    +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r
       +. 1.0)
  else
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
       *. q
      +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)

let gauss_samples ~delta ~eps =
  check ~delta ~eps;
  let z = normal_quantile (1.0 -. (delta /. 2.0)) in
  int_of_float (ceil ((z /. (2.0 *. eps)) ** 2.0))
