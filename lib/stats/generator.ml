type kind = Chernoff | Hoeffding | Gauss | Chow_robbins | Mlmc

let all_kinds = [ Chernoff; Hoeffding; Gauss; Chow_robbins; Mlmc ]

type t = {
  kind : kind;
  delta : float;
  eps : float;
  est : Estimator.t;
  planned : int option;
  z : float;  (* normal quantile, used by Chow-Robbins *)
}

let min_sequential_samples = 100
(* Below this the CLT interval is meaningless; standard guard for
   Chow-Robbins style stopping rules. *)

let check ~delta ~eps =
  if not (delta > 0.0 && delta < 1.0) then
    Error (Printf.sprintf "delta must lie in (0, 1), got %g" delta)
  else if not (eps > 0.0 && Float.is_finite eps) then
    Error (Printf.sprintf "eps must be positive and finite, got %g" eps)
  else Ok ()

let create kind ~delta ~eps =
  Result.iter_error (fun m -> invalid_arg ("Generator.create: " ^ m))
    (check ~delta ~eps);
  let planned =
    match kind with
    | Chernoff -> Some (Bound.chernoff_samples ~delta ~eps)
    | Hoeffding -> Some (Bound.hoeffding_samples ~delta ~eps)
    | Gauss -> Some (Bound.gauss_samples ~delta ~eps)
    (* The multilevel structure lives in the simulation layer (coupled
       coarse/fine paths, per-level accumulators); at the generator level
       a degenerate single-level Mlmc is exactly the sequential CLT
       stopping rule. *)
    | Chow_robbins | Mlmc -> None
  in
  {
    kind;
    delta;
    eps;
    est = Estimator.create ();
    planned;
    z = Bound.normal_quantile (1.0 -. (delta /. 2.0));
  }

let planned_samples t = t.planned

let remaining_samples t =
  match t.planned with
  | Some n -> Some (max 0 (n - Estimator.trials t.est))
  | None -> None

let feed t outcome = Estimator.add t.est outcome

let needs_more t =
  match t.planned with
  | Some n -> Estimator.trials t.est < n
  | None ->
    let n = Estimator.trials t.est in
    if n < min_sequential_samples then true
    else
      let fn = float_of_int n in
      let m = Estimator.mean t.est in
      (* Sample variance of a Bernoulli, with a floor so the rule cannot
         stop spuriously on an all-equal prefix. *)
      let var = Float.max (m *. (1.0 -. m)) (1.0 /. fn) in
      let half_width = t.z *. sqrt (var /. fn) in
      half_width > t.eps

let estimator t = t.est
let kind t = t.kind
let delta t = t.delta
let eps t = t.eps
let z t = t.z

let restore t ~trials ~successes = Estimator.restore t.est ~trials ~successes

let kind_to_string = function
  | Chernoff -> "chernoff"
  | Hoeffding -> "hoeffding"
  | Gauss -> "gauss"
  | Chow_robbins -> "chow-robbins"
  | Mlmc -> "mlmc"

let kind_of_string = function
  | "chernoff" -> Ok Chernoff
  | "hoeffding" -> Ok Hoeffding
  | "gauss" -> Ok Gauss
  | "chow-robbins" | "chow_robbins" -> Ok Chow_robbins
  | "mlmc" -> Ok Mlmc
  | s ->
    Error
      (Printf.sprintf "unknown generator %S (expected one of: %s)" s
         (String.concat ", " (List.map kind_to_string all_kinds)))
