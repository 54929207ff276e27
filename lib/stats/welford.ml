type t = { mutable n : int; mutable mean : float; mutable m2 : float }

let create () = { n = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = t.n
let mean t = t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let state t = (t.n, t.mean, t.m2)

let restore ~n ~mean ~m2 =
  if n < 0 || m2 < 0.0 then invalid_arg "Welford.restore";
  { n; mean; m2 }

(* %h round-trips doubles exactly, so a checkpointed accumulator resumes
   bit-identically. *)
let to_string t = Printf.sprintf "%d %h %h" t.n t.mean t.m2

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ n; mean; m2 ] -> (
    match
      (int_of_string_opt n, float_of_string_opt mean, float_of_string_opt m2)
    with
    | Some n, Some mean, Some m2 when n >= 0 && m2 >= 0.0 -> Ok { n; mean; m2 }
    | _ -> Error (Printf.sprintf "malformed welford state %S" s))
  | _ -> Error (Printf.sprintf "malformed welford state %S" s)

let half_width_z t ~z = if t.n = 0 then infinity else z *. stddev t /. sqrt (float_of_int t.n)

let half_width t ~delta = half_width_z t ~z:(Bound.normal_quantile (1.0 -. (delta /. 2.0)))

let confidence_interval t ~delta =
  if t.n = 0 then (neg_infinity, infinity)
  else
    let half = half_width t ~delta in
    (t.mean -. half, t.mean +. half)
