type bound =
  | Neg_inf
  | Fin of float * bool
  | Pos_inf

type interval = { lo : bound; hi : bound }

(* Normalized: sorted by lower bound, pairwise disjoint and non-touching
   (every pair of consecutive intervals has a real gap between them). *)
type t = interval list

(* Compare two bounds viewed as *lower* bounds of intervals.
   A closed lower bound at x starts earlier than an open one at x. *)
let cmp_lower b1 b2 =
  match b1, b2 with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin (x, cx), Fin (y, cy) ->
    if x < y then -1
    else if x > y then 1
    else compare cy cx (* closed (true) first *)

(* Compare two bounds viewed as *upper* bounds.
   An open upper bound at x ends earlier than a closed one at x. *)
let cmp_upper b1 b2 =
  match b1, b2 with
  | Neg_inf, Neg_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, Pos_inf -> 0
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin (x, cx), Fin (y, cy) ->
    if x < y then -1
    else if x > y then 1
    else compare cx cy (* open (false) first *)

let nonempty lo hi =
  match lo, hi with
  | Pos_inf, _ | _, Neg_inf -> false
  | Neg_inf, _ | _, Pos_inf -> true
  | Fin (a, ca), Fin (b, cb) -> a < b || (a = b && ca && cb)

(* Do interval [i1] (ending at [hi]) and a following interval (starting at
   [lo]) overlap or touch, so that their union is one interval? *)
let joins hi lo =
  match hi, lo with
  | Pos_inf, _ | _, Neg_inf -> true
  | Neg_inf, _ | _, Pos_inf -> false
  | Fin (a, ca), Fin (b, cb) -> a > b || (a = b && (ca || cb))

let max_upper b1 b2 = if cmp_upper b1 b2 >= 0 then b1 else b2
let min_upper b1 b2 = if cmp_upper b1 b2 <= 0 then b1 else b2
let max_lower b1 b2 = if cmp_lower b1 b2 >= 0 then b1 else b2

let empty = []
let full = [ { lo = Neg_inf; hi = Pos_inf } ]

let make lo hi = if nonempty lo hi then [ { lo; hi } ] else []
let point x = make (Fin (x, true)) (Fin (x, true))
let closed a b = make (Fin (a, true)) (Fin (b, true))
let open_ a b = make (Fin (a, false)) (Fin (b, false))
let at_least a = make (Fin (a, true)) Pos_inf
let greater_than a = make (Fin (a, false)) Pos_inf
let at_most b = make Neg_inf (Fin (b, true))
let less_than b = make Neg_inf (Fin (b, false))

(* Merge a sorted-by-lower-bound list of intervals into normal form. *)
let normalize sorted =
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
      match acc with
      | prev :: acc' when joins prev.hi iv.lo ->
        go ({ prev with hi = max_upper prev.hi iv.hi } :: acc') rest
      | _ -> go (iv :: acc) rest)
  in
  go [] sorted

let of_intervals pairs =
  pairs
  |> List.filter_map (fun (lo, hi) ->
         if nonempty lo hi then Some { lo; hi } else None)
  |> List.sort (fun i1 i2 -> cmp_lower i1.lo i2.lo)
  |> normalize

let union s1 s2 =
  List.merge (fun i1 i2 -> cmp_lower i1.lo i2.lo) s1 s2 |> normalize

(* Flip a bound between its roles: the complement of an interval ending in
   an (in/ex)clusive upper bound begins with the opposite lower bound. *)
let flip = function
  | Neg_inf -> Neg_inf
  | Pos_inf -> Pos_inf
  | Fin (x, c) -> Fin (x, not c)

let complement s =
  let rec go lo = function
    | [] -> if nonempty lo Pos_inf then [ { lo; hi = Pos_inf } ] else []
    | iv :: rest ->
      let gap_hi = flip iv.lo in
      let tail = go (flip iv.hi) rest in
      if nonempty lo gap_hi then { lo; hi = gap_hi } :: tail else tail
  in
  go Neg_inf s

let inter s1 s2 =
  (* Sweep both lists, emitting pairwise intersections. *)
  let rec go s1 s2 acc =
    match s1, s2 with
    | [], _ | _, [] -> List.rev acc
    | i1 :: r1, i2 :: r2 ->
      let lo = max_lower i1.lo i2.lo and hi = min_upper i1.hi i2.hi in
      let acc = if nonempty lo hi then { lo; hi } :: acc else acc in
      if cmp_upper i1.hi i2.hi <= 0 then go r1 s2 acc else go s1 r2 acc
  in
  go s1 s2 []

let diff s1 s2 = inter s1 (complement s2)

let is_empty s = s = []

let equal (s1 : t) (s2 : t) = s1 = s2

let mem x s =
  let in_iv iv =
    (match iv.lo with
    | Neg_inf -> true
    | Fin (a, c) -> if c then x >= a else x > a
    | Pos_inf -> false)
    &&
    match iv.hi with
    | Pos_inf -> true
    | Fin (b, c) -> if c then x <= b else x < b
    | Neg_inf -> false
  in
  List.exists in_iv s

let intervals s = s

let inf = function [] -> Pos_inf | iv :: _ -> iv.lo

let rec sup = function
  | [] -> Neg_inf
  | [ iv ] -> iv.hi
  | _ :: rest -> sup rest

let width iv =
  match iv.lo, iv.hi with
  | Fin (a, _), Fin (b, _) -> b -. a
  | _ -> infinity

let measure s = List.fold_left (fun acc iv -> acc +. width iv) 0.0 s

let is_bounded s =
  match s with
  | [] -> true
  | _ -> (
    match inf s, sup s with
    | Fin _, Fin _ -> true
    | _ -> false)

let component_at x s = List.find_opt (fun iv -> mem x [ iv ]) s

let nudge_up ~eps a hi =
  (* A point just above [a], staying inside an interval ending at [hi]. *)
  match hi with
  | Pos_inf -> a +. eps
  | Fin (b, _) -> if a +. eps < b then a +. eps else a +. ((b -. a) /. 2.0)
  | Neg_inf -> assert false

let nudge_down ~eps b lo =
  match lo with
  | Neg_inf -> b -. eps
  | Fin (a, _) -> if b -. eps > a then b -. eps else b -. ((b -. a) /. 2.0)
  | Pos_inf -> assert false

let first_point ~eps s =
  match s with
  | [] -> None
  | iv :: _ -> (
    match iv.lo with
    | Neg_inf -> None
    | Fin (a, true) -> Some a
    | Fin (a, false) -> Some (nudge_up ~eps a iv.hi)
    | Pos_inf -> None)

let clamp_above cap s = inter s (at_most cap)

let last_point_below ~eps cap s =
  match List.rev (clamp_above cap s) with
  | [] -> None
  | iv :: _ -> (
    match iv.hi with
    | Pos_inf -> None
    | Fin (b, true) -> Some b
    | Fin (b, false) -> Some (nudge_down ~eps b iv.lo)
    | Neg_inf -> None)

let sample_uniform u01 s =
  match s with
  | [] -> None
  | _ when not (is_bounded s) -> None
  | _ ->
    let m = measure s in
    if m <= 0.0 then
      (* A finite union of points: take the earliest one. *)
      match inf s with
      | Fin (x, _) -> Some x
      | Neg_inf | Pos_inf -> None
    else
      let r = u01 m in
      let rec pick r = function
        | [] -> None
        | iv :: rest ->
          let w = width iv in
          if r <= w then
            match iv.lo with
            | Fin (a, _) -> Some (a +. r)
            | Neg_inf | Pos_inf -> None
          else pick (r -. w) rest
      in
      (* r < m guaranteed by u01; fall back to sup on fp round-off. *)
      (match pick r s with
      | Some x -> Some x
      | None -> ( match sup s with Fin (b, _) -> Some b | _ -> None))

(* --- over-approximating set arithmetic (used by the lint abstract
   interpreter); results always contain the exact image set --- *)

let neg_bound = function
  | Neg_inf -> Pos_inf
  | Pos_inf -> Neg_inf
  | Fin (x, c) -> Fin (-.x, c)

let neg s =
  (* Negation reverses the component order, so [rev_map] restores it. *)
  List.rev_map (fun iv -> { lo = neg_bound iv.hi; hi = neg_bound iv.lo }) s

let add_lo b1 b2 =
  match b1, b2 with
  | Neg_inf, _ | _, Neg_inf -> Neg_inf
  | Fin (a, ca), Fin (b, cb) -> Fin (a +. b, ca && cb)
  | Pos_inf, _ | _, Pos_inf -> Pos_inf

let add_hi b1 b2 =
  match b1, b2 with
  | Pos_inf, _ | _, Pos_inf -> Pos_inf
  | Fin (a, ca), Fin (b, cb) -> Fin (a +. b, ca && cb)
  | Neg_inf, _ | _, Neg_inf -> Neg_inf

let add s1 s2 =
  match s1, s2 with
  | [], _ | _, [] -> []
  | _ ->
    List.concat_map
      (fun i1 -> List.map (fun i2 -> (add_lo i1.lo i2.lo, add_hi i1.hi i2.hi)) s2)
      s1
    |> of_intervals

let sub s1 s2 = add s1 (neg s2)

let mul s1 s2 =
  match s1, s2 with
  | [], _ | _, [] -> []
  | _ -> (
    match inf s1, sup s1, inf s2, sup s2 with
    | Fin (a, _), Fin (b, _), Fin (c, _), Fin (d, _) ->
      let ps = [ a *. c; a *. d; b *. c; b *. d ] in
      closed (List.fold_left min (a *. c) ps) (List.fold_left max (a *. c) ps)
    | _ -> full (* an unbounded factor: fall back to the trivial hull *))

let min_lower b1 b2 = if cmp_lower b1 b2 <= 0 then b1 else b2

let pointwise_min s1 s2 =
  match s1, s2 with
  | [], _ | _, [] -> []
  | _ -> make (min_lower (inf s1) (inf s2)) (min_upper (sup s1) (sup s2))

let pointwise_max s1 s2 =
  match s1, s2 with
  | [], _ | _, [] -> []
  | _ -> make (max_lower (inf s1) (inf s2)) (max_upper (sup s1) (sup s2))

let as_point = function
  | [ { lo = Fin (a, true); hi = Fin (b, true) } ] when a = b -> Some a
  | _ -> None

let pp_bound_lo ppf = function
  | Neg_inf -> Fmt.string ppf "(-inf"
  | Fin (x, true) -> Fmt.pf ppf "[%g" x
  | Fin (x, false) -> Fmt.pf ppf "(%g" x
  | Pos_inf -> Fmt.string ppf "(+inf"

let pp_bound_hi ppf = function
  | Pos_inf -> Fmt.string ppf "+inf)"
  | Fin (x, true) -> Fmt.pf ppf "%g]" x
  | Fin (x, false) -> Fmt.pf ppf "%g)" x
  | Neg_inf -> Fmt.string ppf "-inf)"

let pp ppf s =
  match s with
  | [] -> Fmt.string ppf "{}"
  | _ ->
    Fmt.list
      ~sep:(fun ppf () -> Fmt.string ppf " u ")
      (fun ppf iv -> Fmt.pf ppf "%a,%a" pp_bound_lo iv.lo pp_bound_hi iv.hi)
      ppf s

let to_string s = Fmt.str "%a" pp s
