type t = {
  n_states : int;
  initial : (int * float) array;
  rows : (int * float) array array;
  goal : bool array;
  bad : bool array;
}

let merge_row row =
  let n = Array.length row in
  let rec canonical k = k >= n - 1 || (fst row.(k) < fst row.(k + 1) && canonical (k + 1)) in
  if canonical 0 then row
  else begin
    let sorted = Array.copy row in
    Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) sorted;
    let merged =
      Array.fold_left
        (fun acc (t, r) ->
          match acc with
          | (t', sum) :: rest when t' = t -> (t, r +. sum) :: rest
          | acc -> (t, r) :: acc)
        [] sorted
    in
    Array.of_list (List.rev merged)
  end

(* The one validation path: [make] reports its errors under its own
   name. *)
let build who ~initial ~rows ~goal =
  let fail what = invalid_arg (who ^ ": " ^ what) in
  let n_states = Array.length rows in
  if Array.length goal <> n_states then fail "goal length";
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 initial in
  if Float.abs (mass -. 1.0) > 1e-9 then fail "initial distribution must sum to 1";
  List.iter
    (fun (s, p) ->
      if s < 0 || s >= n_states then fail "initial state";
      if p < 0.0 then fail "negative initial probability")
    initial;
  Array.iter
    (Array.iter (fun (t, r) ->
         if t < 0 || t >= n_states then fail "state out of range";
         if r <= 0.0 then fail "rate must be positive"))
    rows;
  let rows = Array.map merge_row rows in
  let bad = Array.make n_states false in
  { n_states; initial = Array.of_list initial; rows; goal; bad }

let of_rows ~initial ~rows ~goal = build "Ctmc.of_rows" ~initial ~rows ~goal

let make ~n_states ~initial ~transitions ~goal =
  (* each row in the reverse of the list's order, the order its rates
     have always been summed in *)
  let rows = Array.make n_states [] in
  List.iter
    (fun (s, t, r) ->
      if s < 0 || s >= n_states then invalid_arg "Ctmc.make: state out of range";
      rows.(s) <- (t, r) :: rows.(s))
    transitions;
  build "Ctmc.make" ~initial ~rows:(Array.map Array.of_list rows) ~goal

let exit_rate t s = Array.fold_left (fun acc (_, r) -> acc +. r) 0.0 t.rows.(s)

let max_exit_rate t =
  let m = ref 0.0 in
  for s = 0 to t.n_states - 1 do
    m := Float.max !m (exit_rate t s)
  done;
  !m

let n_transitions t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.rows

let uniformized_dtmc t ~q =
  if q <= 0.0 then invalid_arg "Ctmc.uniformized_dtmc: q must be positive";
  Array.mapi
    (fun s row ->
      let out = exit_rate t s in
      let self = 1.0 -. (out /. q) in
      let scaled = Array.map (fun (tgt, r) -> (tgt, r /. q)) row in
      if self > 0.0 then Array.append [| (s, self) |] scaled else scaled)
    t.rows

let pp_summary ppf t =
  Fmt.pf ppf "ctmc: %d states, %d transitions, %d goal states" t.n_states
    (n_transitions t)
    (Array.fold_left (fun acc g -> if g then acc + 1 else acc) 0 t.goal)

let with_bad t bad =
  if Array.length bad <> t.n_states then invalid_arg "Ctmc.with_bad: length";
  { t with bad }
