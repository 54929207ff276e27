type t = {
  n_states : int;
  initial : (int * float) array;
  targets : int array array;
  rates : Float.Array.t array;
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

module Row_buffer = struct
  (* [spare_tgt] and [spare_rate] are the merge sort's other half,
     allocated by the first sort that needs them *)
  type t = {
    mutable tgt : int array;
    mutable rate : Float.Array.t;
    mutable spare_tgt : int array;
    mutable spare_rate : Float.Array.t;
    mutable len : int;
  }

  let create () =
    {
      tgt = Array.make 16 0;
      rate = Float.Array.make 16 0.0;
      spare_tgt = [||];
      spare_rate = Float.Array.create 0;
      len = 0;
    }

  let clear b = b.len <- 0
  let length b = b.len
  let to_list b = List.init b.len (fun k -> (b.tgt.(k), Float.Array.get b.rate k))

  let equal_slices a i b j len =
    let e = ref 0 in
    while
      !e < len
      && a.tgt.(i + !e) = b.tgt.(j + !e)
      && Float.Array.get a.rate (i + !e) = Float.Array.get b.rate (j + !e)
    do
      incr e
    done;
    !e = len

  (* FNV-1a from [seed] over each entry's target and rate bits (the
     sign bit an int drops is 0 for a positive rate), then
     [Hashtbl.hash] to spread the low bits. *)
  let hash_slice b ~seed i len =
    let mix h x = (h lxor x) * 0x100000001b3 in
    let h = ref seed in
    for e = i to i + len - 1 do
      h := mix !h b.tgt.(e);
      h := mix !h (Int64.to_int (Int64.bits_of_float (Float.Array.get b.rate e)))
    done;
    Hashtbl.hash !h

  let reserve b extra =
    if b.len + extra > Array.length b.tgt then begin
      let cap = ref (Array.length b.tgt) in
      while b.len + extra > !cap do
        cap := 2 * !cap
      done;
      let tgt = Array.make !cap 0 and rate = Float.Array.make !cap 0.0 in
      Array.blit b.tgt 0 tgt 0 b.len;
      Float.Array.blit b.rate 0 rate 0 b.len;
      b.tgt <- tgt;
      b.rate <- rate
    end

  let push b t r =
    reserve b 1;
    b.tgt.(b.len) <- t;
    Float.Array.set b.rate b.len r;
    b.len <- b.len + 1

  let append dst src =
    reserve dst src.len;
    Array.blit src.tgt 0 dst.tgt dst.len src.len;
    Float.Array.blit src.rate 0 dst.rate dst.len src.len;
    dst.len <- dst.len + src.len

  let append_scaled dst src rates m =
    let by = rates.(m) in
    reserve dst src.len;
    for k = 0 to src.len - 1 do
      dst.tgt.(dst.len + k) <- src.tgt.(k);
      Float.Array.set dst.rate (dst.len + k) (by *. Float.Array.get src.rate k)
    done;
    dst.len <- dst.len + src.len

  let load b ~map targets rates =
    b.len <- 0;
    reserve b (Array.length targets);
    for k = 0 to Array.length targets - 1 do
      b.tgt.(k) <- map.(targets.(k));
      Float.Array.set b.rate k (Float.Array.get rates k)
    done;
    b.len <- Array.length targets

  let reverse b =
    let tgt = b.tgt and rate = b.rate in
    for k = 0 to (b.len / 2) - 1 do
      let j = b.len - 1 - k in
      let t = tgt.(k) and r = Float.Array.get rate k in
      tgt.(k) <- tgt.(j);
      Float.Array.set rate k (Float.Array.get rate j);
      tgt.(j) <- t;
      Float.Array.set rate j r
    done

  (* Runs this long are sorted by insertion before they are merged. *)
  let run = 8

  (* A stable sort by target: each run of [run] entries by insertion,
     then runs merged pairwise from one half of the buffer into the
     other, the left run first among equal targets, with the run length
     doubled each pass. *)
  let sort b =
    let n = b.len in
    let tgt = b.tgt and rate = b.rate in
    let lo = ref 0 in
    while !lo < n do
      let hi = Int.min n (!lo + run) in
      for k = !lo + 1 to hi - 1 do
        let t = tgt.(k) and r = Float.Array.get rate k in
        let j = ref (k - 1) in
        while !j >= !lo && tgt.(!j) > t do
          tgt.(!j + 1) <- tgt.(!j);
          Float.Array.set rate (!j + 1) (Float.Array.get rate !j);
          decr j
        done;
        tgt.(!j + 1) <- t;
        Float.Array.set rate (!j + 1) r
      done;
      lo := hi
    done;
    if n > run && Array.length b.spare_tgt < Array.length tgt then begin
      b.spare_tgt <- Array.make (Array.length tgt) 0;
      b.spare_rate <- Float.Array.make (Array.length tgt) 0.0
    end;
    let width = ref run in
    while !width < n do
      let src_t = b.tgt and src_r = b.rate and dst_t = b.spare_tgt and dst_r = b.spare_rate in
      let lo = ref 0 in
      while !lo < n do
        let mid = Int.min n (!lo + !width) in
        let hi = Int.min n (mid + !width) in
        let i = ref !lo and j = ref mid in
        for k = !lo to hi - 1 do
          let from =
            if !j >= hi || (!i < mid && src_t.(!i) <= src_t.(!j)) then begin
              incr i;
              !i - 1
            end
            else begin
              incr j;
              !j - 1
            end
          in
          dst_t.(k) <- src_t.(from);
          Float.Array.set dst_r k (Float.Array.get src_r from)
        done;
        lo := hi
      done;
      b.tgt <- dst_t;
      b.rate <- dst_r;
      b.spare_tgt <- src_t;
      b.spare_rate <- src_r;
      width := 2 * !width
    done

  (* [merge_row] in place: a stable sort by target, then each run of
     equal targets summed left to right as [r +. sum]. *)
  let merge b =
    sort b;
    let tgt = b.tgt and rate = b.rate in
    let w = ref 0 in
    for k = 0 to b.len - 1 do
      if !w > 0 && tgt.(!w - 1) = tgt.(k) then
        Float.Array.set rate (!w - 1) (Float.Array.get rate k +. Float.Array.get rate (!w - 1))
      else begin
        tgt.(!w) <- tgt.(k);
        Float.Array.set rate !w (Float.Array.get rate k);
        incr w
      end
    done;
    b.len <- !w

  let targets b = Array.sub b.tgt 0 b.len
  let rates b = Float.Array.sub b.rate 0 b.len
end

let fail who what = invalid_arg (who ^ ": " ^ what)

(* NaN fails every comparison, so it is named before the sign test. *)
let check_entry who n_states t r =
  if t < 0 || t >= n_states then fail who "state out of range";
  if Float.is_nan r || r = Float.infinity then fail who "rate must be finite";
  if r <= 0.0 then fail who "rate must be positive"

(* The one validation path for what every chain has besides its rows;
   errors are reported under the caller's name. *)
let check_header who ~n_states ~initial ~goal =
  if Array.length goal <> n_states then fail who "goal length";
  List.iter
    (fun (_, p) -> if not (Float.is_finite p) then fail who "initial probability must be finite")
    initial;
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 initial in
  if Float.abs (mass -. 1.0) > 1e-9 then fail who "initial distribution must sum to 1";
  List.iter
    (fun (s, p) ->
      if s < 0 || s >= n_states then fail who "initial state";
      if p < 0.0 then fail who "negative initial probability")
    initial

let build ~initial ~targets ~rates ~goal =
  let n_states = Array.length targets in
  { n_states; initial = Array.of_list initial; targets; rates; goal; bad = Array.make n_states false }

let rows_of who ~initial ~rows ~goal =
  let n = Array.length rows in
  check_header who ~n_states:n ~initial ~goal;
  Array.iter (Array.iter (fun (t, r) -> check_entry who n t r)) rows;
  let b = Row_buffer.create () in
  let targets = Array.make n [||] and rates = Array.make n (Float.Array.create 0) in
  Array.iteri
    (fun s row ->
      Row_buffer.clear b;
      Array.iter (fun (t, r) -> Row_buffer.push b t r) row;
      Row_buffer.merge b;
      targets.(s) <- Row_buffer.targets b;
      rates.(s) <- Row_buffer.rates b)
    rows;
  build ~initial ~targets ~rates ~goal

let of_rows ~initial ~rows ~goal = rows_of "Ctmc.of_rows" ~initial ~rows ~goal

let make ~n_states ~initial ~transitions ~goal =
  (* each row in the reverse of the list's order, the order its rates
     have always been summed in *)
  let rows = Array.make n_states [] in
  List.iter
    (fun (s, t, r) ->
      if s < 0 || s >= n_states then invalid_arg "Ctmc.make: state out of range";
      rows.(s) <- (t, r) :: rows.(s))
    transitions;
  rows_of "Ctmc.make" ~initial ~rows:(Array.map Array.of_list rows) ~goal

let of_arrays ~initial ~targets ~rates ~goal =
  let who = "Ctmc.of_arrays" in
  let n = Array.length targets in
  check_header who ~n_states:n ~initial ~goal;
  if Array.length rates <> n then fail who "rates length";
  Array.iteri
    (fun s tgt ->
      let rate = rates.(s) in
      if Float.Array.length rate <> Array.length tgt then fail who "row length";
      Array.iteri
        (fun e t ->
          check_entry who n t (Float.Array.get rate e);
          if e > 0 && tgt.(e - 1) >= t then fail who "row not merged")
        tgt)
    targets;
  build ~initial ~targets ~rates ~goal

let row t s = Array.mapi (fun e tgt -> (tgt, Float.Array.get t.rates.(s) e)) t.targets.(s)

let exit_rate t s =
  let rate = t.rates.(s) in
  let sum = ref 0.0 in
  for e = 0 to Float.Array.length rate - 1 do
    sum := !sum +. Float.Array.get rate e
  done;
  !sum

let max_exit_rate t =
  let m = ref 0.0 in
  for s = 0 to t.n_states - 1 do
    m := Float.max !m (exit_rate t s)
  done;
  !m

let n_transitions t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.targets

type uniformized = {
  index : int array;
  first : int array;
  col : int array;
  prob : Float.Array.t;
  into_goal : float array;
}

let uniformized_dtmc t ~q ~live =
  if not (q > 0.0) then invalid_arg "Ctmc.uniformized_dtmc: q must be positive";
  if Array.length live <> t.n_states then invalid_arg "Ctmc.uniformized_dtmc: live length";
  let index = Array.make t.n_states (-1) in
  let n_live = ref 0 in
  Array.iteri
    (fun s l ->
      if l then begin
        index.(s) <- !n_live;
        incr n_live
      end)
    live;
  let n_live = !n_live in
  let p = Row_buffer.create () in
  let first = Array.make (n_live + 1) 0 and into_goal = Array.make n_live 0.0 in
  for s = 0 to t.n_states - 1 do
    if live.(s) then begin
      let i = index.(s) in
      let self = 1.0 -. (exit_rate t s /. q) in
      if self > 0.0 then Row_buffer.push p i self;
      let row = t.targets.(s) and rate = t.rates.(s) in
      for k = 0 to Array.length row - 1 do
        let u = row.(k) and x = Float.Array.get rate k /. q in
        if live.(u) then Row_buffer.push p index.(u) x
        else if t.goal.(u) then into_goal.(i) <- into_goal.(i) +. x
      done;
      first.(i + 1) <- p.len
    end
  done;
  { index; first; col = p.tgt; prob = p.rate; into_goal }

let pp_summary ppf t =
  Fmt.pf ppf "ctmc: %d states, %d transitions, %d goal states" t.n_states
    (n_transitions t)
    (Array.fold_left (fun acc g -> if g then acc + 1 else acc) 0 t.goal)

let with_bad t bad =
  if Array.length bad <> t.n_states then invalid_arg "Ctmc.with_bad: length";
  { t with bad }
