type t = {
  c : Compiled.t;
  cs : Compiled.cstate;
  mutable loaded : State.t option;  (* the state the scratch holds *)
  mutable budget : int;
  mutable vanishing : int;
}

let create ~budget net =
  let c = Compiled.compile net in
  { c; cs = Compiled.scratch c; loaded = None; budget; vanishing = 0 }

(* Load [s] unless the scratch holds it already, as it does after the
   [successor] that returned it: a scratch that went through a move
   holds the values [of_state] would load from its [to_state]. *)
let load w s =
  match w.loaded with
  | Some l when l == s -> ()
  | _ ->
    Compiled.of_state w.c w.cs s;
    w.loaded <- Some s

let immediate w s =
  load w s;
  Compiled.set_rates w.c w.cs;
  Compiled.invariant_window w.c w.cs;
  List.init (Compiled.discrete w.c w.cs) Fun.id
  |> List.filter_map (fun i ->
         if Compiled.window_mem w.cs i 0.0 then Some (Compiled.move w.c w.cs i) else None)

let markovian w s =
  load w s;
  let n = Compiled.markovian w.c w.cs in
  let rates = Compiled.markov_buf w.cs in
  List.init n (fun i -> (Compiled.markov_proc w.cs i, Compiled.markov_tr w.cs i, rates.(i)))

let successor w s mv =
  load w s;
  w.loaded <- None;
  Compiled.apply w.c w.cs mv;
  let s' = Compiled.to_state w.c w.cs in
  w.loaded <- Some s';
  s'

let successors w s f =
  List.iter (fun mv -> f mv (successor w s mv)) (immediate w s);
  List.iter
    (fun (p, tr, _) ->
      let mv = Moves.Local { proc = p; tr } in
      f mv (successor w s mv))
    (markovian w s)

let delay_free w s =
  load w s;
  if Compiled.markovian w.c w.cs > 0 then `Race
  else begin
    Compiled.set_rates w.c w.cs;
    Compiled.invariant_window w.c w.cs;
    if Slimsim_intervals.Interval_set.(not (equal (Compiled.inv_window w.cs) (point 0.0)))
    then `Time_can_elapse
    else begin
      ignore (Compiled.discrete w.c w.cs);
      let k = Compiled.enabled_after w.c w.cs 0.0 in
      `Moves (List.init k (fun j -> Compiled.move w.c w.cs (Compiled.enabled w.cs j)))
    end
  end

exception Exhausted of { in_closure : bool }

let spend w ~in_closure =
  w.budget <- w.budget - 1;
  if w.budget < 0 then raise (Exhausted { in_closure })

let charge w = spend w ~in_closure:false

let asap w ~horizon s =
  let eps = 1e-9 and c = w.c and cs = w.cs in
  let rec go iterations =
    charge w;
    if not (iterations > 10_000 || Compiled.time cs >= horizon) then begin
      Compiled.set_rates c cs;
      Compiled.invariant_window c cs;
      ignore (Compiled.discrete c cs);
      let first = Compiled.moves_first_point cs ~eps in
      if not (first = infinity || Compiled.time cs +. first > horizon) then
        if Compiled.enabled_after c cs first = 0 then
          Compiled.advance c cs (Float.max first eps)
        else begin
          Compiled.apply_move c cs ~delay:first (Compiled.enabled cs 0);
          go (iterations + 1)
        end
    end
  in
  w.loaded <- None;
  Compiled.of_state c cs s;
  go 0;
  Compiled.to_state c cs

let closure w ~on_cycle leaf s acc =
  let rec go s prob on_path acc =
    spend w ~in_closure:true;
    match immediate w s with
    | [] -> leaf s prob acc
    | moves ->
      w.vanishing <- w.vanishing + 1;
      if List.exists (State.equal_timeless s) on_path then begin
        on_cycle ();
        acc
      end
      else
        let p = prob /. float_of_int (List.length moves) in
        List.fold_left (fun acc mv -> go (successor w s mv) p (s :: on_path) acc) acc moves
  in
  go s 1.0 [] acc

let vanishing_visits w = w.vanishing

module Table = struct
  type t = {
    index : int State.Tbl.t;
    mutable states : State.t array;
    mutable parents : int array;
    mutable n : int;
    mutable cursor : int;
  }

  let create () =
    { index = State.Tbl.create 4096; states = [||]; parents = [||]; n = 0; cursor = 0 }

  let length t = t.n

  let intern t s ~parent =
    match State.Tbl.find_opt t.index s with
    | Some i -> i
    | None ->
      let i = t.n in
      if i >= Array.length t.states then begin
        let size = Int.max 64 (2 * i) in
        let grow a x =
          let b = Array.make size x in
          Array.blit a 0 b 0 i;
          b
        in
        t.states <- grow t.states s;
        t.parents <- grow t.parents (-1)
      end;
      t.states.(i) <- s;
      t.parents.(i) <- parent;
      State.Tbl.add t.index s i;
      t.n <- i + 1;
      i

  let state t i = t.states.(i)
  let parent t i = t.parents.(i)

  let next t =
    if t.cursor >= t.n then None
    else begin
      t.cursor <- t.cursor + 1;
      Some (t.cursor - 1)
    end
end

let protect f =
  match f () with
  | v -> v
  | exception Value.Type_error msg -> Error ("type error: " ^ msg)
  | exception Linear.Nonlinear msg -> Error ("non-linear guard: " ^ msg)
