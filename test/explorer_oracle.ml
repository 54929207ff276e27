(* Reference explorer for the CTMC pipeline: the state-space walk on the
   interpreter ([Moves_oracle], [State]) with states interned in the
   polymorphic [Hashtbl].  [Slimsim_ctmc.Explorer] runs the same loop on
   the compiled engine ([Slimsim_sta.Walker]); the oracle tests require
   both to build the same chain, state for state and bit for bit.  It
   raises the production explorer's exceptions so that tests can compare
   failures too. *)

open Slimsim_sta
module Ctmc = Slimsim_ctmc.Ctmc
module Explorer = Slimsim_ctmc.Explorer

type key = int array * Value.t array

let key_of (s : State.t) : key = (s.locs, s.vals)

let immediate net s =
  Moves_oracle.discrete net s
  |> List.filter_map (fun { Moves.move; window } ->
         if Slimsim_intervals.Interval_set.mem 0.0 window then Some move else None)

(* The chain, the statistics (with [explore_seconds] left at 0) and the
   stable states in their numbering. *)
let explore ?(max_states = 2_000_000) ?hold (net : Network.t) ~goal =
  let index : (key, int) Hashtbl.t = Hashtbl.create 4096 in
  let states : State.t array ref = ref [||] in
  let n = ref 0 in
  let vanishing = ref 0 in
  let worklist = Queue.create () in
  let intern (s : State.t) =
    let k = key_of s in
    match Hashtbl.find_opt index k with
    | Some i -> i
    | None ->
      let i = !n in
      if i >= max_states then raise (Explorer.Too_many_states i);
      if i >= Array.length !states then begin
        let bigger = Array.make (Int.max 64 (2 * Array.length !states)) s in
        Array.blit !states 0 bigger 0 (Array.length !states);
        states := bigger
      end;
      !states.(i) <- s;
      Hashtbl.add index k i;
      incr n;
      Queue.push i worklist;
      i
  in
  let rec close (s : State.t) prob on_path acc =
    match immediate net s with
    | [] -> (intern s, prob) :: acc
    | moves ->
      incr vanishing;
      let k = key_of s in
      if List.mem k on_path then
        raise
          (Explorer.Immediate_cycle
             "a cycle of immediate transitions never reaches a stable state");
      let p = prob /. float_of_int (List.length moves) in
      List.fold_left
        (fun acc mv -> close (Moves_oracle.apply net s mv) p (k :: on_path) acc)
        acc moves
  in
  let merge entries =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (i, p) ->
        Hashtbl.replace tbl i
          (p +. Option.value ~default:0.0 (Hashtbl.find_opt tbl i)))
      entries;
    Hashtbl.fold (fun i p acc -> (i, p) :: acc) tbl [] |> List.sort compare
  in
  let initial_dist = merge (close (State.initial net) 1.0 [] []) in
  let transitions = ref [] in
  let n_trans = ref 0 in
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    let s = !states.(i) in
    List.iter
      (fun (p, tr, rate) ->
        let s' = Moves_oracle.apply net s (Moves.Local { proc = p; tr }) in
        let dist = merge (close s' 1.0 [] []) in
        List.iter
          (fun (j, prob) ->
            transitions := (i, j, rate *. prob) :: !transitions;
            incr n_trans)
          dist)
      (Moves_oracle.markovian net s)
  done;
  let states = Array.sub !states 0 !n in
  let goal_arr = Array.map (fun s -> State.eval_bool s goal) states in
  let ctmc =
    Ctmc.make ~n_states:!n ~initial:initial_dist ~transitions:!transitions
      ~goal:goal_arr
  in
  let ctmc =
    match hold with
    | None -> ctmc
    | Some h ->
      Ctmc.with_bad ctmc
        (Array.mapi
           (fun i s -> (not goal_arr.(i)) && not (State.eval_bool s h))
           states)
  in
  let stats =
    {
      Explorer.stable_states = !n;
      transitions = !n_trans;
      vanishing_visits = !vanishing;
      explore_seconds = 0.0;
    }
  in
  (ctmc, stats, states)
