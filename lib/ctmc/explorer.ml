open Slimsim_sta

exception Not_untimed of string
exception Immediate_cycle of string
exception Too_many_states of int

type stats = {
  stable_states : int;
  transitions : int;
  vanishing_visits : int;
  explore_seconds : float;
}

let check_untimed (net : Network.t) =
  Array.iter
    (fun (v : Network.var_info) ->
      match v.kind with
      | Network.Clock | Network.Continuous ->
        raise
          (Not_untimed
             (Printf.sprintf "variable %s is a clock or continuous" v.var_name))
      | Network.Discrete -> ())
    net.vars

let explore ?(max_states = 2_000_000) ?hold (net : Network.t) ~goal =
  check_untimed net;
  let t0 = Unix.gettimeofday () in
  let c = Compiled.compile net in
  let cs = Compiled.scratch c in
  (* Immediate moves: guarded moves enabled right now (in an untimed
     model a guard is delay-invariant, so "window contains 0" is the
     whole story).  Post-state invariants are trivially true. *)
  let immediate (s : State.t) =
    Compiled.of_state c cs s;
    Compiled.set_rates c cs;
    Compiled.invariant_window c cs;
    let n = Compiled.discrete c cs in
    List.filter_map
      (fun i ->
        if Compiled.window_mem cs i 0.0 then Some (Compiled.move c cs i) else None)
      (List.init n Fun.id)
  in
  let apply (s : State.t) mv =
    Compiled.of_state c cs s;
    Compiled.apply c cs mv;
    Compiled.to_state c cs
  in
  let index : int State.Tbl.t = State.Tbl.create 4096 in
  let states : State.t array ref = ref (Array.make 0 (State.initial net)) in
  let n = ref 0 in
  let vanishing = ref 0 in
  let worklist = Queue.create () in
  let intern (s : State.t) =
    match State.Tbl.find_opt index s with
    | Some i -> i
    | None ->
      let i = !n in
      if i >= max_states then raise (Too_many_states i);
      if i >= Array.length !states then begin
        let bigger =
          Array.make (Int.max 64 (2 * Array.length !states)) s
        in
        Array.blit !states 0 bigger 0 (Array.length !states);
        states := bigger
      end;
      !states.(i) <- s;
      State.Tbl.add index s i;
      incr n;
      Queue.push i worklist;
      i
  in
  (* Distribution over stable states reachable from [s] by immediate
     moves, resolved equiprobably (the simulator's rule, §III-B). *)
  let rec close (s : State.t) prob on_path acc =
    match immediate s with
    | [] -> (intern s, prob) :: acc
    | moves ->
      incr vanishing;
      if List.exists (State.equal_timeless s) on_path then
        raise
          (Immediate_cycle
             "a cycle of immediate transitions never reaches a stable state");
      let p = prob /. float_of_int (List.length moves) in
      List.fold_left
        (fun acc mv -> close (apply s mv) p (s :: on_path) acc)
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
    Compiled.of_state c cs s;
    (* [close] below reuses the scratch, so read the race out first *)
    let n = Compiled.markovian c cs in
    let rates = Compiled.markov_buf cs in
    List.iter
      (fun (p, tr, rate) ->
        let dist = merge (close (apply s (Moves.Local { proc = p; tr })) 1.0 [] []) in
        List.iter
          (fun (j, prob) ->
            transitions := (i, j, rate *. prob) :: !transitions;
            incr n_trans)
          dist)
      (List.init n (fun i ->
           (Compiled.markov_proc cs i, Compiled.markov_tr cs i, rates.(i))))
  done;
  let goal_arr =
    Array.init !n (fun i -> State.eval_bool !states.(i) goal)
  in
  let ctmc =
    Ctmc.make ~n_states:!n ~initial:initial_dist ~transitions:!transitions
      ~goal:goal_arr
  in
  let ctmc =
    match hold with
    | None -> ctmc
    | Some h ->
      Ctmc.with_bad ctmc
        (Array.init !n (fun i ->
             (not goal_arr.(i)) && not (State.eval_bool !states.(i) h)))
  in
  let stats =
    {
      stable_states = !n;
      transitions = !n_trans;
      vanishing_visits = !vanishing;
      explore_seconds = Unix.gettimeofday () -. t0;
    }
  in
  (ctmc, stats)
