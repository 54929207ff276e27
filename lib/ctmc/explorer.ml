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
  let w = Walker.create ~budget:max_int net in
  let table = Walker.Table.create net in
  let on_cycle () =
    raise (Immediate_cycle "a cycle of immediate transitions never reaches a stable state")
  in
  let leaf s prob acc =
    let i = Walker.Table.intern table s ~parent:(-1) in
    if i >= max_states then raise (Too_many_states i);
    (i, prob) :: acc
  in
  (* Distribution over stable states reachable from [s] by immediate
     moves, resolved equiprobably (the simulator's rule, §III-B), by
     state number. *)
  let close s = Ctmc.merge_row (Array.of_list (Walker.closure w ~on_cycle leaf s [])) in
  let initial_dist = Array.to_list (close (State.initial net)) in
  (* row i is built when state i is expanded, its entries in the order
     they are generated *)
  let rows = ref [||] in
  let n_trans = ref 0 in
  let rec expand () =
    match Walker.Table.next table with
    | None -> ()
    | Some i ->
      let s = Walker.Table.state table i in
      let entries = ref [] in
      List.iter
        (fun (p, tr, rate) ->
          Array.iter
            (fun (j, prob) ->
              entries := (j, rate *. prob) :: !entries;
              incr n_trans)
            (close (Walker.successor w s (Moves.Local { proc = p; tr }))))
        (Walker.markovian w s);
      if i >= Array.length !rows then begin
        let grown = Array.make (Int.max 64 (2 * i)) [||] in
        Array.blit !rows 0 grown 0 i;
        rows := grown
      end;
      !rows.(i) <- Ctmc.merge_row (Array.of_list (List.rev !entries));
      expand ()
  in
  expand ();
  let n = Walker.Table.length table in
  let state = Walker.Table.state table in
  let goal_arr = Array.init n (fun i -> State.eval_bool (state i) goal) in
  let bad =
    Option.map
      (fun h -> Array.init n (fun i -> (not goal_arr.(i)) && not (State.eval_bool (state i) h)))
      hold
  in
  let ctmc =
    Ctmc.of_rows ~initial:initial_dist ~rows:(Array.sub !rows 0 n) ~goal:goal_arr
  in
  let ctmc = Option.fold ~none:ctmc ~some:(Ctmc.with_bad ctmc) bad in
  let stats =
    {
      stable_states = n;
      transitions = !n_trans;
      vanishing_visits = Walker.vanishing_visits w;
      explore_seconds = Unix.gettimeofday () -. t0;
    }
  in
  (ctmc, stats)
