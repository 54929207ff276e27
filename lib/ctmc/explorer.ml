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
  let leaf prob acc =
    let i = Walker.Table.add table w ~parent:(-1) in
    if i >= max_states then raise (Too_many_states i);
    (i, prob) :: acc
  in
  (* Distribution over the stable states reachable from the scratch's
     state by immediate moves, resolved equiprobably (the simulator's
     rule, §III-B), by state number. *)
  let close () = Ctmc.merge_row (Array.of_list (Walker.close w ~on_cycle leaf [])) in
  Walker.reset w;
  let initial_dist = Array.to_list (close ()) in
  (* row i is built when state i is expanded, its entries in the order
     they are generated *)
  let rows = ref [||] in
  let n_trans = ref 0 in
  let rec expand () =
    match Walker.Table.next table with
    | None -> ()
    | Some i ->
      Walker.Table.load table i w;
      let entries =
        Walker.fold_rates w
          (fun rate entries ->
            Array.fold_left
              (fun entries (j, prob) ->
                incr n_trans;
                (j, rate *. prob) :: entries)
              entries (close ()))
          []
      in
      if i >= Array.length !rows then begin
        let grown = Array.make (Int.max 64 (2 * i)) [||] in
        Array.blit !rows 0 grown 0 i;
        rows := grown
      end;
      !rows.(i) <- Ctmc.merge_row (Array.of_list (List.rev entries));
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
