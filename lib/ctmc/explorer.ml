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
  let table = Walker.Table.create () in
  (* Distribution over stable states reachable from [s] by immediate
     moves, resolved equiprobably (the simulator's rule, §III-B). *)
  let on_cycle () =
    raise (Immediate_cycle "a cycle of immediate transitions never reaches a stable state")
  in
  let leaf s prob acc =
    let i = Walker.Table.intern table s ~parent:(-1) in
    if i >= max_states then raise (Too_many_states i);
    (i, prob) :: acc
  in
  let close s = Walker.closure w ~on_cycle leaf s [] in
  let merge entries =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (i, p) ->
        Hashtbl.replace tbl i
          (p +. Option.value ~default:0.0 (Hashtbl.find_opt tbl i)))
      entries;
    Hashtbl.fold (fun i p acc -> (i, p) :: acc) tbl [] |> List.sort compare
  in
  let initial_dist = merge (close (State.initial net)) in
  let transitions = ref [] in
  let n_trans = ref 0 in
  let rec expand () =
    match Walker.Table.next table with
    | None -> ()
    | Some i ->
      let s = Walker.Table.state table i in
      List.iter
        (fun (p, tr, rate) ->
          let dist = merge (close (Walker.successor w s (Moves.Local { proc = p; tr }))) in
          List.iter
            (fun (j, prob) ->
              transitions := (i, j, rate *. prob) :: !transitions;
              incr n_trans)
            dist)
        (Walker.markovian w s);
      expand ()
  in
  expand ();
  let n = Walker.Table.length table in
  let goal_arr =
    Array.init n (fun i -> State.eval_bool (Walker.Table.state table i) goal)
  in
  let ctmc =
    Ctmc.make ~n_states:n ~initial:initial_dist ~transitions:!transitions
      ~goal:goal_arr
  in
  let ctmc =
    match hold with
    | None -> ctmc
    | Some h ->
      Ctmc.with_bad ctmc
        (Array.init n (fun i ->
             (not goal_arr.(i)) && not (State.eval_bool (Walker.Table.state table i) h)))
  in
  let stats =
    {
      stable_states = n;
      transitions = !n_trans;
      vanishing_visits = Walker.vanishing_visits w;
      explore_seconds = Unix.gettimeofday () -. t0;
    }
  in
  (ctmc, stats)
