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
  let leaves = Ctmc.Row_buffer.create () and row = Ctmc.Row_buffer.create () in
  let leaf prob () =
    let i = Walker.Table.add table w ~parent:(-1) in
    if i >= max_states then raise (Too_many_states i);
    Ctmc.Row_buffer.push leaves i prob
  in
  (* [leaves] becomes the distribution over the stable states reachable
     from the scratch's state by immediate moves, resolved equiprobably
     (the simulator's rule, §III-B), by state number.  A target's
     weights add up last found first, the order they always have. *)
  let close () =
    Ctmc.Row_buffer.clear leaves;
    Walker.close w ~on_cycle leaf ();
    Ctmc.Row_buffer.reverse leaves;
    Ctmc.Row_buffer.merge leaves
  in
  Walker.reset w;
  close ();
  let initial_dist = Ctmc.Row_buffer.to_list leaves in
  (* Row i is built when state i is expanded, its entries in the order
     they are generated; so is its label byte: [is_goal], and [is_bad]
     where the hold breaks outside the goal.  Rows and labels are kept in
     chunks, which growing does not copy, and the chain's arrays are
     built once, at the end. *)
  let is_goal = 1 and is_bad = 2 in
  let goal_f = Walker.predicate w goal in
  let hold_f = Option.map (Walker.predicate w) hold in
  let targets = Chunked.entries [||] and rates = Chunked.entries (Float.Array.create 0) in
  let labels = Chunked.create (fun _ -> Bytes.create Chunked.size) in
  let label_chunk i = Chunked.chunk labels (i / Chunked.size) in
  let n_trans = ref 0 in
  let add_rate m () =
    close ();
    Ctmc.Row_buffer.append_scaled row leaves (Walker.rates w) m;
    n_trans := !n_trans + Ctmc.Row_buffer.length leaves
  in
  let rec expand () =
    match Walker.Table.next table with
    | None -> ()
    | Some i ->
      Walker.Table.load table i w;
      let label =
        if goal_f () then is_goal
        else match hold_f with Some f when not (f ()) -> is_bad | _ -> 0
      in
      Ctmc.Row_buffer.clear row;
      Walker.fold_rates w add_rate ();
      Ctmc.Row_buffer.merge row;
      Chunked.set targets i (Ctmc.Row_buffer.targets row);
      Chunked.set rates i (Ctmc.Row_buffer.rates row);
      Bytes.set (label_chunk i) (i mod Chunked.size) (Char.unsafe_chr label);
      expand ()
  in
  expand ();
  let n = Walker.Table.length table in
  let labelled l =
    Array.init n (fun i -> Char.code (Bytes.get (label_chunk i) (i mod Chunked.size)) = l)
  in
  let ctmc =
    Ctmc.of_arrays ~initial:initial_dist ~targets:(Chunked.to_array targets n)
      ~rates:(Chunked.to_array rates n) ~goal:(labelled is_goal)
  in
  let ctmc =
    if hold = None then ctmc else Ctmc.with_bad ctmc (labelled is_bad)
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
