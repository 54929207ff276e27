open Slimsim_sta

type outcome =
  | Holds of { states : int }
  | Violated of {
      trace : string list;
      truncated : int;
      locs : string list;
      states : int;
    }

(* The violating state's location vector, one "proc=loc" entry per
   process. *)
let loc_vector net (s : State.t) =
  Array.to_list
    (Array.mapi
       (fun p l ->
         Printf.sprintf "%s=%s" (Network.proc_name net p)
           (Network.loc_name net ~proc:p l))
       s.State.locs)

(* The first move of [s] that reaches [target]: the one that numbered
   [target] when the breadth-first walk expanded [s]. *)
let move_to w s target =
  let first = ref None in
  Walker.successors w s (fun mv s' ->
      if !first = None && State.equal_timeless s' target then first := Some mv);
  Option.get !first

let check_invariant ?(max_states = 1_000_000) ?(max_trace = 40)
    (net : Network.t) ~prop =
  Walker.protect @@ fun () ->
  let w = Walker.create ~budget:max_int net in
  let table = Walker.Table.create () in
  let state = Walker.Table.state table in
  (* The parent chain of state [i]: its length, and the moves of its
     last [max_trace] steps (the suffix closest to the violation). *)
  let rec trace i steps acc =
    let p = Walker.Table.parent table i in
    if p < 0 then (steps, acc)
    else
      trace p (steps + 1)
        (if steps < max_trace then
           Moves.describe net (move_to w (state p) (state i)) :: acc
         else acc)
  in
  ignore (Walker.Table.intern table (State.initial net) ~parent:(-1));
  let rec walk () =
    match Walker.Table.next table with
    | None -> Ok (Holds { states = Walker.Table.length table })
    | Some _ when Walker.Table.length table > max_states ->
      Error (Printf.sprintf "state space exceeds %d states" max_states)
    | Some i when not (State.eval_bool (state i) prop) ->
      let steps, trace = trace i 0 [] in
      Ok
        (Violated
           {
             trace;
             truncated = max 0 (steps - max_trace);
             locs = loc_vector net (state i);
             states = Walker.Table.length table;
           })
    | Some i ->
      Walker.successors w (state i) (fun _ s' ->
          ignore (Walker.Table.intern table s' ~parent:i));
      walk ()
  in
  walk ()

let pp_outcome ppf = function
  | Holds { states } -> Fmt.pf ppf "invariant holds (%d states explored)" states
  | Violated { trace; truncated; locs; states } ->
    Fmt.pf ppf "@[<v>invariant VIOLATED (%d states explored); counterexample:@,"
      states;
    if truncated > 0 then Fmt.pf ppf "  ... (%d earlier steps omitted)@," truncated;
    List.iter (fun step -> Fmt.pf ppf "  %s@," step) trace;
    Fmt.pf ppf "  violating state: %s@," (String.concat ", " locs);
    Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Almost-sure reachability on the delay-free fragment (the P=1 side of
   the pre-pass).                                                       *)

type certainty =
  | Sure of { states : int; depth : int; witness : string list }
  | Not_sure of { reason : string }

let certain_reachability ?(max_states = 100_000) ?hold (net : Network.t)
    ~goal =
  Walker.protect @@ fun () ->
  let w = Walker.create ~budget:max_int net in
  let memo = State.Tbl.create 1024 in
  let states = ref 0 in
  let witness = ref None in
  let exception Not_sure_exn of string in
  (* Returns the maximum number of moves to the goal over all paths from
     [s]; every path must end in a goal state. *)
  let rec visit path_rev s : int =
    match State.Tbl.find_opt memo s with
    | Some `On_stack ->
      raise (Not_sure_exn "goal-free cycle in the delay-free closure")
    | Some (`Done d) -> d
    | None ->
      incr states;
      if !states > max_states then raise (Not_sure_exn "state budget exceeded");
      if State.eval_bool s goal then begin
        if !witness = None then
          witness := Some (List.rev_map (Moves.describe net) path_rev);
        State.Tbl.replace memo s (`Done 0);
        0
      end
      else begin
        (match hold with
        | Some h when not (State.eval_bool s h) ->
          raise (Not_sure_exn "hold condition fails before the goal")
        | Some _ | None -> ());
        (* Delay-free: time must be unable to elapse, so no strategy and
           no horizon can interfere. *)
        match Walker.delay_free w s with
        | `Race -> raise (Not_sure_exn "exponential race before the goal")
        | `Time_can_elapse -> raise (Not_sure_exn "time can elapse before the goal")
        | `Moves [] -> raise (Not_sure_exn "deadlock before the goal")
        | `Moves moves ->
          State.Tbl.replace memo s `On_stack;
          let d =
            List.fold_left
              (fun acc mv ->
                let s' = Walker.successor w s mv in
                max acc (1 + visit (mv :: path_rev) s'))
              0 moves
          in
          State.Tbl.replace memo s (`Done d);
          d
      end
  in
  match visit [] (State.initial net) with
  | depth ->
    Ok (Sure { states = !states; depth; witness = Option.value ~default:[] !witness })
  | exception Not_sure_exn reason -> Ok (Not_sure { reason })
