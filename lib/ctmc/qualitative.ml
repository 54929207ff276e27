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

(* The first move of state [p] that reaches state [i]: the one that
   numbered [i] when the breadth-first walk expanded [p], which interned
   every successor of [p], so [add] here only looks them up. *)
let move_to w table p i =
  Walker.Table.load table p w;
  List.find
    (fun mv ->
      Walker.trial w (fun () ->
          Walker.apply w mv;
          Walker.Table.add table w ~parent:p = i))
    (Walker.moves w)

let check_invariant ?(max_states = 1_000_000) ?(max_trace = 40)
    (net : Network.t) ~prop =
  Walker.protect @@ fun () ->
  let w = Walker.create ~budget:max_int net in
  let table = Walker.Table.create net in
  let state = Walker.Table.state table in
  let holds = Walker.predicate w prop in
  (* The parent chain of state [i]: its length, and the moves of its
     last [max_trace] steps (the suffix closest to the violation). *)
  let rec trace i steps acc =
    let p = Walker.Table.parent table i in
    if p < 0 then (steps, acc)
    else
      trace p (steps + 1)
        (if steps < max_trace then
           Moves.describe net (move_to w table p i) :: acc
         else acc)
  in
  Walker.reset w;
  ignore (Walker.Table.add table w ~parent:(-1));
  let rec walk () =
    match Walker.Table.next table with
    | None -> Ok (Holds { states = Walker.Table.length table })
    | Some _ when Walker.Table.length table > max_states ->
      Error (Printf.sprintf "state space exceeds %d states" max_states)
    | Some i ->
      Walker.Table.load table i w;
      if holds () then begin
        Walker.fold_successors w (fun () -> ignore (Walker.Table.add table w ~parent:i)) ();
        walk ()
      end
      else
        let steps, trace = trace i 0 [] in
        Ok
          (Violated
             {
               trace;
               truncated = max 0 (steps - max_trace);
               locs = loc_vector net (state i);
               states = Walker.Table.length table;
             })
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
  let table = Walker.Table.create net in
  let goal = Walker.predicate w goal and hold = Option.map (Walker.predicate w) hold in
  (* per state number: the depth once known, -1 while on the stack *)
  let memo = Hashtbl.create 1024 in
  let witness = ref None in
  let exception Not_sure_exn of string in
  (* Returns the maximum number of moves to the goal over all paths from
     the scratch's state; every path must end in a goal state. *)
  let rec visit path_rev : int =
    let known = Walker.Table.length table in
    let i = Walker.Table.add table w ~parent:(-1) in
    if i < known then
      match Hashtbl.find memo i with
      | -1 -> raise (Not_sure_exn "goal-free cycle in the delay-free closure")
      | d -> d
    else begin
      if known >= max_states then raise (Not_sure_exn "state budget exceeded");
      if goal () then begin
        if !witness = None then
          witness := Some (List.rev_map (Moves.describe net) path_rev);
        Hashtbl.replace memo i 0;
        0
      end
      else begin
        (match hold with
        | Some h when not (h ()) ->
          raise (Not_sure_exn "hold condition fails before the goal")
        | Some _ | None -> ());
        (* Delay-free: time must be unable to elapse, so no strategy and
           no horizon can interfere. *)
        match Walker.delay_free w with
        | `Race -> raise (Not_sure_exn "exponential race before the goal")
        | `Time_can_elapse -> raise (Not_sure_exn "time can elapse before the goal")
        | `Moves [] -> raise (Not_sure_exn "deadlock before the goal")
        | `Moves moves ->
          Hashtbl.replace memo i (-1);
          let d =
            List.fold_left
              (fun acc mv ->
                Walker.trial w (fun () ->
                    Walker.apply w mv;
                    max acc (1 + visit (mv :: path_rev))))
              0 moves
          in
          Hashtbl.replace memo i d;
          d
      end
    end
  in
  Walker.reset w;
  match visit [] with
  | depth ->
    let witness = Option.value ~default:[] !witness in
    Ok (Sure { states = Walker.Table.length table; depth; witness })
  | exception Not_sure_exn reason -> Ok (Not_sure { reason })
