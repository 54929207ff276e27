open Slimsim_sta

type outcome =
  | Holds of { states : int }
  | Violated of {
      trace : string list;
      truncated : int;
      locs : string list;
      states : int;
    }

let immediate net s =
  Moves.discrete net s
  |> List.filter_map (fun { Moves.move; window } ->
         if Moves.I.mem 0.0 window then Some move else None)

(* The violating state's location vector, one "proc=loc" entry per
   process. *)
let loc_vector net (s : State.t) =
  Array.to_list
    (Array.mapi
       (fun p l ->
         Printf.sprintf "%s=%s" (Network.proc_name net p)
           (Network.loc_name net ~proc:p l))
       s.State.locs)

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let check_invariant ?(max_states = 1_000_000) ?(max_trace = 40)
    (net : Network.t) ~prop =
  let seen = State.Tbl.create 4096 in
  let queue = Queue.create () in
  let push trace s =
    if not (State.Tbl.mem seen s) then begin
      State.Tbl.add seen s ();
      Queue.push (trace, s) queue
    end
  in
  push [] (State.initial net);
  let result = ref None in
  (try
     while not (Queue.is_empty queue) do
       if State.Tbl.length seen > max_states then
         failwith (Printf.sprintf "state space exceeds %d states" max_states);
       let trace, s = Queue.pop queue in
       if not (State.eval_bool s prop) then begin
         (* Keep the last [max_trace] steps — the suffix closest to the
            violation — and record how many were dropped. *)
         let full = List.rev trace in
         let truncated = max 0 (List.length full - max_trace) in
         result :=
           Some
             (Violated
                {
                  trace = drop truncated full;
                  truncated;
                  locs = loc_vector net s;
                  states = State.Tbl.length seen;
                });
         raise Exit
       end;
       (* both immediate moves and (rate-abstracted) Markovian jumps *)
       List.iter
         (fun mv -> push (Moves.describe net mv :: trace) (Moves.apply net s mv))
         (immediate net s);
       List.iter
         (fun (p, tr, _) ->
           let mv = Moves.Local { proc = p; tr } in
           push (Moves.describe net mv :: trace) (Moves.apply net s mv))
         (Moves.markovian net s)
     done
   with
  | Exit -> ()
  | Failure msg ->
    result := None;
    raise (Failure msg));
  match !result with
  | Some v -> Ok v
  | None -> Ok (Holds { states = State.Tbl.length seen })

let check_invariant ?max_states ?max_trace net ~prop =
  match check_invariant ?max_states ?max_trace net ~prop with
  | v -> v
  | exception Failure msg -> Error msg
  | exception Value.Type_error msg -> Error ("type error: " ^ msg)
  | exception Linear.Nonlinear msg -> Error ("non-linear guard: " ^ msg)

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
        if !witness = None then witness := Some (List.rev path_rev);
        State.Tbl.replace memo s (`Done 0);
        0
      end
      else begin
        (match hold with
        | Some h when not (State.eval_bool s h) ->
          raise (Not_sure_exn "hold condition fails before the goal")
        | Some _ | None -> ());
        if Moves.markovian net s <> [] then
          raise (Not_sure_exn "exponential race before the goal");
        (* Delay-free: time must be unable to elapse, so no strategy and
           no horizon can interfere. *)
        if not (Moves.I.equal (Moves.invariant_window net s) (Moves.I.point 0.0))
        then raise (Not_sure_exn "time can elapse before the goal");
        let moves = Moves.enabled_after net s 0.0 (Moves.discrete net s) in
        if moves = [] then raise (Not_sure_exn "deadlock before the goal");
        State.Tbl.replace memo s `On_stack;
        let d =
          List.fold_left
            (fun acc mv ->
              let s' = Moves.apply net s mv in
              max acc (1 + visit (Moves.describe net mv :: path_rev) s'))
            0 moves
        in
        State.Tbl.replace memo s (`Done d);
        d
      end
  in
  match visit [] (State.initial net) with
  | depth ->
    Ok
      (Sure
         {
           states = !states;
           depth;
           witness = Option.value ~default:[] !witness;
         })
  | exception Not_sure_exn reason -> Ok (Not_sure { reason })
  | exception Failure msg -> Error msg
  | exception Value.Type_error msg -> Error ("type error: " ^ msg)
  | exception Linear.Nonlinear msg -> Error ("non-linear guard: " ^ msg)
