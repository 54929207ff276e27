(* The state-graph walker ([Slimsim_sta.Walker]) against the interpreter
   of [Moves_oracle], on every bundled model and on the generated
   sensor/filter models n = 1..4:
   - from every reachable state, the immediate moves, the rate
     transitions and the all-branch immediate closure (cycles cut) are
     equal, in order, states and weights bit for bit;
   - the reachable set is equal, in the breadth-first order of
     [Qualitative.check_invariant], and [check_invariant] reports the
     interpreter's state counts and counterexamples.
   The CLI pins of [Test_safety_cli] show the outputs; this shows the
   relation, the cycle policies and the safety analyses' budgets. *)

open Slimsim_sta
module Qualitative = Slimsim_ctmc.Qualitative

let dir = Filename.dirname Sys.executable_name
let models_dir = Filename.concat dir "../examples/models"

let models () =
  let load_file f =
    match Slimsim.load_file (Filename.concat models_dir f) with
    | Ok m -> (f, Slimsim.network m)
    | Error e -> Alcotest.failf "load %s: %s" f e
  in
  let bundled =
    Sys.readdir models_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".slim")
    |> List.sort compare |> List.map load_file
  in
  bundled
  @ List.map
      (fun n ->
        (Printf.sprintf "sensor/filter n=%d" n, Fixture.load (Slimsim_models.Sensor_filter.source ~n)))
      [ 1; 2; 3; 4 ]

(* --- the interpreter's untimed abstraction --- *)

let immediate net s =
  Moves_oracle.discrete net s
  |> List.filter_map (fun { Moves.move; window } ->
         if Slimsim_intervals.Interval_set.mem 0.0 window then Some move else None)

(* [closure net s moves]: the closure from [s], whose immediate moves
   are [moves] *)
let closure net s moves =
  let rec go s moves prob on_path acc =
    match moves with
    | [] -> (s, prob) :: acc
    | moves ->
      if List.exists (State.equal_timeless s) on_path then acc
      else
        let p = prob /. float_of_int (List.length moves) in
        List.fold_left
          (fun acc mv ->
            let s' = Moves_oracle.apply net s mv in
            go s' (immediate net s') p (s :: on_path) acc)
          acc moves
  in
  go s moves 1.0 [] []

(* Breadth-first from the initial state, pushing the successors not
   seen yet (the immediate moves, then the rate transitions): the
   states in order, each with its parent and the move that first
   reached it, the number of states seen when it is dequeued, and its
   immediate moves and rate transitions. *)
let reachable net =
  let seen = State.Tbl.create 1024 in
  let found = ref [] in
  let queue = Queue.create () in
  let n = ref 0 in
  let push parent (s : State.t) =
    if not (State.Tbl.mem seen s) then begin
      State.Tbl.add seen s ();
      Queue.push (!n, s, parent) queue;
      incr n
    end
  in
  push None (State.initial net);
  while not (Queue.is_empty queue) do
    let i, s, parent = Queue.pop queue in
    let moves = immediate net s and rates = Moves_oracle.markovian net s in
    found := (s, parent, State.Tbl.length seen, moves, rates) :: !found;
    List.iter (fun mv -> push (Some (i, mv)) (Moves_oracle.apply net s mv)) moves;
    List.iter
      (fun (p, tr, _) ->
        let mv = Moves.Local { proc = p; tr } in
        push (Some (i, mv)) (Moves_oracle.apply net s mv))
      rates
  done;
  Array.of_list (List.rev !found)

(* --- comparisons --- *)

let same_state (a : State.t) (b : State.t) =
  let key (s : State.t) = (s.locs, s.vals, Int64.bits_of_float s.time) in
  compare (key a) (key b) = 0

let check_states name a b =
  Alcotest.(check int) (name ^ ": count") (List.length b) (List.length a);
  Alcotest.(check bool) (name ^ ": states") true (List.for_all2 same_state a b)

(* "the state is not [s]", as an expression over every location and
   variable *)
let is_not (s : State.t) =
  let at =
    Array.to_list (Array.mapi (fun p l -> Expr.Loc (p, l)) s.locs)
    @ Array.to_list (Array.mapi (fun v x -> Expr.Binop (Eq, Var v, Const x)) s.vals)
  in
  Expr.not_ (List.fold_left Expr.and_ Expr.true_ at)

let test_walker_matches_interpreter () =
  List.iter
    (fun (name, net) ->
      let w = Walker.create ~budget:max_int net in
      let order = reachable net in
      (* the walker's breadth-first walk, as check_invariant runs it *)
      let table = Walker.Table.create () in
      ignore (Walker.Table.intern table (State.initial net) ~parent:(-1));
      let rec walk () =
        match Walker.Table.next table with
        | None -> ()
        | Some i ->
          Walker.successors w (Walker.Table.state table i) (fun _ s' ->
              ignore (Walker.Table.intern table s' ~parent:i));
          walk ()
      in
      walk ();
      check_states (name ^ ": reachable set")
        (List.init (Walker.Table.length table) (Walker.Table.state table))
        (Array.to_list (Array.map (fun (s, _, _, _, _) -> s) order));
      (* the first reachable state where the walker and the interpreter
         differ, if any *)
      let differs (s, _, _, moves, rates) =
        let got = Walker.closure w ~on_cycle:ignore (fun s p acc -> (s, p) :: acc) s [] in
        let want = closure net s moves in
        let bits = List.map (fun (_, p) -> Int64.bits_of_float p) in
        Walker.immediate w s <> moves
        || Walker.markovian w s <> rates
        || List.compare_lengths got want <> 0
        || not (List.for_all2 (fun (a, _) (b, _) -> same_state a b) got want)
        || bits got <> bits want
      in
      Alcotest.(check (option int)) (name ^ ": first state with other successors") None
        (Array.find_index differs order);
      (match Qualitative.check_invariant net ~prop:Expr.true_ with
      | Ok (Qualitative.Holds { states }) ->
        Alcotest.(check int) (name ^ ": verify states") (Array.length order) states
      | _ -> Alcotest.failf "%s: the invariant true must hold" name);
      (* a violation at the middle state: the count of states seen and
         the counterexample (its last three steps) *)
      let k = Array.length order / 2 in
      let s, _, seen, _, _ = order.(k) in
      let rec chain k acc =
        match order.(k) with
        | _, None, _, _, _ -> acc
        | _, Some (j, mv), _, _, _ -> chain j (Moves.describe net mv :: acc)
      in
      let full = chain k [] in
      let truncated = max 0 (List.length full - 3) in
      match Qualitative.check_invariant ~max_trace:3 net ~prop:(is_not s) with
      | Ok (Qualitative.Violated v) ->
        Alcotest.(check int) (name ^ ": states at the violation") seen v.states;
        Alcotest.(check int) (name ^ ": steps omitted") truncated v.truncated;
        Alcotest.(check (list string)) (name ^ ": counterexample")
          (List.filteri (fun i _ -> i >= truncated) full)
          v.trace
      | _ -> Alcotest.failf "%s: expected a violation at state %d" name k)
    (models ())

(* The cycle policy is the caller's: the safety analyses cut the
   branch, the CTMC explorer raises; and every visited state costs one
   unit of the budget. *)
let cycle_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
  c: mode;
transitions
  a -[]-> b;
  b -[]-> a;
  a -[]-> c;
end D.I;
root D.I;
|}

let test_cycle_and_budget () =
  let net = Fixture.load cycle_model in
  let s0 = State.initial net in
  let leaves w = Walker.closure w ~on_cycle:ignore (fun s p acc -> (s, p) :: acc) s0 [] in
  let w = Walker.create ~budget:max_int net in
  (match leaves w with
  | [ (s, p) ] ->
    Alcotest.(check string) "the stable state" "c" (Network.loc_name net ~proc:0 s.locs.(0));
    Alcotest.(check (float 0.0)) "its weight, the cut branch's left out" 0.5 p
  | l -> Alcotest.failf "expected one stable state, got %d" (List.length l));
  (* a, b, then a again on the branch *)
  Alcotest.(check int) "vanishing visits" 3 (Walker.vanishing_visits w);
  (match Walker.closure w ~on_cycle:(fun () -> raise Exit) (fun _ _ acc -> acc) s0 () with
  | exception Exit -> ()
  | () -> Alcotest.fail "on_cycle must run");
  (* the closure visits four states: a, b, a, c *)
  match leaves (Walker.create ~budget:3 net) with
  | exception Walker.Exhausted { in_closure } ->
    Alcotest.(check bool) "exhausted in the closure" true in_closure
  | _ -> Alcotest.fail "a budget of 3 must run out"

(* Each analysis keeps its own budget accounting and message: the
   thresholds and messages on sensor_filter_2, as the interpreted
   analyses produced them before the walker. *)
let test_budgets () =
  let net = Fixture.load (Slimsim_models.Sensor_filter.source ~n:2) in
  let goal = Fixture.goal net "sensors.exhausted or filters.exhausted" in
  let observables = [ "sensors.s1.value"; "filters.f1.value" ] in
  let module C = Slimsim_safety.Cutsets in
  let module F = Slimsim_safety.Fmea in
  let module D = Slimsim_safety.Fdir in
  let module G = Slimsim_safety.Diagnosability in
  let outcome = function Ok _ -> "ok" | Error e -> e in
  let cutsets b = outcome (C.minimal_cut_sets ~max_expansions:b net ~goal) in
  let fmea b = outcome (F.analyze ~max_expansions:b net ~goal) in
  let fdir b = outcome (D.analyze ~max_expansions:b ~settle_time:40.0 net ~observables) in
  let diag b = outcome (G.check ~max_expansions:b net ~observables ~diagnosis:goal) in
  Alcotest.(check (list string)) "budgets"
    [
      "closure budget exhausted"; "expansion budget exhausted";
      "closure budget exhausted"; "ok";
      "FMEA expansion budget exhausted"; "ok";
      "FDIR expansion budget exhausted"; "ok";
      "diagnosability expansion budget exhausted"; "ok";
    ]
    [ cutsets 0; cutsets 1; cutsets 38; cutsets 39; fmea 6; fmea 7; fdir 7; fdir 8; diag 28; diag 29 ]

let suite =
  [
    Alcotest.test_case "walker = interpreter" `Quick test_walker_matches_interpreter;
    Alcotest.test_case "cycle policy and budget" `Quick test_cycle_and_budget;
    Alcotest.test_case "safety budgets and messages" `Quick test_budgets;
  ]
