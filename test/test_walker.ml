(* The state-graph walker ([Slimsim_sta.Walker]) against the interpreter
   of [Moves_oracle], on every bundled model, on the generated
   sensor/filter models n = 1..4 and on [Fixture.lane_network] and
   [Fixture.real_lane_network]:
   - from every reachable state, loaded into the walker's scratch, the
     immediate moves, the rate transitions and the all-branch immediate
     closure (cycles cut) are equal, in order, states and weights bit
     for bit;
   - the reachable set is equal, in the breadth-first order of
     [Qualitative.check_invariant], and [check_invariant] reports the
     interpreter's state counts and counterexamples.
   The CLI pins of [Test_safety_cli] show the outputs; this shows the
   relation, the cycle policies and the safety analyses' budgets.  The
   packed interning table is checked against a Stdlib [Hashtbl]
   reference on random states, and the memory it retains per state is
   bounded. *)

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
  @ [ ("lane network", Fixture.lane_network ()); ("real lane network", Fixture.real_lane_network ()) ]

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

(* A Stdlib [Hashtbl] key for {!State.equal_timeless}: the polymorphic
   hash folds [-0.0] onto [0.0] and every NaN onto one, and [compare]
   is the same equality. *)
let timeless (s : State.t) = (s.locs, s.vals)

(* Breadth-first from the initial state, pushing the successors not
   seen yet (the immediate moves, then the rate transitions): the
   states in order, each with its parent and the move that first
   reached it, the number of states seen when it is dequeued, and its
   immediate moves and rate transitions. *)
let reachable net =
  let seen = Hashtbl.create 1024 in
  let found = ref [] in
  let queue = Queue.create () in
  let n = ref 0 in
  let push parent (s : State.t) =
    if not (Hashtbl.mem seen (timeless s)) then begin
      Hashtbl.add seen (timeless s) ();
      Queue.push (!n, s, parent) queue;
      incr n
    end
  in
  push None (State.initial net);
  while not (Queue.is_empty queue) do
    let i, s, parent = Queue.pop queue in
    let moves = immediate net s and rates = Moves_oracle.markovian net s in
    found := (s, parent, Hashtbl.length seen, moves, rates) :: !found;
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

(* The state the walker's scratch holds *)
let read net w =
  {
    State.locs = Array.init (Array.length net.Network.procs) (Walker.loc w);
    vals = Array.init (Array.length net.vars) (Walker.value w);
    time = Walker.time w;
  }

let test_walker_matches_interpreter () =
  List.iter
    (fun (name, net) ->
      let w = Walker.create ~budget:max_int net in
      let order = reachable net in
      (* the walker's breadth-first walk, as check_invariant runs it *)
      let table = Walker.Table.create net in
      Walker.reset w;
      ignore (Walker.Table.add table w ~parent:(-1));
      let rec walk () =
        match Walker.Table.next table with
        | None -> ()
        | Some i ->
          Walker.Table.load table i w;
          Walker.fold_successors w (fun () -> ignore (Walker.Table.add table w ~parent:i)) ();
          walk ()
      in
      walk ();
      check_states (name ^ ": reachable set")
        (List.init (Walker.Table.length table) (Walker.Table.state table))
        (Array.to_list (Array.map (fun (s, _, _, _, _) -> s) order));
      (* the first reachable state where the walker and the interpreter
         differ, if any *)
      let differs (i, (s, _, _, moves, rates)) =
        let at f =
          Walker.Table.load table i w;
          f ()
        in
        let got = at (fun () -> Walker.close w ~on_cycle:ignore (fun p acc -> (read net w, p) :: acc) []) in
        let want = closure net s moves in
        let bits = List.map (fun (_, p) -> Int64.bits_of_float p) in
        at (fun () -> Walker.moves w)
        <> moves @ List.map (fun (proc, tr, _) -> Moves.Local { proc; tr }) rates
        || at (fun () ->
               List.rev
                 (Walker.fold_rates w
                    (fun m acc -> (Walker.rate_proc w m, Walker.rate_tr w m, (Walker.rates w).(m)) :: acc)
                    []))
           <> rates
        || List.compare_lengths got want <> 0
        || not (List.for_all2 (fun (a, _) (b, _) -> same_state a b) got want)
        || bits got <> bits want
      in
      Alcotest.(check (option int)) (name ^ ": first state with other successors") None
        (Array.find_index differs (Array.mapi (fun i x -> (i, x)) order));
      (match Qualitative.check_invariant net ~prop:Expr.true_ with
      | Ok (Qualitative.Holds { states }) ->
        Alcotest.(check int) (name ^ ": verify states") (Array.length order) states
      | _ -> Alcotest.failf "%s: the invariant true must hold" name);
      (* a violation at the middle state: the count of states seen and
         the counterexample (its last three steps) *)
      let s, _, _, _, _ = order.(Array.length order / 2) in
      let prop = is_not s in
      (* the first state where [prop] fails: the middle one, unless an
         earlier state's values equal its own under [Value.equal] (an
         [Int] and a [Real] of the same number) *)
      let k =
        Option.get (Array.find_index (fun (s, _, _, _, _) -> not (State.eval_bool s prop)) order)
      in
      let _, _, seen, _, _ = order.(k) in
      let rec chain k acc =
        match order.(k) with
        | _, None, _, _, _ -> acc
        | _, Some (j, mv), _, _, _ -> chain j (Moves.describe net mv :: acc)
      in
      let full = chain k [] in
      let truncated = max 0 (List.length full - 3) in
      match Qualitative.check_invariant ~max_trace:3 net ~prop with
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

(* [cycle_model] with the cut branch last: the closure's last visit is
   the cycle, not the stable state *)
let cycle_last_model =
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
  a -[]-> c;
  a -[]-> b;
  b -[]-> a;
end D.I;
root D.I;
|}

let test_cycle_and_budget () =
  let net = Fixture.load cycle_model in
  let leaves w =
    Walker.reset w;
    Walker.close w ~on_cycle:ignore (fun p acc -> (Walker.loc w 0, p) :: acc) []
  in
  let w = Walker.create ~budget:max_int net in
  (match leaves w with
  | [ (l, p) ] ->
    Alcotest.(check string) "the stable state" "c" (Network.loc_name net ~proc:0 l);
    Alcotest.(check (float 0.0)) "its weight, the cut branch's left out" 0.5 p
  | l -> Alcotest.failf "expected one stable state, got %d" (List.length l));
  (* a, b, then a again on the branch *)
  Alcotest.(check int) "vanishing visits" 3 (Walker.vanishing_visits w);
  Walker.reset w;
  (match Walker.close w ~on_cycle:(fun () -> raise Exit) (fun _ acc -> acc) () with
  | exception Exit -> ()
  | () -> Alcotest.fail "on_cycle must run");
  (* the witness is the stable state, also when the cycle comes last *)
  List.iter
    (fun src ->
      let net = Fixture.load src in
      let w = Walker.create ~budget:max_int net in
      Walker.reset w;
      Walker.witness w ignore;
      Alcotest.(check string) "the witness" "c" (Network.loc_name net ~proc:0 (Walker.loc w 0)))
    [ cycle_model; cycle_last_model ];
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

(* --- the packed interning table --- *)

(* Values whose packed length changes in one move: a process of 130
   locations (a location past 127 takes two bytes) and an int that
   jumps by 200 and changes sign.  A successor's key patched from the
   loaded state must then fall back to a full pack.  Beside them a
   real counting by halves, a Boolean, and a real that takes [-0.0],
   infinities and NaNs, which its key must hold as [intern] packs
   them: [0.0] and [Float.nan]. *)
let wide_network () =
  let module E = Expr in
  let v = E.var and i = E.int in
  let bin op x y = E.Binop (op, x, y) in
  let loc k = { Automaton.loc_name = Printf.sprintf "l%d" k; invariant = E.true_; derivs = [] } in
  let tr src dst rate updates =
    { Automaton.src; dst; label = Automaton.Tau; guard = Automaton.Rate rate; updates; weight = 1.0 }
  in
  let n = 130 in
  let walk =
    Automaton.make ~name:"walk" ~locations:(Array.init n loc) ~initial:0
      ~transitions:
        (List.concat
           (List.init n (fun k ->
                [
                  tr k ((k + 129) mod n) 1.0 [ (0, bin E.Add (v 0) (i 200)) ];
                  tr k ((k + 100) mod n) 2.0 [ (0, bin E.Sub (i 0) (v 0)) ];
                  tr k k 0.5 [ (1, bin E.Add (v 1) (E.real 0.5)); (2, E.Unop (E.Not, v 2)) ];
                  tr k k 0.5 [ (3, E.Unop (E.Neg, v 3)) ];
                  tr k k 0.25 [ (3, bin E.Mul (bin E.Add (v 3) (E.real 1.0)) (E.real 1e308)) ];
                  tr k k 0.25 [ (3, bin E.Sub (v 3) (v 3)) ];
                ])))
  in
  let var name init = { Network.var_name = name; kind = Network.Discrete; init; owner = None } in
  Network.make
    ~procs:[ (walk, Network.default_meta) ]
    ~vars:
      [| var "x" (Value.Int 0); var "y" (Value.Real 0.0); var "b" (Value.Bool false); var "z" (Value.Real 0.0) |]
    ~events:[||] ~flows:[]

(* States of one network's shape around a base state, each differing
   from it in up to three places, most often the last value, so that
   many keys share long prefixes.  Each value is drawn from the pool
   entries of its variable's declared type, and locations from their
   own pool.  The pools hold the cases the packing must keep apart or
   fold together: [Real 0.0] and [Real (-0.0)], NaNs with other
   payloads and signs, infinities, Booleans, negative and extreme ints,
   ints around the one-byte encoding's bound, locations of 256 and
   more. *)
let value_pool =
  let nan_bits b = Value.Real (Int64.float_of_bits b) in
  [|
    Value.Bool false; Bool true; Int 0; Int 1; Int 3; Int (-1); Int (-129); Int 251;
    Int 252; Int 256; Int max_int; Int min_int; Int (1 lsl 40); Real 0.0; Real (-0.0);
    Real 1.0; Real 3.0; Real 251.0; Real (-1.0); Real nan; nan_bits 0x7ff0000000000001L;
    nan_bits 0xfff8000000000000L; nan_bits 0x7ff800000000abcdL; Real infinity;
    Real neg_infinity; Real 1e-300;
  |]

let loc_pool = [| 0; 1; 2; 127; 128; 255; 256; 300; 65_536; 1 lsl 40 |]

let gen_states (net : Network.t) =
  let procs = Array.length net.procs and vars = Array.length net.vars in
  let pool v =
    let ty = Network.var_type net v in
    Array.of_list (List.filter (fun x -> Value.type_of x = ty) (Array.to_list value_pool))
  in
  QCheck2.Gen.(
    let loc = oneofa loc_pool and value v = oneofa (pool v) in
    let* base_locs = array_size (return procs) loc in
    let* base_vals = flatten_a (Array.init vars value) in
    let change =
      let* at = frequency [ (3, return (procs + vars - 1)); (2, int_range 0 (procs + vars - 1)) ] in
      let* l = loc and* v = if at < procs then return (Value.Bool false) else value (at - procs) in
      return (at, l, v)
    in
    let state =
      let* changes = list_size (int_range 0 3) change in
      let* time = oneofl [ 0.0; 1.5; -0.0; 1e9 ] in
      let locs = Array.copy base_locs and vals = Array.copy base_vals in
      List.iter
        (fun (at, l, v) -> if at < procs then locs.(at) <- l else vals.(at - procs) <- v)
        changes;
      return { State.locs; vals; time }
    in
    list_size (int_range 1 80) state)

let print_state (s : State.t) =
  Printf.sprintf "{locs=[%s]; vals=[%s]; time=%h}"
    (String.concat ";" (Array.to_list (Array.map string_of_int s.locs)))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (function
               | Value.Real f -> Printf.sprintf "Real %h (%Lx)" f (Int64.bits_of_float f)
               | v -> Value.to_string v)
             s.vals)))
    s.time

(* Each state gets the number a [Hashtbl] reference gives it, and the
   table gives back, for every number, a state equal to the first one
   interned there, with its time and parent.  The first two states are
   roots (parent -1), so the parents are first stored part-way. *)
let parent_of k = (k / 2) - 1

let test_table_property =
  let shapes =
    List.map Fixture.load [ cycle_model; Slimsim_models.Sensor_filter.source ~n:1 ]
    @ [ wide_network () ]
  in
  let gen =
    QCheck2.Gen.(
      let* net = oneofl shapes in
      let* states = gen_states net in
      return (net, states))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"packed table = Hashtbl"
       ~print:(fun (_, states) -> String.concat "\n" (List.map print_state states))
       gen
       (fun (net, states) ->
         let table = Walker.Table.create net in
         let reference = Hashtbl.create 16 in
         let firsts = ref [] in
         List.iteri
           (fun k s ->
             let want =
               match Hashtbl.find_opt reference (timeless s) with
               | Some i -> i
               | None ->
                 let i = Hashtbl.length reference in
                 Hashtbl.add reference (timeless s) i;
                 firsts := (s, k) :: !firsts;
                 i
             in
             let got = Walker.Table.intern table s ~parent:(parent_of k) in
             if got <> want then
               QCheck2.Test.fail_reportf "state %d, %s: number %d, expected %d" k
                 (print_state s) got want)
           states;
         let firsts = Array.of_list (List.rev !firsts) in
         if Walker.Table.length table <> Array.length firsts then
           QCheck2.Test.fail_reportf "%d states, expected %d" (Walker.Table.length table)
             (Array.length firsts);
         Array.iteri
           (fun i ((first : State.t), k) ->
             let s = Walker.Table.state table i in
             if
               not
                 (State.equal_timeless s first
                 && Int64.equal (Int64.bits_of_float s.time) (Int64.bits_of_float first.time)
                 && Walker.Table.parent table i = parent_of k)
             then
               QCheck2.Test.fail_reportf "state %d is %s, interned as %s" i (print_state s)
                 (print_state first))
           firsts;
         true))

(* A network of [procs] one-location processes and variables of the
   declared [types], none of them written: a shape to intern states of. *)
let shape ~procs types =
  let proc k =
    let only = { Automaton.loc_name = "l"; invariant = Expr.true_; derivs = [] } in
    ( Automaton.make ~name:(Printf.sprintf "p%d" k) ~locations:[| only |] ~initial:0 ~transitions:[],
      Network.default_meta )
  in
  let var v ty =
    let init = match ty with Value.Tbool -> Value.Bool false | Tint -> Int 0 | Treal -> Real 0.0 in
    { Network.var_name = Printf.sprintf "v%d" v; kind = Network.Discrete; init; owner = None }
  in
  Network.make ~procs:(List.init procs proc) ~vars:(Array.mapi var types) ~events:[||] ~flows:[]

(* The table keeps keys in arena chunks that double up to 64 KiB and
   its per-state entries in chunks of 1024; the property above never
   leaves the first entry chunk or the first few, small, arena chunks.
   20,000 distinct states of 6 locations and 10 values (the first an
   int numbering the state, then ints, reals and a Boolean), their keys
   48 to 72 bytes long, fill 24 arena chunks and 20 entry chunks: the
   lengths mix one-byte values with 8-byte reals and varints of every
   size, so keys land at many offsets next to each arena chunk's end.
   Every state is interned twice, and numbers, states, parents and
   times must match a [Hashtbl] reference. *)
let test_table_chunks () =
  let types = Value.[| Tint; Tint; Treal; Tint; Treal; Tbool; Tint; Treal; Tint; Treal |] in
  let net = shape ~procs:6 types in
  let n = 20_000 in
  let state k =
    let value v =
      match types.(v) with
      | Tbool -> Value.Bool (k land (1 lsl v) <> 0)
      | Tint when (k + v) mod 2 = 0 -> Int (k mod 200)
      | Tint -> Int ((k * 1_000_003) lsl (k mod 40))
      | Treal when (k + v) mod 3 = 0 -> Real (float_of_int (k mod 3))
      | Treal -> Real (float_of_int k /. 7.0)
    in
    {
      State.locs = Array.init 6 (fun p -> (k lsr p) land 3);
      vals = Array.init (Array.length types) (fun v -> if v = 0 then Value.Int k else value v);
      time = float_of_int k;
    }
  in
  let table = Walker.Table.create net in
  let reference = Hashtbl.create n in
  for k = 0 to n - 1 do
    let s = state k in
    Hashtbl.replace reference (timeless s) k;
    let i = Walker.Table.intern table s ~parent:(k - 1) in
    if i <> k then Alcotest.failf "state %d is numbered %d" k i
  done;
  for k = n - 1 downto 0 do
    let s = { (state k) with State.time = -1.0 } in
    let i = Walker.Table.intern table s ~parent:0 in
    if Some i <> Hashtbl.find_opt reference (timeless s) then
      Alcotest.failf "state %d interned again as %d" k i
  done;
  Alcotest.(check int) "states" n (Walker.Table.length table);
  for i = 0 to n - 1 do
    let want = state i and got = Walker.Table.state table i in
    if
      not
        (State.equal_timeless got want
        && Int64.equal (Int64.bits_of_float got.time) (Int64.bits_of_float want.time)
        && Walker.Table.parent table i = i - 1)
    then
      Alcotest.failf "state %d is %s, interned as %s" i (print_state got) (print_state want)
  done

(* A key has no byte that says which type a value is: [intern] refuses
   a value that is not of its variable's declared type, naming the
   variable, and keeps nothing of the state.  [wide_network]'s variables
   are the int [x], the reals [y] and [z] and the Boolean [b]. *)
let test_table_mistyped () =
  let net = wide_network () in
  let table = Walker.Table.create net in
  let state vals = { State.locs = [| 0 |]; vals; time = 0.0 } in
  let refused vals want =
    match Walker.Table.intern table (state vals) ~parent:(-1) with
    | i -> Alcotest.failf "%s: interned as %d" want i
    | exception Invalid_argument msg -> Alcotest.(check string) want want msg
  in
  let ok = Value.[| Int 0; Real 0.0; Bool false; Real 0.0 |] in
  let with_ v x = Array.mapi (fun u y -> if u = v then x else y) ok in
  refused (with_ 1 (Int 1)) "Walker.Table.intern: variable y is declared real, not int (1)";
  refused (with_ 0 (Real 1.0)) "Walker.Table.intern: variable x is declared int, not real (1)";
  refused (with_ 2 (Int 0)) "Walker.Table.intern: variable b is declared bool, not int (0)";
  refused (with_ 3 (Bool true)) "Walker.Table.intern: variable z is declared real, not bool (true)";
  refused [| Value.Int 0 |] "Walker.Table.intern: the state does not fit the network";
  Alcotest.(check int) "states" 0 (Walker.Table.length table);
  Alcotest.(check int) "well typed" 0 (Walker.Table.intern table (state ok) ~parent:(-1))

(* The stable states of sensor/filter n = 6, interned from the walker's
   scratch, as the CTMC explorer interns them (roots at time 0): what
   the table keeps of them is bounded per state.  Packed keys in chunks
   take 14.6 words a state (the bound rounds that up), ~9.5 of them the
   keys, ~1.3 the spans and ~4 the open-addressing slots, which keep
   bits of each hash; with a hash stored per state beside them the table
   took 15.8, with a parent and a time stored for every state 18.3,
   grown by doubling 20.9, and a hash table of boxed states ~90. *)
let test_table_retention () =
  let net = Fixture.load (Slimsim_models.Sensor_filter.source ~n:6) in
  let w = Walker.create ~budget:max_int net in
  let table = Walker.Table.create net in
  let close () =
    Walker.close w ~on_cycle:ignore (fun _ () -> ignore (Walker.Table.add table w ~parent:(-1))) ()
  in
  Walker.reset w;
  close ();
  let rec expand () =
    match Walker.Table.next table with
    | None -> ()
    | Some i ->
      Walker.Table.load table i w;
      Walker.fold_rates w (fun _ () -> close ()) ();
      expand ()
  in
  expand ();
  let n = Walker.Table.length table in
  Alcotest.(check int) "stable states" 4159 n;
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr table) in
  if words > 15 * n then
    Alcotest.failf "the table retains %d words for %d states (%.1f a state, at most 15)" words
      n
      (float_of_int words /. float_of_int n)

(* The chain keeps each transition as an int target and an unboxed
   rate: on sensor/filter n = 6 it retains ~3 words per transition, the
   labels and the per-state row headers included.  Rows of
   (int * float) tuples with boxed rates retained ~6.7. *)
let test_chain_retention () =
  let n = 6 in
  let net = Fixture.load (Slimsim_models.Sensor_filter.source ~n) in
  let goal = Fixture.goal net (Slimsim_models.Sensor_filter.goal_all_failed ~n) in
  let c, _ = Slimsim_ctmc.Explorer.explore net ~goal in
  let transitions = Slimsim_ctmc.Ctmc.n_transitions c in
  Alcotest.(check int) "row entries" 24705 transitions;
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr c) in
  if words > 4 * transitions then
    Alcotest.failf "the chain retains %d words for %d transitions (%.2f a transition, at most 4)"
      words transitions
      (float_of_int words /. float_of_int transitions)

let scratch_state net w =
  {
    State.locs = Array.init (Array.length net.Network.procs) (Walker.loc w);
    vals = Array.init (Array.length net.vars) (Walker.value w);
    time = Walker.time w;
  }

(* [Table.add] patches a successor's key and hash from the state last
   loaded; [Table.intern] packs the same state afresh.  From random
   loaded states, every successor and every state the immediate closure
   reaches must get from [intern] the number [add] gave it (so the two
   keys and hashes are equal), and the numbers a table of full packs
   alone gives them. *)
let test_patched_keys =
  let shapes = lazy (Array.of_list (models () @ [ ("wide values", wide_network ()) ])) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"patched key = full pack"
       QCheck2.Gen.(pair nat (list_size (int_range 1 40) nat))
       (fun (m, picks) ->
         let shapes = Lazy.force shapes in
         let name, net = shapes.(m mod Array.length shapes) in
         let w = Walker.create ~budget:max_int net in
         let table = Walker.Table.create net and packed = Walker.Table.create net in
         let check what =
           let i = Walker.Table.add table w ~parent:(-1) in
           let s = scratch_state net w in
           let j = Walker.Table.intern table s ~parent:(-1) in
           let k = Walker.Table.intern packed s ~parent:(-1) in
           if i <> j || i <> k then
             QCheck2.Test.fail_reportf "%s, %s %s: added as %d, interned as %d, packed as %d" name
               what (print_state s) i j k
         in
         Walker.reset w;
         check "initial state";
         List.iter
           (fun p ->
             Walker.Table.load table (p mod Walker.Table.length table) w;
             Walker.fold_successors w (fun () -> check "successor") ();
             Walker.fold_rates w
               (fun _ () -> Walker.close w ~on_cycle:ignore (fun _ () -> check "closure leaf") ())
               ())
           picks;
         true))

let suite =
  [
    Alcotest.test_case "walker = interpreter" `Quick test_walker_matches_interpreter;
    Alcotest.test_case "cycle policy and budget" `Quick test_cycle_and_budget;
    Alcotest.test_case "safety budgets and messages" `Quick test_budgets;
    test_table_property;
    Alcotest.test_case "table chunk boundaries" `Quick test_table_chunks;
    Alcotest.test_case "intern refuses a mistyped state" `Quick test_table_mistyped;
    Alcotest.test_case "table retention per state" `Quick test_table_retention;
    Alcotest.test_case "chain retention per transition" `Quick test_chain_retention;
    test_patched_keys;
  ]
