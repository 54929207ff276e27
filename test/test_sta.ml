(* Tests for the STA core: values, expressions, the linear-in-delay
   solver, automaton validation, and move enumeration on hand-built
   networks. *)

open Slimsim_sta
module I = Slimsim_intervals.Interval_set

let v_bool b = Value.Bool b
let v_int n = Value.Int n
let v_real x = Value.Real x

(* --- values --- *)

let test_value_arith () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.add (v_int 2) (v_int 3)) (v_int 5));
  Alcotest.(check bool) "mixed add promotes" true
    (Value.equal (Value.add (v_int 2) (v_real 0.5)) (v_real 2.5));
  Alcotest.(check bool) "int div truncates" true
    (Value.equal (Value.div (v_int 7) (v_int 2)) (v_int 3));
  Alcotest.(check bool) "real div" true
    (Value.equal (Value.div (v_real 7.0) (v_int 2)) (v_real 3.5));
  Alcotest.(check bool) "int = real comparison" true (Value.equal (v_int 3) (v_real 3.0));
  Alcotest.(check bool) "min" true (Value.equal (Value.min_v (v_int 3) (v_real 2.5)) (v_real 2.5));
  (try
     ignore (Value.add (v_bool true) (v_int 1));
     Alcotest.fail "bool arithmetic must raise"
   with Value.Type_error _ -> ());
  try
    ignore (Value.div (v_int 1) (v_int 0));
    Alcotest.fail "division by zero must raise"
  with Value.Type_error _ -> ()

(* --- expressions --- *)

let eval_const e = Expr.eval ~env:(fun _ -> assert false) ~at_loc:(fun _ _ -> false) e

let test_expr_eval () =
  let e =
    Expr.Binop (Expr.Add, Expr.int 2, Expr.Binop (Expr.Mul, Expr.int 3, Expr.int 4))
  in
  Alcotest.(check bool) "2+3*4" true (Value.equal (eval_const e) (v_int 14));
  let env v = [| v_int 5; v_real 1.5; v_bool true |].(v) in
  let at_loc p l = p = 0 && l = 2 in
  let eval e = Expr.eval ~env ~at_loc e in
  Alcotest.(check bool) "var lookup" true (Value.equal (eval (Expr.var 0)) (v_int 5));
  Alcotest.(check bool) "loc atom true" true
    (Value.equal (eval (Expr.Loc (0, 2))) (v_bool true));
  Alcotest.(check bool) "loc atom false" true
    (Value.equal (eval (Expr.Loc (1, 2))) (v_bool false));
  Alcotest.(check bool) "comparison promotes" true
    (Value.equal (eval (Expr.Binop (Expr.Lt, Expr.var 1, Expr.var 0))) (v_bool true));
  Alcotest.(check bool) "ite" true
    (Value.equal
       (eval (Expr.Ite (Expr.var 2, Expr.int 1, Expr.int 0)))
       (v_int 1));
  Alcotest.(check bool) "implies" true
    (Value.equal
       (eval (Expr.Binop (Expr.Implies, Expr.false_, Expr.false_)))
       (v_bool true))

let test_expr_helpers () =
  Alcotest.(check bool) "and_ unit" true (Expr.and_ Expr.true_ (Expr.var 0) = Expr.var 0);
  Alcotest.(check bool) "and_ absorbing" true
    (Expr.and_ Expr.false_ (Expr.var 0) = Expr.false_);
  Alcotest.(check bool) "or_ unit" true (Expr.or_ Expr.false_ (Expr.var 0) = Expr.var 0);
  Alcotest.(check bool) "not_ involution" true
    (Expr.not_ (Expr.not_ (Expr.var 3)) = Expr.var 3);
  Alcotest.(check (list int)) "free vars sorted"
    [ 0; 1; 4 ]
    (Expr.free_vars
       (Expr.Binop (Expr.Add, Expr.var 4, Expr.Binop (Expr.Mul, Expr.var 0, Expr.var 1))));
  let renamed = Expr.map_vars (fun v -> v + 10) (Expr.var 1) in
  Alcotest.(check bool) "map_vars" true (renamed = Expr.var 11);
  let substituted =
    Expr.subst (fun v -> if v = 1 then Some (Expr.int 9) else None) (Expr.var 1)
  in
  Alcotest.(check bool) "subst" true (substituted = Expr.int 9)

(* --- linear solver --- *)

(* variables: 0 = clock x (rate 1), 1 = continuous e (rate -2),
   2 = discrete n *)
let lin_env v = [| v_real 4.0; v_real 10.0; v_int 3 |].(v)
let lin_rate v = [| 1.0; -2.0; 0.0 |].(v)
let sat e = Linear.sat_set ~env:lin_env ~rate:lin_rate ~at_loc:(fun _ _ -> false) e

let set_testable = Alcotest.testable I.pp I.equal

let test_linear_atoms () =
  (* x + d >= 10  <=>  d >= 6 *)
  Alcotest.check set_testable "clock lower bound" (I.at_least 6.0)
    (sat (Expr.Binop (Expr.Ge, Expr.var 0, Expr.real 10.0)));
  (* x + d < 10  <=>  d < 6 *)
  Alcotest.check set_testable "clock strict upper" (I.less_than 6.0)
    (sat (Expr.Binop (Expr.Lt, Expr.var 0, Expr.real 10.0)));
  (* e - 2d <= 0  <=>  d >= 5 *)
  Alcotest.check set_testable "draining lower bound" (I.at_least 5.0)
    (sat (Expr.Binop (Expr.Le, Expr.var 1, Expr.real 0.0)));
  (* equality with drift is a point *)
  Alcotest.check set_testable "equality point" (I.point 5.0)
    (sat (Expr.Binop (Expr.Eq, Expr.var 1, Expr.real 0.0)));
  (* inequality with drift is the complement of a point *)
  Alcotest.check set_testable "disequality" (I.complement (I.point 5.0))
    (sat (Expr.Binop (Expr.Neq, Expr.var 1, Expr.real 0.0)));
  (* discrete atoms are delay-invariant *)
  Alcotest.check set_testable "discrete true" I.full
    (sat (Expr.Binop (Expr.Eq, Expr.var 2, Expr.int 3)));
  Alcotest.check set_testable "discrete false" I.empty
    (sat (Expr.Binop (Expr.Gt, Expr.var 2, Expr.int 3)))

let test_linear_boolean_structure () =
  (* 10 <= x <= 12  <=>  6 <= d <= 8 *)
  let g =
    Expr.and_
      (Expr.Binop (Expr.Ge, Expr.var 0, Expr.real 10.0))
      (Expr.Binop (Expr.Le, Expr.var 0, Expr.real 12.0))
  in
  Alcotest.check set_testable "conjunction window" (I.closed 6.0 8.0) (sat g);
  let disj =
    Expr.or_
      (Expr.Binop (Expr.Le, Expr.var 0, Expr.real 5.0))
      (Expr.Binop (Expr.Ge, Expr.var 0, Expr.real 10.0))
  in
  Alcotest.check set_testable "disjunction"
    (I.union (I.at_most 1.0) (I.at_least 6.0))
    (sat disj);
  Alcotest.check set_testable "negation" (I.greater_than 6.0)
    (sat (Expr.not_ (Expr.Binop (Expr.Le, Expr.var 0, Expr.real 10.0))));
  (* both sides drifting: x + d >= e - 2d  <=>  4 + d >= 10 - 2d  <=> d >= 2 *)
  Alcotest.check set_testable "two drifting sides" (I.at_least 2.0)
    (sat (Expr.Binop (Expr.Ge, Expr.var 0, Expr.var 1)))

let test_linear_arithmetic () =
  (* 2*x + 1 <= 11  <=>  2(4+d) <= 10  <=>  d <= 1 *)
  let lhs =
    Expr.Binop (Expr.Add, Expr.Binop (Expr.Mul, Expr.real 2.0, Expr.var 0), Expr.real 1.0)
  in
  Alcotest.check set_testable "affine arithmetic" (I.at_most 1.0)
    (sat (Expr.Binop (Expr.Le, lhs, Expr.real 11.0)));
  (* division by a constant *)
  Alcotest.check set_testable "division" (I.at_most 16.0)
    (sat
       (Expr.Binop
          (Expr.Le, Expr.Binop (Expr.Div, Expr.var 0, Expr.real 2.0), Expr.real 10.0)))

let test_linear_rejects_nonlinear () =
  let product = Expr.Binop (Expr.Mul, Expr.var 0, Expr.var 1) in
  (try
     ignore (sat (Expr.Binop (Expr.Le, product, Expr.real 1.0)));
     Alcotest.fail "product of drifting terms must raise"
   with Linear.Nonlinear _ -> ());
  try
    ignore
      (sat
         (Expr.Binop
            (Expr.Le, Expr.Binop (Expr.Div, Expr.real 1.0, Expr.var 0), Expr.real 1.0)));
    Alcotest.fail "division by drifting term must raise"
  with Linear.Nonlinear _ -> ()

let test_linear_constant_product_ok () =
  (* a drifting term times a constant-in-delay variable is fine *)
  let e = Expr.Binop (Expr.Mul, Expr.var 2, Expr.var 0) in
  (* 3 * (4 + d) >= 24  <=>  d >= 4 *)
  Alcotest.check set_testable "const * drifting" (I.at_least 4.0)
    (sat (Expr.Binop (Expr.Ge, e, Expr.real 24.0)))

(* --- automaton validation --- *)

let loc ?(invariant = Expr.true_) name = { Automaton.loc_name = name; invariant; derivs = [] }

let test_automaton_validation () =
  let mk transitions =
    Automaton.make ~name:"p"
      ~locations:[| loc "a"; loc "b" |]
      ~initial:0 ~transitions
  in
  (* fine: one rate transition *)
  ignore
    (mk
       [ { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Rate 1.0; updates = []; weight = 1.0 } ]);
  (* mixing internal guards and rates in one location is rejected *)
  (try
     ignore
       (mk
          [
            { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Rate 1.0; updates = []; weight = 1.0 };
            { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Guard Expr.true_; updates = []; weight = 1.0 };
          ]);
     Alcotest.fail "mixing must be rejected"
   with Automaton.Invalid_process _ -> ());
  (* event-labelled receptions may coexist with rates *)
  ignore
    (mk
       [
         { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Rate 1.0; updates = []; weight = 1.0 };
         { Automaton.src = 0; dst = 0; label = Automaton.Event 0; guard = Automaton.Guard Expr.true_; updates = []; weight = 1.0 };
       ]);
  (* a rate on a synchronizing label is rejected *)
  (try
     ignore
       (mk
          [ { Automaton.src = 0; dst = 1; label = Automaton.Event 0; guard = Automaton.Rate 1.0; updates = []; weight = 1.0 } ]);
     Alcotest.fail "rate on event label must be rejected"
   with Automaton.Invalid_process _ -> ());
  (* Markovian locations need a trivial invariant *)
  (try
     ignore
       (Automaton.make ~name:"p"
          ~locations:[| loc ~invariant:(Expr.Binop (Expr.Le, Expr.var 0, Expr.real 1.0)) "a"; loc "b" |]
          ~initial:0
          ~transitions:
            [ { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Rate 1.0; updates = []; weight = 1.0 } ]);
     Alcotest.fail "invariant on Markovian location must be rejected"
   with Automaton.Invalid_process _ -> ());
  (* non-positive rates rejected *)
  try
    ignore
      (mk
         [ { Automaton.src = 0; dst = 1; label = Automaton.Tau; guard = Automaton.Rate 0.0; updates = []; weight = 1.0 } ]);
    Alcotest.fail "zero rate must be rejected"
  with Automaton.Invalid_process _ -> ()

(* --- a hand-built two-process network with synchronization --- *)

(* Process A: l0 --(evt 0, guard x >= 2)--> l1, clock x (var 0), invariant x <= 5 in l0.
   Process B: m0 --(evt 0)--> m1; also m0 --(tau, y >= 4)--> m2 with clock y (var 1). *)
let sync_network () =
  let x = 0 and y = 1 in
  let ge v c = Expr.Binop (Expr.Ge, Expr.var v, Expr.real c) in
  let le v c = Expr.Binop (Expr.Le, Expr.var v, Expr.real c) in
  let proc_a =
    Automaton.make ~name:"a"
      ~locations:
        [| { Automaton.loc_name = "l0"; invariant = le x 5.0; derivs = [] };
           { Automaton.loc_name = "l1"; invariant = Expr.true_; derivs = [] } |]
      ~initial:0
      ~transitions:
        [ { Automaton.src = 0; dst = 1; label = Automaton.Event 0; guard = Automaton.Guard (ge x 2.0); updates = []; weight = 1.0 } ]
  in
  let proc_b =
    Automaton.make ~name:"b"
      ~locations:
        [| { Automaton.loc_name = "m0"; invariant = Expr.true_; derivs = [] };
           { Automaton.loc_name = "m1"; invariant = Expr.true_; derivs = [] };
           { Automaton.loc_name = "m2"; invariant = Expr.true_; derivs = [] } |]
      ~initial:0
      ~transitions:
        [
          { Automaton.src = 0; dst = 1; label = Automaton.Event 0; guard = Automaton.Guard Expr.true_; updates = []; weight = 1.0 };
          { Automaton.src = 0; dst = 2; label = Automaton.Tau; guard = Automaton.Guard (ge y 4.0); updates = [ (y, Expr.real 0.0) ]; weight = 1.0 };
        ]
  in
  Network.make
    ~procs:[ (proc_a, Network.default_meta); (proc_b, Network.default_meta) ]
    ~vars:
      [|
        { Network.var_name = "x"; kind = Network.Clock; init = Value.Real 0.0; owner = Some 0 };
        { Network.var_name = "y"; kind = Network.Clock; init = Value.Real 0.0; owner = Some 1 };
      |]
    ~events:[| "e" |] ~flows:[]

let test_network_lookup () =
  let net = sync_network () in
  Alcotest.(check int) "procs" 2 (Network.n_procs net);
  Alcotest.(check (option int)) "find_var" (Some 1) (Network.find_var net "y");
  Alcotest.(check (option int)) "find_proc" (Some 1) (Network.find_proc net "b");
  Alcotest.(check (option int)) "find_loc" (Some 2) (Network.find_loc net ~proc:1 "m2");
  Alcotest.(check (list int)) "participants of e" [ 0; 1 ]
    net.Network.participants.(0)

let test_moves_windows () =
  let net = sync_network () in
  let s = State.initial net in
  let inv = Moves_oracle.invariant_window net s in
  Alcotest.check set_testable "invariant window" (I.closed 0.0 5.0) inv;
  let moves = Moves_oracle.discrete net s in
  Alcotest.(check int) "two global moves" 2 (List.length moves);
  let find_sync =
    List.find_map
      (fun { Moves.move; window } ->
        match move with Moves.Sync _ -> Some window | Moves.Local _ -> None)
      moves
  and find_tau =
    List.find_map
      (fun { Moves.move; window } ->
        match move with Moves.Local _ -> Some window | Moves.Sync _ -> None)
      moves
  in
  (* sync needs a's guard (d >= 2) within the invariant (d <= 5) *)
  Alcotest.check set_testable "sync window" (I.closed 2.0 5.0)
    (Option.get find_sync);
  (* b's tau: y >= 4 within d <= 5 *)
  Alcotest.check set_testable "tau window" (I.closed 4.0 5.0) (Option.get find_tau)

let test_moves_apply_sync () =
  let net = sync_network () in
  let s = State.initial net in
  let moves = Moves_oracle.discrete net s in
  let sync =
    List.find_map
      (fun { Moves.move; _ } ->
        match move with Moves.Sync _ -> Some move | Moves.Local _ -> None)
      moves
    |> Option.get
  in
  let s' = Moves_oracle.apply net s ~delay:3.0 sync in
  Alcotest.(check int) "a moved" 1 s'.State.locs.(0);
  Alcotest.(check int) "b moved" 1 s'.State.locs.(1);
  Alcotest.(check (float 1e-9)) "time advanced" 3.0 s'.State.time;
  Alcotest.(check (float 1e-9)) "clock advanced" 3.0
    (Value.as_float s'.State.vals.(0))

let test_moves_apply_updates () =
  let net = sync_network () in
  let s = State.initial net in
  let s = Moves_oracle.advance net s 4.5 in
  let moves = Moves_oracle.discrete net s in
  (* after 4.5, the tau of b is enabled now *)
  let tau =
    List.find_map
      (fun { Moves.move; window } ->
        match move with
        | Moves.Local _ when I.mem 0.0 window -> Some move
        | _ -> None)
      moves
    |> Option.get
  in
  let s' = Moves_oracle.apply net s tau in
  Alcotest.(check int) "b at m2" 2 s'.State.locs.(1);
  Alcotest.(check (float 1e-9)) "y reset by update" 0.0
    (Value.as_float s'.State.vals.(1));
  Alcotest.(check (float 1e-9)) "x untouched" 4.5 (Value.as_float s'.State.vals.(0))

let test_enabled_after_filters () =
  let net = sync_network () in
  let s = State.initial net in
  let moves = Moves_oracle.discrete net s in
  Alcotest.(check int) "nothing enabled at 1.0" 0
    (List.length (Moves_oracle.enabled_after net s 1.0 moves));
  Alcotest.(check int) "sync enabled at 2.0" 1
    (List.length (Moves_oracle.enabled_after net s 2.0 moves));
  Alcotest.(check int) "both enabled at 4.5" 2
    (List.length (Moves_oracle.enabled_after net s 4.5 moves))

let test_state_restart () =
  let net = sync_network () in
  let s = Moves_oracle.advance net (State.initial net) 3.0 in
  let meta_owned = Moves_oracle.restart_proc net s 1 in
  (* proc 1 owns no vars in default_meta, location resets *)
  Alcotest.(check int) "location reset" 0 meta_owned.State.locs.(1)

let test_flow_cycle_rejected () =
  let vars =
    [|
      { Network.var_name = "u"; kind = Network.Discrete; init = Value.Int 0; owner = None };
      { Network.var_name = "v"; kind = Network.Discrete; init = Value.Int 0; owner = None };
    |]
  in
  let proc =
    Automaton.make ~name:"p"
      ~locations:[| loc "a" |]
      ~initial:0 ~transitions:[]
  in
  try
    ignore
      (Network.make
         ~procs:[ (proc, Network.default_meta) ]
         ~vars ~events:[||]
         ~flows:
           [ { Network.target = 0; expr = Expr.var 1 }; { Network.target = 1; expr = Expr.var 0 } ]);
    Alcotest.fail "flow cycle must be rejected"
  with Network.Invalid_network _ -> ()

let test_flow_ordering () =
  (* flows are applied in dependency order regardless of declaration order *)
  let vars =
    [|
      { Network.var_name = "a"; kind = Network.Discrete; init = Value.Int 1; owner = None };
      { Network.var_name = "b"; kind = Network.Discrete; init = Value.Int 0; owner = None };
      { Network.var_name = "c"; kind = Network.Discrete; init = Value.Int 0; owner = None };
    |]
  in
  let proc =
    Automaton.make ~name:"p" ~locations:[| loc "l" |] ~initial:0 ~transitions:[]
  in
  let net =
    Network.make
      ~procs:[ (proc, Network.default_meta) ]
      ~vars ~events:[||]
      ~flows:
        [
          (* declared consumer-first on purpose *)
          { Network.target = 2; expr = Expr.Binop (Expr.Add, Expr.var 1, Expr.int 1) };
          { Network.target = 1; expr = Expr.Binop (Expr.Add, Expr.var 0, Expr.int 1) };
        ]
  in
  let s = State.initial net in
  Alcotest.(check bool) "b = a+1" true (Value.equal s.State.vals.(1) (Value.Int 2));
  Alcotest.(check bool) "c = b+1" true (Value.equal s.State.vals.(2) (Value.Int 3))

let suite =
  [
    Alcotest.test_case "value arithmetic" `Quick test_value_arith;
    Alcotest.test_case "expr evaluation" `Quick test_expr_eval;
    Alcotest.test_case "expr helpers" `Quick test_expr_helpers;
    Alcotest.test_case "linear atoms" `Quick test_linear_atoms;
    Alcotest.test_case "linear boolean structure" `Quick test_linear_boolean_structure;
    Alcotest.test_case "linear arithmetic" `Quick test_linear_arithmetic;
    Alcotest.test_case "nonlinear rejected" `Quick test_linear_rejects_nonlinear;
    Alcotest.test_case "constant products allowed" `Quick test_linear_constant_product_ok;
    Alcotest.test_case "automaton validation" `Quick test_automaton_validation;
    Alcotest.test_case "network lookup" `Quick test_network_lookup;
    Alcotest.test_case "move windows" `Quick test_moves_windows;
    Alcotest.test_case "sync application" `Quick test_moves_apply_sync;
    Alcotest.test_case "update application" `Quick test_moves_apply_updates;
    Alcotest.test_case "enabled_after filter" `Quick test_enabled_after_filters;
    Alcotest.test_case "process restart" `Quick test_state_restart;
    Alcotest.test_case "flow cycle rejected" `Quick test_flow_cycle_rejected;
    Alcotest.test_case "flow dependency order" `Quick test_flow_ordering;
  ]
