module I = Slimsim_intervals.Interval_set

exception Nonlinear of string

type lin = { a : float; b : float }

let nonlinear fmt = Format.kasprintf (fun s -> raise (Nonlinear s)) fmt

let const_lin x = { a = x; b = 0.0 }

(* A Boolean-valued or numeric-valued symbolic result. *)
type sval = Num of lin | Disc of Value.t

let promote = function
  | Num l -> l
  | Disc v -> const_lin (Value.as_float v)

(* Solve [a + b·d ⋈ 0]. *)
let solve_cmp (op : Expr.binop) { a; b } =
  let root () = -.a /. b in
  match op with
  | Lt ->
    if b = 0.0 then if a < 0.0 then I.full else I.empty
    else if b > 0.0 then I.less_than (root ())
    else I.greater_than (root ())
  | Le ->
    if b = 0.0 then if a <= 0.0 then I.full else I.empty
    else if b > 0.0 then I.at_most (root ())
    else I.at_least (root ())
  | Gt ->
    if b = 0.0 then if a > 0.0 then I.full else I.empty
    else if b > 0.0 then I.greater_than (root ())
    else I.less_than (root ())
  | Ge ->
    if b = 0.0 then if a >= 0.0 then I.full else I.empty
    else if b > 0.0 then I.at_least (root ())
    else I.at_most (root ())
  | Eq ->
    if b = 0.0 then if a = 0.0 then I.full else I.empty else I.point (root ())
  | Neq ->
    if b = 0.0 then if a <> 0.0 then I.full else I.empty
    else I.complement (I.point (root ()))
  | Add | Sub | Mul | Div | Mod | And | Or | Implies | Min | Max ->
    assert false

(* Operand evaluation is sequenced left-to-right throughout so that the
   first error raised on an ill-typed or nonlinear expression is
   well-defined — [Compiled] reproduces exactly this order. *)
let rec eval_sym ~env ~rate ~at_loc (e : Expr.t) : sval =
  match e with
  | Const v -> Disc v
  | Var v ->
    let r = rate v in
    if r = 0.0 then Disc (env v)
    else Num { a = Value.as_float (env v); b = r }
  | Loc (p, l) -> Disc (Value.Bool (at_loc p l))
  | Unop (Neg, e1) -> (
    match eval_sym ~env ~rate ~at_loc e1 with
    | Disc v -> Disc (Value.neg v)
    | Num { a; b } -> Num { a = -.a; b = -.b })
  | Unop (Not, _) | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _)
    ->
    (* Boolean in a numeric context is only reachable through an
       ill-typed operand; evaluate at d = 0 to produce the proper type
       error. *)
    Disc (Expr.eval ~env ~at_loc e)
  | Binop (Add, e1, e2) -> lift2 ~env ~rate ~at_loc ( +. ) Value.add e1 e2
  | Binop (Sub, e1, e2) -> lift2 ~env ~rate ~at_loc ( -. ) Value.sub e1 e2
  | Binop (Mul, e1, e2) -> (
    let s1 = eval_sym ~env ~rate ~at_loc e1 in
    let s2 = eval_sym ~env ~rate ~at_loc e2 in
    match s1, s2 with
    | Disc v1, Disc v2 -> Disc (Value.mul v1 v2)
    | Num l, Disc v | Disc v, Num l ->
      let c = Value.as_float v in
      Num { a = l.a *. c; b = l.b *. c }
    | Num l1, Num l2 ->
      if l1.b = 0.0 then Num { a = l1.a *. l2.a; b = l1.a *. l2.b }
      else if l2.b = 0.0 then Num { a = l1.a *. l2.a; b = l2.a *. l1.b }
      else nonlinear "product of two delay-dependent terms")
  | Binop (Div, e1, e2) -> (
    let s1 = eval_sym ~env ~rate ~at_loc e1 in
    let s2 = eval_sym ~env ~rate ~at_loc e2 in
    match s2 with
    | Disc v2 when not (Value.is_numeric v2) ->
      Disc (Value.div (Value.Real 0.0) v2) (* raises the type error *)
    | Disc v2 -> (
      let c = Value.as_float v2 in
      if c = 0.0 then raise (Value.Type_error "division by zero")
      else
        match s1 with
        | Disc v1 -> Disc (Value.div v1 v2)
        | Num l -> Num { a = l.a /. c; b = l.b /. c })
    | Num l2 ->
      if l2.b = 0.0 then
        eval_sym ~env ~rate ~at_loc (Expr.Binop (Div, e1, Expr.real l2.a))
      else nonlinear "division by a delay-dependent term")
  | Binop (Mod, e1, e2) -> (
    let s1 = eval_sym ~env ~rate ~at_loc e1 in
    let s2 = eval_sym ~env ~rate ~at_loc e2 in
    match s1, s2 with
    | Disc v1, Disc v2 -> Disc (Value.modulo v1 v2)
    | _ -> nonlinear "mod of a delay-dependent term")
  | Binop ((Min | Max) as op, e1, e2) -> (
    let s1 = eval_sym ~env ~rate ~at_loc e1 in
    let s2 = eval_sym ~env ~rate ~at_loc e2 in
    match s1, s2 with
    | Disc v1, Disc v2 ->
      Disc (if op = Min then Value.min_v v1 v2 else Value.max_v v1 v2)
    | _ -> nonlinear "min/max of a delay-dependent term")
  | Ite (c, e1, e2) -> (
    (* Usable in numeric context only when the condition does not depend
       on the delay. *)
    let cset = sat_set ~env ~rate ~at_loc c in
    if I.equal cset I.full then eval_sym ~env ~rate ~at_loc e1
    else if I.is_empty cset then eval_sym ~env ~rate ~at_loc e2
    else nonlinear "if-then-else condition depends on the delay")

and lift2 ~env ~rate ~at_loc fop vop e1 e2 =
  let s1 = eval_sym ~env ~rate ~at_loc e1 in
  let s2 = eval_sym ~env ~rate ~at_loc e2 in
  match s1, s2 with
  | Disc v1, Disc v2 -> Disc (vop v1 v2)
  | _ ->
    let l1 = promote s1 and l2 = promote s2 in
    Num { a = fop l1.a l2.a; b = fop l1.b l2.b }

and sat_set ~env ~rate ~at_loc (e : Expr.t) : I.t =
  match e with
  | Const v -> if Value.as_bool v then I.full else I.empty
  | Var _ | Loc _ ->
    (* Boolean variables and location predicates are delay-invariant. *)
    if Value.as_bool (Expr.eval ~env ~at_loc e) then I.full else I.empty
  | Unop (Not, e1) -> I.complement (sat_set ~env ~rate ~at_loc e1)
  | Unop (Neg, _) -> raise (Value.Type_error "numeric expression used as a guard")
  | Binop (And, e1, e2) ->
    let s1 = sat_set ~env ~rate ~at_loc e1 in
    let s2 = sat_set ~env ~rate ~at_loc e2 in
    I.inter s1 s2
  | Binop (Or, e1, e2) ->
    let s1 = sat_set ~env ~rate ~at_loc e1 in
    let s2 = sat_set ~env ~rate ~at_loc e2 in
    I.union s1 s2
  | Binop (Implies, e1, e2) ->
    let s1 = sat_set ~env ~rate ~at_loc e1 in
    let s2 = sat_set ~env ~rate ~at_loc e2 in
    I.union (I.complement s1) s2
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge) as op, e1, e2) -> (
    let s1 = eval_sym ~env ~rate ~at_loc e1 in
    let s2 = eval_sym ~env ~rate ~at_loc e2 in
    match s1, s2 with
    | Disc v1, Disc v2 ->
      let holds =
        match op with
        | Eq -> Value.equal v1 v2
        | Neq -> not (Value.equal v1 v2)
        | Lt -> Value.compare_num v1 v2 < 0
        | Le -> Value.compare_num v1 v2 <= 0
        | Gt -> Value.compare_num v1 v2 > 0
        | Ge -> Value.compare_num v1 v2 >= 0
        | _ -> assert false
      in
      if holds then I.full else I.empty
    | _ ->
      let l1 = promote s1 and l2 = promote s2 in
      solve_cmp op { a = l1.a -. l2.a; b = l1.b -. l2.b })
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) ->
    raise (Value.Type_error "numeric expression used as a guard")
  | Ite (c, e1, e2) ->
    let cset = sat_set ~env ~rate ~at_loc c in
    let s1 = sat_set ~env ~rate ~at_loc e1 in
    let s2 = sat_set ~env ~rate ~at_loc e2 in
    I.union (I.inter cset s1) (I.inter (I.complement cset) s2)
