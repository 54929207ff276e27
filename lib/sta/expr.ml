type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Implies
  | Eq | Neq | Lt | Le | Gt | Ge
  | Min | Max

type t =
  | Const of Value.t
  | Var of int
  | Loc of int * int
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t

let true_ = Const (Value.Bool true)
let false_ = Const (Value.Bool false)
let bool b = Const (Value.Bool b)
let int n = Const (Value.Int n)
let real x = Const (Value.Real x)
let var v = Var v

let and_ e1 e2 =
  match e1, e2 with
  | Const (Value.Bool true), e | e, Const (Value.Bool true) -> e
  | Const (Value.Bool false), _ | _, Const (Value.Bool false) -> false_
  | _ -> Binop (And, e1, e2)

let or_ e1 e2 =
  match e1, e2 with
  | Const (Value.Bool false), e | e, Const (Value.Bool false) -> e
  | Const (Value.Bool true), _ | _, Const (Value.Bool true) -> true_
  | _ -> Binop (Or, e1, e2)

let not_ = function
  | Const (Value.Bool b) -> bool (not b)
  | Unop (Not, e) -> e
  | e -> Unop (Not, e)

let rec eval ~env ~at_loc e =
  match e with
  | Const v -> v
  | Var v -> env v
  | Loc (p, l) -> Value.Bool (at_loc p l)
  | Unop (Neg, e1) -> Value.neg (eval ~env ~at_loc e1)
  | Unop (Not, e1) -> Value.Bool (not (Value.as_bool (eval ~env ~at_loc e1)))
  | Binop (And, e1, e2) ->
    (* Short-circuit: effects never occur in expressions, so this only
       avoids type errors in the unevaluated branch. *)
    Value.Bool
      (Value.as_bool (eval ~env ~at_loc e1) && Value.as_bool (eval ~env ~at_loc e2))
  | Binop (Or, e1, e2) ->
    Value.Bool
      (Value.as_bool (eval ~env ~at_loc e1) || Value.as_bool (eval ~env ~at_loc e2))
  | Binop (Implies, e1, e2) ->
    Value.Bool
      ((not (Value.as_bool (eval ~env ~at_loc e1)))
      || Value.as_bool (eval ~env ~at_loc e2))
  | Binop (op, e1, e2) -> (
    let v1 = eval ~env ~at_loc e1 and v2 = eval ~env ~at_loc e2 in
    match op with
    | Add -> Value.add v1 v2
    | Sub -> Value.sub v1 v2
    | Mul -> Value.mul v1 v2
    | Div -> Value.div v1 v2
    | Mod -> Value.modulo v1 v2
    | Min -> Value.min_v v1 v2
    | Max -> Value.max_v v1 v2
    | Eq -> Value.Bool (Value.equal v1 v2)
    | Neq -> Value.Bool (not (Value.equal v1 v2))
    | Lt -> Value.Bool (Value.compare_num v1 v2 < 0)
    | Le -> Value.Bool (Value.compare_num v1 v2 <= 0)
    | Gt -> Value.Bool (Value.compare_num v1 v2 > 0)
    | Ge -> Value.Bool (Value.compare_num v1 v2 >= 0)
    | And | Or | Implies -> assert false)
  | Ite (c, e1, e2) ->
    if Value.as_bool (eval ~env ~at_loc c) then eval ~env ~at_loc e1
    else eval ~env ~at_loc e2

let eval_bool ~env ~at_loc e = Value.as_bool (eval ~env ~at_loc e)

let rec static_type ty e : Value.ty option =
  match e with
  | Const v -> Some (Value.type_of v)
  | Var v -> ty v
  | Loc _ -> Some Tbool
  | Unop (Not, e1) -> if static_type ty e1 = Some Tbool then Some Tbool else None
  | Unop (Neg, e1) -> (
    match static_type ty e1 with Some (Tint | Treal) as t -> t | Some Tbool | None -> None)
  | Binop (op, e1, e2) -> (
    let t1 = static_type ty e1 and t2 = static_type ty e2 in
    match op, t1, t2 with
    | (And | Or | Implies | Eq | Neq), Some Tbool, Some Tbool -> Some Tbool
    | (Eq | Neq | Lt | Le | Gt | Ge), Some (Tint | Treal), Some (Tint | Treal) -> Some Tbool
    | (Add | Sub | Mul | Div | Mod | Min | Max), Some Tint, Some Tint -> Some Tint
    | (Add | Sub | Mul | Div | Min | Max), Some (Tint | Treal), Some (Tint | Treal) ->
      Some Treal
    | _ -> None)
  | Ite (c, e1, e2) -> (
    match static_type ty c, static_type ty e1, static_type ty e2 with
    | Some Tbool, (Some t1 as t), Some t2 when t1 = t2 -> t
    | _ -> None)

let free_vars e =
  let rec go acc = function
    | Const _ | Loc _ -> acc
    | Var v -> v :: acc
    | Unop (_, e1) -> go acc e1
    | Binop (_, e1, e2) -> go (go acc e1) e2
    | Ite (c, e1, e2) -> go (go (go acc c) e1) e2
  in
  List.sort_uniq compare (go [] e)

let rec map_vars f = function
  | Const _ as e -> e
  | Var v -> Var (f v)
  | Loc _ as e -> e
  | Unop (op, e1) -> Unop (op, map_vars f e1)
  | Binop (op, e1, e2) -> Binop (op, map_vars f e1, map_vars f e2)
  | Ite (c, e1, e2) -> Ite (map_vars f c, map_vars f e1, map_vars f e2)

let rec subst f = function
  | Const _ as e -> e
  | Var v as e -> ( match f v with Some e' -> e' | None -> e)
  | Loc _ as e -> e
  | Unop (op, e1) -> Unop (op, subst f e1)
  | Binop (op, e1, e2) -> Binop (op, subst f e1, subst f e2)
  | Ite (c, e1, e2) -> Ite (subst f c, subst f e1, subst f e2)

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "mod"
  | And -> "and" | Or -> "or" | Implies -> "=>"
  | Eq -> "=" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Min -> "min" | Max -> "max"

let rec pp ~names ppf = function
  | Const v -> Value.pp ppf v
  | Var v -> Fmt.string ppf (names v)
  | Loc (p, l) -> Fmt.pf ppf "@loc(%d,%d)" p l
  | Unop (Neg, e) -> Fmt.pf ppf "-(%a)" (pp ~names) e
  | Unop (Not, e) -> Fmt.pf ppf "not (%a)" (pp ~names) e
  | Binop ((Min | Max) as op, e1, e2) ->
    Fmt.pf ppf "%s(%a, %a)" (binop_symbol op) (pp ~names) e1 (pp ~names) e2
  | Binop (op, e1, e2) ->
    Fmt.pf ppf "(%a %s %a)" (pp ~names) e1 (binop_symbol op) (pp ~names) e2
  | Ite (c, e1, e2) ->
    Fmt.pf ppf "(if %a then %a else %a)" (pp ~names) c (pp ~names) e1
      (pp ~names) e2

let to_string ~names e = Fmt.str "%a" (pp ~names) e
