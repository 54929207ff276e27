type t = Bool of bool | Int of int | Real of float
type ty = Tbool | Tint | Treal

let type_of = function Bool _ -> Tbool | Int _ -> Tint | Real _ -> Treal
let type_name = function Tbool -> "bool" | Tint -> "int" | Treal -> "real"

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let equal v1 v2 =
  match v1, v2 with
  | Bool b1, Bool b2 -> b1 = b2
  | Int n1, Int n2 -> n1 = n2
  | Real x1, Real x2 -> x1 = x2
  | Int n, Real x | Real x, Int n -> float_of_int n = x
  | Bool _, _ | _, Bool _ -> false

let as_bool = function
  | Bool b -> b
  | v -> type_error "expected a Boolean, got %s" (match v with Int _ -> "an integer" | Real _ -> "a real" | Bool _ -> assert false)

let as_float = function
  | Int n -> float_of_int n
  | Real x -> x
  | Bool _ -> type_error "expected a number, got a Boolean"

let is_numeric = function Int _ | Real _ -> true | Bool _ -> false

let compare_num v1 v2 =
  match v1, v2 with
  | Int n1, Int n2 -> compare n1 n2
  | _ -> compare (as_float v1) (as_float v2)

let arith name int_op float_op v1 v2 =
  match v1, v2 with
  | Int n1, Int n2 -> Int (int_op n1 n2)
  | (Int _ | Real _), (Int _ | Real _) -> Real (float_op (as_float v1) (as_float v2))
  | Bool _, _ | _, Bool _ -> type_error "%s applied to a Boolean" name

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

let div v1 v2 =
  match v1, v2 with
  | Int _, Int 0 -> type_error "integer division by zero"
  | Int n1, Int n2 -> Int (n1 / n2)
  | (Int _ | Real _), (Int _ | Real _) ->
    let d = as_float v2 in
    if d = 0.0 then type_error "division by zero" else Real (as_float v1 /. d)
  | Bool _, _ | _, Bool _ -> type_error "/ applied to a Boolean"

let modulo v1 v2 =
  match v1, v2 with
  | Int _, Int 0 -> type_error "modulo by zero"
  | Int n1, Int n2 -> Int (n1 mod n2)
  | _ -> type_error "mod requires integer operands"

let neg = function
  | Int n -> Int (-n)
  | Real x -> Real (-.x)
  | Bool _ -> type_error "negation applied to a Boolean"

(* An [Int] and a [Real] give a [Real], as the other arithmetic does. *)
let pick v1 v2 first =
  let v = if first then v1 else v2 in
  match v1, v2 with Int _, Real _ | Real _, Int _ -> Real (as_float v) | _ -> v

let min_v v1 v2 = pick v1 v2 (compare_num v1 v2 <= 0)
let max_v v1 v2 = pick v1 v2 (compare_num v1 v2 >= 0)

let pp ppf = function
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Real x -> Fmt.pf ppf "%g" x

let to_string v = Fmt.str "%a" pp v
