(** Runtime values of SLIM data components: Booleans, (bounded) integers
    and reals.  Clocks and continuous variables hold [Real] values. *)

type t = Bool of bool | Int of int | Real of float

type ty = Tbool | Tint | Treal
(** A value's type: its constructor.  A variable's declared type is
    that of its initial value. *)

val type_of : t -> ty
val type_name : ty -> string
(** ["bool"], ["int"] or ["real"]. *)

exception Type_error of string

val equal : t -> t -> bool
val compare_num : t -> t -> int
(** Numeric comparison with [Int]/[Real] promotion; [Type_error] on
    Booleans mixed with numbers. *)

val as_bool : t -> bool
val as_float : t -> float
(** Numeric coercion: [Int n -> float n]; [Type_error] on [Bool]. *)

val is_numeric : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic with promotion; [Int / Int] is integer division (SLIM
    integer semantics); [Type_error] on Booleans. *)

val modulo : t -> t -> t
val neg : t -> t
val min_v : t -> t -> t
val max_v : t -> t -> t
(** The lesser (greater) operand, by [compare_num]; an [Int] and a
    [Real] give a [Real]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
