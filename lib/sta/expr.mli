(** Expressions over network variables, used for guards, invariants,
    effects, data flows and property goals.

    Variables are indices into the network-wide valuation.  The [Loc]
    atom ("process p is in location l") never occurs in guards produced
    by translation — a process can just test its own mode structurally —
    but is needed for property goals and activation conditions. *)

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Implies
  | Eq | Neq | Lt | Le | Gt | Ge
  | Min | Max

type t =
  | Const of Value.t
  | Var of int
  | Loc of int * int  (** [Loc (proc, loc)]: process [proc] is at [loc] *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t

val true_ : t
val false_ : t
val bool : bool -> t
val int : int -> t
val real : float -> t
val var : int -> t

val and_ : t -> t -> t
(** Conjunction with constant folding ([true_] is the unit). *)

val or_ : t -> t -> t
val not_ : t -> t

val eval : env:(int -> Value.t) -> at_loc:(int -> int -> bool) -> t -> Value.t
(** Evaluate under a valuation [env] and location predicate [at_loc].
    Raises [Value.Type_error] on ill-typed operands. *)

val eval_bool : env:(int -> Value.t) -> at_loc:(int -> int -> bool) -> t -> bool

val static_type : (int -> Value.ty option) -> t -> Value.ty option
(** The type of every value [eval] can give, when the variables hold
    values of the types [ty] gives: [Some t] when every operator of the
    expression meets operands of its types ([Int] with [Real] giving
    [Real], both branches of an if-then-else of one type), [None]
    otherwise.  A well-typed expression raises only a zero divisor's
    [Value.Type_error]. *)

val free_vars : t -> int list
(** Sorted, de-duplicated variable indices read by the expression. *)

val map_vars : (int -> int) -> t -> t
(** Renumber variables (used when splicing expressions between index
    spaces). *)

val subst : (int -> t option) -> t -> t
(** Replace [Var v] by the image expression when defined. *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
val to_string : names:(int -> string) -> t -> string
