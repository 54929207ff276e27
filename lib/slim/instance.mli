(** Instantiation: unfold the root implementation into a tree of
    component instances (the COMPASS "model instance" of §III-A).
    Recursion has already been excluded by {!Sema.analyze}, so the
    unfolding terminates. *)

type t = {
  path : string list;  (** [] for the root *)
  ci : Ast.comp_impl;
  ct : Ast.comp_type;
  in_modes : string list;  (** activation modes within the parent *)
  restart : bool;  (** restart (vs resume) on reactivation *)
  subs : (string * t) list;
}

val build : Sema.tables -> (t, string) result

val find : t -> string list -> t option
(** Look an instance up by path relative to the root. *)

val iter : (t -> unit) -> t -> unit
(** Pre-order traversal. *)

val count : t -> int
