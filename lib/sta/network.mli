(** A complete specification: a network of processes communicating by
    CSP-style multiway synchronization on a shared alphabet of events,
    over a global variable valuation, with data flows (data-port
    connections) and mode-dependent process activation (dynamic
    reconfiguration). *)

type var_kind =
  | Discrete  (** bool / int / real data; constant under delay *)
  | Clock  (** real-valued, default derivative 1 *)
  | Continuous  (** real-valued, default derivative 0, set per location *)

type var_info = {
  var_name : string;  (** fully qualified, e.g. ["sys.gps.fix"] *)
  kind : var_kind;
  init : Value.t;  (** its constructor is the variable's declared type *)
  owner : int option;  (** owning process; its activation freezes flow *)
}

type flow = { target : int; expr : Expr.t }
(** A data-port connection: after every discrete step, [target] is
    recomputed from [expr].  Flows are stored in dependency order. *)

type reactivation = Restart | Resume

type proc_meta = {
  active_when : Expr.t;
      (** activation condition over parent locations; [Expr.true_] for
          always-active processes *)
  reactivation : reactivation;
  owned_vars : int list;  (** variables reset when the process restarts *)
}

type t = private {
  procs : Automaton.t array;
  meta : proc_meta array;
  vars : var_info array;
  events : string array;
  flows : flow array;
  participants : int list array;
      (** for each event, the processes with it in their alphabet *)
}

exception Invalid_network of string

val make :
  procs:(Automaton.t * proc_meta) list ->
  vars:var_info array ->
  events:string array ->
  flows:flow list ->
  t
(** Validates: variable/event indices in range, flow targets written at
    most once, flow dependencies acyclic (flows are re-sorted into
    dependency order), and the declared types: a clock or a continuous
    variable starts at a [Real], only a [Real] variable has a
    derivative, every update and flow has its target's type
    ([Expr.static_type]), and every if-then-else has branches of one
    type.  Guards, invariants and activation conditions may be
    ill-typed; they raise [Value.Type_error] when evaluated.  Raises
    [Invalid_network], naming the variable and the types. *)

val default_meta : proc_meta

val var_type : t -> int -> Value.ty
(** A variable's declared type: its initial value's. *)

val n_procs : t -> int
val n_vars : t -> int
val n_events : t -> int

val event_participants : t -> int -> int list
(** The processes with the given event in their alphabet (the event's
    synchronization group). *)

val find_var : t -> string -> int option
val find_proc : t -> string -> int option
val find_loc : t -> proc:int -> string -> int option

val var_name : t -> int -> string
val event_name : t -> int -> string
val proc_name : t -> int -> string
val loc_name : t -> proc:int -> int -> string

val pp_summary : Format.formatter -> t -> unit
