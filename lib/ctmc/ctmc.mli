(** Continuous-time Markov chains with Boolean goal labelling — the
    output of the explicit-state baseline pipeline (§IV), standing in
    for the NuSMV → Sigref → MRMC tool-chain.

    The initial condition is a distribution: eliminating immediate
    (interactive) transitions from the initial state can split the
    probability mass over several stable states.

    Rows are stored unboxed (DESIGN.md, "CTMC rows"): state [s] has an
    exact-size pair [targets.(s)] / [rates.(s)], sorted by target with
    one entry per target.  An entry costs two words, not a tuple and a
    boxed float. *)

type t = {
  n_states : int;
  initial : (int * float) array;  (** initial distribution *)
  targets : int array array;
      (** [targets.(s)] are the targets of state [s]'s outgoing rates,
          strictly increasing *)
  rates : Float.Array.t array;
      (** [rates.(s)] are the rates, entry by entry of [targets.(s)];
          each is finite and positive *)
  goal : bool array;
  bad : bool array;
      (** "hold violated" states for bounded-until properties: absorbing
          failures in the transient analysis; all-false for plain
          reachability *)
}

val merge_row : (int * float) array -> (int * float) array
(** One entry per target, sorted by target: the rates of a target add up
    in row order, each as [r +. sum].  A row already sorted with distinct
    targets is returned as it is.  The reference for
    {!Row_buffer.merge}. *)

(** A reusable row under construction: a growable [int] array of
    targets beside a [Float.Array.t] of rates, so that pushing an entry
    allocates nothing once the buffer has grown to its largest row. *)
module Row_buffer : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val push : t -> int -> float -> unit

  val length : t -> int
  (** The number of entries. *)

  val to_list : t -> (int * float) list
  (** The entries as [(target, rate)] pairs, in order. *)

  val equal_slices : t -> int -> t -> int -> int -> bool
  (** [equal_slices a i b j len]: entries [i] to [i + len - 1] of [a]
      have the targets and rates of entries [j] to [j + len - 1] of
      [b]. *)

  val hash_slice : t -> seed:int -> int -> int -> int
  (** [hash_slice b ~seed i len] hashes [seed] and entries [i] to
      [i + len - 1] of [b], so that slices [equal_slices] finds equal
      hash equally when their rates are positive (as a chain's are). *)

  val append : t -> t -> unit
  (** [append dst src] pushes [src]'s entries onto [dst]. *)

  val append_scaled : t -> t -> float array -> int -> unit
  (** [append_scaled dst src rates m] pushes [src]'s entries onto [dst],
      each rate [r] as [rates.(m) *. r]: the factor is read in place, so
      it is never boxed. *)

  val load : t -> map:int array -> int array -> Float.Array.t -> unit
  (** [load b ~map targets rates] makes [b] the row [(targets, rates)]
      with each target [t] replaced by [map.(t)]. *)

  val reverse : t -> unit
  (** Reverse the entries' order. *)

  val merge : t -> unit
  (** {!merge_row} in place, bit for bit: a stable merge sort by target
      (runs of 8 sorted by insertion), then each run of equal targets
      summed in order as [r +. sum].  The sort's second half of the
      buffer is allocated by the first merge of more than 8 entries and
      kept. *)

  val targets : t -> int array
  (** An exact-size copy of the targets. *)

  val rates : t -> Float.Array.t
  (** An exact-size copy of the rates. *)
end

val of_rows :
  initial:(int * float) list -> rows:(int * float) array array -> goal:bool array -> t
(** The chain with [Array.length rows] states and each row passed
    through {!merge_row}.  Validates indices, that every rate is finite
    and positive (of every entry, before merging), the goal length, and
    that the initial probabilities are finite, non-negative and sum to 1
    (within 1e-9).  The [bad] labelling starts out all-false; see
    {!with_bad}. *)

val make :
  n_states:int ->
  initial:(int * float) list ->
  transitions:(int * int * float) list ->
  goal:bool array ->
  t
(** {!of_rows} on the transitions grouped by source, each row in the
    reverse of the list's order, so parallel edges ([s -> t] rates) add
    up from the last one listed. *)

val of_arrays :
  initial:(int * float) list ->
  targets:int array array ->
  rates:Float.Array.t array ->
  goal:bool array ->
  t
(** The chain over rows already merged, taken as they are: validated as
    {!of_rows} validates, and each row must be strictly increasing in
    its targets. *)

val with_bad : t -> bool array -> t
(** Attach a "hold violated" labelling (for bounded-until analysis). *)

val row : t -> int -> (int * float) array
(** State [s]'s entries as [(target, rate)] pairs, freshly allocated. *)

val exit_rate : t -> int -> float
(** The sum of a row's rates, in row order. *)

val max_exit_rate : t -> float
val n_transitions : t -> int

(** The uniformised DTMC [P = I + R/q] restricted to the states marked
    live, renumbered in state order.  Row [i] is the entries [first.(i)]
    to [first.(i + 1) - 1] of [col] (live state numbers) and [prob]: the
    self-loop [1 - out/q] first when positive, then the row's entries
    into live states, in row order.  Entries beyond [first.(n_live)] are
    unused.  The probability of moving into a goal state that is not
    live is summed into [into_goal]; the rest, into states neither live
    nor goal, is dropped.  With every state live, rows sum to 1 when [q]
    is at least {!max_exit_rate}. *)
type uniformized = {
  index : int array;  (** a state's live number, -1 if it is not live *)
  first : int array;
  col : int array;
  prob : Float.Array.t;
  into_goal : float array;
}

val uniformized_dtmc : t -> q:float -> live:bool array -> uniformized

val pp_summary : Format.formatter -> t -> unit
