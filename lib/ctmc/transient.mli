(** Time-bounded reachability on a CTMC by uniformization with Poisson
    truncation — the MRMC role in the paper's baseline pipeline.

    [P(<> [0,u] goal)] is computed by making goal and bad states
    absorbing and accumulating the Poisson-weighted probability mass in
    goal states of the uniformized DTMC.  A backward-reachability pass
    also absorbs, and drops, every state that cannot reach a goal without
    passing a bad state.  The mass left in the remaining (live) states is
    the undecided mass: every later goal mass lies between the current
    one and the current one plus the undecided mass, so the loop stops as
    soon as the undecided mass is at most [precision/2] and charges the
    current goal mass to the rest of the Poisson window.  Otherwise it
    runs to the right truncation point.

    Error contract: the result lies in [\[0, 1\]] and within [precision]
    of the exact probability (up to floating-point rounding): at most
    [precision/2] from the two Poisson tails and at most [precision/2]
    from stopping early. *)

type result = {
  probability : float;
  steps : int;  (** uniformisation steps (vector-matrix products) run *)
  steady_state : bool;
      (** the undecided mass fell to [precision/2] and the loop stopped
          before the right truncation point *)
}

val reach : ?precision:float -> Ctmc.t -> horizon:float -> result
(** [precision] defaults to 1e-10 and must be positive.  A zero or
    negative horizon returns the initial goal mass after zero steps. *)

val reach_probability : ?precision:float -> Ctmc.t -> horizon:float -> float
(** [(reach ?precision c ~horizon).probability]. *)

val poisson_weights : lambda:float -> epsilon:float -> int * float array
(** [(left, w)]: the Poisson(lambda) pmf, for [lambda >= 0], on the window
    [left .. left + Array.length w - 1], where each tail outside the
    window has mass at most [epsilon/2].  The weights are anchored at the
    mode, whose pmf is computed in closed form by Stirling's series,
    obtained outward by the exact ratios of neighbouring weights, and
    normalised to sum to 1 over the window.  Exposed for testing. *)

val window_floor : lambda:float -> epsilon:float -> float
(** A step count below the left point of
    [poisson_weights ~lambda ~epsilon], from the Chernoff bound on the
    Poisson lower tail: {!reach} walks the window only once its loop
    gets there, so a horizon far past the chain's settling (even [1e300],
    or an infinite one, whose floor is [infinity]) costs nothing.  Exposed
    for testing. *)
