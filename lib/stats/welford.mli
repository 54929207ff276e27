(** Welford's online mean/variance, for real-valued (weighted) samples
    where the Bernoulli machinery does not apply — e.g. the likelihood
    ratios of importance sampling. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val state : t -> int * float * float
(** [(n, mean, m2)] — the full accumulator state. *)

val restore : n:int -> mean:float -> m2:float -> t
(** Rebuild an accumulator from persisted state.  Raises
    [Invalid_argument] on negative [n] or [m2]. *)

val to_string : t -> string
(** Serialize the full state with hex floats ([%h]), so
    [of_string (to_string t)] restores the accumulator bit-identically
    (checkpoint/resume of weighted campaigns). *)

val of_string : string -> (t, string) result

val half_width : t -> delta:float -> float
(** CLT half-width [z_{1-delta/2}·stddev/sqrt n]; [infinity] with no
    samples.  The single home of the z-quantile logic for CLT intervals
    on real-valued samples. *)

val half_width_z : t -> z:float -> float
(** [half_width] with the quantile [z] given: for a stopping rule that
    tests the interval after every sample, with the [z] of its
    generator ({!Generator.z}); the same float operations, so the same
    half-width bit for bit. *)

val confidence_interval : t -> delta:float -> float * float
(** CLT interval [mean ± half_width]. *)
