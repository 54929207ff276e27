(** Coverage of the Chow–Robbins E[cost] interval on the priced
    M/M/1/K queue ([examples/models/mm1k_priced.slim]): independent
    campaigns of the query {!query}, each at its own seed, counting the
    intervals that miss {!reference}.  A correct interval at
    confidence [1 - delta] misses with probability at most about
    [delta], so the miss count of [k] campaigns should stay within the
    upper tail of Binomial([k], [delta]). *)

val query : string
(** [E[w ; <> [0,100] served = 5]], the benchmark's query. *)

val eps : float
(** The half-width each campaign stops at: 0.3. *)

val reference : float
(** 10.175: the estimate of 23 M paths at [eps = 0.004]
    (bench_e2e/README.md). *)

val misses : Slimsim.model -> campaigns:int -> delta:float -> (int, string) result
(** The number of seeds [1 .. campaigns] whose campaign, run as
    [slimsim simulate --query query -g chow-robbins -d delta -e eps
    --seed s] runs it, reports an interval without {!reference}. *)

val max_misses : campaigns:int -> delta:float -> int
(** The most misses a check of [campaigns] campaigns at [delta] allows:
    one below the least [m] with [P(X > m) <= 0.1 %] for
    [X ~ Binomial(campaigns, delta)], so a count fails once it reaches
    that tail.  The bound's own tail
    is a little above 0.1 %: [P(X > 33) = 0.15 %] at 200 campaigns and
    [delta = 0.1], [P(X > 72) = 0.1006 %] at 1,000 and [0.05]. *)
