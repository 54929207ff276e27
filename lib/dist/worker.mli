(** The worker half of a distributed campaign: the body of the
    [slimsim work] subcommand.

    A worker speaks {!Wire} frames over stdin/stdout: it receives the
    handshake (model source, property, strategy, seed, watchdog
    budgets — everything the verdict stream is a function of), loads
    and stages the model itself, then simulates granted path-id leases
    in order, streaming verdict batches and heartbeats back.  It holds
    no campaign state: the coordinator owns the statistical generator,
    so a worker can die at any instant and its replacement regenerates
    any lost range bit-identically from the per-path seeds.

    Exit codes: 0 shutdown or coordinator EOF, 1 internal crash, 2
    unusable handshake (version mismatch, unloadable model, bad
    property). *)

val run : unit -> int
(** Serve frames on stdin/stdout until shutdown; returns the exit
    code.  Writes nothing but frames to stdout. *)
